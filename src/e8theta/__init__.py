"""Exact q-series toolkit for theta functions, the E8 lattice and
equivariant index series of circle actions with isolated fixed points."""

from .bundles import BundleExpr, order_one_twist
from .e8 import (
    BasicCharacter,
    ShellTable,
    basic_character,
    check_identity_116,
    e8_roots,
    enumerate_shells,
    theta_e8,
)
from .errors import (
    BeyondTruncationError,
    ExponentLatticeError,
    FixtureFormatError,
    NotInvertibleError,
    RingMismatchError,
)
from .fixtures import (
    FixedPoint,
    FixedPointFixture,
    IndexFlavor,
    load_fixture,
    resolve_fixture,
    save_fixture,
)
from .gaussian import GaussianRational
from .index import (
    AnomalyResult,
    IndexSeries,
    anomaly,
    check_rigidity,
    check_transform_laws,
    classify,
    evaluate_at_identity,
    index_series,
    index_value,
    lefschetz_number,
    verify_qexpansion,
)
from .laurent import LaurentPolynomial
from .ratfunc import RationalFunction
from .report import ReportItem, VerificationReport
from .series import TruncatedSeries, format_series, phi_series
from .theta import (
    ThetaKind,
    check_lattice_transform,
    check_modular_transform,
    jacobi_identity_residual,
    theta_eval,
    theta_prime_zero,
    theta_prime_zero_series,
    theta_product,
    theta_series,
    theta_sum_series,
)

__version__ = "0.1.0"
