"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here.  Exact checks compare stored coefficients;
numeric checks use the stated residual bounds.  The expectations for the
bundled projective-plane fixture are asserted as stated even though the
computed behavior differs; the companion regression in test_index.py locks
what the series actually does, and the discrepancy is documented there.
"""

import random
import time

from conftest import random_fixture, shell_counts, theta_product_form_series, theta_sum_series

from e8theta.e8 import basic_character, check_identity_116, enumerate_shells, theta_product_side
from e8theta.fixtures import FixedPoint, FixedPointFixture, IndexFlavor, resolve_fixture
from e8theta.index import (
    anomaly,
    check_rigidity,
    check_transform_laws,
    evaluate_at_identity,
    index_series,
    verify_qexpansion,
)
from e8theta.theta import (
    ThetaKind,
    check_lattice_transform,
    check_modular_transform,
    jacobi_identity_residual,
    theta_series,
)

_TIMES: dict[str, float] = {}


def _criterion(tag: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"[ACCEPTANCE {tag}] {status}{suffix}")
    assert ok, f"criterion {tag} failed{suffix}"


def _timed(tag: str):
    start = time.monotonic()

    def done():
        _TIMES[tag] = time.monotonic() - start
        return _TIMES[tag]

    return done


def test_criterion_1_shell_counts():
    done = _timed("1")
    table = enumerate_shells(3)
    counts = shell_counts(table)
    rhs = theta_product_side((0,) * 8, 3)
    theta_counts = [rhs.q_coefficient(m).constant_value().as_integer() for m in range(4)]
    elapsed = done()
    ok = counts == [1, 240, 2160, 6720] == theta_counts and elapsed < 10
    _criterion("1", ok, f"shells {counts}, theta side {theta_counts}, {elapsed:.2f}s")


def test_criterion_2_four_product_identity():
    done = _timed("2")
    rng = random.Random(116)
    ok = True
    for _ in range(20):
        beta = tuple(rng.randint(-3, 3) for _ in range(8))
        ok = ok and check_identity_116(beta, 3).ok
    for beta in ((0,) * 8, (1, 0, 0, 0, 0, 0, 0, 0)):
        ok = ok and check_identity_116(beta, 5).ok
    elapsed = done()
    ok = ok and elapsed < 60
    _criterion("2", ok, f"20 random specializations at q^3, two pinned at q^5, {elapsed:.1f}s")


def test_criterion_3_graded_dimensions():
    dims = basic_character((0,) * 8, 3).graded_dims
    _criterion("3", dims == [1, 248, 4124, 34752], f"graded dims {dims}")


def test_criterion_4_theta_self_consistency():
    forms_ok = all(
        theta_series(kind, 12) == theta_sum_series(kind, 12) == theta_product_form_series(kind, 12)
        for kind in ThetaKind
    )
    jacobi_ok = all(
        jacobi_identity_residual(tau) < 1e-10
        for tau in (1.3j, 0.8j, 0.2 + 1.1j, -0.4 + 0.9j, 2.0j)
    )
    laws_ok = True
    for kind in ThetaKind:
        for z, tau in ((0.2, 1.1j), (0.3 + 0.1j, 0.4 + 1.2j)):
            laws_ok = laws_ok and check_modular_transform(kind, z, tau, tol=1e-9).ok
            for a, b in ((1, 0), (0, 1), (2, 1)):
                laws_ok = laws_ok and check_lattice_transform(kind, z, tau, a, b, tol=1e-9).ok
    ok = forms_ok and jacobi_ok and laws_ok
    _criterion(
        "4",
        ok,
        f"product=sum through q^12: {forms_ok}, Jacobi<1e-10: {jacobi_ok}, laws<1e-9: {laws_ok}",
    )


def test_criterion_5_qexpansion_cross_check():
    rng = random.Random(204)
    ok = True
    for _ in range(10):
        fx = random_fixture(rng, max_k=3)
        for flavor in IndexFlavor:
            report = verify_qexpansion(fx, flavor)
            ok = ok and report.ok
    _criterion("5", ok, "q^0/q^1 vs Lefschetz numbers, both towers, 10 random fixtures")


def test_criterion_6_summandwise_modularity():
    rng = random.Random(66)
    samples = [(0.11 + 0.07j, 0.2 + 1.1j), (0.31 - 0.05j, -0.4 + 0.9j), (0.43 + 0.12j, 1.7j)]
    ok = True
    resolutions = set()
    for _ in range(5):
        alpha = (rng.choice([-2, -1, 1, 2]),)
        c = rng.randint(-2, 2)
        beta = tuple(rng.randint(-1, 1) for _ in range(8))
        fx = FixedPointFixture(k=1, points=(FixedPoint(alpha, c, beta),), label="sample")
        flavor = rng.choice(list(IndexFlavor))
        for t, tau in samples:
            report = check_transform_laws(fx, flavor, t, tau, 2, 0, tol=1e-8)
            ok = ok and report.ok
            resolutions.add(report.meta["lattice_law_resolved"])
    discriminated = "standard" in resolutions and "printed" not in resolutions
    _criterion(
        "6",
        ok and discriminated,
        f"T/S/lattice < 1e-8 summand-wise; lattice exponent resolved: {sorted(resolutions)}",
    )


def test_criterion_7a_sphere_vanishing():
    done = _timed("7a")
    fx, flavor = resolve_fixture("s2")
    report = check_rigidity(fx, flavor, 5)
    done()
    _criterion("7a", report.verdict == "VANISHING", f"sphere: {report.verdict} (n=-1)")


def test_criterion_7b_sphere_product_vanishing():
    done = _timed("7b")
    fx, flavor = resolve_fixture("s2xs2")
    n = anomaly(fx, flavor).n
    report = check_rigidity(fx, flavor, 5)
    done()
    _criterion("7b", report.verdict == "VANISHING" and n == -2, f"sphere product: {report.verdict} (n={n})")


def test_criterion_7c_cp1_spinc_vanishing():
    done = _timed("7c")
    fx, flavor = resolve_fixture("cp1_spinc")
    n = anomaly(fx, flavor).n
    report = check_rigidity(fx, flavor, 5)
    done()
    _criterion("7c", report.verdict == "VANISHING" and n == 2, f"spin-c line: {report.verdict} (n={n}, k odd)")


def test_criterion_7d_cp2_rigid():
    """Stated expectation: RIGID with integer identity values through q^5.

    The computed series is constant at q^0 but genuinely w-dependent from
    q^1 on, with inconsistent per-point anomaly {22, -2, 22}; see
    test_rigidity_cp2_even_tower_observed for the locked actual behavior.
    This test keeps the stated expectation and is expected to fail.
    """
    done = _timed("7d")
    fx, flavor = resolve_fixture("cp2")
    report = check_rigidity(fx, flavor, 5)
    identity = evaluate_at_identity(index_series(fx, flavor, 5))
    done()
    _criterion(
        "7d",
        report.verdict == "RIGID" and identity.ok,
        f"projective plane: {report.verdict}, identity values ok: {identity.ok}",
    )


def test_criterion_7_runtime():
    total = sum(v for k, v in _TIMES.items() if k.startswith("7"))
    _criterion("7 runtime", total < 300, f"fixture battery took {total:.1f}s")


def test_criterion_8_negative_control():
    rng = random.Random(8)
    while True:
        fx = random_fixture(rng, max_k=2, max_points=2)
        if not anomaly(fx, IndexFlavor.I_SERIES).consistent:
            break
    report = check_rigidity(fx, IndexFlavor.I_SERIES, 2)
    named = report.first_failure is not None and bool(report.first_failure.coefficient)
    ok = report.verdict in ("NON-RIGID", "INDETERMINATE") and named
    _criterion("8", ok, f"verdict {report.verdict}, offender named: {named}")
