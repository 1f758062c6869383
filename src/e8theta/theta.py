"""The four Jacobi theta functions.

Conventions.  q = e^(2*pi*i*tau) with Im(tau) > 0 and w = e^(pi*i*z), so
half-angle factors are Laurent monomials: 2*sin(pi*z) = -i*(w - w^-1) and
2*cos(pi*z) = w + w^-1.  The four kinds are

    theta   = 2 q^(1/8) sin(pi z) prod (1-q^j)(1-w^2 q^j)(1-w^-2 q^j)
    theta_1 = 2 q^(1/8) cos(pi z) prod (1-q^j)(1+w^2 q^j)(1+w^-2 q^j)
    theta_2 =                     prod (1-q^j)(1-w^2 q^(j-1/2))(1-w^-2 q^(j-1/2))
    theta_3 =                     prod (1-q^j)(1+w^2 q^(j-1/2))(1+w^-2 q^(j-1/2))

(in the classical 1..4 numbering these are theta_1, theta_2, theta_4 and
theta_3 respectively).  Expansions live on the u = q^(1/24) lattice with
Laurent-polynomial coefficients in w.  The product form is the production
route; the equivalent sum forms (triple product) are built independently
and serve only as the test oracle for it.
"""

from __future__ import annotations

import cmath
import enum
import math
from fractions import Fraction
from functools import lru_cache

from .gaussian import GaussianRational, I, MINUS_I
from .laurent import LaurentPolynomial
from .report import ReportItem, VerificationReport
from .series import TruncatedSeries, U_PER_Q, phi_series


class ThetaKind(enum.Enum):
    THETA = "theta"
    THETA1 = "theta1"
    THETA2 = "theta2"
    THETA3 = "theta3"


# (sign inside the w-dependent product factors, half-integer q-shift?)
_PRODUCT_SHAPE = {
    ThetaKind.THETA: (-1, False),
    ThetaKind.THETA1: (+1, False),
    ThetaKind.THETA2: (-1, True),
    ThetaKind.THETA3: (+1, True),
}


def base_exponent(kind: ThetaKind) -> int:
    """u-exponent of the leading term: 3 (= q^(1/8)) or 0."""
    return 3 if kind in (ThetaKind.THETA, ThetaKind.THETA1) else 0


# largest order theta_series expands to: about 2 s per kind on a 2-vCPU host
MAX_THETA_ORDER = 200


@lru_cache(maxsize=64)
def theta_series(kind: ThetaKind, order: int) -> TruncatedSeries:
    """Exact product-form expansion through q^order, 0 <= order <= MAX_THETA_ORDER."""
    if not 0 <= order <= MAX_THETA_ORDER:
        raise ValueError(f"theta order must lie in 0..{MAX_THETA_ORDER}, got {order}")
    m0 = base_exponent(kind)
    validity = U_PER_Q * order + m0
    sign, half = _PRODUCT_SHAPE[kind]
    if kind is ThetaKind.THETA:
        lead = LaurentPolynomial({1: MINUS_I, -1: I})
    elif kind is ThetaKind.THETA1:
        lead = LaurentPolynomial({1: 1, -1: 1})
    else:
        lead = LaurentPolynomial.one()
    s = TruncatedSeries({m0: lead}, validity, LaurentPolynomial.zero())
    minus_one = -LaurentPolynomial.one()
    j = 1
    while True:
        e_int = U_PER_Q * j
        e_w = e_int - (U_PER_Q // 2 if half else 0)
        if e_int > validity and e_w > validity:
            break
        if e_int <= validity:
            s = s.times_one_plus(minus_one, e_int)
        if e_w <= validity:
            s = s.times_one_plus(LaurentPolynomial({2: sign}), e_w)
            s = s.times_one_plus(LaurentPolynomial({-2: sign}), e_w)
        j += 1
    return s


def theta_product(factors: list[tuple[ThetaKind, int]], order: int) -> TruncatedSeries:
    """prod theta_kind(m*z) over the (kind, m) pairs, through q^order.

    Each factor is theta_series(kind, order) with w -> w^m.  The factors
    multiply in the given order, and the product stops at the first zero
    (theta(0) = 0 kills it).
    """
    prod = None
    for kind, m in factors:
        factor = theta_series(kind, order).map_coefficients(lambda c: c.substitute_power(m))
        prod = factor if prod is None else prod * factor
        if prod.is_zero():
            break
    if prod is None:
        raise ValueError("theta_product needs at least one factor")
    return prod


def theta_sum_series(kind: ThetaKind, order: int) -> TruncatedSeries:
    """Sum-form (triple product) expansion: the independent test oracle.

    theta   = -i * sum_n (-1)^n q^((2n+1)^2/8) w^(2n+1)
    theta_1 =      sum_n        q^((2n+1)^2/8) w^(2n+1)
    theta_2 =      sum_n (-1)^n q^(n^2/2)      w^(2n)
    theta_3 =      sum_n        q^(n^2/2)      w^(2n)
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    m0 = base_exponent(kind)
    validity = U_PER_Q * order + m0
    coeffs: dict[int, LaurentPolynomial] = {}
    if kind in (ThetaKind.THETA, ThetaKind.THETA1):
        n = 0
        while 3 * (2 * n + 1) ** 2 <= validity:
            e = 3 * (2 * n + 1) ** 2
            if kind is ThetaKind.THETA:
                c = MINUS_I if n % 2 == 0 else I
                poly = LaurentPolynomial({2 * n + 1: c, -(2 * n + 1): -c})
            else:
                poly = LaurentPolynomial({2 * n + 1: 1, -(2 * n + 1): 1})
            coeffs[e] = coeffs.get(e, LaurentPolynomial.zero()) + poly
            n += 1
    else:
        coeffs[0] = LaurentPolynomial.one()
        n = 1
        while 12 * n * n <= validity:
            c = 1 if (kind is ThetaKind.THETA3 or n % 2 == 0) else -1
            coeffs[12 * n * n] = LaurentPolynomial({2 * n: c, -2 * n: c})
            n += 1
    return TruncatedSeries(coeffs, validity, LaurentPolynomial.zero())


def theta_prime_zero_series(order: int) -> TruncatedSeries:
    """Exact series of theta'(0, tau) / (2*pi) = q^(1/8) * phi(q)^3."""
    return (phi_series(order) ** 3).shift(3)


def z_derivative_at_zero(series: TruncatedSeries) -> TruncatedSeries:
    """Term-by-term d/dz at z = 0, divided by 2*pi.

    d/dz acts on w^e as pi*i*e*w^e, so each coefficient becomes
    (i/2) * sum_e e*c_e evaluated at w = 1.
    """
    half_i = GaussianRational(0, Fraction(1, 2))
    return series.map_coefficients(lambda c: half_i * c.exponent_weighted_sum())


# numeric evaluation


def _auto_factors(tau: complex, z: complex = 0j) -> int:
    """Number of product factors keeping the truncation error below ~1e-14."""
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    log_q = -2 * math.pi * tau.imag
    amp = 4 * math.pi * abs(z.imag)  # |w^(+/-2)| growth of the z-dependent factors
    n = int((math.log(1e-14) - amp - math.log(10)) / log_q) + 1
    return max(8, min(n, 4000))


def theta_eval(kind: ThetaKind, z: complex, tau: complex) -> complex:
    """Truncated product evaluated in floating point.

    The omitted factors differ from 1 by O(|q|^n * e^(4*pi*|Im z|)) for the
    n factors kept; _auto_factors picks n so that this stays below ~1e-14.
    """
    z = complex(z)
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    n = _auto_factors(tau, z)
    # fractional q-powers are taken analytically in tau (q^s = e^(2 pi i s tau)),
    # never through a principal branch of q itself: the tau + 1 law depends on it
    q = cmath.exp(2j * cmath.pi * tau)
    q_half = cmath.exp(1j * cmath.pi * tau)
    x = cmath.exp(2j * cmath.pi * z)
    sign, half = _PRODUCT_SHAPE[kind]
    if kind is ThetaKind.THETA:
        value = 2 * cmath.exp(1j * cmath.pi * tau / 4) * cmath.sin(cmath.pi * z)
    elif kind is ThetaKind.THETA1:
        value = 2 * cmath.exp(1j * cmath.pi * tau / 4) * cmath.cos(cmath.pi * z)
    else:
        value = 1 + 0j
    for j in range(1, n + 1):
        qj = q**j
        qw = q_half ** (2 * j - 1) if half else qj
        value *= (1 - qj) * (1 + sign * x * qw) * (1 + sign * qw / x)
    return value


def theta_prime_zero(tau: complex) -> complex:
    """Numeric theta'(0, tau) = 2*pi * q^(1/8) * prod (1-q^j)^3."""
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    n = _auto_factors(tau)
    q = cmath.exp(2j * cmath.pi * tau)
    value = 2 * cmath.pi * cmath.exp(1j * cmath.pi * tau / 4)
    for j in range(1, n + 1):
        value *= (1 - q**j) ** 3
    return value


def evaluate_expansion(series: TruncatedSeries, z: complex, tau: complex) -> complex:
    """Specialize the exact expansion at w = e^(pi i z), u = e^(2 pi i tau / 24)."""
    w = cmath.exp(1j * cmath.pi * z)
    u = cmath.exp(2j * cmath.pi * tau / U_PER_Q)
    return series.evaluate(u, lambda c: c.evaluate(w))


def jacobi_identity_residual(tau: complex) -> float:
    """|theta'(0,tau) - pi * theta_1(0,tau) theta_2(0,tau) theta_3(0,tau)|."""
    lhs = theta_prime_zero(tau)
    rhs = cmath.pi
    for kind in (ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3):
        rhs *= theta_eval(kind, 0, tau)
    return abs(lhs - rhs)


def _rel(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(1.0, abs(rhs))


# tau -> tau + 1: image kind and scalar factor
_T_LAW = {
    ThetaKind.THETA: (ThetaKind.THETA, cmath.exp(1j * cmath.pi / 4)),
    ThetaKind.THETA1: (ThetaKind.THETA1, cmath.exp(1j * cmath.pi / 4)),
    ThetaKind.THETA2: (ThetaKind.THETA3, 1 + 0j),
    ThetaKind.THETA3: (ThetaKind.THETA2, 1 + 0j),
}

# tau -> -1/tau: image kind; the scalar is (tau/i)^(1/2) (principal branch),
# with an extra 1/i for the odd kind
_S_LAW = {
    ThetaKind.THETA: ThetaKind.THETA,
    ThetaKind.THETA1: ThetaKind.THETA2,
    ThetaKind.THETA2: ThetaKind.THETA1,
    ThetaKind.THETA3: ThetaKind.THETA3,
}

# z -> z + 1 sign and z -> z + tau sign; both shifts also carry
# e^(-2 pi i b z - pi i b^2 tau) for the tau-multiple b
_LATTICE_SIGNS = {
    ThetaKind.THETA: (-1, -1),
    ThetaKind.THETA1: (-1, +1),
    ThetaKind.THETA2: (+1, -1),
    ThetaKind.THETA3: (+1, +1),
}


def check_modular_transform(
    kind: ThetaKind, z: complex, tau: complex, tol: float = 1e-9
) -> VerificationReport:
    """Residuals of the tau+1 and -1/tau laws for one kind at one point."""
    z, tau = complex(z), complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    items = []
    t_kind, t_factor = _T_LAW[kind]
    lhs = theta_eval(kind, z, tau + 1)
    rhs = t_factor * theta_eval(t_kind, z, tau)
    r = _rel(lhs, rhs)
    items.append(ReportItem(f"{kind.value} T-law", "pass" if r < tol else "fail", residual=r))

    s_kind = _S_LAW[kind]
    factor = cmath.sqrt(tau / 1j)
    if kind is ThetaKind.THETA:
        factor *= 1 / 1j
    lhs = theta_eval(kind, z, -1 / tau)
    rhs = factor * cmath.exp(1j * cmath.pi * tau * z * z) * theta_eval(s_kind, tau * z, tau)
    r = _rel(lhs, rhs)
    items.append(ReportItem(f"{kind.value} S-law", "pass" if r < tol else "fail", residual=r))

    return VerificationReport.from_items(
        items, {"kind": kind.value, "z": str(z), "tau": str(tau), "tol": tol}
    )


def check_lattice_transform(
    kind: ThetaKind,
    z: complex,
    tau: complex,
    a: int,
    b: int,
    tol: float = 1e-9,
) -> VerificationReport:
    """Residual of theta_kind(z + a + b*tau) against its predicted multiple.

    The integer shift a contributes a sign, the tau-multiple b contributes
    a sign and the factor e^(-2 pi i b z - pi i b^2 tau).
    """
    z, tau = complex(z), complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    s_int, s_tau = _LATTICE_SIGNS[kind]
    factor = (s_int ** (abs(a) % 2)) * (s_tau ** (abs(b) % 2))
    factor = factor * cmath.exp(-2j * cmath.pi * b * z - 1j * cmath.pi * b * b * tau)
    lhs = theta_eval(kind, z + a + b * tau, tau)
    rhs = factor * theta_eval(kind, z, tau)
    r = _rel(lhs, rhs)
    item = ReportItem(f"{kind.value} lattice ({a},{b})", "pass" if r < tol else "fail", residual=r)
    return VerificationReport.from_items(
        [item], {"kind": kind.value, "a": a, "b": b, "z": str(z), "tau": str(tau), "tol": tol}
    )
