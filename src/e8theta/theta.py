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
coefficients in Z[w^+-1]: the q-products are real, and so is i*theta, so
each kind is built as an `intseries` block (_theta_block, with i*theta for
theta) from its sum form, the Jacobi triple product: the terms
s^((j-p)/2) u^(3 j^2) w^j over j = p mod 2, p = 1 for theta and theta_1 and
0 otherwise, s the sign in the product.  theta_product multiplies such
blocks, at w -> w^m, as one intseries.chain, a list of one factor included,
where one int per u-exponent holds the partial product's w-polynomial at
the stride 2 gcd(m), and each term of the next (lacunary) factor adds one
shifted copy of each row; the coefficients are bounded below the 64-bit
slots before the chain runs.  A factor's steps (intseries.factor_steps: its
terms, sorted and turned into shifts; at m = 0 each row summed at w = 1)
are built once per (kind, m, order, stride, route) and kept in a bounded
cache (_factor_steps, 256 entries); chain_steps looks a factor list's up.
theta_series is the Laurent view of one block, with theta's -i put back.
The product form (_product_block, built in place) is read by e8's product
side of identity 116 alone, through chain_steps' route argument: that side
stays independent of the lattice sum, which splits E8 as the sum form does.
The tests compare both forms with their own sum form (tests/conftest.py),
and keep the factor-by-factor intseries.mul chain as the packed chain's.
"""

from __future__ import annotations

import cmath
import enum
import math
from functools import lru_cache

from . import intseries
from .gaussian import MINUS_I
from .report import ReportItem, VerificationReport
from .series import TruncatedSeries, U_PER_Q


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


# largest order theta_series expands to: under 0.1 ms per kind in process on
# a 2-vCPU host, ~0.09 s for `theta expand` with start-up
MAX_THETA_ORDER = 200


def _theta_block(kind: ThetaKind, order: int) -> intseries.Block:
    """i*theta for THETA, theta_kind otherwise, through q^order, as a real
    block, from the sum form; the order must lie in 0..MAX_THETA_ORDER."""
    if not 0 <= order <= MAX_THETA_ORDER:
        raise ValueError(f"theta order must lie in 0..{MAX_THETA_ORDER}, got {order}")
    sign, p = _PRODUCT_SHAPE[kind][0], base_exponent(kind) // 3
    validity = U_PER_Q * order + 3 * p
    return {  # s^((-j-p)/2) = s^((j+p)/2) for the term at -j
        3 * j * j: {j: sign ** ((j - p) // 2), -j: sign ** ((j + p) // 2)}
        for j in range(p, math.isqrt(validity // 3) + 1, 2)
    }, validity


@lru_cache(maxsize=64)
def _product_block(kind: ThetaKind, order: int) -> intseries.Block:
    """_theta_block(kind, order) from the product form: the lead (w + s w^-1)
    u^3 (or 1) times the q-product, built in place; shared, never mutated."""
    if not 0 <= order <= MAX_THETA_ORDER:
        raise ValueError(f"theta order must lie in 0..{MAX_THETA_ORDER}, got {order}")
    m0 = base_exponent(kind)
    validity = U_PER_Q * order + m0  # factors past u^(24 order) change no term
    sign, half = _PRODUCT_SHAPE[kind]
    coeffs = {m0: {1: 1, -1: sign} if m0 else {0: 1}}
    for e in range(U_PER_Q, U_PER_Q * order + 1, U_PER_Q):
        e_w = e - U_PER_Q // 2 if half else e
        intseries.times_one_plus(coeffs, -1, 0, e, validity)
        intseries.times_one_plus(coeffs, sign, 2, e_w, validity)
        intseries.times_one_plus(coeffs, sign, -2, e_w, validity)
    return coeffs, validity


# the cache stays for perfbench/tracer.py, which reads its cache_info
@lru_cache(maxsize=64)
def theta_series(kind: ThetaKind, order: int) -> TruncatedSeries:
    """Exact expansion through q^order, 0 <= order <= MAX_THETA_ORDER."""
    return intseries.to_series(_theta_block(kind, order), MINUS_I if kind is ThetaKind.THETA else 1)


@lru_cache(maxsize=256)
def _factor_steps(kind: ThetaKind, m: int, order: int, stride: int, product_form: bool) -> tuple:
    """intseries.factor_steps of _theta_block(kind, order), or _product_block's
    if product_form, at w -> w^m; shared, never mutated.  A stride that is a
    multiple of 2 gcd(m) holds every exponent of the factor in one class: m
    times an odd exponent for theta and theta_1, an even one for theta_2 and
    theta_3; at m = 0 theta's coefficients sum to zero, so the factor is empty."""
    block = (_product_block if product_form else _theta_block)(kind, order)
    return intseries.factor_steps(block, m, stride)


def chain_steps(factors: list[tuple[ThetaKind, int]], order: int, product_form=False) -> tuple:
    """The stride 2 gcd(m) of a factor list and its factors' _factor_steps, for intseries.chain."""
    if not factors:
        raise ValueError("theta_product needs at least one factor")
    stride = 2 * (math.gcd(*(m for _, m in factors)) or 1)
    return stride, [_factor_steps(kind, m, order, stride, product_form) for kind, m in factors]


def theta_product(factors: list[tuple[ThetaKind, int]], order: int) -> intseries.Block:
    """prod (i*theta if kind is THETA else theta_kind)(m*z) over the (kind, m)
    pairs through q^order, as an intseries block over Z[w^+-1].

    theta's lead is -i (w - w^-1), so i*theta is real (and an 8-fold product
    of i*theta is theta's, as i^8 = 1).  Each factor is _theta_block(kind,
    order) with w -> w^m; the factors, one or more, multiply as one
    intseries.chain over the steps that _factor_steps caches per factor,
    decoded once, here.  The block is fresh, never a cached one:
    index._point_block divides it in place.  Every coefficient is at most
    the product of the factors' sums of |c|, so a list whose bound reaches
    the slots raises AssertionError before the product is expanded (eight
    factors at MAX_THETA_ORDER: 41^8 < 2^43).
    """
    stride, steps = chain_steps(factors, order)
    rows, low, validity = intseries.chain(steps, f"{len(factors)} theta factors through q^{order}")
    return {u: intseries.unpack(rows[u], low, stride) for u in sorted(rows)}, validity


# numeric evaluation


def _auto_factors(tau: complex, z: complex = 0j) -> int:
    """Number of product factors keeping the truncation error below ~1e-14.

    The one check of Im(tau) > 0 in this module: every numeric entry point
    reaches it before it evaluates a theta product.  More than 4000 factors
    (Im(tau) below ~1.4e-3 at real z) raise ValueError naming tau.
    """
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    log_q = -2 * math.pi * tau.imag
    amp = 4 * math.pi * abs(z.imag)  # |w^(+/-2)| growth of the z-dependent factors
    n = (math.log(1e-14) - amp - math.log(10)) / log_q + 1
    if not n < 4001:
        raise ValueError(f"theta at tau={tau}, z={z} needs over 4000 product factors for ~1e-14")
    return max(8, int(n))


def theta_eval(kind: ThetaKind, z: complex, tau: complex) -> complex:
    """Truncated product evaluated in floating point.

    The omitted factors differ from 1 by O(|q|^n * e^(4*pi*|Im z|)) for the
    n factors kept; _auto_factors picks n so that this stays below ~1e-14.
    """
    z = complex(z)
    tau = complex(tau)
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
    n = _auto_factors(tau)
    q = cmath.exp(2j * cmath.pi * tau)
    value = 2 * cmath.pi * cmath.exp(1j * cmath.pi * tau / 4)
    for j in range(1, n + 1):
        value *= (1 - q**j) ** 3
    return value


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
