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
theta).  packed_product multiplies such blocks, at w -> w^m, as a chain in
intseries' packed layout, where one int per u-exponent holds the partial
product's w-polynomial at the stride 2 gcd(m), and each term of the next
(lacunary) factor adds one shifted copy of each row; the coefficients are
bounded below the 64-bit slots before the chain runs.  A factor's terms,
sorted and turned into shifts, are built once per (kind, m, order,
stride) and kept in a bounded cache (_factor_steps, 256 entries).
theta_product is that chain with its rows decoded once, into a block;
e8's product side sums three chains' rows before it decodes them.
theta_series is the Laurent view of one block, with theta's -i put back.
The product form is the only route here; the tests build the equivalent
sum forms (triple product) independently, in tests/conftest.py, as its
oracle, and keep the factor-by-factor intseries.mul chain as the packed
chain's.
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


# largest order theta_series expands to: about 0.2 s per kind on a 2-vCPU host
MAX_THETA_ORDER = 200

# the w-part of the leads of i*theta and theta_1 over Z
_LEAD = {ThetaKind.THETA: {1: 1, -1: -1}, ThetaKind.THETA1: {1: 1, -1: 1}}


@lru_cache(maxsize=64)
def _theta_block(kind: ThetaKind, order: int) -> intseries.Block:
    """i*theta for THETA, theta_kind otherwise, through q^order, as a real block.

    The order must lie in 0..MAX_THETA_ORDER; the q-product is built in place
    and the lead is applied once, at the end.
    """
    if not 0 <= order <= MAX_THETA_ORDER:
        raise ValueError(f"theta order must lie in 0..{MAX_THETA_ORDER}, got {order}")
    m0 = base_exponent(kind)
    rel = U_PER_Q * order  # factors past u^rel leave every coefficient alone
    sign, half = _PRODUCT_SHAPE[kind]
    coeffs = {0: {0: 1}}
    for e in range(U_PER_Q, rel + 1, U_PER_Q):
        e_w = e - U_PER_Q // 2 if half else e
        intseries.times_one_plus(coeffs, -1, 0, e, rel)
        intseries.times_one_plus(coeffs, sign, 2, e_w, rel)
        intseries.times_one_plus(coeffs, sign, -2, e_w, rel)
    return intseries.mul(({m0: _LEAD.get(kind, {0: 1})}, rel + m0), (coeffs, rel))


# the cache stays for perfbench/tracer.py, which reads its cache_info
@lru_cache(maxsize=64)
def theta_series(kind: ThetaKind, order: int) -> TruncatedSeries:
    """Exact product-form expansion through q^order, 0 <= order <= MAX_THETA_ORDER."""
    return intseries.to_series(_theta_block(kind, order), MINUS_I if kind is ThetaKind.THETA else 1)


@lru_cache(maxsize=256)
def _factor_steps(kind: ThetaKind, m: int, order: int, stride: int) -> tuple:
    """One factor of a packed chain: _theta_block(kind, order) at w -> w^m, as
    (validity, base, least, shifts, sum of |c|); shared, never mutated.

    least is the factor's least w-exponent, and shifts holds its terms
    c w^x u^e as (e, shift, c), sorted by e, where shift packs x - least at
    the chain's stride (a multiple of 2 gcd(m), which holds every exponent
    of the factor in one class: m times an odd exponent for theta and
    theta_1, an even one for theta_2 and theta_3).
    """
    factor = _theta_block(kind, order)
    if m == 0:  # w -> 1 sums each coefficient, and theta's vanish
        factor = intseries.substitute(factor, 0)
    terms = sorted([(e, w * m, c) for e, p in factor[0].items() for w, c in p.items()])
    least = min([x for _, x, _ in terms], default=0)
    shifts = tuple([(e, intseries._SLOT_BITS * ((x - least) // stride), c) for e, x, c in terms])
    return factor[1], intseries._base(factor), least, shifts, sum([abs(c) for _, _, c in terms])


def _chain(factors: list[tuple[ThetaKind, int]], order: int) -> tuple[int, list[tuple]]:
    """The stride 2 gcd(m) of a factor list and its factors' steps."""
    if not factors:
        raise ValueError("theta_product needs at least one factor")
    stride = 2 * (math.gcd(*(m for _, m in factors)) or 1)
    return stride, [_factor_steps(kind, m, order, stride) for kind, m in factors]


def _bound(steps: list[tuple]) -> int:
    """The product of the factors' sums of |c|, through the first zero factor,
    where the product stops: it bounds every coefficient of the product."""
    bound = 1
    for *_, total in steps:
        if not total:
            break
        bound *= total
    return bound


def slot_bound(factors: list[tuple[ThetaKind, int]], order: int) -> int:
    """A bound on every |coefficient| of theta_product(factors, order)."""
    return _bound(_chain(factors, order)[1])


def check_slots(bound: int, what: str) -> None:
    """Raise AssertionError unless bound < 2^63, the packed slots' bound."""
    if bound >> (intseries._SLOT_BITS - 1):
        raise AssertionError(f"{what} overflow the {intseries._SLOT_BITS}-bit coefficient slots")


def packed_product(
    factors: list[tuple[ThetaKind, int]], order: int
) -> tuple[dict[int, int], int, int, int]:
    """theta_product(factors, order) in intseries' packed layout, as
    (rows, low, stride, validity): rows maps each u-exponent to one int whose
    k-th slot is the coefficient of w^(low + k * stride).

    The factors multiply in the given order as a chain.  Each term
    c w^x u^e of the next factor (its _factor_steps) adds
    c * (row << shift) into row u + e, where shift packs x less the factor's
    least exponent, which moves low; so a partial product is only as wide as
    its own w-exponents.  Each step drops the terms past the validity that
    intseries.mul would give it, and the product stops at the first zero.
    No coefficient may reach 2^63, the slot bound: it is at most _bound of
    the steps, so a list whose bound reaches it raises AssertionError before
    the product is expanded (eight factors at MAX_THETA_ORDER: 41^8 < 2^43).
    """
    stride, steps = _chain(factors, order)
    check_slots(_bound(steps), f"{len(factors)} theta factors through q^{order}")
    rows = {0: 1}  # the partial product, one packed int per u-exponent
    low = 0  # the w-exponent of slot 0
    validity = None
    for v, base, least, shifts, _ in steps:
        validity = v if validity is None else min(validity + base, v + min(rows))
        low += least
        reached: dict[int, int] = {}
        for u, poly in rows.items():
            room = validity - u
            for e, shift, c in shifts:
                if e > room:
                    break
                term = poly << shift
                reached[u + e] = reached.get(u + e, 0) + (term if c == 1 else c * term)
        rows = {u: poly for u, poly in reached.items() if poly}
        if not rows:
            break
    return rows, low, stride, validity


def theta_product(factors: list[tuple[ThetaKind, int]], order: int) -> intseries.Block:
    """prod (i*theta if kind is THETA else theta_kind)(m*z) over the (kind, m)
    pairs through q^order, as an intseries block over Z[w^+-1].

    theta's lead is -i (w - w^-1), so i*theta is real (and an 8-fold product
    of i*theta is theta's, as i^8 = 1).  Each factor is _theta_block(kind,
    order) with w -> w^m; one factor is that block.  More multiply in two
    parts: the packed core, packed_product, runs the chain over the steps
    that _factor_steps caches per factor, and its rows are decoded once,
    here (intseries._unpack).
    """
    if len(factors) == 1:
        kind, m = factors[0]
        return intseries.substitute(_theta_block(kind, order), m)
    rows, low, stride, validity = packed_product(factors, order)
    return {u: intseries._unpack(rows[u], low, stride) for u in sorted(rows)}, validity


# numeric evaluation


def _auto_factors(tau: complex, z: complex = 0j) -> int:
    """Number of product factors keeping the truncation error below ~1e-14.

    The one check of Im(tau) > 0 in this module: every numeric entry point
    reaches it before it evaluates a theta product.
    """
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
