"""Shared helpers: independent brute-force oracles the tests freeze values from."""

from __future__ import annotations

import cmath
import itertools
import math
import random
import sys
from fractions import Fraction
from functools import cache

import pytest

from e8theta import intseries
from e8theta.errors import BeyondTruncationError
from e8theta.fixtures import FixedPoint, FixedPointFixture
from e8theta.gaussian import ONE, ZERO, GaussianRational, I, MINUS_I
from e8theta.laurent import LaurentPolynomial
from e8theta.series import TruncatedSeries, U_PER_Q
from e8theta.theta import (
    ThetaKind,
    _product_block,
    _theta_block,
    base_exponent,
    theta_product,
    theta_series,
)


def map_coefficients(series: TruncatedSeries, fn) -> TruncatedSeries:
    """Apply fn to every coefficient; fn(zero) becomes the new zero."""
    return TruncatedSeries({e: fn(c) for e, c in series.coeffs.items()}, series.order, fn(series.zero))


def first_difference(a: TruncatedSeries, b: TruncatedSeries):
    """Lowest exponent where the two series differ within both validity
    orders, or None."""
    bound = min(a.order, b.order)
    for e in sorted(set(a.coeffs) | set(b.coeffs)):
        if e > bound:
            continue
        if a.coeffs.get(e, a.zero) != b.coeffs.get(e, b.zero):
            return e
    return None


def shell_counts(table) -> list[int]:
    """The number of points in each shell of an e8.ShellTable, by half-norm."""
    return [len(table.shells.get(m, [])) for m in range(table.max_half_norm + 1)]


def substitute_power(poly: LaurentPolynomial, m: int) -> LaurentPolynomial:
    """poly with w -> w^m; m = 0 collapses it to a constant."""
    out = {}
    for e, c in poly.coeffs.items():
        out[e * m] = out.get(e * m, ZERO) + c
    return LaurentPolynomial(out)


def substitute_block(block, m: int):
    """An intseries block with w -> w^m; m = 0 evaluates each coefficient at w = 1."""
    if m:
        return {e: {w * m: c for w, c in p.items()} for e, p in block[0].items()}, block[1]
    values = {e: sum(p.values()) for e, p in block[0].items()}
    return {e: {0: c} for e, c in values.items() if c}, block[1]


def shift(series: TruncatedSeries, k: int) -> TruncatedSeries:
    """Multiply by u^k (validity shifts along)."""
    return TruncatedSeries({e + k: c for e, c in series.coeffs.items()}, series.order + k, series.zero)


def series_sum(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a + b over one coefficient type, valid through the smaller validity."""
    order = min(a.order, b.order)
    out = {e: c for e, c in a.coeffs.items() if e <= order}
    for e, c in b.coeffs.items():
        if e <= order:
            out[e] = out.get(e, a.zero) + c
    return TruncatedSeries(out, order, a.zero)


def one_series(order: int, zero=ZERO) -> TruncatedSeries:
    """The series 1, valid through u^order."""
    return TruncatedSeries({0: zero + ONE}, order, zero)


def power(series: TruncatedSeries, n: int) -> TruncatedSeries:
    """series^n by repeated multiplication; a negative n inverts first."""
    base = series.invert() if n < 0 else series
    result = one_series(base.order, base.zero)
    for _ in range(abs(n)):
        result = result * base
    return result


def phi_series(order: int) -> TruncatedSeries:
    """The Euler product (1-q)(1-q^2)... over Q(i) through q^order: the
    oracle for the integer phi blocks."""
    if order < 0:
        raise ValueError("order must be >= 0")
    s = one_series(U_PER_Q * order + U_PER_Q - 1)
    for n in range(1, order + 1):
        s = s.times_one_plus(-ONE, U_PER_Q * n)
    return s


def truncate(series: TruncatedSeries, order: int) -> TruncatedSeries:
    """The series known through u^order only; extending the validity raises."""
    if order > series.order:
        raise BeyondTruncationError(f"cannot extend validity from u^{series.order} to u^{order}")
    return TruncatedSeries(
        {e: c for e, c in series.coeffs.items() if e <= order}, order, series.zero
    )


def theta_product_qi(factors, order: int) -> TruncatedSeries:
    """prod theta_kind(m*z) over the (kind, m) pairs, multiplied over Q(i).

    The route theta.theta_product took before it moved to integer blocks:
    each factor is theta_series(kind, order) with w -> w^m, and the factors
    multiply as TruncatedSeries, stopping at the first zero.  theta is taken
    as it is, not as i*theta.
    """
    prod = None
    for kind, m in factors:
        factor = map_coefficients(theta_series(kind, order), lambda c: substitute_power(c, m))
        prod = factor if prod is None else prod * factor
        if prod.is_zero():
            break
    return prod


def theta_product_by_mul(factors, order: int):
    """theta.theta_product's block, multiplied factor by factor by intseries.mul.

    The oracle for theta_product's packed chain: each factor is
    theta._theta_block(kind, order) with w -> w^m, the factors multiply as
    dict-of-dict blocks in the given order, and the product stops at the
    first zero.
    """
    prod = None
    for kind, m in factors:
        factor = substitute_block(_theta_block(kind, order), m)
        prod = factor if prod is None else intseries.mul(prod, factor)
        if not prod[0]:
            break
    return prod


def product_side_by_decoding(beta, order: int):
    """e8._product_side's block by the decoded route it took before the
    packed sum: three theta.theta_product blocks, the theta_2 product as the
    theta_3 product at tau + 1 (u^e -> (-1)^(e/12) u^e), the four summed by
    intseries._add_into through the smallest validity, then halved.

    The oracle for the packed sum; the factors go by increasing |beta_l|,
    as there.
    """
    factors = sorted(beta, key=abs)
    theta, theta1, theta3 = (
        theta_product([(kind, b) for b in factors], order)
        for kind in (ThetaKind.THETA, ThetaKind.THETA1, ThetaKind.THETA3)
    )
    assert all(e % (U_PER_Q // 2) == 0 for e in theta3[0])
    theta2 = {e: {w: (-1) ** (e // 12) * c for w, c in p.items()} for e, p in theta3[0].items()}
    through = min(U_PER_Q * order, theta[1], theta1[1], theta3[1])
    total: dict[int, dict[int, int]] = {}
    for coeffs in (theta[0], theta1[0], theta2, theta3[0]):
        for e, p in coeffs.items():
            if e <= through:
                intseries._add_into(total, e, p, 0)
    assert all(c % 2 == 0 for p in total.values() for c in p.values())
    return {e: {w: c // 2 for w, c in p.items()} for e, p in total.items()}, through


def naive_q_product(factors, order):
    """Expand prod (1 + c * q^e) over plain dicts {q-exponent: Fraction}.

    `factors` is a list of (coefficient, exponent) pairs with integer
    exponents in whole q-units.  Independent of the package's series code.
    """
    poly = {0: Fraction(1)}
    for c, e in factors:
        out = dict(poly)
        for k, v in poly.items():
            if k + e <= order:
                out[k + e] = out.get(k + e, Fraction(0)) + v * c
        poly = {k: v for k, v in out.items() if v and k <= order}
    return poly


def naive_euler_phi(order):
    """Coefficients of prod_{n>=1} (1 - q^n) as {exponent: Fraction}."""
    return naive_q_product([(Fraction(-1), n) for n in range(1, order + 1)], order)


def _truncated_product(a, b, order):
    """The product of two q-coefficient lists, cut after q^order."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(order + 1)]


@cache
def _phi_step(order, sign):
    """phi^sign through q^order, sign = +-1, by plain integer products: the
    naive Euler product, or the product of the geometric series
    sum_k q^(m k) = 1 / (1 - q^m) over m = 1..order."""
    step = [1] + [0] * order
    for m in range(1, order + 1):
        if sign > 0:  # 1 - q^m
            factor = [(k == 0) - (k == m) for k in range(order + 1)]
        else:  # 1 + q^m + q^(2m) + ...
            factor = [int(k % m == 0) for k in range(order + 1)]
        step = _truncated_product(step, factor, order)
    return tuple(step)


@cache
def _phi_power(order, n):
    if n == 0:
        return (1,) + (0,) * order
    sign = 1 if n > 0 else -1
    return tuple(_truncated_product(_phi_power(order, n - sign), _phi_step(order, sign), order))


def naive_partition_power(order, power):
    """Coefficients of prod (1-q^n)^(-power) through q^order, as ints.

    phi^n is phi^(n -+ 1), the power next to it toward 0, times phi or
    phi^-1 (_phi_step): one truncated product of integer lists per power,
    each power built once.  Entirely independent of series code and of the
    divisor-sum recurrence that intseries.phi_block uses.
    """
    return list(_phi_power(order, -power))


def brute_force_e8_shell(m):
    """All lattice points of half-norm exactly m by scanning coordinate boxes.

    Integer vectors with even coordinate sum and |gamma|^2 = 2m, plus
    all-half-integer vectors with even sum; returned as doubled coordinates.
    """
    target = 8 * m  # sum of squared doubled coordinates
    out = set()
    r = int(target**0.5)
    ints = [v for v in range(-r, r + 1) if v % 2 == 0]
    halfs = [v for v in range(-r, r + 1) if v % 2 != 0]
    for values in (ints, halfs):
        if not values:
            continue
        for vec in itertools.product(values, repeat=8):
            if sum(x * x for x in vec) == target and sum(vec) % 4 == 0:
                out.add(vec)
    return sorted(out)


def lattice_block_by_residues(beta, order: int):
    """e8._lattice_block's block by the dynamic program it ran before its
    states were keyed by squared length alone.

    The oracle for the paired, character-counted program: once per parity
    class, the states (sum d_l^2, sum d_l mod 4) count the coordinate
    prefixes reaching them, one step per doubled coordinate d (never d and
    -d together), each state's counts packed by w-exponent as there, and
    membership (sum d_l = 0 mod 4) read off the final states.
    """
    norm_sq = 8 * order
    r = math.isqrt(norm_sq)
    g = math.gcd(*beta) or 1
    beta = [b // g for b in beta]
    shells = [{} for _ in range(order + 1)]
    for parity in (0, 1):
        values = sorted((v for v in range(-r, r + 1) if v % 2 == parity), key=abs)
        low = 0  # the half-exponent of slot 0
        states = {(0, 0): 1}
        for b in beta:
            halves = [(v >> 1) * b for v in values]
            least = min(halves, default=0)  # no odd values at order 0
            low += least
            steps = [
                (v * v, v, intseries.SLOT_BITS * (h - least)) for v, h in zip(values, halves)
            ]
            reached = {}
            for (n, s), poly in states.items():
                room = norm_sq - n
                for v2, v, shift in steps:
                    if v2 > room:
                        break
                    key = (n + v2, (s + v) % 4)
                    reached[key] = reached.get(key, 0) + (poly << shift)
            states = reached
        base = g * (2 * low + parity * sum(beta))  # the w-exponent of slot 0
        for (n, s), poly in states.items():
            if s:
                continue
            assert n % 8 == 0, (beta, order, n)
            shell = shells[n // 8]
            e = base
            for count in intseries.slots(poly):
                if count:
                    shell[e] = shell.get(e, 0) + count
                e += 2 * g
    return {U_PER_Q * m: shell for m, shell in enumerate(shells)}, U_PER_Q * order + U_PER_Q - 1


def theta_sum_series(kind: ThetaKind, order: int) -> TruncatedSeries:
    """Sum-form (triple product) expansion: the oracle for the product form.

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
            coeffs[e] = coeffs.get(e, LaurentPolynomial()) + poly
            n += 1
    else:
        coeffs[0] = LaurentPolynomial({0: 1})
        n = 1
        while 12 * n * n <= validity:
            c = 1 if (kind is ThetaKind.THETA3 or n % 2 == 0) else -1
            coeffs[12 * n * n] = LaurentPolynomial({2 * n: c, -2 * n: c})
            n += 1
    return TruncatedSeries(coeffs, validity, LaurentPolynomial())


def theta_product_form_series(kind: ThetaKind, order: int) -> TruncatedSeries:
    """The product form, theta._product_block, as a series with theta's -i put
    back: the route identity 116's product side reads, compared with the
    sum form that theta_series reads."""
    return intseries.to_series(_product_block(kind, order), MINUS_I if kind is ThetaKind.THETA else 1)


def theta_prime_zero_series(order: int) -> TruncatedSeries:
    """Exact series of theta'(0, tau) / (2*pi) = q^(1/8) * phi(q)^3."""
    return shift(power(phi_series(order), 3), 3)


def exponent_weighted_sum(p: LaurentPolynomial) -> GaussianRational:
    """Exact value of (w d/dw) p at w = 1."""
    total = ZERO
    for e, c in p.coeffs.items():
        total = total + c * e
    return total


def z_derivative_at_zero(series: TruncatedSeries) -> TruncatedSeries:
    """Term-by-term d/dz at z = 0, divided by 2*pi.

    d/dz acts on w^e as pi*i*e*w^e, so each coefficient becomes
    (i/2) * sum_e e*c_e evaluated at w = 1.
    """
    half_i = GaussianRational(0, Fraction(1, 2))
    return map_coefficients(series, lambda c: half_i * exponent_weighted_sum(c))


def evaluate_expansion(series: TruncatedSeries, z: complex, tau: complex) -> complex:
    """Specialize an exact expansion at w = e^(pi i z), u = e^(2 pi i tau / 24)."""
    w = cmath.exp(1j * cmath.pi * z)
    u = cmath.exp(2j * cmath.pi * tau / U_PER_Q)
    return evaluate_series(series, u, lambda c: c.evaluate(w))


def evaluate_series(series: TruncatedSeries, u, coeff_value=complex) -> complex:
    """sum_e coeff_value(c_e) u^e over a series' stored terms."""
    return sum((coeff_value(c) * u**e for e, c in series.coeffs.items()), 0j)


def random_fixture(rng: random.Random, max_k=3, max_points=3, spread=2):
    k = rng.randint(1, max_k)
    pts = []
    for _ in range(rng.randint(1, max_points)):
        alpha = tuple(rng.choice([a for a in range(-spread, spread + 1) if a]) for _ in range(k))
        c = rng.randint(-spread, spread)
        beta = tuple(rng.randint(-spread, spread) for _ in range(8))
        pts.append(FixedPoint(alpha, c, beta))
    return FixedPointFixture(k=k, points=tuple(pts), label="randomized")


def sphere_product_fixture(rng: random.Random, max_k=2, spread=2):
    """Fixed-point data of a product of k rotated 2-spheres: 2^k points.

    The point at the poles eps in {+1, -1}^k turns with the weights
    eps_j a_j, and its c and beta depend linearly on eps, so neighbouring
    points share tangent factors and the lcm of their leads is not their
    product.
    """
    k = rng.randint(1, max_k)
    a = [rng.choice([x for x in range(-spread, spread + 1) if x]) for _ in range(k)]
    m = [rng.randint(-spread, spread) for _ in range(k)]
    b = [[rng.randint(-1, 1) for _ in range(8)] for _ in range(k)]
    pts = []
    for eps in itertools.product((1, -1), repeat=k):
        alpha = tuple(e * x for e, x in zip(eps, a))
        c = sum(e * x for e, x in zip(eps, m))
        beta = tuple(sum(e * row[l] for e, row in zip(eps, b)) for l in range(8))
        pts.append(FixedPoint(alpha, c, beta))
    return FixedPointFixture(k=k, points=tuple(pts), label="sphere product")


@pytest.fixture(autouse=True)
def _fresh_block_caches():
    """Empty every functools cache on the e8theta modules before each test,
    so that a test that patches a builder's internals builds its blocks
    under the patch and never reads one that an earlier test cached."""
    for name, module in list(sys.modules.items()):
        if name == "e8theta" or name.startswith("e8theta."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def rng():
    return random.Random(20260808)
