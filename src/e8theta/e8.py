"""E8 root lattice: lattice theta function, basic character, shell enumeration.

Lattice model: standard coordinates, the union of the integer vectors and
the all-half-integer vectors whose coordinate sum is even.  A point gamma
is stored through its doubled coordinates d_l = 2*gamma_l, so membership
reads: all d_l share one parity and sum(d_l) = 0 mod 4.  Roots have
|gamma|^2 = 2; the half-norm m = |gamma|^2 / 2 = sum(d_l^2) / 8 indexes
shells, and shell m holds 240 * sigma_3(m) points (m >= 1).

The lattice theta function is a dynamic program over the eight doubled
coordinates: it counts points by (half-norm, w-exponent) without listing
them, so its cost grows polynomially in the order.  For a generic beta
every point of a shell can have its own w-exponent, and the dynamic program
then keeps about as many states as the enumeration has vectors: 794,161
through half-norm 10.  Its counts form an `intseries` block over Z[w^+-1].
It serves theta_e8, check_identity_116 and basic_character, which take
orders 0..MAX_HALF_NORM = 10, and the lattice block of the index series,
which takes the index bound 0..30.  The other side of identity 116,
theta_product_side, adds the four 8-fold theta products as integer blocks
and halves the sum exactly; basic_character multiplies the lattice block
by the block of phi^-8.  Each public function makes a TruncatedSeries only
from its final block (intseries.to_series).  Explicit enumeration
(enumerate_shells, also bounded by MAX_HALF_NORM) serves only the 240 roots
and the tests, where it is the brute-force oracle for that count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import intseries
from .report import ReportItem, VerificationReport
from .series import TruncatedSeries, U_PER_Q
from .theta import ThetaKind, theta_product

MAX_HALF_NORM = 10

LatticeVector = tuple[int, int, int, int, int, int, int, int]


@dataclass
class ShellTable:
    """Vectors grouped by half-norm, each shell sorted lexicographically."""

    max_half_norm: int
    shells: dict[int, list[LatticeVector]]

    def counts(self) -> list[int]:
        return [len(self.shells.get(m, [])) for m in range(self.max_half_norm + 1)]

    def total_vectors(self) -> int:
        return sum(len(v) for v in self.shells.values())


def _scan_parity(values: tuple[int, ...], norm_sq: int, out):
    """DFS over 8 doubled coordinates drawn from `values`, pruned by norm."""
    stack = [((), 0)]
    while stack:
        prefix, norm = stack.pop()
        depth = len(prefix)
        if depth == 8:
            if sum(prefix) % 4 == 0:
                out.append(prefix)
            continue
        for v in values:
            n2 = norm + v * v
            if n2 <= norm_sq:
                stack.append((prefix + (v,), n2))


def enumerate_shells(max_half_norm: int) -> ShellTable:
    """Complete, duplicate-free enumeration of all points with half-norm <= bound.

    The bound must lie in 0..MAX_HALF_NORM; anything else raises ValueError
    before any vector is enumerated.
    """
    _check_half_norm(max_half_norm)
    norm_sq = 8 * max_half_norm
    r = int(norm_sq**0.5)
    evens = tuple(v for v in range(-r - (r % 2), r + 2, 2) if v * v <= norm_sq)
    odds = tuple(v for v in range(-(r | 1), r + 2, 2) if v % 2 != 0 and v * v <= norm_sq)

    found: list[LatticeVector] = []
    _scan_parity(evens, norm_sq, found)
    if odds:
        _scan_parity(odds, norm_sq, found)

    shells: dict[int, list[LatticeVector]] = {m: [] for m in range(max_half_norm + 1)}
    for d in found:
        m = sum(x * x for x in d)
        if m % 8 != 0:  # impossible for even-sum vectors of either parity class
            raise AssertionError(f"vector {d} off the even lattice")
        shells[m // 8].append(d)
    for m in shells:
        shells[m].sort()

    for m, vectors in shells.items():
        _check_shell_count(m, len(vectors))
    return ShellTable(max_half_norm, shells)


def _check_half_norm(max_half_norm: int) -> None:
    if not 0 <= max_half_norm <= MAX_HALF_NORM:
        raise ValueError(
            f"E8 order (half-norm bound) must lie in 0..{MAX_HALF_NORM}, got {max_half_norm}"
        )


def _check_shell_count(m: int, got: int) -> None:
    """Shell m must hold 240 * sigma_3(m) points (1 for m = 0)."""
    expected = 240 * sum(d**3 for d in range(1, m + 1) if m % d == 0) if m else 1
    if got != expected:
        raise AssertionError(f"shell {m} has {got} vectors, expected {expected}: counting bug")


@lru_cache(maxsize=8)
def _cached_shells(max_half_norm: int) -> ShellTable:
    return enumerate_shells(max_half_norm)


def e8_roots() -> list[LatticeVector]:
    """The 240 doubled-coordinate roots (half-norm 1)."""
    return list(_cached_shells(1).shells[1])


def theta_e8(beta: tuple[int, ...], order: int) -> TruncatedSeries:
    """Lattice theta series specialized along beta, for orders 0..MAX_HALF_NORM.

    Sum over points gamma of q^(|gamma|^2/2) * w^(2<gamma,beta>) where
    z_l = beta_l * t and w = e^(pi i t); the parity constraint makes every
    w-exponent 2<gamma,beta> = sum(d_l beta_l) an integer.  beta = 0 gives
    the scalar shell-count series.
    """
    beta = _validate_beta(beta)
    _check_half_norm(order)
    return intseries.to_series(_lattice_series(beta, order))


def _lattice_series(beta: tuple[int, ...], order: int) -> intseries.Block:
    """The lattice theta series along an 8-entry beta, through q^order, as a block.

    A dynamic program over the eight doubled coordinates, once per parity
    class, whose states (sum d_l^2, sum d_l mod 4, sum d_l beta_l) count the
    coordinate prefixes reaching them; no lattice vector is listed.
    Membership (sum d_l = 0 mod 4) is applied to the final states.  The
    caller bounds the order: theta_e8 and basic_character by MAX_HALF_NORM,
    the index lattice block by its own MAX_INDEX_ORDER.
    """
    norm_sq = 8 * order
    r = math.isqrt(norm_sq)
    shells: list[dict[int, int]] = [{} for _ in range(order + 1)]
    for parity in (0, 1):
        values = sorted((v for v in range(-r, r + 1) if v % 2 == parity), key=abs)
        states = {(0, 0, 0): 1}
        for b in beta:
            steps = [(v * v, v, v * b) for v in values]
            reached: dict[tuple[int, int, int], int] = {}
            for (n, s, e), count in states.items():
                room = norm_sq - n
                for v2, v, vb in steps:
                    if v2 > room:
                        break
                    key = (n + v2, (s + v) % 4, e + vb)
                    reached[key] = reached.get(key, 0) + count
            states = reached
        for (n, s, e), count in states.items():
            if s:
                continue
            if n % 8 != 0:  # impossible for even-sum vectors of either parity class
                raise AssertionError(f"a point of squared length {n}/4 is off the even lattice")
            shell = shells[n // 8]
            shell[e] = shell.get(e, 0) + count
    for m, shell in enumerate(shells):
        _check_shell_count(m, sum(shell.values()))
    return {U_PER_Q * m: shell for m, shell in enumerate(shells)}, U_PER_Q * order + U_PER_Q - 1


def _validate_beta(beta) -> tuple[int, ...]:
    beta = tuple(int(b) for b in beta)
    if len(beta) != 8:
        raise ValueError(f"beta must have 8 entries, got {len(beta)}")
    return beta


def theta_product_side(beta: tuple[int, ...], order: int) -> TruncatedSeries:
    """Half the sum of the four 8-fold theta products at z_l = beta_l t.

    An odd coefficient of the integer sum raises AssertionError.  Valid
    through q^order, i.e. u^(24 order): the theta_2 and theta_3 products are
    valid exactly that far, the other two (which start at q^(1/8)) further.
    """
    beta = _validate_beta(beta)
    total = ({}, U_PER_Q * order)
    for kind in ThetaKind:
        total = intseries.add(total, theta_product([(kind, b) for b in beta], order))
    for e, poly in total[0].items():
        if any(c % 2 for c in poly.values()):
            raise AssertionError(f"the theta products sum to an odd coefficient at u^{e}")
    return intseries.to_series(
        ({e: {w: c // 2 for w, c in p.items()} for e, p in total[0].items()}, total[1])
    )


def check_identity_116(beta: tuple[int, ...], order: int) -> VerificationReport:
    """Lattice sum versus half-sum of four theta products, exactly.

    The two sides are computed by unrelated routes (a count of lattice
    points vs product expansions), so agreement through q^order is a real
    check.
    The basis is pinned to the standard coordinates documented in the
    module docstring; a mismatch is reported, never silently re-based.
    """
    beta = _validate_beta(beta)
    lhs = theta_e8(beta, order)
    rhs = theta_product_side(beta, order)
    e = lhs.first_difference(rhs)
    if e is None:
        item = ReportItem(f"lattice sum = theta products through q^{order}", "pass")
    else:
        item = ReportItem(
            "first mismatching coefficient",
            "fail",
            coefficient=f"u^{e} (q^{Fraction(e, U_PER_Q)}): "
            f"lattice {lhs.coefficient(e)} vs products {rhs.coefficient(e)}",
        )
    return VerificationReport.from_items(
        [item],
        {
            "beta": list(beta),
            "order": order,
            "basis": "standard coordinates: integer/half-integer vectors, even sum",
        },
    )


@dataclass
class BasicCharacter:
    """Graded character of the level-one highest-weight module, along beta."""

    beta: tuple[int, ...]
    series: TruncatedSeries
    graded_dims: list[int]


def basic_character(beta: tuple[int, ...], order: int) -> BasicCharacter:
    """phi(q)^(-8) times the specialized lattice theta series, orders 0..MAX_HALF_NORM.

    The q^i coefficient at w = 1 is the dimension of the i-th graded piece:
    1, 248, 4124, 34752, ...  An order out of range raises ValueError before
    any block is expanded.
    """
    beta = _validate_beta(beta)
    _check_half_norm(order)
    block = intseries.mul(intseries.phi_block(-8, order), _lattice_series(beta, order))
    series = intseries.to_series(block)
    dims = []
    for i in range(order + 1):
        value = series.q_coefficient(i).sum_of_coefficients()
        dims.append(value.as_integer())
    if dims and dims[0] != 1:
        raise AssertionError(f"graded dimension 0 is {dims[0]}, expected 1")
    if len(dims) > 1 and dims[1] != 248:
        raise AssertionError(f"graded dimension 1 is {dims[1]}, expected 248")
    return BasicCharacter(beta, series, dims)
