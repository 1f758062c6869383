"""E8 root lattice: lattice theta function, basic character, shell enumeration.

Lattice model: standard coordinates, the union of the integer vectors and
the all-half-integer vectors whose coordinate sum is even.  A point gamma
is stored through its doubled coordinates d_l = 2*gamma_l, so membership
reads: all d_l share one parity and sum(d_l) = 0 mod 4.  Roots have
|gamma|^2 = 2; the half-norm m = |gamma|^2 / 2 = sum(d_l^2) / 8 indexes
shells, and shell m holds 240 * sigma_3(m) points (m >= 1).

The lattice theta function is a dynamic program over the eight doubled
coordinates: it counts points by (half-norm, w-exponent) without listing
them, so its cost grows polynomially in the order.  A state is a squared
length and a coordinate sum mod 4, at most 21 of them per parity class
through half-norm 10 and 61 through 30, and it holds its counts for every
w-exponent packed into one int, so a generic beta, whose points can each
have their own w-exponent, adds no states: it only widens the ints, by
sum |beta_l| / gcd(beta) slots.  Its counts form an `intseries` block over
Z[w^+-1].
It serves theta_e8, check_identity_116 and basic_character, which take
orders 0..MAX_HALF_NORM = 10, and the lattice block of the index series,
which takes the index bound 0..30.  All of them share one block per (W(D8)
orbit of beta, order): the series is a function of beta up to permutations
and even sign changes, so _lattice_series keys an lru_cache of 32 blocks
by sorted |beta|, plus the parity of its negative entries when no entry is
zero.  The largest block, at the README-bound beta (30, 29, 27, 23, 19,
13, 7, 2) and order 30, holds 18.6k terms, ~1.6 MiB.  The other side of
identity 116, theta_product_side, adds the four 8-fold theta products and
halves the sum exactly.  It multiplies out three of them
(theta.packed_product, a chain over the same packed layout as the lattice
states, intseries', with signed slots): the theta_2 product is the
theta_3 product at tau + 1, by the law tau -> tau + 1, which sends
q^(1/2) to -q^(1/2), so the two sum to twice the theta_3 product's terms
at whole powers of q.  The four are summed as packed ints, one per u-row
and w-class (the theta and theta_1 products share a class, and the
theta_3 product's is the same one or disjoint from it), and each summed
row is decoded once and halved.  basic_character multiplies the lattice
block by the block of phi^-8 (intseries.phi_block, by Euler's
recurrence).  Each public function makes a TruncatedSeries only from its
final block (intseries.to_series).  e8_roots writes the 240 roots down.
Explicit enumeration (enumerate_shells, also bounded by MAX_HALF_NORM, and
its cache _cached_shells, which the benchmark's tracer counts) serves only
the tests, where it is the brute-force oracle for the shell counts and the
roots.  A beta other than 8 integers in -MAX_BETA..MAX_BETA raises ValueError
(validate_beta, which also checks a fixture's beta and --beta) before any
block is built.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from . import intseries
from .errors import FixtureFormatError
from .record import Record
from .report import ReportItem, VerificationReport
from .series import TruncatedSeries, U_PER_Q
from .theta import ThetaKind, check_slots, packed_product, slot_bound

MAX_HALF_NORM = 10

# largest |beta_l| a fixture may give: the cost of the lattice block and of
# the block multiplies after it grows with the span of the w-exponents
# beta.d, and a two-point k = 1 fixture with beta = (1, 10, ..., 10^7) took
# 456 MiB at order 10; with every |beta_l| <= 30 order 30 stays under 2 s
# and 25 MiB
MAX_BETA = 30

LatticeVector = tuple[int, int, int, int, int, int, int, int]


class ShellTable(Record):
    """Vectors grouped by half-norm, each shell sorted lexicographically."""

    __slots__ = ("max_half_norm", "shells")

    def __init__(self, max_half_norm: int, shells: dict[int, list[LatticeVector]]):
        self.max_half_norm = max_half_norm
        self.shells = shells

    def total_vectors(self) -> int:
        return sum(len(v) for v in self.shells.values())


def validate_beta(beta) -> tuple[int, ...]:
    """beta as a tuple of 8 integers in -MAX_BETA..MAX_BETA; anything else
    raises FixtureFormatError (a ValueError) for the field 'beta'."""
    if not (
        isinstance(beta, (list, tuple))
        and len(beta) == 8
        and all(isinstance(b, int) and not isinstance(b, bool) for b in beta)
    ):
        raise FixtureFormatError("beta", "must be a list of 8 integers")
    if any(abs(b) > MAX_BETA for b in beta):
        raise FixtureFormatError("beta", f"entries must lie in -{MAX_BETA}..{MAX_BETA}")
    return tuple(beta)


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
    """enumerate_shells, once per bound; shared, never mutated."""
    return enumerate_shells(max_half_norm)


def e8_roots() -> list[LatticeVector]:
    """The 240 doubled-coordinate roots (half-norm 1), sorted as shell 1."""
    return list(_roots())


@lru_cache(maxsize=1)
def _roots() -> tuple[LatticeVector, ...]:
    """+-2e_i +-2e_j (i < j), and (+-1)^8 with an even number of minus signs."""
    roots = [s for s in itertools.product((1, -1), repeat=8) if s.count(-1) % 2 == 0]
    for i, j in itertools.combinations(range(8), 2):
        for si, sj in itertools.product((2, -2), repeat=2):
            d = [0] * 8
            d[i], d[j] = si, sj
            roots.append(tuple(d))
    return tuple(sorted(roots))


def theta_e8(beta: tuple[int, ...], order: int) -> TruncatedSeries:
    """Lattice theta series specialized along beta, for orders 0..MAX_HALF_NORM.

    Sum over points gamma of q^(|gamma|^2/2) * w^(2<gamma,beta>) where
    z_l = beta_l * t and w = e^(pi i t); the parity constraint makes every
    w-exponent 2<gamma,beta> = sum(d_l beta_l) an integer.  beta = 0 gives
    the scalar shell-count series.
    """
    beta = validate_beta(beta)
    _check_half_norm(order)
    return intseries.to_series(_lattice_series(beta, order))


def _lattice_series(beta: tuple[int, ...], order: int) -> intseries.Block:
    """The lattice theta series along an 8-entry beta, through q^order, as a block.

    The series depends on beta only up to W(D8): permutations and even sign
    changes map the lattice to itself.  So the block is built once per orbit
    and order, at the orbit's representative: sorted |beta|, with its largest
    entry negated when an odd number of entries are negative.  An odd flip
    is a symmetry only when a zero entry absorbs it, so the parity is kept
    exactly when no entry is zero.  The block is shared: callers must not
    mutate it.
    """
    key = sorted(map(abs, beta))
    if key[0] and sum(b < 0 for b in beta) % 2:
        key[-1] = -key[-1]
    return _lattice_block(tuple(key), order)


@lru_cache(maxsize=32)
def _lattice_block(beta: tuple[int, ...], order: int) -> intseries.Block:
    """_lattice_series's block, built at beta itself.

    A dynamic program over the eight doubled coordinates, once per parity
    class, whose states (sum d_l^2, sum d_l mod 4) count the coordinate
    prefixes reaching them; no lattice vector is listed.  A state's counts by
    w-exponent are packed into one int, intseries._SLOT_BITS bits per
    exponent (intseries' packed layout, read back by intseries._slots), so a
    coordinate step adds the state's int shifted by the step's exponent.
    The packed exponent is sum floor(d_l / 2) b_l for b = beta / gcd(beta),
    less its minimum: with the parity p of the class, the w-exponent is
    gcd(beta) (2 sum floor(d_l / 2) b_l + p sum b_l), and neither the zero
    slots between multiples of the gcd nor those of the other parity are
    stored.  Membership (sum d_l = 0 mod 4) is applied to the final states.
    The caller bounds the order: theta_e8 and basic_character by
    MAX_HALF_NORM, the index lattice block by its own MAX_INDEX_ORDER.
    """
    norm_sq = 8 * order
    r = math.isqrt(norm_sq)
    # a slot counts coordinate tuples, at most (r + 1)^8 of them, and must
    # not carry into the next slot
    if (r + 1) ** 8 >> intseries._SLOT_BITS:
        raise AssertionError(
            f"order {order} overflows the {intseries._SLOT_BITS}-bit count slots"
        )
    g = math.gcd(*beta) or 1
    beta = [b // g for b in beta]
    shells: list[dict[int, int]] = [{} for _ in range(order + 1)]
    for parity in (0, 1):
        values = sorted((v for v in range(-r, r + 1) if v % 2 == parity), key=abs)
        low = 0  # the half-exponent of slot 0
        states = {(0, 0): 1}
        for b in beta:
            halves = [(v >> 1) * b for v in values]
            least = min(halves, default=0)  # no odd values at order 0
            low += least
            steps = [
                (v * v, v, intseries._SLOT_BITS * (h - least)) for v, h in zip(values, halves)
            ]
            reached: dict[tuple[int, int], int] = {}
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
            if n % 8 != 0:  # impossible for even-sum vectors of either parity class
                raise AssertionError(f"a point of squared length {n}/4 is off the even lattice")
            shell = shells[n // 8]
            e = base
            for count in intseries._slots(poly):
                if count:
                    shell[e] = shell.get(e, 0) + count
                e += 2 * g
    for m, shell in enumerate(shells):
        _check_shell_count(m, sum(shell.values()))
    return {U_PER_Q * m: shell for m, shell in enumerate(shells)}, U_PER_Q * order + U_PER_Q - 1


def theta_product_side(beta: tuple[int, ...], order: int) -> TruncatedSeries:
    """Half the sum of the four 8-fold theta products at z_l = beta_l t.

    An odd coefficient of the integer sum raises AssertionError.  Valid
    through q^order, i.e. u^(24 order): the theta_2 and theta_3 products are
    valid exactly that far, the other two (which start at q^(1/8)) further.
    """
    return intseries.to_series(_product_side(validate_beta(beta), order))


# the products multiplied out, each with its weight in the sum: the theta_2
# product enters as the theta_3 one's whole-q terms, counted twice
_PRODUCT_KINDS = ((ThetaKind.THETA, 1), (ThetaKind.THETA1, 1), (ThetaKind.THETA3, 2))


def _product_side(beta: tuple[int, ...], order: int) -> intseries.Block:
    """theta_product_side's block, for a validated beta.

    Three 8-fold products are multiplied out, as theta.packed_product
    chains; the theta_2 product is the theta_3 product at tau + 1.
    tau -> tau + 1 sends q^(1/2) to -q^(1/2), which turns each factor
    theta_3(z, tau) into theta_2(z, tau), so it sends u^e to (-1)^(e/12) u^e
    in a product whose exponents are all multiples of 12 (asserted): the
    theta_2 and theta_3 products sum to twice the theta_3 product's terms at
    multiples of 24 and cancel at the others.  The four are summed through
    the smallest validity as packed ints, one per u-row and w-class: all
    three chains share the stride 2 gcd(beta), and the theta and theta_1
    products hold the w-exponents = sum(beta) mod the stride, the theta_3
    product those = 0, so the two classes are one or disjoint.  Within a
    class each row is shifted to the class's smaller low and added; each
    summed row is decoded once, and its ints are checked even and halved.
    Every |coefficient| of the sum is at most bound(theta) + bound(theta_1)
    + 2 bound(theta_3) (theta.slot_bound), which must stay below 2^63
    before any chain runs.  Each product takes its factors by increasing
    |beta_l|: the product is the same, the small factors keep the partial
    products short, and a zero beta_l comes first, where it ends the theta
    product at once.
    """
    factors = sorted(beta, key=abs)
    lists = [(kind, [(kind, b) for b in factors], scale) for kind, scale in _PRODUCT_KINDS]
    check_slots(
        sum(scale * slot_bound(f, order) for _, f, scale in lists),
        f"the theta products through q^{order}",
    )
    classes: dict[int, list] = {}  # low mod stride: (rows, low, scale) of each product
    through = U_PER_Q * order
    for kind, f, scale in lists:
        rows, low, stride, validity = packed_product(f, order)
        through = min(through, validity)
        if kind is ThetaKind.THETA3:
            if any(e % (U_PER_Q // 2) for e in rows):
                raise AssertionError("the theta_3 product has a term off the q^(1/2) lattice")
            # theta_2 + theta_3 is twice the theta_3 terms at whole powers of q
            rows = {e: r for e, r in rows.items() if e % U_PER_Q == 0}
        if rows:
            classes.setdefault(low % stride, []).append((rows, low, scale))
    total: dict[int, dict[int, int]] = {}
    for members in classes.values():
        base = min(low for _, low, _ in members)
        summed: dict[int, int] = {}
        for rows, low, scale in members:
            shift = intseries._SLOT_BITS * ((low - base) // stride)
            for e, r in rows.items():
                if e <= through:
                    summed[e] = summed.get(e, 0) + (scale * r << shift)
        for e, r in summed.items():
            if r:
                total.setdefault(e, {}).update(intseries._unpack(r, base, stride))
    for e in sorted(total):
        if any(c % 2 for c in total[e].values()):
            raise AssertionError(f"the theta products sum to an odd coefficient at u^{e}")
    return {e: {w: c // 2 for w, c in p.items()} for e, p in sorted(total.items())}, through


def check_identity_116(beta: tuple[int, ...], order: int) -> VerificationReport:
    """Lattice sum versus half-sum of four theta products, exactly.

    The two sides are computed by unrelated routes (a count of lattice
    points vs product expansions), so agreement through q^order is a real
    check.  They are compared as integer blocks; series are made only to
    word a mismatch.
    The basis is pinned to the standard coordinates documented in the
    module docstring; a mismatch is reported, never silently re-based.
    """
    beta = validate_beta(beta)
    _check_half_norm(order)
    lhs = _lattice_series(beta, order)
    rhs = _product_side(beta, order)
    through = min(lhs[1], rhs[1])
    differ = [
        e for e in lhs[0].keys() | rhs[0].keys()
        if e <= through and lhs[0].get(e) != rhs[0].get(e)
    ]
    if not differ:
        item = ReportItem(f"lattice sum = theta products through q^{order}", "pass")
    else:
        e = min(differ)
        lhs, rhs = intseries.to_series(lhs), intseries.to_series(rhs)
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


class BasicCharacter(Record):
    """Graded character of the level-one highest-weight module, along beta."""

    __slots__ = ("beta", "series", "graded_dims")

    def __init__(self, beta: tuple[int, ...], series: TruncatedSeries, graded_dims: list[int]):
        self.beta = beta
        self.series = series
        self.graded_dims = graded_dims


def basic_character(beta: tuple[int, ...], order: int) -> BasicCharacter:
    """phi(q)^(-8) times the specialized lattice theta series, orders 0..MAX_HALF_NORM.

    The q^i coefficient at w = 1 is the dimension of the i-th graded piece:
    1, 248, 4124, 34752, ...  An order out of range raises ValueError before
    any block is expanded.
    """
    beta = validate_beta(beta)
    _check_half_norm(order)
    block = intseries.mul(intseries.phi_block(-8, order), _lattice_series(beta, order))
    series = intseries.to_series(block)
    dims = [sum(block[0].get(U_PER_Q * i, {}).values()) for i in range(order + 1)]
    if dims and dims[0] != 1:
        raise AssertionError(f"graded dimension 0 is {dims[0]}, expected 1")
    if len(dims) > 1 and dims[1] != 248:
        raise AssertionError(f"graded dimension 1 is {dims[1]}, expected 248")
    return BasicCharacter(beta, series, dims)
