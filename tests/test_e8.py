import math
import operator
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    brute_force_e8_shell,
    first_difference,
    map_coefficients,
    naive_partition_power,
    product_side_by_decoding,
    series_sum,
    shell_counts,
    substitute_power,
    theta_product_qi,
    truncate,
)

import e8theta.e8
from e8theta import intseries
from e8theta.e8 import (
    MAX_HALF_NORM,
    basic_character,
    check_identity_116,
    e8_roots,
    enumerate_shells,
    theta_e8,
    theta_product_side,
)
from e8theta.gaussian import GaussianRational
from e8theta.laurent import LaurentPolynomial
from e8theta.series import U_PER_Q
from e8theta.theta import ThetaKind, packed_product, theta_product


def test_shell_zero_is_origin():
    table = enumerate_shells(0)
    assert table.shells[0] == [(0,) * 8]


@pytest.mark.parametrize("m", [1, 2])
def test_shells_match_brute_force_box_scan(m):
    table = enumerate_shells(m)
    assert table.shells[m] == brute_force_e8_shell(m)


def test_shell_counts():
    counts = shell_counts(enumerate_shells(3))
    assert counts == [1, 240, 2160, 6720]


def test_enumeration_is_deterministic_and_sorted():
    t1 = enumerate_shells(2)
    t2 = enumerate_shells(2)
    assert t1.shells == t2.shells
    for vecs in t1.shells.values():
        assert vecs == sorted(vecs)


def test_half_norm_bound_checked_before_enumeration(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started for an out-of-range order")

    monkeypatch.setattr(e8theta.e8, "_scan_parity", no_work)
    monkeypatch.setattr(e8theta.e8, "_check_shell_count", no_work)
    for bound in (11, -1):
        with pytest.raises(ValueError, match=r"0\.\.10"):
            enumerate_shells(bound)
    with pytest.raises(ValueError, match=r"0\.\.10"):
        theta_e8((1, 0, 0, 0, 0, 0, 0, 0), 11)


def test_shell_count_check_rejects_a_wrong_count():
    e8theta.e8._check_shell_count(0, 1)
    e8theta.e8._check_shell_count(4, 240 * 73)
    for m, got in ((0, 0), (1, 239), (4, 240 * 72)):
        with pytest.raises(AssertionError, match="counting bug"):
            e8theta.e8._check_shell_count(m, got)


def test_roots_have_norm_two():
    roots = e8_roots()
    assert len(roots) == 240
    assert all(sum(d * d for d in r) == 8 for r in roots)


def test_written_roots_are_the_enumerated_first_shell():
    assert e8_roots() == enumerate_shells(1).shells[1]
    assert e8_roots() is not e8_roots()  # a fresh list per call


def test_theta_e8_scalar_series():
    # beta = 0: the q^m coefficient is 240 * sigma_3(m)
    s = theta_e8((0,) * 8, 10)
    counts = [s.q_coefficient(m).constant_value().as_integer() for m in range(11)]
    sigma3 = [sum(d**3 for d in range(1, m + 1) if m % d == 0) for m in range(1, 11)]
    assert counts[:4] == [1, 240, 2160, 6720]
    assert counts == [1] + [240 * s3 for s3 in sigma3]


@cache
def _shells_through_5():
    return enumerate_shells(5)


def _lattice_sum_from_shells(beta, table, n):
    """The lattice sum through half-norm n, binned directly from enumerated
    vectors: the DP's oracle."""
    coeffs = {}
    for m, vectors in table.shells.items():
        if m > n:
            continue
        counts = {}
        for d in vectors:
            e = sum(map(operator.mul, d, beta))
            counts[e] = counts.get(e, 0) + 1
        coeffs[U_PER_Q * m] = LaurentPolynomial(
            {e: GaussianRational(n) for e, n in counts.items()}
        )
    return coeffs


@given(st.tuples(*[st.integers(-3, 3)] * 8), st.integers(0, 5))
@example((0,) * 8, 5)
@example((3, 0, 0, 0, 0, 0, 0, 0), 5)
@example((1, -3, 2, 0, 1, 0, -1, 3), 5)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_theta_e8_equals_enumerated_lattice_sum(beta, n):
    # shells are complete, so the order-5 table restricted to half-norm <= n
    # is enumerate_shells(n)
    s = theta_e8(beta, n)
    assert s.order == U_PER_Q * n + U_PER_Q - 1
    assert s.coeffs == _lattice_sum_from_shells(beta, _shells_through_5(), n), (beta, n)


@st.composite
def _wide_betas(draw):
    """8 entries in -30..30, a multiple of a drawn g in 1..10."""
    g = draw(st.integers(1, 10))
    return tuple(g * b for b in draw(st.tuples(*[st.integers(-(30 // g), 30 // g)] * 8)))


@given(_wide_betas(), st.integers(0, 3))
@example((3, 6, -9, 0, 0, 0, 0, 3), 3)  # shared factor 3, odd sum
@example((30,) * 8, 3)
@example((-30, 29, 27, -23, 19, 13, 7, 2), 3)
@example((2, 4, 6, 0, 0, 0, 0, -8), 3)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_lattice_sum_equals_enumeration_for_wide_betas(beta, n):
    # the packed dynamic program against the enumerated vectors, with
    # entries up to the MAX_BETA bound, shared factors and odd sums
    s = intseries.to_series(e8theta.e8._lattice_series(beta, n))
    assert s.coeffs == _lattice_sum_from_shells(beta, _shells_through_5(), n), (beta, n)


def test_lattice_sum_checks_the_slot_width_before_any_state(monkeypatch):
    # every count is at most (r + 1)^8 with r = isqrt(8 order), so 64-bit
    # slots hold every order through 8128.  gcd(beta) is the program's first
    # step after the check: patched to raise, no state is ever built.
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(e8theta.e8, "math", SimpleNamespace(isqrt=math.isqrt, gcd=no_work))
    with pytest.raises(AssertionError, match="order 8129 overflows the 64-bit count slots"):
        e8theta.e8._lattice_series((1,) * 8, 8129)
    with pytest.raises(AssertionError, match="work started"):
        e8theta.e8._lattice_series((1,) * 8, 8128)


@st.composite
def _orbit_moves(draw):
    """A beta and its image under W(D8): a permutation and an even number of
    sign flips, or any number of them when beta has a zero entry (a flip of
    a zero changes nothing, so it evens out the count)."""
    beta = draw(st.tuples(*[st.integers(-30, 30)] * 8))
    perm = draw(st.permutations(range(8)))
    flips = draw(st.lists(st.booleans(), min_size=8, max_size=8))
    if sum(flips) % 2 and 0 not in beta:
        flips[0] = not flips[0]
    return beta, tuple(-beta[i] if f else beta[i] for i, f in zip(perm, flips))


@given(_orbit_moves(), st.integers(0, 4))
@example(((1,) * 8, (-1,) * 8), 3)
@example(((1,) * 8, (-1, -1) + (1,) * 6), 3)
@example(((2, 0, 1, 1, 1, 1, 1, 1), (-2, 0, 1, 1, 1, 1, 1, 1)), 3)  # an odd flip, a zero entry
@example(((30, 29, 27, 23, 19, 13, 7, 2), (-2, 7, 13, 19, 23, 27, 29, -30)), 2)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_lattice_block_is_shared_by_a_w_d8_orbit(pair, order):
    # the key folds exactly these moves: the moved beta reads the block that
    # beta cached, and that block is what the dynamic program gives when it
    # is run at the moved beta itself
    beta, moved = pair
    e8theta.e8._lattice_block.cache_clear()
    block = e8theta.e8._lattice_series(beta, order)
    assert e8theta.e8._lattice_series(moved, order) is block
    assert block == e8theta.e8._lattice_block.__wrapped__(moved, order), (beta, moved, order)
    assert e8theta.e8._lattice_block.cache_info().misses == 1


def test_a_single_sign_flip_without_a_zero_entry_is_not_folded():
    # an odd number of flips maps the half-integer vectors off the lattice,
    # so these two betas have different series and different keys
    ones, flipped = (1,) * 8, (1,) * 7 + (-1,)
    block = e8theta.e8._lattice_series(ones, 3)
    other = e8theta.e8._lattice_series(flipped, 3)
    assert block != other
    assert block == e8theta.e8._lattice_block.__wrapped__(ones, 3)
    assert other == e8theta.e8._lattice_block.__wrapped__(flipped, 3)
    assert e8theta.e8._lattice_block.cache_info().currsize == 2


def test_a_built_block_stays_cached():
    theta_e8((1,) * 8, 3)
    theta_e8((1,) * 8, 3)
    assert e8theta.e8._lattice_block.cache_info()[:2] == (1, 1)  # hits, misses


def test_a_patched_builder_reads_no_block_an_earlier_test_cached(monkeypatch):
    # the test above cached this block; the autouse fixture in conftest.py
    # empties the caches before each test, so the block is built again, under
    # the patch
    def no_count(m, got):
        raise AssertionError("shell counted under the patch")

    monkeypatch.setattr(e8theta.e8, "_check_shell_count", no_count)
    with pytest.raises(AssertionError, match="under the patch"):
        theta_e8((1,) * 8, 3)


def test_theta_e8_does_not_enumerate(monkeypatch):
    calls = []

    def recorder(name, fn):
        def record(*args):
            calls.append((name, args))
            return fn(*args)

        return record

    for name in ("enumerate_shells", "_cached_shells", "_scan_parity"):
        monkeypatch.setattr(e8theta.e8, name, recorder(name, getattr(e8theta.e8, name)))
    theta_e8((1, -2, 0, 3, 1, 0, 0, -1), 4)
    assert calls == []


def test_theta_e8_first_coordinate_multiset():
    # roots grouped by doubled first coordinate: computed by enumeration
    expected = {0: 84, 1: 64, -1: 64, 2: 14, -2: 14}
    counts = {}
    for d in e8_roots():
        counts[d[0]] = counts.get(d[0], 0) + 1
    assert counts == expected
    q1 = theta_e8((1, 0, 0, 0, 0, 0, 0, 0), 1).q_coefficient(1)
    assert q1 == LaurentPolynomial(
        {e: GaussianRational(n) for e, n in expected.items()}
    )
    assert q1.sum_of_coefficients().as_integer() == 240


def test_theta_e8_palindromic_in_w(rng):
    for _ in range(5):
        beta = tuple(rng.randint(-3, 3) for _ in range(8))
        s = theta_e8(beta, 2)
        for i in range(3):
            c = s.q_coefficient(i)
            assert c == substitute_power(c, -1)


def test_theta_e8_permutation_invariance(rng):
    beta = (2, -1, 0, 1, 3, 0, -2, 1)
    s = theta_e8(beta, 2)
    for _ in range(4):
        perm = list(beta)
        rng.shuffle(perm)
        assert theta_e8(tuple(perm), 2) == s
    # so is the product side, which reorders its factors by |beta_l|
    rhs = theta_product_side(beta, 3)
    for perm in ((1, 3, 0, -2, 1, 0, 2, -1), (0, 0, -1, 1, 1, -2, 2, 3)):
        assert theta_product_side(perm, 3) == rhs


def test_identity_beta_zero_reduces_to_three_products():
    # the odd theta vanishes at z = 0, so only three products survive
    order = 5
    rhs = theta_product_side((0,) * 8, order)
    manual = None
    for kind in (ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3):
        factor = p = theta_product([(kind, 0)], order + 1)
        for _ in range(7):
            p = intseries.mul(p, factor)
        manual = p if manual is None else intseries.add(manual, p)
    through = min(rhs.order, manual[1])
    twice = map_coefficients(rhs, lambda c: c * 2)
    assert truncate(twice, through) == truncate(intseries.to_series(manual), through)
    report = check_identity_116((0,) * 8, order)
    assert report.ok


def _qi_half_sum(beta, order):
    """Half the sum of the four 8-fold products, multiplied over Q(i)."""
    total = None
    for kind in ThetaKind:
        prod = theta_product_qi([(kind, b) for b in beta], order)
        total = prod if total is None else series_sum(total, prod)
    half = GaussianRational(Fraction(1, 2))
    return map_coefficients(total, lambda c: c * half)


def test_product_side_equals_qi_half_sum(rng):
    for _ in range(8):
        beta = tuple(rng.randint(-3, 3) for _ in range(8))
        for order in range(6):
            assert theta_product_side(beta, order) == _qi_half_sum(beta, order), (beta, order)


def test_product_side_raises_on_an_odd_sum(monkeypatch):
    # one more at the least w-exponent of the theta_1 product's lowest row,
    # u^24; the theta product is empty and the theta_3 one in the other w-class
    def one_more_theta1_term(factors, order):
        rows, low, stride, validity = packed_product(factors, order)
        if factors[0][0] is ThetaKind.THETA1:
            e = min(rows)
            rows = {**rows, e: rows[e] + 1}
        return rows, low, stride, validity

    monkeypatch.setattr(e8theta.e8, "packed_product", one_more_theta1_term)
    with pytest.raises(AssertionError, match=r"odd coefficient at u\^24"):
        theta_product_side((1, 0, 0, 0, 0, 0, 0, 0), 1)


README_BETA = (30, 29, 27, 23, 19, 13, 7, 2)


@given(st.tuples(*[st.integers(-30, 30)] * 8), st.integers(0, 10))
@example(README_BETA, 10)
@example((0,) * 8, 10)
@example((1, 0, -3, 0, 5, 7, 0, -9), 7)  # a zero entry: the theta product is empty
@example((3, -6, 9, 12, 3, 6, 9, 3), 6)  # sum / gcd odd: two w-classes
@example((2, 4, -6, 8, 2, 2, 4, 12), 8)  # all even: stride 4
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_packed_product_side_equals_the_decoded_sum(beta, order):
    """The packed sum of the three chains gives the block, and the validity,
    of the decoded route: three theta_product blocks, the theta_2 twist, the
    dict sum and the halving."""
    assert e8theta.e8._product_side(beta, order) == product_side_by_decoding(beta, order)


def test_product_side_slot_guard_counts_the_sum(monkeypatch):
    """Every |coefficient| of the sum is at most bound(theta) + bound(theta_1)
    + 2 bound(theta_3).  At 2^63 the product side raises before any chain
    runs, though each bound alone is below it; one less and the chains run."""
    ran = []

    def recording(factors, order):
        ran.append(factors[0][0])
        return packed_product(factors, order)

    monkeypatch.setattr(e8theta.e8, "packed_product", recording)
    beta = (1, 2, 0, -3, 0, 0, 1, 1)
    expected = product_side_by_decoding(beta, 3)
    for theta1_bound, raises in ((2**61, True), (2**61 - 1, False)):
        bounds = {ThetaKind.THETA: 2**62, ThetaKind.THETA1: theta1_bound, ThetaKind.THETA3: 2**60}
        monkeypatch.setattr(e8theta.e8, "slot_bound", lambda factors, order: bounds[factors[0][0]])
        ran.clear()
        if raises:
            with pytest.raises(AssertionError, match="overflow the 64-bit coefficient slots"):
                e8theta.e8._product_side(beta, 3)
            assert ran == []
        else:
            assert e8theta.e8._product_side(beta, 3) == expected
            assert len(ran) == 3


def test_product_side_multiplies_three_products(monkeypatch):
    """The theta_2 product is not multiplied out: it is the theta_3 one twisted."""
    kinds = []

    def recording(factors, order):
        kinds.append({kind for kind, _ in factors})
        return packed_product(factors, order)

    monkeypatch.setattr(e8theta.e8, "packed_product", recording)
    for beta in ((0,) * 8, (1, 2, 0, -3, 0, 0, 1, 1), README_BETA):
        kinds.clear()
        theta_product_side(beta, 4)
        assert len(kinds) == 3 and all(len(k) == 1 for k in kinds), kinds
        assert ThetaKind.THETA2 not in set().union(*kinds)


@given(st.tuples(*[st.integers(-30, 30)] * 8), st.integers(0, 10))
@example(README_BETA, 10)
@example((0,) * 8, 10)
@example((1, 0, -3, 0, 5, 7, 0, -9), 7)
@example((2, 4, 6, 0, 0, 0, 0, -8), 0)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
def test_theta2_product_is_the_theta3_product_at_tau_plus_one(beta, order):
    """tau -> tau + 1 sends q^(1/2) to -q^(1/2), so u^e to (-1)^(e/12) u^e
    on the 8-fold theta_3 product, whose exponents are multiples of 12."""
    theta3 = theta_product([(ThetaKind.THETA3, b) for b in beta], order)
    assert all(e % 12 == 0 for e in theta3[0])
    twisted = {e: {w: (-1) ** (e // 12) * c for w, c in p.items()} for e, p in theta3[0].items()}
    assert (twisted, theta3[1]) == theta_product([(ThetaKind.THETA2, b) for b in beta], order)


@pytest.mark.parametrize("beta,order", [
    ((1, 1, 0, 0, 0, 0, 0, 0), 4),
    ((1, 0, 0, 0, 0, 0, 0, 0), 5),
    ((0,) * 8, 5),
])
def test_identity_pinned_specializations(beta, order):
    report = check_identity_116(beta, order)
    assert report.ok, report.summary()


def test_identity_randomized(rng):
    for _ in range(20):
        beta = tuple(rng.randint(-3, 3) for _ in range(8))
        report = check_identity_116(beta, 3)
        assert report.ok, f"beta={beta}\n{report.summary()}"


@pytest.mark.parametrize("beta,order", [
    ((0,) * 8, 12),
    ((0,) * 8, 30),
    ((1, -1, 0, 0, 0, 0, 0, 0), 12),
    ((30, 29, 27, 23, 19, 13, 7, 2), 12),
    ((30, 29, 27, 23, 19, 13, 7, 2), 30),
    ((30,) * 8, 17),
    ((30,) * 8, 30),
    ((2, 4, 6, 0, 0, 0, 0, -8), 12),
    ((2, 4, 6, 0, 0, 0, 0, -8), 30),
])
def test_lattice_sum_equals_theta_products_past_the_e8_bound(beta, order):
    # the index lattice block runs the lattice-sum DP up to the index bound,
    # 30, past the 0..10 that theta_e8 and check_identity_116 accept
    lhs = intseries.to_series(e8theta.e8._lattice_series(beta, order))
    rhs = theta_product_side(beta, order)
    assert first_difference(lhs, rhs) is None
    assert not lhs.q_coefficient(order).is_zero()


def test_identity_mismatch_item_wording(monkeypatch):
    # one more at the theta_3 product's w^2 u^24, which the sum counts
    # twice: the half-sum gains one w^2 at q^1; the item reads as when the
    # two sides were compared as series
    def one_more_theta3_term(factors, order):
        rows, low, stride, validity = packed_product(factors, order)
        if factors[0][0] is ThetaKind.THETA3:
            slot = intseries._SLOT_BITS * ((2 - low) // stride)
            rows = {**rows, U_PER_Q: rows[U_PER_Q] + (1 << slot)}
        return rows, low, stride, validity

    monkeypatch.setattr(e8theta.e8, "packed_product", one_more_theta3_term)
    report = check_identity_116((1, 0, 0, 0, 0, 0, 0, 0), 2)
    assert [item.to_dict() for item in report.items] == [{
        "name": "first mismatching coefficient",
        "status": "fail",
        "coefficient": "u^24 (q^1): lattice 14*w^-2 + 64*w^-1 + 84 + 64*w + 14*w^2"
        " vs products 14*w^-2 + 64*w^-1 + 84 + 64*w + 15*w^2",
    }]
    assert report.summary().splitlines()[0] == "verdict: fail"


def test_identity_check_can_fail():
    # corrupt one side by shifting beta between the two routes
    lhs = theta_e8((1, 0, 0, 0, 0, 0, 0, 0), 2)
    rhs = theta_product_side((2, 0, 0, 0, 0, 0, 0, 0), 2)
    e = first_difference(lhs, rhs)
    assert e is not None


def test_basic_character_order_checked_before_any_block(monkeypatch):
    def no_work(*args):
        raise AssertionError("a block was expanded for an out-of-range order")

    monkeypatch.setattr(intseries, "phi_block", no_work)
    monkeypatch.setattr(e8theta.e8, "_lattice_series", no_work)
    for order in (MAX_HALF_NORM + 1, -1):
        with pytest.raises(ValueError, match=rf"0\.\.{MAX_HALF_NORM}"):
            basic_character((0,) * 8, order)


def test_beta_checked_before_any_block(monkeypatch):
    def no_work(*args):
        raise AssertionError("a block was built for an out-of-range beta")

    monkeypatch.setattr(e8theta.e8, "_lattice_series", no_work)
    monkeypatch.setattr(e8theta.e8, "slot_bound", no_work)
    monkeypatch.setattr(e8theta.e8, "packed_product", no_work)
    for beta in ((31,) + (0,) * 7, (0,) * 7 + (-31,), (1.5,) + (0,) * 7, (True,) + (0,) * 7, (0,) * 7):
        for fn in (theta_e8, theta_product_side, check_identity_116, basic_character):
            with pytest.raises(ValueError, match="beta"):
                fn(beta, 1)


def test_basic_character_graded_dims():
    ch = basic_character((0,) * 8, 3)
    assert ch.graded_dims == [1, 248, 4124, 34752]


def test_graded_dims_match_convolution_oracle():
    # dim V_i = sum_m shellcount(m) * [q^(i-m)] prod (1-q^n)^(-8)
    counts = shell_counts(enumerate_shells(3))
    inv8 = naive_partition_power(3, 8)
    expected = [
        sum(counts[m] * inv8[i - m] for m in range(i + 1)) for i in range(4)
    ]
    assert [int(e) for e in expected] == basic_character((0,) * 8, 3).graded_dims


def test_character_q1_coefficient_shape(rng):
    beta = (1, -2, 0, 3, 1, 0, 0, -1)
    ch = basic_character(beta, 1)
    q1 = ch.series.q_coefficient(1)
    expected = {0: 8}
    for d in e8_roots():
        e = sum(dl * bl for dl, bl in zip(d, beta))
        expected[e] = expected.get(e, 0) + 1
    assert q1 == LaurentPolynomial({e: GaussianRational(n) for e, n in expected.items()})


def test_graded_dims_independent_of_beta(rng):
    reference = basic_character((0,) * 8, 3).graded_dims
    for _ in range(4):
        beta = tuple(rng.randint(-2, 2) for _ in range(8))
        assert basic_character(beta, 3).graded_dims == reference


def test_shell_counts_equal_theta_eighth_powers():
    order = 5
    counts = shell_counts(enumerate_shells(order))
    rhs = theta_product_side((0,) * 8, order)
    for m in range(order + 1):
        assert rhs.q_coefficient(m).constant_value().as_integer() == counts[m]
