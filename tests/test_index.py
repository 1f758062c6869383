"""Exact checks of the index-series machinery.

The heavy oracle here expands the twisting tower directly with geometric
series (no theta quotients anywhere): per fixed point,

    [w^c (1 +/- w^(-2c)) / prod_j (w^(a_j) - w^(-a_j))]
        * ch(tower at the point) * (lattice theta series along beta)

with the tower character assembled from its defining product over
exterior/symmetric powers, and the lattice theta series taken from the
theta-product side of identity 116, not from the lattice-point count that
the production series uses.  Agreement with the production series, which
comes from theta quotients, validates both routes at every order.
"""

import operator
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    first_difference,
    map_coefficients,
    one_series,
    phi_series,
    power,
    random_fixture,
    series_sum,
    sphere_product_fixture,
    substitute_power,
    truncate,
)

from e8theta import intseries, ratfunc
from e8theta.bundles import BundleExpr, lefschetz_sums, order_one_twist
from e8theta.e8 import theta_product_side
from e8theta.fixtures import (
    BUNDLED_FIXTURES,
    FixedPoint,
    FixedPointFixture,
    IndexFlavor,
    resolve_fixture,
)
from e8theta.gaussian import GaussianRational
from e8theta.laurent import LaurentPolynomial, laurent_exact_div, laurent_gcd
from e8theta.ratfunc import RationalFunction, cyclotomic_lcm, over_cyclotomic
from e8theta.series import TruncatedSeries, U_PER_Q
from e8theta.theta import ThetaKind, theta_product
from e8theta.index import (
    _divide_tangent,
    _point_block,
    _shared_block,
    anomaly,
    check_rigidity,
    classify,
    evaluate_at_identity,
    index_series,
    lefschetz_number,
    point_contribution,
    verify_qexpansion,
)

Z8 = (0,) * 8


def W(coeffs):
    return LaurentPolynomial({e: GaussianRational(c) for e, c in coeffs.items()})


def fixture(k, *points, label="test"):
    return FixedPointFixture(k=k, points=tuple(FixedPoint(*p) for p in points), label=label)


S2 = fixture(1, ((1,), 0, Z8), ((-1,), 0, Z8), label="sphere")
S2XS2 = fixture(2, ((1, 1), 0, Z8), ((1, -1), 0, Z8), ((-1, 1), 0, Z8), ((-1, -1), 0, Z8))
CP1_SPINC = fixture(1, ((1,), 1, Z8), ((-1,), -1, Z8))
CP2 = fixture(2, ((1, 2), 3, Z8), ((-1, 1), 0, Z8), ((-2, -1), -3, Z8))
SINGLE = fixture(1, ((1,), 0, Z8))


# independent tower oracle


def _tower_series(point: FixedPoint, k: int, flavor: IndexFlavor, order: int) -> TruncatedSeries:
    """Character of the twisting tower at one point, by geometric expansion."""
    validity = U_PER_Q * (order + 1)
    num = one_series(validity, LaurentPolynomial())
    den = one_series(validity, LaurentPolynomial())
    c2, c2m = W({2 * point.c: 1}), W({-2 * point.c: 1})
    one = LaurentPolynomial({0: 1})

    m = 1
    while U_PER_Q * m <= validity:
        e = U_PER_Q * m
        for a in point.alpha:  # symmetric powers of the reduced tangent bundle
            den = den.times_one_plus(W({2 * a: -1}), e)
            den = den.times_one_plus(W({-2 * a: -1}), e)
        num = num.times_one_plus(-one, e)
        num = num.times_one_plus(-one, e)  # (1 - q^m)^(2k) per plane
        if k > 1:
            for _ in range(k - 1):
                num = num.times_one_plus(-one, e)
                num = num.times_one_plus(-one, e)
        if flavor is IndexFlavor.I_SERIES:  # exterior powers of the reduced line bundle
            num = num.times_one_plus(c2, e)
            num = num.times_one_plus(c2m, e)
            den = den.times_one_plus(one, e)
            den = den.times_one_plus(one, e)
        else:
            num = num.times_one_plus(-c2, e)
            num = num.times_one_plus(-c2m, e)
            den = den.times_one_plus(-one, e)
            den = den.times_one_plus(-one, e)
        m += 1
    if flavor is IndexFlavor.I_SERIES:
        h = 1
        while U_PER_Q * h - 12 <= validity:  # the two half-integer towers
            e = U_PER_Q * h - 12
            for sign in (-1, 1):
                sc = GaussianRational(sign)
                num = num.times_one_plus(c2.scale(sc), e)
                num = num.times_one_plus(c2m.scale(sc), e)
                den = den.times_one_plus(one.scale(sc), e)
                den = den.times_one_plus(one.scale(sc), e)
            h += 1
    return num * den.invert()


def oracle_contribution(point, k, flavor, order):
    tower = _tower_series(point, k, flavor, order)
    lattice = theta_product_side(point.beta, order + 1)
    spinor = W({point.c: 1}) + W({-point.c: 1 if flavor is IndexFlavor.I_SERIES else -1})
    tangent = LaurentPolynomial({0: 1})
    for a in point.alpha:
        tangent = tangent * W({a: 1, -a: -1})
    prefactor = RationalFunction(spinor, tangent)
    return truncate(map_coefficients(tower * lattice, lambda c: c * prefactor), U_PER_Q * order)


@pytest.mark.parametrize("flavor", list(IndexFlavor))
@pytest.mark.parametrize(
    "point,k",
    [
        (FixedPoint((1,), 0, Z8), 1),
        (FixedPoint((1,), 1, Z8), 1),
        (FixedPoint((2,), -1, (1, 0, 0, 0, 0, 0, 0, 0)), 1),
        (FixedPoint((1, 2), 3, Z8), 2),
        (FixedPoint((-1, 1, -2), 2, (1, -1, 0, 2, 0, 0, 1, 0)), 3),
    ],
)
def test_point_series_matches_tower_oracle(point, k, flavor):
    order = 2
    got = point_contribution(point, k, flavor, order)
    expected = oracle_contribution(point, k, flavor, order)
    assert first_difference(got, expected) is None, (
        f"{flavor}: mismatch at u^{first_difference(got, expected)}"
    )


# the blocks built as products against their build-then-invert forms


def _times_poly(p, q):
    """The product of two {w-exponent: int} maps, zeros dropped."""
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def _plus_poly(p, q):
    """The sum of two {w-exponent: int} maps, zeros dropped."""
    out = dict(p)
    for w, c in q.items():
        out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def _tangent_by_inversion(alpha, validity):
    """The q-product prod_j prod_m (1 - w^(2a) q^m)(1 - w^(-2a) q^m), built
    by dict multiplication and inverted term by term, as an intseries block.

    With a_i its q^i coefficient (a_0 = 1), the inverse has b_0 = 1 and
    b_r = -sum_(0 < i <= r) a_i b_(r-i).  Plain ints throughout: the oracle
    of the in-place division, with which it shares no code.
    """
    n = validity // U_PER_Q
    a = [{0: 1}] + [{}] * n
    for x in alpha:
        for m in range(1, n + 1):
            for s in (2 * x, -2 * x):  # times 1 - w^s q^m
                a = [_plus_poly(p, _times_poly({s: -1}, a[i - m])) if i >= m else p for i, p in enumerate(a)]
    b = [{0: 1}]
    for r in range(1, n + 1):
        total = {}
        for i in range(1, r + 1):
            total = _plus_poly(total, _times_poly(a[i], b[r - i]))
        b.append(_times_poly({0: -1}, total))
    return {U_PER_Q * r: p for r, p in enumerate(b) if p}, validity


def _tangent_alphas(rng):
    alphas = []
    for _ in range(8):
        a, b = (rng.choice((-1, 1)) * rng.randint(1, 6) for _ in range(2))
        width = rng.randint(1, 3)
        alphas += [tuple(rng.choice((-1, 1)) * rng.randint(1, 6) for _ in range(width))]
        alphas += [(a, a), (a, -a), (a, -a, b), (b, b, b)]
    return alphas


def _unit_over_tangent(alpha, validity):
    """The unit block divided by the tangent factors: the inverted q-product."""
    return _divide_tangent(({0: {0: 1}}, validity), tuple(alpha))


def test_tangent_inverse_equals_build_then_invert(rng):
    for alpha in _tangent_alphas(rng):
        for n in range(7):
            validity = U_PER_Q * n
            got = _unit_over_tangent(alpha, validity)
            assert got == _tangent_by_inversion(alpha, validity), (alpha, n)


@given(st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=3), st.integers(0, 6))
@example([1], 6)
@example([-3, 3, 2], 6)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_tangent_block_equals_the_inverted_q_product(alpha, order):
    """Every weight divided out in place gives the inverse of the q-product
    that is built as a series and then inverted."""
    validity = U_PER_Q * order
    got = _unit_over_tangent(alpha, validity)
    assert got == _tangent_by_inversion(alpha, validity), (alpha, order)


@given(
    st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=4),
    st.integers(-4, 4),
    st.sampled_from(list(IndexFlavor)),
    st.integers(0, 10),
)
@example([1, 2], 1, IndexFlavor.I_SERIES, 2)  # rows in two classes, u = 3 and 15 mod 24
@example([2, -1], 0, IndexFlavor.J_SERIES, 4)  # theta(0) = 0: an empty line block
@example([10, 9], 5, IndexFlavor.I_SERIES, 30)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_point_block_equals_the_line_block_times_the_inverted_tangent(alpha, c, flavor, order):
    """The line block divided in place by each tangent factor is the dense
    product of that block and the inverted q-product."""
    kinds = (
        [ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3]
        if flavor is IndexFlavor.I_SERIES
        else [ThetaKind.THETA]
    )
    line = theta_product([(kind, c) for kind in kinds], order)
    tangent = _tangent_by_inversion(alpha, U_PER_Q * order)
    expected = intseries.mul(tangent, line)
    assert _point_block(tuple(alpha), c, flavor, order) == expected, (alpha, c, flavor, order)


def test_a_wrong_sign_tangent_block_fails_the_identity_check(monkeypatch):
    """The one-shot tangent check compares exact blocks: a division by the
    factor 1 - w^(2a) q^m in place of 1 - w^(-2a) q^m is caught before any
    index series is expanded."""
    import e8theta.index

    def wrong_sign(block, alpha):
        coeffs, validity = block
        for a in alpha:
            for x in (2 * a, 2 * a):
                for e in range(U_PER_Q, validity + 1, U_PER_Q):
                    intseries.times_inverse(coeffs, x, e, validity)
        return block

    monkeypatch.setattr(e8theta.index, "_divide_tangent", wrong_sign)
    cp2, _ = resolve_fixture("cp2")
    with pytest.raises(AssertionError, match="tangent-block identity"):
        index_series(cp2, IndexFlavor.I_SERIES, 2)


def _tangent_lead(alpha):
    lead = LaurentPolynomial({0: 1})
    for a in alpha:
        lead = lead * W({a: 1, -a: -1})
    return lead


def _cyclotomic_power(mult):
    """prod_d Phi_d^mult[d] as a Laurent polynomial."""
    out = LaurentPolynomial({0: 1})
    for d, m in mult.items():
        for _ in range(m):
            out = out * W(dict(enumerate(ratfunc._cyclotomic_product([1], {d: 1}))))
    return out


def test_factored_lead_equals_tangent_lead(rng):
    """s_p w^-(sum |a_j|) prod_d Phi_d^m_pd is the lead prod_j (w^a_j - w^-a_j),
    and for several points D / D_p times D_p is the same D = prod_d Phi_d^m_d."""
    alphas = _tangent_alphas(rng)
    for alpha in alphas:
        sign = -1 if sum(a < 0 for a in alpha) % 2 else 1
        size = sum(abs(a) for a in alpha)
        mult, (cofactor,) = cyclotomic_lcm([alpha])
        m_pd = Counter(d for a in alpha for d in range(1, 2 * abs(a) + 1) if 2 * abs(a) % d == 0)
        assert mult == m_pd, alpha
        assert cofactor == {size: sign}, alpha
        assert W({-size: sign}) * _cyclotomic_power(mult) == _tangent_lead(alpha), alpha
    for i in range(0, len(alphas) - 2, 3):
        group = alphas[i : i + 3]
        mult, cofactors = cyclotomic_lcm(group)
        den = _cyclotomic_power(mult)
        for alpha, cofactor in zip(group, cofactors):
            assert W(cofactor) * _tangent_lead(alpha) == den, group


@pytest.mark.parametrize("k", [1, 2, 3])
def test_shared_block_is_twice_phi_power_over_theta123_at_zero(k):
    """The shared block times (theta_1 theta_2 theta_3)(0) is 2 phi^(2k).

    Multiplying by the lead-2 q^(1/8) product checks the quotient exactly
    as far as dividing by it would: 3 below the product's validity."""
    kinds = (ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3)
    for n in range(7):
        den = theta_product([(kind, 0) for kind in kinds], n)
        got = intseries.to_series(intseries.mul(_shared_block(k, n), den))
        assert got.order >= U_PER_Q * n
        twice = map_coefficients(power(phi_series(n), 2 * k), lambda c: LaurentPolynomial({0: 2 * c}))
        assert got == truncate(twice, got.order), (k, n)


# anomaly


def test_anomaly_sphere():
    a = anomaly(S2, IndexFlavor.I_SERIES)
    assert a.consistent and a.n == -1


def test_anomaly_cp1_spinc_both_flavors():
    assert anomaly(CP1_SPINC, IndexFlavor.I_SERIES).n == 2
    assert anomaly(CP1_SPINC, IndexFlavor.J_SERIES).n == 0


def test_anomaly_inconsistent_is_report_not_error():
    mixed = fixture(1, ((1,), 0, (1, 0, 0, 0, 0, 0, 0, 0)), ((1,), 0, Z8))
    a = anomaly(mixed, IndexFlavor.I_SERIES)
    assert not a.consistent
    assert a.n is None
    assert a.per_point == (0, -1)


def test_anomaly_cp2_is_inconsistent():
    assert anomaly(CP2, IndexFlavor.I_SERIES).per_point == (22, -2, 22)
    assert anomaly(CP2, IndexFlavor.J_SERIES).per_point == (4, -2, 4)


# index series


def test_sphere_series_vanishes():
    ixs = index_series(S2, IndexFlavor.I_SERIES, 4)
    assert ixs.series.is_zero()


def test_vanishing_series_returns_rational_function_zero():
    # the oracles read .evaluate, .is_constant and == off a zero coefficient
    c = index_series(S2, IndexFlavor.I_SERIES, 3).q_coefficient(2)
    assert isinstance(c, RationalFunction)
    assert c.is_zero() and c.is_constant()
    assert c == RationalFunction.zero()
    assert c.evaluate(0.3 + 0.4j) == 0


def test_product_of_spheres_vanishes():
    ixs = index_series(S2XS2, IndexFlavor.I_SERIES, 3)
    assert ixs.series.is_zero()


def test_single_point_q0_is_nonconstant():
    ixs = index_series(SINGLE, IndexFlavor.I_SERIES, 1)
    q0 = ixs.q_coefficient(0)
    assert not q0.is_constant()
    assert q0 == RationalFunction(W({0: 2}), W({1: 1, -1: -1}))


def test_whole_powers_and_reality_hold(rng):
    for _ in range(3):
        fx = random_fixture(rng)
        for flavor in IndexFlavor:
            ixs = index_series(fx, flavor, 1)
            assert all(e % U_PER_Q == 0 for e in ixs.series.coeffs)


# Lefschetz numbers and the q-expansion cross-check


def test_lefschetz_constant_twist_matches_q0_summand():
    for flavor in IndexFlavor:
        for point, k in [(FixedPoint((1,), 1, Z8), 1), (FixedPoint((1, 2), 3, Z8), 2)]:
            lef = lefschetz_number(point, k, BundleExpr.const(1), flavor)
            q0 = point_contribution(point, k, flavor, 0).q_coefficient(0)
            assert lef == q0


def test_lefschetz_trivial_adjoint_is_248():
    point = FixedPoint((1, 2), 1, Z8)
    lef_w = lefschetz_number(point, 2, BundleExpr.atom("W"), IndexFlavor.I_SERIES)
    lef_1 = lefschetz_number(point, 2, BundleExpr.const(248), IndexFlavor.I_SERIES)
    assert lef_w == lef_1


def test_line_square_identity():
    point = FixedPoint((1, -2), 2, (1, 0, -1, 0, 0, 2, 0, 0))
    sq = BundleExpr.line_reduced() * BundleExpr.line_reduced()
    atom = BundleExpr.atom
    expanded = atom("L2") + atom("Lbar2") - 4 * (atom("L") + atom("Lbar")) + BundleExpr.const(6)
    for flavor in IndexFlavor:
        assert lefschetz_number(point, 2, sq, flavor) == lefschetz_number(
            point, 2, expanded, flavor
        )


def _pairwise_lefschetz_sum(fx, expr, flavor):
    """The sum as RationalFunction additions, one normalisation per point."""
    total = RationalFunction.zero()
    for p in fx.points:
        total = total + lefschetz_number(p, fx.k, expr, flavor)
    return total


def test_sum_lefschetz_over_one_denominator_equals_pairwise_sum(rng):
    fixtures = [resolve_fixture(name)[0] for name in BUNDLED_FIXTURES]
    fixtures += [random_fixture(rng) for _ in range(6)]
    fixtures += [sphere_product_fixture(rng) for _ in range(3)]
    square = BundleExpr.line_reduced() * BundleExpr.line_reduced()
    for fx in fixtures:
        mult, cofactors = cyclotomic_lcm([p.alpha for p in fx.points])
        for flavor in IndexFlavor:
            even = flavor is IndexFlavor.I_SERIES
            exprs = (BundleExpr.const(1), order_one_twist(even, fx.k), square)
            for expr, num in zip(exprs, lefschetz_sums(fx.points, cofactors, exprs, even)):
                expected = _pairwise_lefschetz_sum(fx, expr, flavor)
                assert over_cyclotomic(num, mult) == expected, (fx, flavor, expr)


def test_qexpansion_sphere_all_zero():
    report = verify_qexpansion(S2, IndexFlavor.I_SERIES)
    assert report.ok


def test_qexpansion_single_point_with_lattice_direction():
    fx = fixture(1, ((1,), 0, (1, 0, 0, 0, 0, 0, 0, 0)))
    for flavor in IndexFlavor:
        report = verify_qexpansion(fx, flavor)
        assert report.ok, report.summary()


def test_qexpansion_randomized(rng):
    for _ in range(10):
        fx = random_fixture(rng)
        for flavor in IndexFlavor:
            report = verify_qexpansion(fx, flavor)
            assert report.ok, f"{fx}\n{report.summary()}"


# mutations of either side fail the item they reach, worded exactly as the
# comparison of reduced RationalFunctions words it (each text was captured
# from that comparison under the same mutation)

_LATTICE_POINT = fixture(1, ((1,), 0, (1, 0, 0, 0, 0, 0, 0, 0)))
_TWO_POINTS = fixture(
    2, ((1, 2), 1, (1, -1, 0, 0, 0, 0, 0, 0)), ((-1, 3), -2, (0, 0, 1, 1, 0, 0, 0, 0))
)
_MUTATED_WORDING = {
    ("root", "I"): "(30*w^-1 + 128 + 164*w + 128*w^2 + 30*w^3)/(-1 + w^2)"
    " vs (30*w^-1 + 128 + 164*w + 128*w^2 + 28*w^3)/(-1 + w^2)",
    ("root", "J"): "(w^-4 + 4*w^-2 + 116 + 420*w^2 + 598*w^4 + 420*w^6 + 116*w^8"
    " + 4*w^10 + w^12)/(-1 - w^2 + w^6 + w^8) vs (w^-4 + 4*w^-2 + 116 + 418*w^2"
    " + 595*w^4 + 418*w^6 + 116*w^8 + 4*w^10 + w^12)/(-1 - w^2 + w^6 + w^8)",
    ("shell", "I"): "(32*w^-1 + 128 + 164*w + 128*w^2 + 30*w^3)/(-1 + w^2)"
    " vs (30*w^-1 + 128 + 164*w + 128*w^2 + 30*w^3)/(-1 + w^2)",
    ("shell", "J"): "(w^-4 + 6*w^-2 + 119 + 422*w^2 + 598*w^4 + 420*w^6 + 116*w^8"
    " + 4*w^10 + w^12)/(-1 - w^2 + w^6 + w^8) vs (w^-4 + 4*w^-2 + 116 + 420*w^2"
    " + 598*w^4 + 420*w^6 + 116*w^8 + 4*w^10 + w^12)/(-1 - w^2 + w^6 + w^8)",
    ("cofactor", "I"): "(2*w)/(-1 + w^2) vs (2)/(-1 + w)",
    ("cofactor", "J"): "(2*w^2 + 3*w^4 + 2*w^6)/(-1 - w^2 + w^6 + w^8)"
    " vs (w^-1 + 2*w^2 + 3*w^4 + 2*w^6)/(-1 - w^2 + w^6 + w^8)",
}


def _mutate(mp, mutation):
    import e8theta.bundles
    import e8theta.index

    if mutation == "root":  # one root fewer in the W character bundles reads
        roots = e8theta.bundles.e8_roots
        mp.setattr(e8theta.bundles, "e8_roots", lambda: roots()[:-1])
    elif mutation == "shell":  # one more vector in the series' first lattice shell
        lattice = e8theta.index._lattice_series

        def bumped(beta, order):
            coeffs, validity = lattice(beta, order)
            coeffs = {e: dict(p) for e, p in coeffs.items()}
            coeffs[U_PER_Q][min(coeffs[U_PER_Q])] += 1
            return coeffs, validity

        mp.setattr(e8theta.index, "_lattice_series", bumped)
    else:  # the first point's cofactor plus 1, on the Lefschetz side only
        sums = e8theta.index.lefschetz_sums

        def perturbed(points, cofactors, exprs, even):
            first = {**cofactors[0], 0: cofactors[0].get(0, 0) + 1}
            return sums(points, [first, *cofactors[1:]], exprs, even)

        mp.setattr(e8theta.index, "lefschetz_sums", perturbed)


@pytest.mark.parametrize("mutation, failing", [("root", 1), ("shell", 1), ("cofactor", 0)])
@pytest.mark.parametrize("fx, flavor", [(_LATTICE_POINT, "I"), (_TWO_POINTS, "J")])
def test_mutated_side_fails_its_item_with_the_reduced_wording(mutation, failing, fx, flavor):
    """A dropped root (W's character) and a bumped first-shell count (the
    series' lattice block) fail the order-one item; a cofactor perturbed on
    the Lefschetz side fails the bare one."""
    assert verify_qexpansion(fx, IndexFlavor(flavor)).ok
    with pytest.MonkeyPatch.context() as mp:
        _mutate(mp, mutation)
        items = verify_qexpansion(fx, IndexFlavor(flavor)).items
    assert items[failing].status == "fail", items
    assert items[failing].coefficient == _MUTATED_WORDING[mutation, flavor]
    assert items[2].status == "pass", items


def test_passing_qexpansion_reduces_nothing_over_one_lcm(monkeypatch):
    """A passing check computes D and the cofactors once, for both sides,
    and reduces no numerator: it compares them as integer maps."""
    import e8theta.index

    calls = Counter()

    def counted(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)

        return run

    index_series(SINGLE, IndexFlavor.I_SERIES, 0)  # the one-shot identity check
    for name in ("cyclotomic_lcm", "over_cyclotomic"):
        monkeypatch.setattr(e8theta.index, name, counted(name, getattr(e8theta.index, name)))
    for name in BUNDLED_FIXTURES:
        fx, _ = resolve_fixture(name)
        for flavor in IndexFlavor:
            calls.clear()
            assert verify_qexpansion(fx, flavor).ok, (name, flavor)
            assert calls == {"cyclotomic_lcm": 1}, (name, flavor, calls)


# rigidity and classification behavior


def test_rigidity_sphere_vanishing():
    report = check_rigidity(S2, IndexFlavor.I_SERIES, 5)
    assert report.verdict == "VANISHING" and report.ok


def test_rigidity_cp1_spinc_vanishing_even_tower():
    report = check_rigidity(CP1_SPINC, IndexFlavor.I_SERIES, 5)
    assert report.verdict == "VANISHING"


def test_rigidity_cp1_spinc_rigid_odd_tower():
    # anomaly 0 with the odd tower: rigid and visibly nonzero
    report = check_rigidity(CP1_SPINC, IndexFlavor.J_SERIES, 3)
    assert report.verdict == "RIGID"
    values = evaluate_at_identity(index_series(CP1_SPINC, IndexFlavor.J_SERIES, 3))
    assert values.ok
    assert values.meta["values"][0] == 2


def test_rigidity_cp2_even_tower_observed():
    """The projective-plane fixture has inconsistent anomaly {22, -2, 22} and
    its order-one coefficient genuinely depends on w; verdict INDETERMINATE
    with the offender named.  Locked against two independent computations."""
    report = check_rigidity(CP2, IndexFlavor.I_SERIES, 2)
    assert report.verdict == "INDETERMINATE"
    assert report.meta["per_point_n"] == [22, -2, 22]
    assert report.meta["first_offending_coefficient"] == 1
    q1 = index_series(CP2, IndexFlavor.I_SERIES, 1).q_coefficient(1)
    expected = {0: 468}
    for e, n in ((2, -2), (4, -4), (6, -4), (8, -4), (10, -2), (12, -2)):
        expected[e] = n
        expected[-e] = n
    assert q1 == RationalFunction.from_laurent(W(expected))


def test_rigidity_cp2_odd_tower_vanishes():
    report = check_rigidity(CP2, IndexFlavor.J_SERIES, 3)
    assert report.verdict == "VANISHING"


def test_rigidity_negative_control_names_offender(rng):
    mixed = fixture(1, ((1,), 0, Z8), ((2,), 0, Z8), label="anomaly-inconsistent")
    report = check_rigidity(mixed, IndexFlavor.I_SERIES, 2)
    assert report.verdict in ("NON-RIGID", "INDETERMINATE")
    failure = report.first_failure
    assert failure is not None
    assert failure.coefficient  # the offending coefficient is printed


# classification: branch prediction against observed behavior


def test_classify_sphere_branch_i():
    from e8theta.index import classify

    report = classify(S2, IndexFlavor.I_SERIES, 5)
    assert report.verdict == "VANISHING (branch i, n=-1): consistent"
    assert report.ok


def test_classify_cp1_spinc_branch_iii():
    from e8theta.index import classify

    report = classify(CP1_SPINC, IndexFlavor.I_SERIES, 5)
    assert report.verdict == "VANISHING (branch iii, n=2): consistent"
    assert report.ok


def test_classify_no_prediction_outside_branches():
    from e8theta.index import classify

    # n = 4 - 1 = 3 hits no branch; whatever is observed is only reported
    fx = fixture(1, ((1,), 0, (2, 0, 0, 0, 0, 0, 0, 0)))
    report = classify(fx, IndexFlavor.I_SERIES, 1)
    assert report.meta["branch"] == "none"
    assert report.meta["predicted"] is None
    assert report.ok


def test_classify_spin_case_carries_rarita_schwinger_note():
    from e8theta.index import classify

    report = classify(S2, IndexFlavor.I_SERIES, 2)
    assert any("Rarita-Schwinger" in (i.detail or "") for i in report.items)


# evaluation at the identity


def test_identity_values_sphere_zero():
    report = evaluate_at_identity(index_series(S2, IndexFlavor.I_SERIES, 3))
    assert report.ok and report.meta["values"] == [0, 0, 0, 0]


def test_identity_values_cp2_are_integers():
    report = evaluate_at_identity(index_series(CP2, IndexFlavor.I_SERIES, 3))
    assert report.ok
    # order zero: Euler characteristics of the sheaf and its Serre twist, 1 + 1
    assert report.meta["values"][0] == 2
    assert report.meta["values"][1] == 432


def test_identity_single_point_reports_pole():
    report = evaluate_at_identity(index_series(SINGLE, IndexFlavor.I_SERIES, 1))
    assert not report.ok
    assert "pole" in report.first_failure.detail


def test_blocks_expand_through_the_requested_order_only(monkeypatch):
    """Every block builder is asked for the requested order only, and each
    route reads its own theta form: the index series the sum form
    (_theta_block), identity 116's product side the product form
    (_product_block), so the identity stays a check of the triple product."""
    import e8theta.e8
    import e8theta.index
    import e8theta.theta
    from e8theta.e8 import basic_character, check_identity_116
    from e8theta.fixtures import resolve_fixture

    cp2, _ = resolve_fixture("cp2")
    index_series(cp2, IndexFlavor.I_SERIES, 0)  # runs the one-shot order-6 tangent check
    requested = []

    def recorder(label, fn):
        def wrapped(*args, **route):
            block = fn(*args, **route)
            # order, validity; chain_steps hands back (stride, factor steps),
            # each step led by its factor's validity
            validity = max(v for v, *_ in block[1]) if label.endswith("chain_steps") else block[-1]
            requested.append((label, args[-1], validity))
            return block

        return wrapped

    # every block builder, under each name its callers look up
    for module, name in (
        (e8theta.theta, "_theta_block"),
        (e8theta.theta, "_product_block"),
        (e8theta.index, "theta_product"),
        (e8theta.index, "_lattice_series"),
        (intseries, "phi_block"),
        (e8theta.e8, "chain_steps"),
        (e8theta.e8, "_lattice_series"),
    ):
        label = f"{module.__name__}.{name}"
        monkeypatch.setattr(module, name, recorder(label, getattr(module, name)))
    for flavor in (IndexFlavor.I_SERIES, IndexFlavor.J_SERIES):
        index_series(cp2, flavor, 3)
    identity_start = len(requested)
    check_identity_116((1, 0, -1, 2, 0, 0, 1, 1), 3)
    assert {label for label, _, _ in requested[:identity_start]} == {
        "e8theta.theta._theta_block",
        "e8theta.index.theta_product",
        "e8theta.index._lattice_series",
        "e8theta.intseries.phi_block",
    }
    assert {label for label, _, _ in requested[identity_start:]} == {
        "e8theta.theta._product_block",
        "e8theta.e8.chain_steps",
        "e8theta.e8._lattice_series",
    }
    character_start = len(requested)
    basic_character((1, 0, -1, 2, 0, 0, 1, 1), 3)
    assert {label for label, _, _ in requested[character_start:]} == {
        "e8theta.intseries.phi_block",
        "e8theta.e8._lattice_series",
    }
    assert max(order for _, order, _ in requested) == 3, sorted(set(requested))
    # a product of theta factors is valid as far as its factors allow
    expanded = [v for label, _, v in requested if not label.endswith("_product")]
    assert max(expanded) <= U_PER_Q * 3 + U_PER_Q - 1, sorted(set(requested))


def test_index_order_bound_checked_before_any_block(monkeypatch):
    import e8theta.index
    from e8theta.index import MAX_INDEX_ORDER

    def no_work(*args):
        raise AssertionError("a block was expanded for an out-of-range order")

    # the per-point, shared and lattice blocks, under the names index_series
    # looks up
    for name in ("_point_block", "_shared_block", "_lattice_series"):
        monkeypatch.setattr(e8theta.index, name, no_work)
    s2 = fixture(1, ((1,), 0), ((-1,), 0))
    for order in (MAX_INDEX_ORDER + 1, -1):
        with pytest.raises(ValueError, match=rf"0\.\.{MAX_INDEX_ORDER}"):
            index_series(s2, IndexFlavor.I_SERIES, order)
        with pytest.raises(ValueError, match=rf"0\.\.{MAX_INDEX_ORDER}"):
            check_rigidity(s2, IndexFlavor.J_SERIES, order)


# the fixture-wide route (one quotient over lcm of the tangent leads) against
# the per-point route (each summand over its own lead)


def _summed_point_contributions(fx, flavor, order):
    total = None
    for p in fx.points:
        contrib = point_contribution(p, fx.k, flavor, order)
        total = contrib if total is None else series_sum(total, contrib)
    return total


@pytest.mark.parametrize("name", BUNDLED_FIXTURES)
def test_index_series_equals_summed_point_contributions(name):
    fx, _ = resolve_fixture(name)
    for flavor in IndexFlavor:
        for order in range(5):
            expected = _summed_point_contributions(fx, flavor, order)
            assert index_series(fx, flavor, order).series == expected, (flavor, order)


@st.composite
def _fixtures(draw):
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        return sphere_product_fixture(rng)
    return random_fixture(rng)


_SIGNS = st.sampled_from((1, -1))


@st.composite
def _mirrored_fixtures(draw):
    """k <= 3 and one or two drawn points, each with up to three mirror
    images (alpha with signs flipped and entries permuted, c -> +-c, beta
    permuted with an even number of sign changes), and perhaps one more
    point with c = 0."""
    k = draw(st.integers(1, 3))
    alphas = st.tuples(*[st.builds(operator.mul, st.integers(1, 3), _SIGNS)] * k)
    betas = st.tuples(*[st.integers(-2, 2)] * 8)
    points = []
    for _ in range(draw(st.integers(1, 2))):
        alpha, c, beta = draw(alphas), draw(st.integers(-3, 3)), draw(betas)
        points.append(FixedPoint(alpha, c, beta))
        for _ in range(draw(st.integers(0, 3))):
            flips, perm = draw(st.tuples(*[_SIGNS] * k)), draw(st.permutations(range(k)))
            s_c, s_b, (x, y) = draw(_SIGNS), draw(_SIGNS), draw(st.tuples(*[st.integers(0, 7)] * 2))
            mirrored = tuple(flips[j] * alpha[j] for j in perm)
            moved = [s_b * b for b in draw(st.permutations(beta))]
            if x != y:  # two more sign changes
                moved[x], moved[y] = -moved[x], -moved[y]
            points.append(FixedPoint(mirrored, s_c * c, tuple(moved)))
    if draw(st.booleans()):
        points.append(FixedPoint(draw(alphas), 0, draw(betas)))
    return FixedPointFixture(k, tuple(points), "mirrored")


# beta up to W(D8) (permutations and even sign changes, its overall sign
# among them) is a symmetry of the lattice block; one entry's sign need not
# be: (1, ..., 1) lies in 2 E8 and (1, ..., 1, -1) does not, and
# their lattice blocks differ.  With a zero entry it is (flip that entry too:
# an even number of sign changes lies in the Weyl group), and the Weyl group
# is transitive on roots, so (1, 1, 0, ...) and (1, -1, 0, ...) give one
# block and cannot tell a beta key without signs from the right one.
_ONES = (1,) * 8
_ONES_FLIPPED = (1,) * 7 + (-1,)


# index_series groups mirrored points (one block up to sign, one lattice key);
# point_contribution uses no symmetry, so their sum is the oracle
@given(
    st.one_of(_fixtures(), _mirrored_fixtures()),
    st.sampled_from(list(IndexFlavor)),
    st.integers(0, 4),
)
@example(CP1_SPINC, IndexFlavor.J_SERIES, 2)  # sign(c) of a J point
@example(fixture(1, ((2,), -1, Z8)), IndexFlavor.J_SERIES, 1)
@example(fixture(1, ((1,), 1, _ONES), ((1,), 1, _ONES_FLIPPED)), IndexFlavor.I_SERIES, 2)
@example(fixture(1, ((1,), 1, _ONES), ((-1,), -1, _ONES_FLIPPED)), IndexFlavor.J_SERIES, 2)
@example(fixture(2, ((1, 2), 0, Z8), ((2, -1), 0, Z8), ((1, 1), 0, Z8)), IndexFlavor.J_SERIES, 3)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_index_series_equals_summed_point_contributions_on_random_fixtures(fx, flavor, order):
    expected = _summed_point_contributions(fx, flavor, order)
    assert index_series(fx, flavor, order).series == expected


def test_cached_blocks_are_never_mutated(monkeypatch):
    """The lattice, point and shared blocks, the product-form theta blocks
    (identity 116's side), the theta factors' chain steps, the lcm maps and
    the reduced denominators are cached and shared by every caller.  Running the bundled fixtures' index path, and the e8
    entry points, a second time builds nothing, and finds everything it was
    handed as the deep copies taken when it was first handed out."""
    import copy

    import e8theta.e8
    import e8theta.index
    import e8theta.ratfunc
    import e8theta.theta
    from e8theta.e8 import basic_character, check_identity_116, theta_e8

    builders = {
        "_lattice_block": (e8theta.e8, e8theta.e8._lattice_block),
        "_factor_steps": (e8theta.theta, e8theta.theta._factor_steps),
        "_product_block": (e8theta.theta, e8theta.theta._product_block),
        "_point_block": (e8theta.index, e8theta.index._point_block),
        "_shared_block": (e8theta.index, e8theta.index._shared_block),
        "_lcm": (e8theta.ratfunc, e8theta.ratfunc._lcm),
        "_denominator": (e8theta.ratfunc, e8theta.ratfunc._denominator),
    }
    handed, frozen = {}, {}

    def recording(name, fn):
        def run(*args):
            handed[name, args] = block = fn(*args)
            if (name, args) not in frozen:
                frozen[name, args] = copy.deepcopy(block)
            return block

        return run

    for name, (module, fn) in builders.items():
        monkeypatch.setattr(module, name, recording(name, fn))

    def run_all():
        for label in BUNDLED_FIXTURES:
            fx, _ = resolve_fixture(label)
            for flavor in IndexFlavor:
                index_series(fx, flavor, 3)
                verify_qexpansion(fx, flavor)
                classify(fx, flavor, 3)
        beta = (2, -1, 0, 1, 3, 0, -2, 1)
        theta_e8(beta, 3)
        basic_character(beta, 3)
        check_identity_116(beta, 3)

    run_all()
    misses = {name: fn.cache_info().misses for name, (_, fn) in builders.items()}
    run_all()
    assert {name: fn.cache_info().misses for name, (_, fn) in builders.items()} == misses
    assert {name for name, _ in handed} == set(builders)
    for (name, args), block in handed.items():
        assert builders[name][1](*args) is block, (name, args)
        assert block == frozen[name, args], (name, args)


def test_mirrored_pair_cancels_before_any_block(monkeypatch):
    """A cp1-type pair alpha (d), c d and alpha (-d), c -d: the cofactors are
    w^d and -w^d, so for I (line block even in c) the group cancels and no
    block is built; for J (odd in c) it is one block and one lattice block."""
    import e8theta.index

    calls = Counter()

    def counted(name):
        real = getattr(e8theta.index, name)

        def run(*args):
            calls[name] += 1
            return real(*args)

        return run

    for name in ("_point_block", "_lattice_series"):
        monkeypatch.setattr(e8theta.index, name, counted(name))
    beta = (3, -1, 0, 2, 0, 0, 1, -2)
    for d in (1, 2, 5):
        fx = fixture(1, ((d,), d, beta), ((-d,), -d, tuple(-b for b in beta)))
        calls.clear()
        assert index_series(fx, IndexFlavor.I_SERIES, 10).series.is_zero()
        assert calls == {}
        assert not index_series(fx, IndexFlavor.J_SERIES, 10).series.is_zero()
        assert calls == {"_point_block": 1, "_lattice_series": 1}


def test_points_on_one_weyl_orbit_share_one_group(monkeypatch):
    """Points with one alpha and c whose betas differ by a permutation and
    an even number of sign changes share one lattice key: one group, one
    point block and one lattice multiply, and the sum of their terms."""
    import e8theta.index

    calls = Counter()

    def counted(name):
        real = getattr(e8theta.index, name)

        def run(*args):
            calls[name] += 1
            return real(*args)

        return run

    for name in ("_point_block", "_lattice_series"):
        monkeypatch.setattr(e8theta.index, name, counted(name))
    beta = (3, -1, 0, 2, 0, 0, 1, -2)
    moved = (0, 2, 1, 0, -3, -1, 2, 0)  # permuted, two signs changed
    fx = fixture(1, ((2,), 1, beta), ((2,), 1, moved))
    for flavor in IndexFlavor:
        calls.clear()
        got = index_series(fx, flavor, 6).series
        assert calls == {"_point_block": 1, "_lattice_series": 1}, flavor
        assert got == _summed_point_contributions(fx, flavor, 6), flavor


@given(_fixtures(), st.integers(0, 2))
@example(fixture(3, ((1, -1, -2), -1, (1, -1, 2, -2, 1, -1, 2, -2))), 1)
@example(
    fixture(2, ((-2, 2), 1, (1, 0, -1, 1, 2, -2, -2, -2)), ((-1, 2), -2, (-1, 0, 1, 0, 0, -1, 1, 1))),
    1,
)
@example(fixture(2, ((-2, -1), 0, (0, -2, 0, -2, 2, 2, 0, 0))), 1)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
def test_negating_all_weights_substitutes_w_inverse(fx, order):
    neg = FixedPointFixture(
        k=fx.k,
        points=tuple(
            FixedPoint(tuple(-a for a in p.alpha), -p.c, tuple(-b for b in p.beta))
            for p in fx.points
        ),
        label="negated",
    )
    for flavor in IndexFlavor:
        direct = index_series(neg, flavor, order).series
        flipped = map_coefficients(
            index_series(fx, flavor, order).series,
            lambda c: RationalFunction(substitute_power(c.num, -1), substitute_power(c.den, -1)),
        )
        assert direct == flipped, flavor


# the cyclotomic reduction against the Euclidean normalisation


@st.composite
def _repeated_weight_fixtures(draw):
    """k <= 3, 1-4 points, |alpha_j| <= 15, the weights drawn from a pool of
    at most three magnitudes so that they repeat within and across points."""
    k = draw(st.integers(1, 3))
    pool = draw(st.lists(st.integers(1, 15), min_size=1, max_size=3))
    weight = st.builds(lambda a, s: s * a, st.sampled_from(pool), st.sampled_from((-1, 1)))
    beta = st.tuples(*[st.integers(-1, 1)] * 8)
    point = st.builds(FixedPoint, st.tuples(*[weight] * k), st.integers(-3, 3), beta)
    return FixedPointFixture(k, tuple(draw(st.lists(point, min_size=1, max_size=4))), "repeated")


def _euclidean_lcm(alphas):
    den = _tangent_lead(alphas[0])
    for alpha in alphas[1:]:
        lead = _tangent_lead(alpha)
        den = den * laurent_exact_div(lead, laurent_gcd(den, lead))
    return den


@given(_repeated_weight_fixtures(), st.sampled_from(list(IndexFlavor)), st.integers(0, 2))
@example(fixture(2, ((1, 1), 1), ((-1, -1), -1)), IndexFlavor.I_SERIES, 2)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
def test_cyclotomic_reduction_equals_euclidean_normalisation(fx, flavor, order):
    """Every reduced series coefficient and every per-point Lefschetz number
    of the bare, order-one and square twists (verify_qexpansion compares
    their sums as numerators, and reduces them only to word a failure)
    equals RationalFunction(num, D) on the same numerator, and D is the
    Euclidean lcm of the leads up to a unit."""
    import e8theta.index

    calls = []

    def recording(num, mult):
        calls.append((num, mult, over_cyclotomic(num, mult)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(e8theta.index, "over_cyclotomic", recording)
        index_series(fx, flavor, order)
        verify_qexpansion(fx, flavor)
        square = BundleExpr.line_reduced() * BundleExpr.line_reduced()
        twist = order_one_twist(flavor is IndexFlavor.I_SERIES, fx.k)
        for p in fx.points:
            for expr in (BundleExpr.const(1), twist, square):
                lefschetz_number(p, fx.k, expr, flavor)
    alphas = [p.alpha for p in fx.points]
    unit = RationalFunction(_euclidean_lcm(alphas), _cyclotomic_power(cyclotomic_lcm(alphas)[0]))
    assert unit.den == W({0: 1}) and len(unit.num.coeffs) == 1, unit
    for num, m, got in calls:
        assert got == RationalFunction(W(num), _cyclotomic_power(m)), (num, m)


def test_index_path_runs_no_euclidean_gcd(monkeypatch):
    """The series, the Lefschetz numbers and the reports reduce their
    coefficients without the Euclidean gcd or its exact division, and build
    no Q(i) Laurent sum or product and no RationalFunction through its
    normalising constructor: the whole index path runs on integer blocks."""

    def forbidden(name):
        def run(*args):
            raise AssertionError(f"the index path ran {name}")

        return run

    monkeypatch.setattr(ratfunc, "laurent_gcd", forbidden("the Euclidean gcd"))
    monkeypatch.setattr(ratfunc, "laurent_exact_div", forbidden("the Euclidean division"))
    for cls, method in (
        (LaurentPolynomial, "__mul__"),
        (LaurentPolynomial, "__add__"),
        (RationalFunction, "__init__"),
    ):
        monkeypatch.setattr(cls, method, forbidden(f"{cls.__name__}.{method}"))
    for name in BUNDLED_FIXTURES:
        fx, _ = resolve_fixture(name)
        for flavor in IndexFlavor:
            evaluate_at_identity(index_series(fx, flavor, 4))
            assert verify_qexpansion(fx, flavor).ok, (name, flavor)
            classify(fx, flavor, 4)
            for p in fx.points:
                lefschetz_number(p, fx.k, BundleExpr.atom("W"), flavor)
