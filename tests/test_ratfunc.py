import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from e8theta.gaussian import GaussianRational, ONE
from e8theta.laurent import LaurentPolynomial
from e8theta.ratfunc import RationalFunction, _cyclotomic_product, cyclotomic, over_cyclotomic


def L(coeffs):
    return LaurentPolynomial({e: GaussianRational(c) for e, c in coeffs.items()})


def RF(num, den):
    return RationalFunction(L(num), L(den))


def test_canonical_form():
    r = RF({1: 2, -1: -2}, {2: 4, 0: -4})  # 2(w - w^-1) / 4(w^2 - 1) = 1/(2w)
    assert r.den == L({0: 1})
    assert r.num == L({-1: Fraction(1, 2)})
    # denominator monic with nonzero constant term
    r2 = RF({0: 1}, {3: 2, 1: 2})  # 1 / (2w^3 + 2w) = w^-1 / 2(w^2+1)
    assert r2.den.valuation() == 0
    assert r2.den.leading_coefficient() == ONE
    assert not r2.den.coefficient(0).is_zero()


def test_reduction_idempotent():
    r = RF({3: 1, 1: -1}, {2: 1, 1: -2, 0: 1})  # w(w^2-1) / (w-1)^2 = w(w+1)/(w-1)
    again = RationalFunction(r.num, r.den)
    assert again == r


def test_is_constant_strict():
    assert RF({0: 5}, {0: 2}).is_constant()
    assert RF({0: 5}, {0: 2}).constant_value() == GaussianRational(Fraction(5, 2))
    # a reduced monomial w^3 is NOT constant even though both spans are zero
    assert not RF({3: 1}, {0: 1}).is_constant()
    assert RF({0: 0}, {5: 1, 0: 1}).is_zero()
    assert RF({0: 0}, {5: 1, 0: 1}).is_constant()


def test_one_names_the_only_variable():
    assert RationalFunction.one("w") == L({0: 1})
    assert RationalFunction.zero().is_zero()
    with pytest.raises(ValueError):
        RationalFunction.one("x")


def test_field_axioms_randomized():
    rng = random.Random(17)

    def rand_rf():
        num = {e: rng.randint(-3, 3) for e in range(rng.randint(-2, 0), rng.randint(1, 3))}
        den = {e: rng.randint(-3, 3) for e in range(0, rng.randint(1, 3))}
        den[0] = den.get(0, 0) or 1
        try:
            return RF(num, den)
        except ZeroDivisionError:
            return RF({0: 1}, {0: 1})

    for _ in range(60):
        a, b, c = rand_rf(), rand_rf(), rand_rf()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero():
            a_inv = RationalFunction(a.den, a.num)
            assert a * a_inv == RationalFunction.one("w")
            assert (b * a_inv) * a == b


def test_cancellation_across_points():
    # (w^3 + w^-3)/((w - w^-1)(w^2 - w^-2)) - 1/(w - w^-1)^2 reduces to 1
    s1 = RF({3: 1, -3: 1}, {3: 1, 1: -1, -1: -1, -3: 1})
    s2 = RF({0: 1}, {2: 1, 0: -2, -2: 1})
    total = s1 + (-s2)
    assert total.is_constant()
    assert total.constant_value() == ONE


def test_pole_detection_at_one():
    r = RF({0: 1}, {1: 1, 0: -1})  # 1/(w-1)
    assert r.has_pole_at_one()
    with pytest.raises(ZeroDivisionError):
        r.value_at_one()
    r2 = RF({2: 1, 0: 1}, {1: 1, 0: 1})  # (w^2+1)/(w+1)
    assert not r2.has_pole_at_one()
    assert r2.value_at_one() == GaussianRational(1)


def test_evaluate():
    r = RF({1: 1, -1: -1}, {0: 2})
    assert abs(r.evaluate(2 + 0j) - 0.75) < 1e-15


def test_promotion_matches_explicit_lift():
    r = RF({1: 1, 0: 2}, {2: 1, 0: -3})
    p = L({2: 1, -1: 4})
    lifted = RationalFunction.from_laurent(p)
    three = GaussianRational(3)
    assert r * p == p * r == r * lifted
    assert r + p == p + r == r + lifted
    assert r * three == three * r == r * RationalFunction.from_laurent(L({0: 3}))
    assert r + 3 == 3 + r == r + RationalFunction.from_laurent(L({0: 3}))
    assert RationalFunction.from_laurent(L({0: 5})) == L({0: 5})
    assert len({RationalFunction.from_laurent(p), p}) == 1
    assert RationalFunction(p, L({0: 2})) != p


def test_cyclotomic_factors_of_w_n_minus_one():
    """prod_{d | n} Phi_d = w^n - 1 for n <= 200, which fixes each Phi_d by
    induction on n; the Phi_d cache is bounded."""

    def times(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    for n in range(1, 201):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = times(product, _cyclotomic_product([1], {d: 1}))
        assert product == [-1] + [0] * (n - 1) + [1], n
    assert cyclotomic.cache_info().maxsize is not None


@st.composite
def _numerators_over_cyclotomic(draw):
    """({w: int} numerator, {d: m_d}): a random integer polynomial, which
    mostly no Phi_d divides, times Phi_d^j with j up to m_d + 2, so that
    some powers exceed the denominator's, at a random shift."""
    d = st.sampled_from((1, 2, 3, 4)) | st.integers(1, 20)  # Phi_1, Phi_2 take their own route
    mult = draw(st.dictionaries(d, st.integers(0, 2), max_size=3))
    poly = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6).filter(any))
    powers = {d: draw(st.integers(0, m + 2)) for d, m in mult.items()}
    shift = draw(st.integers(-8, 8))
    coeffs = _cyclotomic_product(poly, powers)
    return {i + shift: c for i, c in enumerate(coeffs) if c}, mult


@given(_numerators_over_cyclotomic())
@example(({}, {1: 2}))
@example(({0: -1, 2: 1}, {1: 1, 2: 1}))  # w^2 - 1 over itself
@example(({0: -1, 6: 1}, {1: 2, 2: 1, 3: 1, 6: 3}))  # w^6 - 1, Phi_1^2 Phi_6^3 left over
@example(({0: 1, 1: 1, 3: 1}, {3: 1, 4: 2}))  # nothing divides
@example(({0: 1, 3: 1}, {2: 1}))  # w^3 + 1 = (w + 1)(w^2 - w + 1)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_cyclotomic_reduction_equals_euclidean_oracle(case):
    """over_cyclotomic, whose residues decide each division, is the
    Euclidean canonical form of the same quotient, printed alike."""
    num, mult = case
    den = _cyclotomic_product([1], mult)
    oracle = RationalFunction(L(num), L(dict(enumerate(den))))
    got = over_cyclotomic(num, mult)
    assert got == oracle, case
    assert str(got) == str(oracle), case


def test_a_residue_decides_each_division_before_it_runs(monkeypatch, rng):
    """For d > 2 the binomial passes run on the d ints of the numerator
    folded mod w^d - 1 first, and on the whole numerator only when that
    fold divides: a long numerator that Phi_d does not divide costs one
    pass over d ints, not one over its length."""
    import e8theta.ratfunc

    lengths = []
    passes = e8theta.ratfunc._times_binomials

    def recording(poly, exps):
        lengths.append(len(poly))
        return passes(poly, exps)

    monkeypatch.setattr(e8theta.ratfunc, "_times_binomials", recording)
    for d in (3, 5, 12, 97, 998):
        poly = [rng.randint(-3, 3) for _ in range(3000)] + [1]
        divisible = _cyclotomic_product(poly, {d: 1})
        lengths.clear()
        got = over_cyclotomic(dict(enumerate(poly)), {d: 1})
        if not got.den.is_constant():  # Phi_d does not divide poly
            assert d in lengths and len(poly) not in lengths, (d, lengths)
        lengths.clear()
        assert over_cyclotomic(dict(enumerate(divisible)), {d: 1}) == L(dict(enumerate(poly)))
        assert lengths[:2] == [d, len(divisible)], (d, lengths)  # then the denominator's
