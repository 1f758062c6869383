import random
from fractions import Fraction

import pytest

from e8theta.gaussian import GaussianRational, ONE
from e8theta.laurent import LaurentPolynomial
from e8theta.ratfunc import RationalFunction


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


def test_substitute_inverse():
    r = RF({1: 1}, {1: 1, 0: -2})  # w/(w-2)
    s = r.substitute_inverse()  # (1/w)/((1/w)-2) = 1/(1-2w)
    assert s == RF({0: 1}, {1: -2, 0: 1})
    assert r.substitute_inverse().substitute_inverse() == r


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
