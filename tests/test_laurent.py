import random
from fractions import Fraction

import pytest

from e8theta.errors import NotInvertibleError
from e8theta.gaussian import GaussianRational, I, ONE
from e8theta.laurent import LaurentPolynomial, laurent_exact_div, laurent_gcd


def L(coeffs):
    return LaurentPolynomial({e: GaussianRational(c) for e, c in coeffs.items()})


def test_zero_coefficients_stripped():
    p = L({2: 1, 0: 0, -1: 3})
    assert set(p.coeffs) == {2, -1}
    assert p.coefficient(0) == GaussianRational(0)


def test_arithmetic_and_cancellation():
    p = L({1: 1, -1: -1})
    q = L({1: -1, -1: 1})
    assert (p + q).is_zero()
    prod = p * p
    assert prod == L({2: 1, 0: -2, -2: 1})


def test_substitute_power():
    p = L({1: 2, -1: 3, 0: 5})
    assert p.substitute_power(2) == L({2: 2, -2: 3, 0: 5})
    assert p.substitute_power(0) == L({0: 10})
    assert p.substitute_power(-1) == L({-1: 2, 1: 3, 0: 5})


def test_monomial_inverse_only():
    m = L({3: 2})
    assert m.invert() == LaurentPolynomial({-3: GaussianRational(Fraction(1, 2))})
    with pytest.raises(NotInvertibleError):
        L({1: 1, 0: 1}).invert()


def test_evaluate_matches_sum():
    p = L({2: 1, -2: 1})
    assert abs(p.evaluate(1 + 0j) - 2) < 1e-15
    assert p.sum_of_coefficients() == GaussianRational(2)
    assert p.exponent_weighted_sum() == GaussianRational(0)
    assert L({1: 1, -1: -1}).exponent_weighted_sum() == GaussianRational(2)


def test_gcd_divides_both_and_is_monic():
    rng = random.Random(5)

    def rand_poly(max_deg):
        return LaurentPolynomial(
            {
                e: GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
                for e in range(rng.randint(-2, 0), rng.randint(1, max_deg))
            },
        )

    for _ in range(40):
        a, b, common = rand_poly(3), rand_poly(3), rand_poly(2)
        if a.is_zero() or b.is_zero() or common.is_zero():
            continue
        g = laurent_gcd(a * common, b * common)
        assert g.valuation() == 0
        assert g.leading_coefficient() == ONE
        for target in (a * common, b * common):
            q = laurent_exact_div(target, g)
            assert q * g == target


def test_gcd_picks_up_common_factor():
    common = L({1: 1, 0: -1})  # w - 1
    a = L({1: 1, 0: 2}) * common
    b = L({2: 1, 0: 5}) * common
    g = laurent_gcd(a, b)
    assert g == L({1: 1, 0: -1})


def test_exact_div_rejects_non_divisor():
    with pytest.raises(ValueError):
        laurent_exact_div(L({1: 1, 0: 1}), L({1: 1, 0: -1}))


def test_gaussian_coefficients_in_gcd():
    # (w - i) divides w^2 + 1
    p = L({2: 1, 0: 1})
    d = LaurentPolynomial({1: ONE, 0: GaussianRational(0, -1)})
    q = laurent_exact_div(p, d)
    assert q * d == p
    assert q == LaurentPolynomial({1: ONE, 0: I})


def test_scalar_promotion():
    p = L({1: 2, -1: 3})
    assert p * 2 == 2 * p == L({1: 4, -1: 6})
    assert p * I == I * p == LaurentPolynomial({1: GaussianRational(0, 2), -1: GaussianRational(0, 3)})
    assert p + 1 == 1 + p == L({1: 2, 0: 1, -1: 3})
    assert p + (-ONE) == L({1: 2, 0: -1, -1: 3})
    assert ONE + (-p) == L({1: -2, 0: 1, -1: -3})
    assert (p * 0).is_zero()
