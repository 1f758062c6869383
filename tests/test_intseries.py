"""Integer blocks against their TruncatedSeries counterparts.

Each operation on {u: {w: int}} blocks must give exactly the block of the
same operation on Laurent-valued series, validity order included.
"""

from fractions import Fraction

import pytest

from e8theta import intseries
from e8theta.gaussian import I, GaussianRational
from e8theta.laurent import LaurentPolynomial
from e8theta.series import TruncatedSeries, phi_series
from e8theta.theta import ThetaKind, theta_series


def _random_series(rng) -> TruncatedSeries:
    """Integer Laurent coefficients, a random base exponent and validity; now
    and then zero, sparse or with cancelling terms."""
    base = rng.randint(-30, 30)
    validity = base + rng.randint(0, 60)
    coeffs = {}
    if rng.randint(0, 5):
        exponents = range(base, validity + 1)
        for e in rng.sample(exponents, rng.randint(1, min(8, len(exponents)))):
            poly = {rng.randint(-6, 6): rng.randint(-3, 3) for _ in range(rng.randint(1, 4))}
            coeffs[e] = LaurentPolynomial(poly)
    return TruncatedSeries(coeffs, validity, LaurentPolynomial())


def _block_series(block) -> TruncatedSeries:
    coeffs, validity = block
    return TruncatedSeries(
        {e: LaurentPolynomial(p) for e, p in coeffs.items()}, validity, LaurentPolynomial()
    )


def test_from_series_round_trips(rng):
    for _ in range(200):
        s = _random_series(rng)
        block = intseries.from_series(s)
        assert all(p and all(p.values()) for p in block[0].values())
        assert _block_series(block) == s
        assert intseries.from_series(s, -1) == intseries.from_series(-s)
    phi = phi_series(5)
    block = intseries.from_series(phi)
    assert block[1] == phi.order
    assert block[0] == {e: {0: c.re} for e, c in phi.coeffs.items()}


def test_from_series_power_substitutes_w(rng):
    for _ in range(200):
        s = _random_series(rng)
        m = rng.randint(-3, 3)
        expected = s.map_coefficients(lambda c: c.substitute_power(m))
        assert intseries.from_series(s, power=m) == intseries.from_series(expected), m


def test_mul_and_add_equal_series_arithmetic(rng):
    for _ in range(300):
        a, b = _random_series(rng), _random_series(rng)
        x, y = intseries.from_series(a), intseries.from_series(b)
        assert intseries.mul(x, y) == intseries.from_series(a * b)
        assert intseries.add(x, y) == intseries.from_series(a + b)


def test_times_one_plus_equals_series_method(rng):
    for _ in range(300):
        s = _random_series(rng)
        c, x, e = rng.choice((-1, 1)), rng.randint(-8, 8), rng.randint(1, 40)
        coeffs, validity = intseries.from_series(s)
        intseries.times_one_plus(coeffs, c, x, e, validity)
        expected = s.times_one_plus(LaurentPolynomial({x: c}), e)
        assert (coeffs, validity) == intseries.from_series(expected)


def test_from_series_rejects_non_integers():
    theta = theta_series(ThetaKind.THETA, 2)  # coefficients -i w + i w^-1, ...
    with pytest.raises(AssertionError, match="not a real integer"):
        intseries.from_series(theta)
    assert intseries.from_series(theta, I) == intseries.from_series(theta.scale(I))
    half_w2 = LaurentPolynomial({2: GaussianRational(Fraction(1, 2))})
    half = TruncatedSeries({0: LaurentPolynomial({0: 1}), 24: half_w2}, 30, LaurentPolynomial())
    with pytest.raises(AssertionError, match="not a real integer"):
        intseries.from_series(half)
