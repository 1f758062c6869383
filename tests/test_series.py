import random
from fractions import Fraction

import pytest

from conftest import (
    map_coefficients,
    naive_euler_phi,
    naive_partition_power,
    one_series,
    phi_series,
    series_sum,
    shift,
)

from e8theta import intseries
from e8theta.errors import (
    BeyondTruncationError,
    ExponentLatticeError,
)
from e8theta.gaussian import GaussianRational
from e8theta.laurent import LaurentPolynomial
from e8theta.ratfunc import RationalFunction
from e8theta.series import TruncatedSeries, U_PER_Q, format_series


def qs(coeffs, order_q):
    """Scalar series from whole q-power dict."""
    return TruncatedSeries(
        {U_PER_Q * e: GaussianRational(c) for e, c in coeffs.items()},
        U_PER_Q * order_q + U_PER_Q - 1,
    )


def test_mul_binomials():
    one_plus_u = TruncatedSeries({0: GaussianRational(1), 1: GaussianRational(1)}, 30)
    one_minus_u = TruncatedSeries({0: GaussianRational(1), 1: GaussianRational(-1)}, 30)
    prod = one_plus_u * one_minus_u
    assert prod.coefficient(0) == GaussianRational(1)
    assert prod.coefficient(1).is_zero()
    assert prod.coefficient(2) == GaussianRational(-1)


def W(coeffs):
    return LaurentPolynomial({e: GaussianRational(c) for e, c in coeffs.items()})


def test_mixed_coefficient_product_promotes():
    scalar = phi_series(2)
    laurent = TruncatedSeries({0: W({1: 1, -1: -1}), 24: W({2: 3, 0: -1})}, 71, W({}))
    ratfunc = TruncatedSeries(
        {0: RationalFunction(W({0: 1}), W({1: 1, 0: -2})), 30: RationalFunction.from_laurent(W({0: 5}))},
        71,
        RationalFunction.zero(),
    )
    lifted = (
        map_coefficients(
            scalar, lambda c: RationalFunction.from_laurent(LaurentPolynomial({0: c}))
        )
        * map_coefficients(laurent, RationalFunction.from_laurent)
        * ratfunc
    )
    for got in (scalar * laurent * ratfunc, ratfunc * (laurent * scalar), laurent * ratfunc * scalar):
        assert got == lifted
        assert isinstance(got.zero, RationalFunction)
        assert all(isinstance(c, RationalFunction) for c in got.coeffs.values())
    assert scalar * laurent == laurent * scalar
    assert isinstance((scalar * laurent).zero, LaurentPolynomial)


def _phi_q_coefficients(n, order):
    """The q^0..q^order coefficients of the integer block of phi^n."""
    coeffs, validity = intseries.phi_block(n, order)
    assert validity == U_PER_Q * order + U_PER_Q - 1
    assert all(e % U_PER_Q == 0 and set(p) == {0} for e, p in coeffs.items())
    return [coeffs.get(U_PER_Q * i, {0: 0})[0] for i in range(order + 1)]


def test_phi_coefficients_match_naive_product():
    expected = naive_euler_phi(7)
    got = _phi_q_coefficients(1, 7)
    assert got == [expected.get(i, Fraction(0)) for i in range(8)]
    # pentagonal-number pattern
    assert got == [1, -1, -1, 0, 0, 1, 0, 1]


def test_phi_order_zero():
    assert intseries.phi_block(1, 0) == ({0: {0: 1}}, U_PER_Q - 1)


def test_phi_inverse_roundtrip():
    phi = phi_series(8)
    assert (phi * phi.invert()).first_difference(one_series(phi.order)) is None
    assert phi.invert().invert().first_difference(phi) is None


def test_phi_inverse_eighth_power():
    got = _phi_q_coefficients(-8, 6)
    assert got == naive_partition_power(6, 8)
    assert got[:4] == [1, 8, 44, 192]


def test_phi_cubed_leading_terms():
    expected = {0: 1, 1: -3, 3: 5, 6: -7}
    assert _phi_q_coefficients(3, 7) == [expected.get(i, 0) for i in range(8)]


def test_geometric_inverse():
    one_minus_q = qs({0: 1, 1: -1}, 6)
    geo = one_minus_q.invert()
    for i in range(7):
        assert geo.q_coefficient(i) == GaussianRational(1)


def test_invert_with_shift():
    # u^3 * phi has base exponent 3; inverse has base -3 and shrunk validity
    s = shift(phi_series(5), 3)
    inv = s.invert()
    assert inv.base_exponent == -3
    assert inv.order == s.order - 6
    assert (s * inv).first_difference(one_series(inv.order)) is None


def test_ring_axioms_randomized():
    rng = random.Random(3)

    def rand_series():
        order = rng.randint(4, 9)
        return TruncatedSeries(
            {e: GaussianRational(rng.randint(-4, 4), rng.randint(-2, 2)) for e in range(order)},
            order,
        )

    for _ in range(80):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert ((a * b) * c).first_difference(a * (b * c)) is None
        assert (a * series_sum(b, c)).first_difference(series_sum(a * b, a * c)) is None
        assert (a * b).first_difference(b * a) is None


def test_validity_is_sound_for_negative_bases():
    # multiplying by a q^(-1/8)-leading series must shrink claimed validity
    s = shift(phi_series(4), -3)
    t = phi_series(4)
    prod = s * t
    assert prod.order == min(s.order + 0, t.order + (-3))


def test_coefficient_beyond_truncation_raises():
    phi = phi_series(2)
    with pytest.raises(BeyondTruncationError):
        phi.coefficient(phi.order + 1)
    with pytest.raises(BeyondTruncationError):
        phi.q_coefficient(3)


def test_whole_power_display_guard():
    half = TruncatedSeries({12: GaussianRational(1)}, 30)
    with pytest.raises(ExponentLatticeError):
        format_series(half, fractional=False)
    assert "q^(1/2)" in format_series(half, fractional=True)


def test_format_reduced_fractions():
    s = TruncatedSeries({3: GaussianRational(2), 48: GaussianRational(Fraction(1, 3))}, 50)
    text = format_series(s, fractional=True)
    assert "q^(1/8)" in text
    assert "1/3*q^2" in text
