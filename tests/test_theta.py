import cmath

import pytest

from conftest import (
    evaluate_expansion,
    map_coefficients,
    theta_prime_zero_series,
    theta_product_qi,
    theta_sum_series,
    truncate,
    z_derivative_at_zero,
)

from e8theta import intseries
from e8theta.gaussian import GaussianRational, I, ONE
from e8theta.laurent import LaurentPolynomial
from e8theta.series import U_PER_Q, format_series
from e8theta.theta import (
    ThetaKind,
    check_lattice_transform,
    check_modular_transform,
    jacobi_identity_residual,
    theta_eval,
    theta_prime_zero,
    theta_product,
    theta_series,
)

SAMPLE_TAUS = [1.3j, 0.8j, 0.2 + 1.1j, -0.4 + 0.9j, 2.0j]


def L(coeffs):
    return LaurentPolynomial({e: GaussianRational(*c) if isinstance(c, tuple) else GaussianRational(c) for e, c in coeffs.items()})


def test_leading_terms_match_sin_cos_prefactors():
    odd = theta_series(ThetaKind.THETA, 2)
    assert odd.base_exponent == 3  # q^(1/8)
    assert odd.coefficient(3) == L({1: (0, -1), -1: (0, 1)})  # -i(w - w^-1)
    even = theta_series(ThetaKind.THETA1, 2)
    assert even.coefficient(3) == L({1: 1, -1: 1})  # w + w^-1


def test_theta3_terms_through_q_9_2():
    s = theta_series(ThetaKind.THETA3, 5)
    assert s.coefficient(0) == L({0: 1})
    assert s.coefficient(12) == L({2: 1, -2: 1})
    assert s.coefficient(48) == L({4: 1, -4: 1})
    assert s.coefficient(108) == L({6: 1, -6: 1})
    for e in range(0, 109):
        if e not in (0, 12, 48, 108):
            assert s.coefficient(e).is_zero()


@pytest.mark.parametrize("kind", list(ThetaKind))
@pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 8, 12])
def test_product_equals_sum_form(kind, order):
    assert theta_series(kind, order) == theta_sum_series(kind, order)


@pytest.mark.parametrize("kind", list(ThetaKind))
def test_parity(kind, order=6):
    series = theta_series(kind, order)
    flipped = theta_product([(kind, -1)], order)  # i*theta for THETA
    if kind is ThetaKind.THETA:
        assert intseries.to_series(flipped, I) == series
    else:
        assert intseries.to_series(flipped) == series


def _unit(factors):
    """i^(number of THETA factors): theta_product takes i*theta for theta."""
    unit = ONE
    for kind, _ in factors:
        if kind is ThetaKind.THETA:
            unit = unit * I
    return unit


def _mixed_factor_lists(rng):
    odd = [(ThetaKind.THETA, 2), (ThetaKind.THETA, -1), (ThetaKind.THETA, 3)]
    lists = [[(ThetaKind.THETA, 1)], odd, odd + [(ThetaKind.THETA3, 0)]]
    for _ in range(40):
        lists.append(
            [(rng.choice(list(ThetaKind)), rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
        )
    return lists


def test_integer_product_equals_qi_product(rng):
    factor_lists = _mixed_factor_lists(rng)
    assert any(any(m == 0 for _, m in f) for f in factor_lists)
    assert any(sum(k is ThetaKind.THETA for k, _ in f) % 2 for f in factor_lists)
    even = (ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3)
    for c in range(-3, 4):  # the index path's line blocks, I and J
        factor_lists += [[(kind, c) for kind in even], [(ThetaKind.THETA, c)]]
    for factors in factor_lists:
        for order in range(5):
            unit = _unit(factors)
            expected = map_coefficients(theta_product_qi(factors, order), lambda c: c * unit)
            assert intseries.to_series(theta_product(factors, order)) == expected, (factors, order)


def test_theta_gap_returns_laurent_zero():
    series = theta_series(ThetaKind.THETA2, 3)
    assert 1 not in series.coeffs
    c = series.coefficient(1)
    assert isinstance(c, LaurentPolynomial)
    assert c.is_zero() and c.is_constant()
    assert c == LaurentPolynomial()
    assert c.evaluate(0.3 + 0.4j) == 0


def test_theta_vanishes_at_zero():
    assert theta_product([(ThetaKind.THETA, 0)], 4) == ({}, U_PER_Q * 4 + 3)
    for tau in SAMPLE_TAUS:
        assert theta_eval(ThetaKind.THETA, 0, tau) == 0


def test_theta2_at_zero_matches_direct_product():
    tau = 1j
    q = cmath.exp(2j * cmath.pi * tau)
    expected = 1.0
    for j in range(1, 200):
        expected *= (1 - q**j).real * abs(1 - q ** (j - 0.5)) ** 2
    got = theta_eval(ThetaKind.THETA2, 0, tau)
    assert abs(got - expected) < 1e-12


@pytest.mark.parametrize("kind", list(ThetaKind))
def test_numeric_matches_exact_specialization(kind):
    z, tau = 0.23 + 0.11j, 0.3 + 1.2j
    order = 14
    exact = evaluate_expansion(theta_series(kind, order), z, tau)
    numeric = theta_eval(kind, z, tau)
    # documented bound: O(|q|^order) with the w-amplification factor
    bound = abs(cmath.exp(2j * cmath.pi * tau)) ** order * 1e3
    assert abs(exact - numeric) < max(bound, 1e-13)


def test_jacobi_identity_residuals():
    for tau in SAMPLE_TAUS:
        assert jacobi_identity_residual(tau) < 1e-10


@pytest.mark.parametrize("n", range(11))
def test_jacobi_identity_theta123_at_zero_is_twice_q18_phi_cubed(n):
    """(theta_1 theta_2 theta_3)(0) = 2 q^(1/8) phi^3 exactly, through q^n."""
    kinds = (ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3)
    product = intseries.to_series(theta_product([(kind, 0) for kind in kinds], n))
    jacobi = map_coefficients(theta_prime_zero_series(n), lambda c: LaurentPolynomial({0: 2 * c}))
    through = U_PER_Q * n
    assert truncate(product, through) == truncate(jacobi, through)


def test_theta_prime_series_is_q18_phi_cubed():
    s = theta_prime_zero_series(6)
    assert s.base_exponent == 3
    assert s.coefficient(3) == ONE
    # spot check against the termwise z-derivative of the odd theta
    d = z_derivative_at_zero(theta_series(ThetaKind.THETA, 6))
    assert d.first_difference(s) is None


def test_theta_prime_numeric_laws():
    tau = 1.3j
    ratio = theta_prime_zero(tau + 1) / theta_prime_zero(tau)
    assert abs(ratio - cmath.exp(1j * cmath.pi / 4)) < 1e-10
    tau = 0.3 + 1.2j
    lhs = theta_prime_zero(-1 / tau)
    rhs = tau**1.5 * (1 / 1j) * (1 / 1j) ** 0.5 * theta_prime_zero(tau)
    assert abs(lhs / rhs - 1) < 1e-9


def test_theta_prime_matches_2pi_series():
    tau = 0.2 + 1.1j
    series_value = 2 * cmath.pi * theta_prime_zero_series(12).evaluate(
        cmath.exp(2j * cmath.pi * tau / U_PER_Q), complex
    )
    assert abs(series_value - theta_prime_zero(tau)) < 1e-10


@pytest.mark.parametrize("kind", list(ThetaKind))
@pytest.mark.parametrize("z,tau", [(0.2, 1.1j), (0.3 + 0.1j, 0.4 + 1.2j), (-0.1 + 0.07j, 1.7j)])
def test_modular_transforms(kind, z, tau):
    report = check_modular_transform(kind, z, tau, tol=1e-9)
    assert report.ok, report.summary()


def test_modular_transform_at_zero_is_exact_zero_for_odd_theta():
    report = check_modular_transform(ThetaKind.THETA, 0, 1.1j, tol=1e-12)
    assert report.ok
    assert all(item.residual == 0 for item in report.items)


@pytest.mark.parametrize("kind,a,expected_sign", [
    (ThetaKind.THETA, 1, -1),
    (ThetaKind.THETA1, 1, -1),
    (ThetaKind.THETA2, 1, +1),
    (ThetaKind.THETA3, 1, +1),
])
def test_integer_shift_signs(kind, a, expected_sign):
    z, tau = 0.23 + 0.05j, 1.1j
    lhs = theta_eval(kind, z + a, tau)
    rhs = expected_sign * theta_eval(kind, z, tau)
    assert abs(lhs - rhs) < 1e-9
    report = check_lattice_transform(kind, z, tau, a, 0, tol=1e-9)
    assert report.ok


@pytest.mark.parametrize("kind", list(ThetaKind))
@pytest.mark.parametrize("a,b", [(1, 0), (0, 1), (2, 1), (-1, 1), (1, -2)])
def test_lattice_transforms(kind, a, b):
    report = check_lattice_transform(kind, 0.3 + 0.1j, 0.4 + 1.2j, a, b, tol=1e-9)
    assert report.ok, report.summary()


def test_theta2_tau_shift_factor():
    # tau-multiple shift of the even kind carries (-1) and the Gaussian factor
    z, tau = 0.21 + 0.03j, 1.2j
    lhs = theta_eval(ThetaKind.THETA2, z + tau, tau)
    rhs = -cmath.exp(-2j * cmath.pi * z - 1j * cmath.pi * tau) * theta_eval(ThetaKind.THETA2, z, tau)
    assert abs(lhs - rhs) < 1e-9


def test_eval_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        theta_eval(ThetaKind.THETA3, 0.1, -1j)
    with pytest.raises(ValueError):
        check_modular_transform(ThetaKind.THETA, 0.1, 0.5, 1e-9)


def test_display_has_fractional_exponents():
    text = format_series(theta_series(ThetaKind.THETA, 1), fractional=True)
    assert "q^(1/8)" in text


def test_theta_series_order_and_cache_are_bounded():
    from e8theta.theta import MAX_THETA_ORDER, _theta_block

    for order in (MAX_THETA_ORDER + 1, -1):
        with pytest.raises(ValueError, match=rf"0\.\.{MAX_THETA_ORDER}"):
            theta_series(ThetaKind.THETA3, order)
        with pytest.raises(ValueError, match=rf"0\.\.{MAX_THETA_ORDER}"):
            theta_product([(ThetaKind.THETA3, 1)], order)
    assert theta_series.cache_info().maxsize is not None
    assert _theta_block.cache_info().maxsize is not None
