"""Integer blocks against their TruncatedSeries counterparts.

Each operation on {u: {w: int}} blocks must give, read through
intseries.to_series, exactly the same operation on Laurent-valued series,
validity order included.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    map_coefficients,
    naive_euler_phi,
    naive_partition_power,
    one_series,
    phi_series,
    power,
    series_sum,
    substitute_power,
    truncate,
)

from e8theta import intseries
from e8theta.gaussian import MINUS_I
from e8theta.laurent import LaurentPolynomial
from e8theta.series import U_PER_Q


def _random_block(rng) -> intseries.Block:
    """Integer Laurent coefficients, a random base exponent and validity; now
    and then zero, sparse, or with w-powers that collapse at w = 1."""
    base = rng.randint(-30, 30)
    validity = base + rng.randint(0, 60)
    coeffs = {}
    if rng.randint(0, 5):
        exponents = range(base, validity + 1)
        for e in rng.sample(exponents, rng.randint(1, min(8, len(exponents)))):
            poly = {rng.randint(-6, 6): rng.randint(-3, 3) for _ in range(rng.randint(1, 4))}
            poly = {w: c for w, c in poly.items() if c}
            if poly:
                coeffs[e] = poly
    if coeffs and not rng.randint(0, 3):
        coeffs[max(coeffs)] = {1: 2, -1: -2}  # zero at w = 1
    return coeffs, validity


def test_to_series_is_the_laurent_view(rng):
    for _ in range(200):
        block = _random_block(rng)
        s = intseries.to_series(block)
        assert s.order == block[1] and s.zero == LaurentPolynomial()
        assert s.coeffs == {e: LaurentPolynomial(p) for e, p in block[0].items()}
        assert intseries.to_series(block, MINUS_I) == map_coefficients(s, lambda c: c * MINUS_I)


def test_substitute_equals_substitute_power(rng):
    for _ in range(200):
        block = _random_block(rng)
        for m in (0, 1, -1, 3, -3):
            got = intseries.substitute(block, m)
            assert all(p and all(p.values()) for p in got[0].values())
            expected = map_coefficients(intseries.to_series(block), lambda c: substitute_power(c, m))
            assert intseries.to_series(got) == expected, m


def test_mul_and_add_equal_series_arithmetic(rng):
    for _ in range(300):
        x, y = _random_block(rng), _random_block(rng)
        a, b = intseries.to_series(x), intseries.to_series(y)
        assert intseries.to_series(intseries.mul(x, y)) == a * b
        assert intseries.to_series(intseries.add(x, y)) == series_sum(a, b)


def test_times_one_plus_equals_series_method(rng):
    for _ in range(300):
        coeffs, validity = _random_block(rng)
        s = intseries.to_series((coeffs, validity))
        c, x, e = rng.choice((-1, 1)), rng.randint(-8, 8), rng.randint(1, 40)
        intseries.times_one_plus(coeffs, c, x, e, validity)
        expected = s.times_one_plus(LaurentPolynomial({x: c}), e)
        assert intseries.to_series((coeffs, validity)) == expected


def test_times_inverse_equals_build_then_invert(rng):
    for _ in range(300):
        coeffs, validity = _random_block(rng)
        s = intseries.to_series((coeffs, validity))
        x, e = rng.randint(-8, 8), rng.randint(1, 40)
        factor = one_series(max(validity, 0), LaurentPolynomial())
        if e <= factor.order:
            factor = factor.times_one_plus(LaurentPolynomial({x: -1}), e)
        expected = s * factor.invert()
        intseries.times_inverse(coeffs, x, e, validity)
        assert truncate(intseries.to_series((coeffs, validity)), expected.order) == expected


@pytest.mark.parametrize("order", range(31))
def test_phi_block_powers_match_naive_products(order):
    one = ({0: {0: 1}}, U_PER_Q * order + U_PER_Q - 1)
    for n in range(-24, 25):
        block = intseries.phi_block(n, order)
        assert block[1] == one[1]
        assert all(e % U_PER_Q == 0 and set(p) == {0} for e, p in block[0].items())
        got = [block[0].get(U_PER_Q * i, {0: 0})[0] for i in range(order + 1)]
        # phi^n = prod (1 - q^m)^(-(-n)), by the divisor-sum recurrence
        assert got == naive_partition_power(order, -n), (n, order)
        assert intseries.mul(block, intseries.phi_block(-n, order)) == one, (n, order)
    euler = naive_euler_phi(order)
    assert intseries.phi_block(1, order)[0] == {
        U_PER_Q * i: {0: c} for i, c in euler.items()
    }
    qi = intseries.to_series(intseries.phi_block(-3, order))
    assert qi == map_coefficients(power(phi_series(order), -3), lambda c: LaurentPolynomial({0: c}))


def test_a_wrong_divisor_sum_trips_the_exact_division(monkeypatch):
    """Euler's recurrence divides by k at q^k; with sigma(3) = 5 instead of 4
    the q^3 division of phi and of phi^-8 is not exact, and raises."""
    right = intseries._divisor_sums

    def wrong(order):
        sigma = right(order)
        sigma[3] += 1
        return sigma

    monkeypatch.setattr(intseries, "_divisor_sums", wrong)
    for n in (1, -8):
        with pytest.raises(AssertionError, match=r"q\^3 coefficient is not an integer"):
            intseries.phi_block(n, 3)


_SLOT_MAX = (1 << intseries._SLOT_BITS - 1) - 1


def _pack(coefficients: list[int]) -> int:
    """coefficients[k] in the k-th slot: the packed layout, written out."""
    return sum(c << intseries._SLOT_BITS * k for k, c in enumerate(coefficients))


@given(st.lists(st.integers(-_SLOT_MAX, _SLOT_MAX) | st.sampled_from([0, 1, -1]), max_size=12),
       st.integers(-50, 50), st.integers(1, 6))
@example([-1, 0], 0, 1)
@example([0, -1], 0, 1)
@example([-1, 0, 1], -7, 2)
@example([-3, -_SLOT_MAX, 5, -1], 4, 2)
@example([_SLOT_MAX, -_SLOT_MAX], 0, 1)
@example([-_SLOT_MAX], 0, 1)
@example([0], 3, 2)
@example([], 0, 1)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_unpack_reads_back_signed_slots(coefficients, low, stride):
    """A negative slot borrows from the one above it; the read undoes that."""
    got = intseries._unpack(_pack(coefficients), low, stride)
    assert got == {low + k * stride: c for k, c in enumerate(coefficients) if c}


def test_unpack_single_slot_rows():
    for c in (1, -1, 5, -_SLOT_MAX, _SLOT_MAX):
        assert intseries._unpack(c, 7, 2) == {7: c}
    assert intseries._unpack(0, 7, 2) == {}
