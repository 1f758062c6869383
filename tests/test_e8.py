from fractions import Fraction

import pytest

from conftest import brute_force_e8_shell, naive_partition_power

import e8theta.e8
from e8theta.e8 import (
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
from e8theta.theta import ThetaKind, theta_product


def test_shell_zero_is_origin():
    table = enumerate_shells(0)
    assert table.shells[0] == [(0,) * 8]


@pytest.mark.parametrize("m", [1, 2])
def test_shells_match_brute_force_box_scan(m):
    table = enumerate_shells(m)
    assert table.shells[m] == brute_force_e8_shell(m)


def test_shell_counts():
    counts = enumerate_shells(3).counts()
    assert counts == [1, 240, 2160, 6720]


def test_enumeration_is_deterministic_and_sorted():
    t1 = enumerate_shells(2)
    t2 = enumerate_shells(2)
    assert t1.shells == t2.shells
    for vecs in t1.shells.values():
        assert vecs == sorted(vecs)


def test_half_norm_bound_checked_before_enumeration(monkeypatch):
    def no_scan(*args):
        raise AssertionError("enumeration started for an out-of-range order")

    monkeypatch.setattr(e8theta.e8, "_scan_parity", no_scan)
    for bound in (11, -1):
        with pytest.raises(ValueError, match=r"0\.\.10"):
            enumerate_shells(bound)


def test_roots_have_norm_two():
    roots = e8_roots()
    assert len(roots) == 240
    assert all(sum(d * d for d in r) == 8 for r in roots)


def test_theta_e8_scalar_series():
    s = theta_e8((0,) * 8, 3)
    assert [s.q_coefficient(i).constant_value().as_integer() for i in range(4)] == [
        1,
        240,
        2160,
        6720,
    ]


def test_theta_e8_first_coordinate_multiset():
    # roots grouped by doubled first coordinate: computed by enumeration
    expected = {0: 84, 1: 64, -1: 64, 2: 14, -2: 14}
    counts = {}
    for d in e8_roots():
        counts[d[0]] = counts.get(d[0], 0) + 1
    assert counts == expected
    q1 = theta_e8((1, 0, 0, 0, 0, 0, 0, 0), 1).q_coefficient(1)
    assert q1 == LaurentPolynomial(
        "w", {e: GaussianRational(n) for e, n in expected.items()}
    )
    assert q1.sum_of_coefficients().as_integer() == 240


def test_theta_e8_palindromic_in_w(rng):
    for _ in range(5):
        beta = tuple(rng.randint(-3, 3) for _ in range(8))
        s = theta_e8(beta, 2)
        for i in range(3):
            c = s.q_coefficient(i)
            assert c == c.invert_variable()


def test_theta_e8_permutation_invariance(rng):
    beta = (2, -1, 0, 1, 3, 0, -2, 1)
    s = theta_e8(beta, 2)
    for _ in range(4):
        perm = list(beta)
        rng.shuffle(perm)
        assert theta_e8(tuple(perm), 2) == s


def test_identity_beta_zero_reduces_to_three_products():
    # the odd theta vanishes at z = 0, so only three products survive
    order = 5
    rhs = theta_product_side((0,) * 8, order)
    half = GaussianRational(Fraction(1, 2))
    manual = None
    for kind in (ThetaKind.THETA1, ThetaKind.THETA2, ThetaKind.THETA3):
        p = theta_product([(kind, 0)], order + 1) ** 8
        manual = p if manual is None else manual + p
    assert rhs.first_difference(manual.scale(half), through=U_PER_Q * order) is None
    report = check_identity_116((0,) * 8, order)
    assert report.ok


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


def test_identity_check_can_fail():
    # corrupt one side by shifting beta between the two routes
    lhs = theta_e8((1, 0, 0, 0, 0, 0, 0, 0), 2)
    rhs = theta_product_side((2, 0, 0, 0, 0, 0, 0, 0), 2)
    e = lhs.first_difference(rhs, through=U_PER_Q * 2)
    assert e is not None


def test_basic_character_graded_dims():
    ch = basic_character((0,) * 8, 3)
    assert ch.graded_dims == [1, 248, 4124, 34752]


def test_graded_dims_match_convolution_oracle():
    # dim V_i = sum_m shellcount(m) * [q^(i-m)] prod (1-q^n)^(-8)
    counts = enumerate_shells(3).counts()
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
    assert q1 == LaurentPolynomial("w", {e: GaussianRational(n) for e, n in expected.items()})


def test_graded_dims_independent_of_beta(rng):
    reference = basic_character((0,) * 8, 3).graded_dims
    for _ in range(4):
        beta = tuple(rng.randint(-2, 2) for _ in range(8))
        assert basic_character(beta, 3).graded_dims == reference


def test_shell_counts_equal_theta_eighth_powers():
    order = 5
    counts = enumerate_shells(order).counts()
    rhs = theta_product_side((0,) * 8, order)
    for m in range(order + 1):
        assert rhs.q_coefficient(m).constant_value().as_integer() == counts[m]
