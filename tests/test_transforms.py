"""Numeric transformation laws of the index series, summand-wise."""

import random

import pytest

from conftest import evaluate_series

from e8theta.fixtures import FixedPoint, FixedPointFixture, IndexFlavor
from e8theta.index import anomaly, check_transform_laws, index_value, point_value

Z8 = (0,) * 8

# sampling domain keeping the products far from zeros: Im tau in [0.8, 2],
# |Re tau| <= 1/2, |t| <= 1/2, |Im t| < Im tau / 4
SAMPLES = [
    (0.11 + 0.07j, 0.2 + 1.1j),
    (0.31 - 0.05j, -0.4 + 0.9j),
    (0.43 + 0.12j, 1.7j),
]


def single_point(rng: random.Random) -> FixedPointFixture:
    alpha = (rng.choice([-2, -1, 1, 2]),)
    c = rng.randint(-2, 2)
    beta = tuple(rng.randint(-1, 1) for _ in range(8))
    return FixedPointFixture(k=1, points=(FixedPoint(alpha, c, beta),), label="random point")


def test_t_law_single_fixture():
    fx = FixedPointFixture(k=1, points=(FixedPoint((1,), 0, Z8),), label="basic")
    report = check_transform_laws(fx, IndexFlavor.I_SERIES, 0.11 + 0.07j, 1.2j, 2, 0)
    t_items = [i for i in report.items if "T-law" in i.name]
    assert all(i.status == "pass" for i in t_items)


def test_s_law_weight_with_zero_anomaly():
    # beta = e1, c = 0: n = 1 - 1 = 0, so the factor is tau^(k+4) alone
    fx = FixedPointFixture(
        k=1, points=(FixedPoint((1,), 0, (1, 0, 0, 0, 0, 0, 0, 0)),), label="n=0"
    )
    assert anomaly(fx, IndexFlavor.I_SERIES).n == 0
    t, tau = 0.23 + 0.11j, 0.3 + 1.4j
    lhs = index_value(fx, IndexFlavor.I_SERIES, t / tau, -1 / tau)
    rhs = tau ** (1 + 4) * index_value(fx, IndexFlavor.I_SERIES, t, tau)
    assert abs(lhs - rhs) / max(1, abs(rhs)) < 1e-8


@pytest.mark.parametrize("flavor", list(IndexFlavor))
def test_summandwise_laws_randomized(flavor):
    rng = random.Random(709 if flavor is IndexFlavor.I_SERIES else 907)
    resolved = set()
    for trial in range(5):
        fx = single_point(rng)
        t, tau = SAMPLES[trial % len(SAMPLES)]
        report = check_transform_laws(fx, flavor, t, tau, 2, 0, tol=1e-8)
        assert report.ok, f"trial {trial}: {report.summary()}"
        resolved.add(report.meta["lattice_law_resolved"])
    # the experiment must discriminate: the standard exponent always holds,
    # the printed variant only in degenerate cases such as n = 0
    assert "standard" in resolved or resolved == {"both"}
    assert "neither" not in resolved


def test_printed_exponent_fails_for_nonzero_anomaly():
    fx = FixedPointFixture(
        k=1, points=(FixedPoint((1,), 0, (2, 0, 0, 0, 0, 0, 0, 0)),), label="n=3"
    )
    report = check_transform_laws(fx, IndexFlavor.I_SERIES, 0.11 + 0.07j, 0.2 + 1.1j, 2, 2)
    assert report.meta["lattice_law_resolved"] == "standard"
    printed = [i for i in report.items if "printed" in i.name]
    assert any(i.status == "fail" for i in printed)
    assert report.ok  # the resolved law holding is what passes the check


def test_total_law_checked_when_anomaly_consistent():
    fx = FixedPointFixture(
        k=1,
        points=(FixedPoint((1,), 1, Z8), FixedPoint((-1,), -1, Z8)),
        label="two points, n = 2",
    )
    report = check_transform_laws(fx, IndexFlavor.I_SERIES, 0.11 + 0.07j, 0.2 + 1.1j, 2, 0)
    assert any(i.name.startswith("total") for i in report.items)
    assert report.ok


def test_shift_validation():
    fx = FixedPointFixture(k=1, points=(FixedPoint((1,), 0, Z8),), label="basic")
    with pytest.raises(ValueError):
        check_transform_laws(fx, IndexFlavor.I_SERIES, 0.1, 1.2j, 1, 0)
    with pytest.raises(ValueError):
        check_transform_laws(fx, IndexFlavor.I_SERIES, 0.1, -1.2j, 2, 0)


def test_point_value_matches_exact_series():
    # the numeric evaluator and the exact series agree where |q| is small
    import cmath

    from e8theta.index import point_contribution
    from e8theta.series import U_PER_Q

    point = FixedPoint((1, 2), 1, (1, 0, 0, 0, 0, 0, 0, 0))
    t, tau = 0.17, 2.2j
    order = 6
    series = point_contribution(point, 2, IndexFlavor.I_SERIES, order)
    w = cmath.exp(1j * cmath.pi * t)
    u = cmath.exp(2j * cmath.pi * tau / U_PER_Q)
    exact = evaluate_series(series, u, lambda c: c.evaluate(w))
    numeric = point_value(point, 2, IndexFlavor.I_SERIES, t, tau)
    assert abs(exact - numeric) < 1e-10
