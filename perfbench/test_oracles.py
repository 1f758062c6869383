"""Self-tests: every oracle accepts a right output and rejects a corrupted one.

    python3 -m pytest perfbench/test_oracles.py -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from e8theta.e8 import basic_character, check_identity_116, theta_e8, theta_product_side  # noqa: E402
from e8theta.fixtures import FixedPoint, FixedPointFixture, IndexFlavor, resolve_fixture  # noqa: E402
from e8theta.index import classify, evaluate_at_identity, index_series  # noqa: E402
from e8theta.ratfunc import RationalFunction  # noqa: E402

T, TAU = oracles.sample_point(random.Random(7))


def _flipped(coeff, at: int):
    """A coefficient getter with the q^at coefficient negated (or, if it is
    zero, replaced by 1)."""

    def corrupted(n):
        c = coeff(n)
        if n != at:
            return c
        return -c if not c.is_zero() else c + RationalFunction.one("w")

    return corrupted


def _cp2_series(order=3):
    fixture, _ = resolve_fixture("cp2")
    return fixture, IndexFlavor.I_SERIES, index_series(fixture, IndexFlavor.I_SERIES, order)


def test_index_series_oracle_accepts_and_rejects_flipped_coefficient():
    fixture, flavor, ixs = _cp2_series()
    assert oracles.check_index_series(fixture, flavor, 3, ixs.q_coefficient, T, TAU) == []
    for n in range(4):  # the Fourier check sees every order, not only q^0, q^1
        assert oracles.check_index_series(fixture, flavor, 3, _flipped(ixs.q_coefficient, n), T, TAU)


def test_lefschetz_oracle_rejects_flipped_coefficient():
    fixture, flavor, ixs = _cp2_series(1)
    assert oracles.check_lefschetz(fixture, flavor, ixs.q_coefficient) == []
    assert oracles.check_lefschetz(fixture, flavor, _flipped(ixs.q_coefficient, 1))


def test_index_oracle_on_seeded_fixtures():
    rng = random.Random(3)
    for family, gaps, nonzero, flavor, _ in workloads.TORIC[:4]:
        beta = workloads._beta(rng, (1,) * nonzero)
        pts = workloads._toric_points(rng, family, gaps, beta)
        fixture = FixedPointFixture(
            k=len(pts[0]["alpha"]),
            points=tuple(FixedPoint(tuple(p["alpha"]), p["c"], tuple(p["beta"])) for p in pts),
        )
        fl = IndexFlavor(flavor)
        ixs = index_series(fixture, fl, 2)
        assert oracles.check_index_series(fixture, fl, 2, ixs.q_coefficient, T, TAU) == []
        assert oracles.check_index_series(fixture, fl, 2, _flipped(ixs.q_coefficient, 2), T, TAU)


def test_verdict_oracle_rejects_a_wrong_verdict():
    fixture, flavor, ixs = _cp2_series(2)
    report = classify(fixture, flavor, 2)
    expected = oracles.expected_classification(fixture, flavor, 2, ixs.q_coefficient)
    assert oracles.check_verdict(report, expected) == []
    report.meta["observed"] = "RIGID"
    assert oracles.check_verdict(report, expected)


def test_identity_values_oracle_rejects_a_wrong_value():
    fixture, flavor, ixs = _cp2_series(2)
    report = evaluate_at_identity(ixs)
    assert oracles.check_identity_values(report, 2, ixs.q_coefficient) == []
    report.items[1].detail = str(int(report.items[1].detail) + 1)
    assert oracles.check_identity_values(report, 2, ixs.q_coefficient)


def test_identity_values_oracle_sees_poles():
    fixture, _ = resolve_fixture("single_point")
    ixs = index_series(fixture, IndexFlavor.I_SERIES, 1)
    report = evaluate_at_identity(ixs)
    assert oracles.check_identity_values(report, 1, ixs.q_coefficient) == []
    report.items[0].detail = "1"
    assert oracles.check_identity_values(report, 1, ixs.q_coefficient)


def test_theta_e8_oracle_rejects_flipped_coefficient():
    beta = (1, -2, 0, 3, 1, 0, -1, 2)
    series = theta_e8(beta, 4)
    assert oracles.check_theta_e8(series, beta, 4, T) == []

    class Flipped:
        def q_coefficient(self, n):
            c = series.q_coefficient(n)
            return -c if n == 4 else c

    assert oracles.check_theta_e8(Flipped(), beta, 4, T)


def test_product_side_oracle_rejects_flipped_coefficient():
    beta = (2, -1, 0, 3, -3, 1, 0, 1)
    series = theta_product_side(beta, 3)
    assert oracles.check_theta_e8(series, beta, 3, T) == []

    class Flipped:
        def q_coefficient(self, n):
            c = series.q_coefficient(n)
            return -c if n == 3 else c

    assert oracles.check_theta_e8(Flipped(), beta, 3, T)


def test_character_oracle_rejects_a_wrong_dimension():
    ch = basic_character((0,) * 8, 4)
    assert oracles.check_character(ch, 4) == []
    ch.graded_dims[3] += 1
    assert oracles.check_character(ch, 4)


def test_identity_report_oracle_rejects_a_failed_check():
    beta = (1, 0, -1, 2, 0, 0, 3, -1)
    report = check_identity_116(beta, 2)
    assert oracles.check_identity_report(report, beta, 2) == []
    report.ok = False
    assert oracles.check_identity_report(report, beta, 2)


def test_identity_report_oracle_rejects_a_shorter_comparison():
    beta = (1, 0, -1, 2, 0, 0, 3, -1)
    report = check_identity_116(beta, 2)
    report.items[0].name = "lattice sum = theta products through q^1"
    assert oracles.check_identity_report(report, beta, 2)


def test_cli_golden_rejects_a_changed_byte():
    golden = json.loads((HERE / "golden" / "cli.json").read_text(encoding="utf-8"))
    argv = "e8 dims --order 3".split()
    want = golden[" ".join(argv)]
    assert oracles.check_cli(argv, want["exit_code"], want["stdout"], golden) == []
    changed = want["stdout"].replace("4124", "4125")
    assert oracles.check_cli(argv, want["exit_code"], changed, golden)
    assert oracles.check_cli(argv, 1, want["stdout"], golden)


def test_cli_golden_masks_only_the_timestamp():
    golden = json.loads((HERE / "golden" / "cli.json").read_text(encoding="utf-8"))
    argv = "--format json index check --fixture s2.json --order 5".split()
    want = golden[" ".join(argv)]
    live = want["stdout"].replace('"<masked>"', '"2031-01-01T00:00:00Z"')
    assert oracles.check_cli(argv, 0, live, golden) == []
    assert oracles.check_cli(argv, 0, live.replace("VANISHING", "VANISHINH", 1), golden)


def test_job_lists_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.jobs_for(workload, 11) == workloads.jobs_for(workload, 11)
        assert workloads.jobs_for(workload, 11) != workloads.jobs_for(workload, 12)
