"""Self-tests of the host-speed correction (hostspeed.py)."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_samples_only_inside_measure_and_subtracts_their_time():
    hostspeed.start_sampling()
    try:
        n0, h0 = len(hostspeed.samples), hostspeed.handler_s
        _busy(0.2)  # outside measure(): the alarms stay pending
        assert len(hostspeed.samples) == n0
        with hostspeed.measure() as timed:
            _busy(0.3)
    finally:
        hostspeed.stop_sampling()  # drops a pending alarm instead of dying of it
    interior = len(hostspeed.samples) - n0
    assert interior >= 3
    assert len(timed["refs"]) == interior + 2
    assert 0.3 - timed["seconds"] == pytest.approx(hostspeed.handler_s - h0, abs=0.02)


def test_corrected_scales_by_the_reference():
    ref = hostspeed.REF_S
    assert hostspeed.corrected(2.0, [ref, ref]) == pytest.approx(2.0)
    assert hostspeed.corrected(2.0, [2 * ref, 1.5 * ref, 2.5 * ref]) == pytest.approx(1.0)
