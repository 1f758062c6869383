"""Self-test: the tracer refuses to run with a layer it cannot wrap.

    python3 -m pytest perfbench/test_tracer.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
import e8theta.index  # noqa: E402
import e8theta.laurent  # noqa: E402
import e8theta.ratfunc  # noqa: E402


def test_missing_target_fails_before_wrapping(monkeypatch):
    monkeypatch.delattr(e8theta.laurent, "laurent_gcd")
    monkeypatch.delattr(e8theta.ratfunc.RationalFunction, "__add__")
    index_series = e8theta.index.index_series
    with pytest.raises(RuntimeError) as err:
        tracer.install()
    assert "e8theta.laurent.laurent_gcd" in str(err.value)
    assert "e8theta.ratfunc.RationalFunction.__add__" in str(err.value)
    assert e8theta.index.index_series is index_series  # nothing was wrapped
