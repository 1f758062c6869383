"""The benchmark still runs on the package.

`perfbench/tracer.py` wraps package functions and methods by name and
refuses to run when one is missing, or when a cached function has lost
its `cache_info`.  Installing it here makes a renamed layer fail the test
suite too, not only a traced benchmark run.  Running the benchmark's own
oracle and tracer self-tests here does the same for any package name its
oracles use.  Nothing under `perfbench/` is changed.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]),
)


def test_tracer_installs_on_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install()"],
        capture_output=True,
        text=True,
        env=ENV,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_self_tests_pass(tmp_path):
    # the timing-based perfbench/test_hostspeed.py is left out: it measures
    # the host, not the package
    tests = [str(ROOT / "perfbench" / name) for name in ("test_oracles.py", "test_tracer.py")]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        capture_output=True,
        text=True,
        env=ENV,
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
