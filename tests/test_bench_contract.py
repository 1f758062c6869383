"""The benchmark's tracer still finds every layer it wraps.

`perfbench/tracer.py` wraps package functions and methods by name and
refuses to run when one is missing, or when a cached function has lost
its `cache_info`.  Installing it here makes a renamed layer fail the test
suite too, not only a traced benchmark run.  Nothing under `perfbench/`
is changed.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_package(tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install()"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
