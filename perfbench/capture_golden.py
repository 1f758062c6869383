"""Record the golden outputs the oracles compare against.

    python3 perfbench/capture_golden.py

Writes golden/cli.json (stdout, timestamp masked, and exit code of every
cli-cold command) and golden/index_bundled.json (classify verdicts and
evaluate_at_identity results for the bundled fixtures at the orders the
index-sweep workload runs them).  Run it only at a commit whose output is
known to be right: the benchmark treats these files as the truth.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    env = run.child_env()
    cli = {}
    for argv in workloads.cli_commands():
        _, rc, stdout, _ = run._run_cli(argv, env)
        cli[" ".join(argv)] = {"exit_code": rc, "stdout": oracles.mask_timestamp(stdout)}

    from e8theta.fixtures import IndexFlavor, resolve_fixture
    from e8theta.index import classify, evaluate_at_identity, index_series

    verdict, identity = {}, {}
    for name, order in workloads.BUNDLED:
        fixture, _ = resolve_fixture(name)
        for flavor in IndexFlavor:
            key = f"{name}/{flavor.value}/{order}"
            verdict[key] = oracles.verdict_record(classify(fixture, flavor, order))
            report = evaluate_at_identity(index_series(fixture, flavor, order))
            identity[key] = oracles.identity_record(report)

    out = HERE / "golden"
    out.mkdir(exist_ok=True)
    (out / "cli.json").write_text(json.dumps(cli, indent=1) + "\n", encoding="utf-8")
    (out / "index_bundled.json").write_text(
        json.dumps({"verdict": verdict, "identity": identity}, indent=1) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
