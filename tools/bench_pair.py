"""Run the benchmark for a parent and a change in alternating pairs.

    python3 tools/bench_pair.py --parent HEAD --out BENCH_7.json --first-seed 1300

For every workload in BENCHMARK.json and each of the PAIRS = 10 pairs i,
`perfbench/run.py --workload W --seed S+i --seconds T --trace 0` runs once
on the parent tree and once on the change, the side that goes first
alternating from pair to pair; T is BENCHMARK.json's `run_seconds`.  Ten
pairs is the fewest a claimed gain is judged on, and a no-regression
report has to cover every workload, so neither is an option.  Both sides
run from sibling directories of one temporary directory, so that neither
path length nor file system separates them: the parent is `git archive` of
the --parent revision, the change a copy of the files of the working tree
this script lives in that git tracks or would track (`git ls-files
--cached --others --exclude-standard`), uncommitted edits included.

The JSON written to --out holds, per workload and end-to-end metric, the
median and quartiles of each side and the number of same-seed pairs the
change won (a pair counts only when both of its runs report the metric),
plus every run's raw values, both commits, `nproc`, the Python version
and the `src/` line counts that each side's `env:` line reports.  It is
rewritten after every pair, so an interrupted run keeps what it measured.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export_tree(rev: str, dest: Path) -> None:
    """Unpack the committed files of `rev` into `dest`."""
    dest.mkdir()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files into `dest`."""
    dest.mkdir()
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in listed.split("\0"):
        src = ROOT / rel
        if rel and src.is_file():  # a tracked file deleted in the working tree is left out
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)


def prepare_trees(rev: str, tmp: Path) -> dict[str, Path]:
    """The parent (`rev`) and change trees, unpacked side by side under `tmp`."""
    trees = {"parent": tmp / "parent", "change": tmp / "change"}
    export_tree(rev, trees["parent"])
    copy_worktree(trees["change"])
    return trees


def run_benchmark(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One `perfbench/run.py` run in `tree`: its result object and env line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(l[len("env: "):]) for l in lines if l.startswith("env: ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit_code"] = proc.returncode
    result["env"] = env
    return result


def summarize(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def workload_summary(runs: list[dict], metrics: list[dict]) -> dict:
    by_seed: dict[int, dict[str, dict]] = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
    out = {}
    for metric in metrics:
        name = metric["name"]
        p = [r["metrics"][name] for r in runs if r["side"] == "parent" and name in r["metrics"]]
        c = [r["metrics"][name] for r in runs if r["side"] == "change" and name in r["metrics"]]
        pairs = [
            (sides["parent"][name], sides["change"][name])
            for sides in by_seed.values()
            if name in sides.get("parent", {}) and name in sides.get("change", {})
        ]
        better = (lambda a, b: a < b) if metric["better"] == "lower" else (lambda a, b: a > b)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": summarize(p),
            "change": summarize(c),
            "change_wins": sum(better(cv, pv) for pv, cv in pairs),
            "pairs": len(pairs),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent (default HEAD)")
    ap.add_argument("--first-seed", type=int, default=1300)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    parent_commit = git("rev-parse", args.parent)
    change_commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    change_label = f"working tree at {change_commit}" + (" (uncommitted edits)" if dirty else "")

    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        trees = prepare_trees(parent_commit, Path(tmp))

        report: dict = {
            "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                       f"{seconds} --trace 0",
            "parent": {"commit": parent_commit},
            "change": {"commit": change_label},
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "pairs": PAIRS,
            "seeds": list(range(args.first_seed, args.first_seed + PAIRS)),
            "quartiles": "statistics.quantiles(n=4, method='inclusive')",
            "workloads": {},
        }
        for workload in workloads:
            runs: list[dict] = []
            for i in range(PAIRS):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_benchmark(trees[side], workload, seed, seconds)
                    env = result.pop("env")
                    if env.get("src_lines"):
                        lines = env["src_lines"]
                        report[side]["src_lines"] = {**lines, "total": sum(lines.values())}
                    runs.append({
                        "side": side,
                        "seed": seed,
                        "correct": result.get("correct"),
                        "attempted": result.get("attempted"),
                        "failed": result.get("failed"),
                        "exit_code": result["exit_code"],
                        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
                    })
                    wall = runs[-1]["metrics"].get("wall_s")
                    print(f"{workload} seed {seed} {side}: wall_s={wall} "
                          f"correct={result.get('correct')}", file=sys.stderr, flush=True)
                report["workloads"][workload] = {
                    "metrics": workload_summary(runs, metrics),
                    "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
                    "runs": runs,
                }
                args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if all(w["all_correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
