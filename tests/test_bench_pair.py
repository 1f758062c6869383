"""`tools/bench_pair.py` pairs parent and change runs by seed, from sibling trees."""

import importlib.util
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"}]


def _run(side, seed, wall):
    return {"side": side, "seed": seed, "metrics": {} if wall is None else {"wall_s": wall}}


def test_failed_run_drops_only_its_own_pair():
    # the parent run of seed 1 failed; seeds 2 and 3 must still pair with
    # their own parent runs, not shift onto seed 1's change run
    runs = [
        _run("parent", 1, None), _run("change", 1, 1.0),
        _run("parent", 2, 2.0), _run("change", 2, 3.0),
        _run("parent", 3, 5.0), _run("change", 3, 4.0),
    ]
    summary = bench_pair.workload_summary(runs, METRICS)["wall_s"]
    assert summary["pairs"] == 2
    assert summary["change_wins"] == 1
    assert summary["parent"]["median"] == 3.5
    assert summary["change"]["median"] == 3.0


def test_every_pair_counts_when_all_runs_report():
    runs = [_run(side, seed, float(seed) + (side == "parent")) for seed in range(4)
            for side in ("parent", "change")]
    summary = bench_pair.workload_summary(runs, METRICS)["wall_s"]
    assert (summary["change_wins"], summary["pairs"]) == (4, 4)


def test_parent_and_change_unpack_side_by_side(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("out/\n")
    (repo / "kept.py").write_text("committed\n")
    (repo / "gone.py").write_text("committed\n")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "kept.py").write_text("edited\n")
    (repo / "gone.py").unlink()
    (repo / "pkg").mkdir()
    (repo / "pkg" / "new.py").write_text("untracked\n")
    (repo / "out").mkdir()
    (repo / "out" / "result.json").write_text("{}\n")
    monkeypatch.setattr(bench_pair, "ROOT", repo)

    runs = tmp_path / "runs"
    runs.mkdir()
    trees = bench_pair.prepare_trees("HEAD", runs)
    assert trees["parent"].parent == trees["change"].parent == runs
    assert (trees["parent"] / "kept.py").read_text() == "committed\n"
    assert (trees["parent"] / "gone.py").exists()
    assert (trees["change"] / "kept.py").read_text() == "edited\n"
    assert (trees["change"] / "pkg" / "new.py").read_text() == "untracked\n"
    assert not (trees["change"] / "gone.py").exists()
    assert not (trees["change"] / "out").exists()
