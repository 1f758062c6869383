"""The e8theta benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload index-sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and README.md):
  index-sweep  the symbolic index path, in one process
  e8-lattice   shell enumeration and theta-product series, in one process
  cli-cold     the README commands, each in a fresh interpreter

With --trace 0 it prints the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced pass.  Every output is checked by an
independent oracle; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
when every job ran and passed its oracle.

Everything runs single-threaded with one caller at a time (a closed loop),
on one core: each timed pass, and each CLI command, is one fresh
interpreter, started only after the previous one ended.  Times are reported
at a reference host speed sampled around and during each job (hostspeed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3  # per gap between passes
MIN_PASSES = 2  # index-sweep and e8-lattice; one cli-cold pass fills a run
CLI_PROBE_EVERY = 2  # cli-cold: one more set-up probe after every 2nd command
TAIL_BEYOND = 10  # job_tail_s: the highest percentile with this many jobs beyond it
PASS_TIMEOUT_S = 150
CLI_TIMEOUT_S = 60

# the minimal job whose first result ends set-up, per workload
_SETUP_CODE = {
    "index-sweep": (
        "from e8theta.fixtures import resolve_fixture\n"
        "from e8theta.index import index_series\n"
        "fixture, flavor = resolve_fixture('s2')\n"
        "index_series(fixture, flavor, 0)\n"
    ),
    "e8-lattice": (
        "from e8theta.e8 import check_identity_116\n"
        "check_identity_116((0,) * 8, 1)\n"
    ),
    "cli-cold": (
        "from e8theta.cli import run\n"
        "run(['index', 'expand', '--fixture', 's2', '--order', '0'])\n"
    ),
}
_CLI_CODE = "import sys\nfrom e8theta.cli import run\nsys.exit(run(sys.argv[1:]))\n"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ------------------------------------------------------------------ set-up


def _speed_file() -> Path:
    with tempfile.NamedTemporaryFile(dir=OUT, suffix=".json", delete=False) as f:
        return Path(f.name)


def _sampled_result(elapsed: float, ref_before: float, speed_file: Path | None) -> tuple:
    """(seconds less the child's sampling time, reference times) of a child
    run through sampled.py, or only timed from outside if `speed_file` is None."""
    ref_after = hostspeed.reference_s()
    if speed_file is None:
        return elapsed, [ref_before, ref_after]
    text = speed_file.read_text(encoding="utf-8")
    speed_file.unlink()
    if not text:  # the child died before writing it; its job fails anyway
        return elapsed, [ref_before, ref_after]
    timed = json.loads(text)
    return elapsed - timed["handler_s"], [ref_before, *timed["refs"], ref_after]


def probe_setup(workload: str, env: dict) -> tuple[float, list[float]]:
    """Seconds from starting an interpreter to the minimal job's result, and
    the host-speed reference times around and during them."""
    code = _SETUP_CODE[workload] + "print('\\nperfbench-ready', flush=True)\n"
    speed_file = _speed_file()
    ref_before = hostspeed.reference_s()
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "sampled.py"), str(speed_file), code],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=ROOT, text=True,
    ) as proc:
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            elapsed = None
            for line in proc.stdout:
                if line.strip() == "perfbench-ready":
                    elapsed = time.perf_counter() - t0
                    break
            proc.stdout.read()
            rc = proc.wait()
        finally:
            watchdog.cancel()
    if elapsed is None or rc != 0:
        speed_file.unlink(missing_ok=True)
        raise RuntimeError(f"set-up probe for {workload} failed with exit code {rc}")
    return _sampled_result(elapsed, ref_before, speed_file)


# ------------------------------------------------------------ in-process


def worker_pass(workload: str, seed: int, env: dict, spans: Path | None = None) -> dict:
    with tempfile.NamedTemporaryFile(dir=OUT, suffix=".json", delete=False) as f:
        result_path = Path(f.name)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(result_path)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=PASS_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        result_path.unlink(missing_ok=True)


# ---------------------------------------------------------------- cli-cold


def _run_cli(argv: list[str], env: dict, traced_files=None) -> tuple:
    """(seconds, reference times, exit code, stdout, peak RSS in MiB) of one
    fresh interpreter."""
    if traced_files is None:
        speed_file = _speed_file()
        cmd = [sys.executable, str(HERE / "sampled.py"), str(speed_file), _CLI_CODE, *argv]
    else:
        speed_file = None
        raw_out, spans_out = traced_files
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(raw_out), str(spans_out), "--", *argv]
    ref_before = hostspeed.reference_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
    watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        stdout = proc.stdout.read()
        proc.stdout.close()
        # wait4 reaps the child and gives its own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    seconds, refs = _sampled_result(elapsed, ref_before, speed_file)
    return seconds, refs, proc.returncode, stdout.decode("utf-8", "replace"), usage.ru_maxrss / 1024.0


def cli_pass(seed: int, env: dict, golden: dict, trace_dir: Path | None = None,
             between=None) -> dict:
    """One pass over the cli-cold commands.  `between()`, if given, runs
    after every CLI_PROBE_EVERY-th command, outside the commands' times."""
    jobs = workloads.jobs_for("cli-cold", seed)
    times, refs, failures, raws, spans = [], [], [], [], []
    peak = 0.0
    for i, job in enumerate(jobs):
        files = None
        if trace_dir is not None:
            files = (trace_dir / f"raw-{i}.json", trace_dir / f"spans-{i}.json")
        elapsed, job_refs, rc, stdout, rss = _run_cli(job["argv"], env, files)
        times.append(elapsed)
        refs.append(job_refs)
        peak = max(peak, rss)
        problems = oracles.check_cli(job["argv"], rc, stdout, golden)
        if problems:
            failures.append({"job": i, "kind": " ".join(job["argv"]), "why": "; ".join(problems)})
        if files is not None:
            raws.append(json.loads(files[0].read_text(encoding="utf-8")))
            spans.append(json.loads(files[1].read_text(encoding="utf-8")))
            for path in files:
                path.unlink()
        if between is not None and (i + 1) % CLI_PROBE_EVERY == 0 and i + 1 < len(jobs):
            between()
    result = {"job_s": times, "ref_s": refs, "peak_rss_mb": peak, "failures": failures}
    if trace_dir is not None:
        result["raw"] = tracing.merge_raw(raws)
        result["spans"] = spans
    return result


# -------------------------------------------------------------------- main


def run_pass(workload: str, seed: int, env: dict, golden: dict, trace: bool = False,
             between=None) -> dict:
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    if workload == "cli-cold":
        if not trace:
            return cli_pass(seed, env, golden, between=between)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            result = cli_pass(seed, env, golden, Path(tmp))
        spans_path.write_text(json.dumps({"workload": workload, "seed": seed,
                                          "processes": result.pop("spans")}), encoding="utf-8")
        return result
    return worker_pass(workload, seed, env, spans_path if trace else None)


def corrected_job_s(p: dict) -> list[float]:
    """The job times of a pass at the reference host speed (hostspeed.py)."""
    return [hostspeed.corrected(t, refs) for t, refs in zip(p["job_s"], p["ref_s"])]


def tail(times: list[float]) -> float:
    ordered = sorted(times)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def tail_percentile(n_jobs: int) -> float:
    return 100.0 * (n_jobs - TAIL_BEYOND) / n_jobs


def src_line_counts() -> dict:
    pkg = SRC / "e8theta"
    return {p.name: sum(1 for _ in p.open(encoding="utf-8")) for p in sorted(pkg.glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="e8theta benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "e8theta" / "__init__.py").is_file():
        print(f"error: no e8theta sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # one core for the runner and every process it starts, so that the
    # host-speed reference, timed in the runner, sees the core a CLI command
    # or set-up probe ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    golden = json.loads((HERE / "golden" / "cli.json").read_text(encoding="utf-8"))

    jobs = workloads.jobs_for(args.workload, args.seed)
    mix = workloads.job_mix(args.workload, args.seed, jobs)
    mix_path = OUT / f"mix-{args.workload}-seed{args.seed}.json"
    mix_path.write_text(json.dumps(mix, indent=1), encoding="utf-8")
    print("mix:", json.dumps(mix))
    print("env:", json.dumps({"python": platform.python_version(), "nproc": os.cpu_count(),
                              "src_lines": src_line_counts()}))

    # compile the package's bytecode once, as an install would; this warms
    # no cache of the program
    subprocess.run([sys.executable, "-c", "import e8theta.cli"], env=env, cwd=ROOT,
                   check=True, timeout=CLI_TIMEOUT_S)

    passes = []
    if args.trace:
        plain = run_pass(args.workload, args.seed, env, golden)
        traced = run_pass(args.workload, args.seed, env, golden, trace=True)
        passes = [plain, traced]
        overhead = sum(corrected_job_s(traced)) / sum(corrected_job_s(plain))
        metrics = tracing.layer_metrics(traced["raw"], overhead)
    else:
        # set-up probes go before, between and after the passes, and on
        # cli-cold also between its commands, so that their median spans the
        # run rather than a few moments of it
        setup = []  # (seconds, reference times)

        def probe(n=SETUP_PROBES):
            setup.extend(probe_setup(args.workload, env) for _ in range(n))

        between = (lambda: probe(1)) if args.workload == "cli-cold" else None
        probe()
        # as many passes as fill --seconds, judged by the first one, and at
        # least MIN_PASSES of an in-process workload
        t0 = time.perf_counter()
        passes.append(run_pass(args.workload, args.seed, env, golden, between=between))
        least = 1 if args.workload == "cli-cold" else MIN_PASSES
        n_passes = max(least, round(args.seconds / (time.perf_counter() - t0)))
        while len(passes) < n_passes:
            probe()
            passes.append(run_pass(args.workload, args.seed, env, golden, between=between))
        probe()
        # times are at the reference host speed; the measured ones are
        # printed above the result line
        corrected = [corrected_job_s(p) for p in passes]
        med = statistics.median
        metrics = {
            "wall_s": {"value": med(sum(c) for c in corrected), "unit": "s"},
            "job_p50_s": {"value": med(med(c) for c in corrected), "unit": "s"},
            "job_tail_s": {"value": med(tail(c) for c in corrected), "unit": "s"},
            "setup_s": {"value": med(hostspeed.corrected(*s) for s in setup), "unit": "s"},
            "peak_rss_mb": {"value": med(p["peak_rss_mb"] for p in passes), "unit": "MiB"},
        }
        print("measured, before host-speed correction:", json.dumps({
            "wall_s": med(sum(p["job_s"]) for p in passes),
            "job_p50_s": med(med(p["job_s"]) for p in passes),
            "job_tail_s": med(tail(p["job_s"]) for p in passes),
            "setup_s": med(s[0] for s in setup),
            "reference_s": med(r for p in passes for refs in p["ref_s"] for r in refs),
        }))

    attempted = sum(len(p["job_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in failures[:20]:
        print(f"FAILED job {f['job']} ({f['kind']}): {f['why'][:500]}")
    print(f"passes: {len(passes)}, jobs per pass: {len(jobs)}, job_tail_s is the "
          f"p{tail_percentile(len(jobs)):.0f} job time, fail_frac: {len(failures) / attempted:.4f}")
    if args.trace:
        print(f"spans: {OUT / f'spans-{args.workload}-seed{args.seed}.json'}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
