"""One timed pass of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload index-sweep --seed 1 --out result.json
                                [--trace spans.json]

Runs the seeded job list once, timing each job alone and sampling the
host's speed around and during each (hostspeed.py), then checks every
output with the oracles (untimed) and writes a JSON result.  Nothing warms
the package's caches first: they fill during the pass, as in a user process.
With --trace the layers are wrapped first (see tracer.py) and the raw
counters and the spans are written too.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import traceback
from pathlib import Path

import hostspeed
import workloads

GOLDEN = Path(__file__).resolve().parent / "golden" / "index_bundled.json"


def _fixture(job):
    from e8theta.fixtures import FixedPoint, FixedPointFixture, IndexFlavor, resolve_fixture

    flavor = IndexFlavor(job["flavor"])
    spec = job["fixture"]
    if isinstance(spec, str):
        return resolve_fixture(spec)[0], flavor
    points = tuple(FixedPoint(tuple(p["alpha"]), p["c"], tuple(p["beta"])) for p in spec["points"])
    return FixedPointFixture(k=spec["k"], points=points, label=spec["label"]), flavor


def _index_call(job):
    """Return (thunk, fixture, flavor): the program call a job times."""
    from e8theta.index import classify, evaluate_at_identity, index_series, verify_qexpansion

    fixture, flavor = _fixture(job)
    order = job["order"]
    kind = job["kind"]
    if kind == "series":
        thunk = lambda: index_series(fixture, flavor, order)  # noqa: E731
    elif kind == "evaluate":

        def thunk():
            ixs = index_series(fixture, flavor, order)
            return ixs, evaluate_at_identity(ixs)

    elif kind == "classify":
        thunk = lambda: classify(fixture, flavor, order)  # noqa: E731
    elif kind == "check":

        def thunk():
            return verify_qexpansion(fixture, flavor), classify(fixture, flavor, order)

    else:
        raise ValueError(f"unknown index job kind {kind!r}")
    return thunk, fixture, flavor


def _e8_call(job):
    from e8theta.e8 import basic_character, check_identity_116, theta_e8

    beta, order = tuple(job["beta"]), job["order"]
    kind = job["kind"]
    if kind == "identity":
        return lambda: check_identity_116(beta, order)
    if kind == "character":
        return lambda: basic_character(beta, order)
    if kind == "theta_e8":
        return lambda: theta_e8(beta, order)
    raise ValueError(f"unknown e8 job kind {kind!r}")


# ------------------------------------------------------------------ oracles


def _index_oracles(jobs, outputs, inputs, seed) -> list[list[str]]:
    import oracles

    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    rng = random.Random(f"oracle-{seed}")
    problems = [[] for _ in jobs]
    series_by_case = {}
    for i, job in enumerate(jobs):
        out = outputs[i]
        if out is None:
            continue
        if job["kind"] in ("series", "evaluate"):
            ixs = out[0] if job["kind"] == "evaluate" else out
            fixture, flavor = inputs[i]
            t, tau = oracles.sample_point(rng)
            problems[i] += oracles.check_index_series(fixture, flavor, job["order"], ixs.q_coefficient, t, tau)
            problems[i] += oracles.check_lefschetz(fixture, flavor, ixs.q_coefficient)
            series_by_case[job["case"]] = ixs
    for i, job in enumerate(jobs):
        out = outputs[i]
        if out is None:
            continue
        fixture, flavor = inputs[i]
        key = f"{job['fixture']}/{job['flavor']}/{job['order']}" if job["family"] == "bundled" else None
        if job["kind"] == "evaluate":
            ixs, report = out
            if key is not None:
                if oracles.identity_record(report) != golden["identity"].get(key):
                    problems[i].append(f"evaluate_at_identity differs from the recorded result for {key}")
            problems[i] += oracles.check_identity_values(report, job["order"], ixs.q_coefficient)
        elif job["kind"] in ("classify", "check"):
            report = out[1] if job["kind"] == "check" else out
            if job["kind"] == "check" and not out[0].ok:
                problems[i].append("verify_qexpansion failed: " + str(out[0].first_failure))
            if key is not None:
                if oracles.verdict_record(report) != golden["verdict"].get(key):
                    problems[i].append(f"classify differs from the recorded verdict for {key}")
            else:
                ixs = series_by_case.get(job["case"])
                if ixs is None:
                    problems[i].append("no checked series for this case")
                    continue
                expected = oracles.expected_classification(fixture, flavor, job["order"], ixs.q_coefficient)
                problems[i] += oracles.check_verdict(report, expected)
    return problems


def _e8_oracles(jobs, outputs, seed) -> list[list[str]]:
    import oracles
    from e8theta.e8 import theta_product_side

    rng = random.Random(f"oracle-{seed}")
    problems = [[] for _ in jobs]
    for i, job in enumerate(jobs):
        out = outputs[i]
        if out is None:
            continue
        if job["kind"] == "identity":
            problems[i] += oracles.check_identity_report(out, job["beta"], job["order"])
            t, _ = oracles.sample_point(rng)
            rhs = theta_product_side(tuple(job["beta"]), job["order"])
            problems[i] += oracles.check_theta_e8(rhs, job["beta"], job["order"], t)
        elif job["kind"] == "character":
            problems[i] += oracles.check_character(out, job["order"])
        else:
            t, _ = oracles.sample_point(rng)
            problems[i] += oracles.check_theta_e8(out, job["beta"], job["order"], t)
    return problems


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("index-sweep", "e8-lattice"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None, help="write spans here and report raw counters")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()

    jobs = workloads.jobs_for(args.workload, args.seed)
    inputs, calls = [], []
    for job in jobs:
        if args.workload == "index-sweep":
            thunk, fixture, flavor = _index_call(job)
            inputs.append((fixture, flavor))
        else:
            thunk = _e8_call(job)
            inputs.append(None)
        calls.append(thunk)

    # the host-speed reference is sampled around and during each job
    # (hostspeed.py), in the traced pass only around it
    if tracer is None:
        hostspeed.start_sampling()
    times, refs, outputs, errors = [], [], [], []
    for job, thunk in zip(jobs, calls):
        try:
            with hostspeed.measure() as timed:
                if tracer is not None:
                    with tracer.job_span(f"job.{job['kind']}"):
                        out = thunk()
                else:
                    out = thunk()
            err = None
        except Exception:  # a failed job is counted, and the pass goes on
            out, err = None, traceback.format_exc(limit=3)
        times.append(timed["seconds"])
        refs.append(timed["refs"])
        outputs.append(out)
        errors.append(err)
    if tracer is None:
        hostspeed.stop_sampling()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"job_s": times, "ref_s": refs, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracing.uninstall(tracer)
        # a copy: the oracles below still run through the wrappers
        result["raw"] = json.loads(json.dumps(tracer.raw()))
        tracer.write_spans(args.trace, {"workload": args.workload, "seed": args.seed})

    if args.workload == "index-sweep":
        problems = _index_oracles(jobs, outputs, inputs, args.seed)
    else:
        problems = _e8_oracles(jobs, outputs, args.seed)
    result["failures"] = [
        {"job": i, "kind": job["kind"], "why": errors[i] or "; ".join(problems[i])}
        for i, job in enumerate(jobs)
        if errors[i] or problems[i]
    ]
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
