"""Seeded job lists for the three workloads.

Every job list is plain JSON-able data made from the seed alone, so the same
seed gives the same inputs, and it only names public inputs of the program:
fixtures, flavours, orders, betas and CLI argv.

Each workload has a fixed skeleton of slots.  A slot fixes what the cost of
a job depends on (fixture family and weight gaps, how many beta entries are
nonzero and how large, order, flavour, job kind); the seed chooses the
concrete weights, signs and positions, except where a position changes the
cost (see BETA_PROFILES).  The
in-process workloads run their slots in a fixed order, so the jobs that pay
for filling the package's caches are the same for every seed; cli-cold runs
each round in a seeded order.  So every seed carries the same mix, and the
spread between seeds comes from the host, not from the inputs.
"""

from __future__ import annotations

import random

WORKLOADS = ("index-sweep", "e8-lattice", "cli-cold")

# ---------------------------------------------------------------- index-sweep

# bundled fixture -> order; both flavours run, one gets a series job and the
# other a verdict job (the verdicts are recorded in golden/index_bundled.json)
BUNDLED = (("s2", 5), ("s2xs2", 3), ("cp1_spinc", 4), ("cp2", 3), ("single_point", 3))

# toric slots: (family, weight gaps, nonzero beta entries, flavour, order).
# Each slot yields a pair of jobs on one fixture: a series job (whose output
# the oracle checks numerically) and a verdict job (checked against that
# series).
TORIC = (
    ("cp1", (1,), 0, "J", 3),
    ("cp1", (2,), 0, "I", 2),
    ("cp1", (1,), 2, "I", 2),
    ("cp1", (2,), 1, "J", 3),
    ("cp1", (2,), 0, "I", 3),
    ("cp1", (1,), 3, "J", 3),
    ("cp1xcp1", (1, 2), 0, "J", 2),
    ("cp1xcp1", (1, 1), 2, "I", 2),
    ("cp2", (1, 1), 2, "J", 2),
    ("cp2", (1, 2), 0, "J", 2),
    ("cp2", (1, 1), 0, "J", 5),
)

# non-realizable slots in the style of tests/conftest.py::random_fixture:
# (k, points, flavour, order); alpha from +-{1, 2}, c from [-2, 2], and per
# point a beta with two entries +-1.
RANDOM = (
    (1, 1, "I", 3),
    (1, 2, "J", 2),
    (2, 2, "I", 2),
    (2, 1, "J", 2),
)

# the job kinds of a slot pair go round all four combinations, slot by slot;
# a seeded choice would let the seed move job_p50_s by 10%
SERIES_KINDS = ("series", "evaluate")  # index_series [+ evaluate_at_identity]
VERDICT_KINDS = ("classify", "check")  # classify, or verify_qexpansion + classify


def _beta(rng: random.Random, magnitudes) -> list[int]:
    """8 entries with the given absolute values at seeded positions and signs."""
    mags = list(magnitudes) + [0] * (8 - len(magnitudes))
    rng.shuffle(mags)
    return [m * rng.choice((-1, 1)) for m in mags]


def _toric_points(rng: random.Random, family: str, gaps, beta) -> list[dict]:
    """Fixed-point data of a toric manifold, anticanonical c = sum(alpha)."""

    def weights():
        # distinct torus weights in [-3, 3] with the slot's gaps between them
        g = list(gaps)
        rng.shuffle(g)
        w = [rng.randint(-3, 3 - sum(g))]
        for step in g:
            w.append(w[-1] + step)
        rng.shuffle(w)
        return w

    points = []
    if family == "cp1":
        w = weights()
        points = [(w[1] - w[0],), (w[0] - w[1],)]
    elif family == "cp1xcp1":
        d1 = gaps[0] * rng.choice((-1, 1))
        d2 = gaps[1] * rng.choice((-1, 1))
        signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        rng.shuffle(signs)
        points = [(s * d1, t * d2) for s, t in signs]
    elif family == "cp2":
        w = weights()
        for i in range(3):
            others = [w[j] for j in range(3) if j != i]
            points.append(tuple(o - w[i] for o in others))
    else:
        raise ValueError(f"unknown toric family {family!r}")
    return [{"alpha": list(a), "c": sum(a), "beta": list(beta)} for a in sorted(points)]


def _random_points(rng: random.Random, k: int, n_points: int) -> list[dict]:
    points = []
    for _ in range(n_points):
        alpha = [rng.choice((-2, -1, 1, 2)) for _ in range(k)]
        points.append({"alpha": alpha, "c": rng.randint(-2, 2), "beta": _beta(rng, (1, 1))})
    return sorted(points, key=lambda p: (p["alpha"], p["c"], p["beta"]))


def index_sweep_jobs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    jobs: list[dict] = []
    case = 0
    slot = 0

    def add_pair(fixture, flavor_series, flavor_verdict, order, **meta):
        nonlocal case, slot
        jobs.append(
            {"case": case, "kind": SERIES_KINDS[slot % 2], "fixture": fixture,
             "flavor": flavor_series, "order": order, **meta}
        )
        jobs.append(
            {"case": case + (0 if flavor_series == flavor_verdict else 1),
             "kind": VERDICT_KINDS[slot // 2 % 2], "fixture": fixture,
             "flavor": flavor_verdict, "order": order, **meta}
        )
        case += 1 if flavor_series == flavor_verdict else 2
        slot += 1

    for i, (name, order) in enumerate(BUNDLED):
        # the series job takes one flavour and the verdict job the other
        flavors = ("I", "J") if i % 2 == 0 else ("J", "I")
        add_pair(name, *flavors, order, family="bundled", realizable=name != "single_point")

    for family, gaps, nonzero, flavor, order in TORIC:
        beta = _beta(rng, (1,) * nonzero)
        fixture = {"label": f"seeded {family}", "k": 1 if family == "cp1" else 2,
                   "points": _toric_points(rng, family, gaps, beta)}
        add_pair(fixture, flavor, flavor, order, family=family, realizable=True)

    for k, n_points, flavor, order in RANDOM:
        fixture = {"label": "randomized", "k": k, "points": _random_points(rng, k, n_points)}
        add_pair(fixture, flavor, flavor, order, family="random", realizable=False)

    return jobs


# ----------------------------------------------------------------- e8-lattice

# |beta| in position order.  theta_product_side multiplies the eight factors
# in beta's order and stops the theta_1 product at its first zero entry, so
# the order of the magnitudes changes a check_identity_116 job's cost by up
# to 1.7x; the identity slots therefore fix it (zeros first, last and in
# between, ascending, descending and mixed) and the seed chooses the signs.
# theta_e8's cost does not depend on the order, so there the seed also
# permutes the entries.
BETA_PROFILES = (
    (0, 0, 1, 1, 2, 2, 3, 3),
    (3, 2, 1, 0, 1, 3, 2, 1),
    (2, 1, 3, 1, 2, 0, 3, 2),
    (1, 2, 1, 3, 2, 1, 2, 1),
    (3, 1, 0, 2, 1, 3, 0, 1),
    (3, 3, 2, 2, 1, 1, 3, 0),
    (2, 3, 1, 2, 3, 2, 1, 2),
)
IDENTITY_ORDERS = (3, 4)
CHARACTER_ORDERS = (5, 5, 6, 6, 7, 7)
THETA_ORDERS = (3, 4, 5, 6, 7)
THETA_REPEATS = 4


def e8_lattice_jobs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    jobs = []
    for order in IDENTITY_ORDERS:
        for profile in BETA_PROFILES:
            beta = [m * rng.choice((-1, 1)) for m in profile]
            jobs.append({"kind": "identity", "beta": beta, "order": order})
    for order in CHARACTER_ORDERS:
        jobs.append({"kind": "character", "beta": [0] * 8, "order": order})
    i = 0
    for order in THETA_ORDERS:
        for _ in range(THETA_REPEATS):
            profile = BETA_PROFILES[i % len(BETA_PROFILES)]
            jobs.append({"kind": "theta_e8", "beta": _beta(rng, profile), "order": order})
            i += 1
    return jobs


# ------------------------------------------------------------------- cli-cold

# the README's nine commands
README_COMMANDS = (
    "theta expand --kind theta3 --order 4",
    "theta check --tol 1e-9",
    "e8 dims --order 3",
    "e8 theta --beta 1,0,0,0,0,0,0,0 --order 3",
    "e8 identity --order 3 --random 20",
    "index expand --fixture single_point --order 2",
    "index check --fixture s2.json --order 5",
    "index transform --fixture cp1_spinc --a 2 --b 0",
    "classify --fixture cp2 --order 5",
)
# commands that print a VerificationReport also run with --format json
REPORT_COMMANDS = (
    "theta check --tol 1e-9",
    "e8 identity --order 3 --random 20",
    "index check --fixture s2.json --order 5",
    "index transform --fixture cp1_spinc --a 2 --b 0",
    "classify --fixture cp2 --order 5",
)
# two rounds put eight runs of the two slowest commands and four of the
# third slowest (index check, order 5) in a pass, so the tail percentile
# (10 jobs beyond it) falls on one of those four, not on a lone job.  Three
# rounds would put it on the six classify runs, but one pass would then take
# 40-55 s, longer than a run is meant to last.
CLI_ROUNDS = 2


def cli_commands() -> list[list[str]]:
    """Every distinct argv of the workload, in a fixed order."""
    cmds = [c.split() for c in README_COMMANDS]
    return cmds + [["--format", "json"] + c.split() for c in REPORT_COMMANDS]


def cli_cold_jobs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    jobs = []
    for round_no in range(CLI_ROUNDS):
        argvs = cli_commands()
        rng.shuffle(argvs)
        jobs.extend({"kind": "cli", "argv": argv, "round": round_no} for argv in argvs)
    return jobs


def jobs_for(workload: str, seed: int) -> list[dict]:
    if workload == "index-sweep":
        return index_sweep_jobs(seed)
    if workload == "e8-lattice":
        return e8_lattice_jobs(seed)
    if workload == "cli-cold":
        return cli_cold_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def job_mix(workload: str, seed: int, jobs: list[dict]) -> dict:
    """What a run carried, so a later run can show it had the same mix."""
    kinds: dict[str, int] = {}
    orders: dict[str, int] = {}
    for job in jobs:
        kinds[job["kind"]] = kinds.get(job["kind"], 0) + 1
        if "order" in job:
            key = str(job["order"])
            orders[key] = orders.get(key, 0) + 1
    mix = {
        "workload": workload,
        "seed": seed,
        "jobs": len(jobs),
        "kinds": dict(sorted(kinds.items())),
        "orders": dict(sorted(orders.items())),
    }
    if workload == "index-sweep":
        betas = [p["beta"] for j in jobs for p in _fixture_points(j)]
        mix["realizable_frac"] = sum(j["realizable"] for j in jobs) / len(jobs)
        mix["nonzero_beta_frac"] = sum(
            any(any(p["beta"]) for p in _fixture_points(j)) for j in jobs
        ) / len(jobs)
        mix["beta_entries_over_1"] = sum(abs(b) > 1 for beta in betas for b in beta)
        families: dict[str, int] = {}
        for j in jobs:
            families[j["family"]] = families.get(j["family"], 0) + 1
        mix["families"] = dict(sorted(families.items()))
    elif workload == "e8-lattice":
        mix["nonzero_beta_frac"] = sum(any(j["beta"]) for j in jobs) / len(jobs)
        mix["beta_entries_over_1"] = sum(abs(b) > 1 for j in jobs for b in j["beta"])
    else:
        mix["rounds"] = CLI_ROUNDS
        mix["order_of_first_round"] = [" ".join(j["argv"]) for j in jobs if j["round"] == 0]
    return mix


def _fixture_points(job: dict) -> list[dict]:
    fixture = job["fixture"]
    return fixture["points"] if isinstance(fixture, dict) else []
