"""Independent checks of every job's output, run after the timed pass.

Each check returns a list of problems; an empty list accepts the output.

* Index series are compared with the numeric product form
  (`index_value`, built from floating-point theta products): once at a
  seeded point with Im(tau) >= 2, to a relative 1e-9, and coefficient by
  coefficient, by extracting each q^n coefficient of the numeric function
  with a discrete Fourier transform along Re(tau).  Their q^0 and q^1
  coefficients are compared exactly with the Lefschetz numbers.
* Verdicts are recomputed from the checked series and the theorem table,
  or, for bundled fixtures, compared with verdicts recorded at the commit
  that defined the benchmark.
* E8 outputs are compared with 240*sigma_3(n), the known graded dimensions,
  and the numeric half-sum of the four 8-fold theta products.  For
  `check_identity_116`, whose output is only a verdict, its product side
  `theta_product_side` is recomputed untimed and checked the same way.
* CLI stdout and exit codes are compared byte for byte with golden output.
"""

from __future__ import annotations

import cmath
import math
import re

# graded dimensions of the level-one basic representation of affine E8
E8_DIMS = (1, 248, 4124, 34752, 213126, 1057504, 4530744, 17333248)

POINT_REL_TOL = 1e-9
FOURIER_SAMPLES = 16
FOURIER_IM_TAU = 0.5
COEFF_REL_TOL = 1e-8
# numeric floor per coefficient: this factor * max |summand| / |q|^n
FLOAT_FLOOR = 1e-11

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def mask_timestamp(text: str) -> str:
    return _TIMESTAMP.sub('"timestamp": "<masked>"', text)


def sigma3(n: int) -> int:
    return sum(d**3 for d in range(1, n + 1) if n % d == 0)


def shell_count(n: int) -> int:
    return 1 if n == 0 else 240 * sigma3(n)


def sample_point(rng, max_weight: int = 6):
    """A real t away from the zeros of theta(a t) for |a| <= max_weight,
    and tau with Im(tau) in [2, 2.5]."""
    while True:
        t = rng.uniform(0.05, 0.45)
        if all(abs(a * t - round(a * t)) > 0.03 for a in range(1, max_weight + 1)):
            break
    tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(2.0, 2.5))
    return t, tau


def _fourier_coefficients(values, order: int, y: float) -> list[complex]:
    m = len(values)
    out = []
    for n in range(order + 1):
        acc = sum(v * cmath.exp(-2j * math.pi * n * j / m) for j, v in enumerate(values))
        out.append(acc / m * math.exp(2 * math.pi * n * y))
    return out


def _compare_coefficients(label, exact, numeric, scale, y) -> list[str]:
    problems = []
    for n, (ce, cn) in enumerate(zip(exact, numeric)):
        tol = COEFF_REL_TOL * abs(ce) + FLOAT_FLOOR * scale * math.exp(2 * math.pi * n * y)
        if not abs(ce - cn) <= tol:
            problems.append(f"{label} q^{n}: exact {ce:.12g} vs numeric {cn:.12g}")
    return problems


# ------------------------------------------------------------------ index


def check_index_series(fixture, flavor, order: int, coeff, t: float, tau: complex) -> list[str]:
    """`coeff(n)` returns the exact q^n coefficient (a function of w)."""
    from e8theta.index import index_value, point_value

    problems = []
    w = cmath.exp(1j * math.pi * t)
    exact = [coeff(n).evaluate(w) for n in range(order + 1)]

    q = cmath.exp(2j * math.pi * tau)
    series_value = sum(c * q**n for n, c in enumerate(exact))
    numeric = index_value(fixture, flavor, t, tau)
    if not abs(series_value - numeric) <= POINT_REL_TOL * max(1.0, abs(numeric)):
        problems.append(f"series {series_value:.15g} vs numeric {numeric:.15g} at t={t}, tau={tau}")

    y = FOURIER_IM_TAU
    samples = []
    scale = 0.0
    for j in range(FOURIER_SAMPLES):
        tau_j = complex(j / FOURIER_SAMPLES, y)
        values = [point_value(p, fixture.k, flavor, t, tau_j) for p in fixture.points]
        scale = max([scale] + [abs(v) for v in values])
        samples.append(sum(values))
    problems += _compare_coefficients(
        "index", exact, _fourier_coefficients(samples, order, y), scale, y
    )
    return problems


def check_lefschetz(fixture, flavor, coeff) -> list[str]:
    from e8theta.bundles import BundleExpr, order_one_twist
    from e8theta.fixtures import IndexFlavor
    from e8theta.index import lefschetz_number

    def total(expr):
        out = None
        for p in fixture.points:
            term = lefschetz_number(p, fixture.k, expr, flavor)
            out = term if out is None else out + term
        return out

    problems = []
    if coeff(0) != total(BundleExpr.const(1)):
        problems.append("q^0 differs from the Lefschetz number of the bare twist")
    twist = order_one_twist(flavor is IndexFlavor.I_SERIES, fixture.k)
    if coeff(1) != total(twist):
        problems.append("q^1 differs from the Lefschetz number of the order-one twist")
    return problems


def expected_classification(fixture, flavor, order: int, coeff) -> dict:
    """Observed behaviour of a checked series and the theorem branch for it."""
    even = flavor.value == "I"
    per_point = [
        sum(b * b for b in p.beta) + (3 if even else 1) * p.c * p.c - sum(a * a for a in p.alpha)
        for p in fixture.points
    ]
    consistent = len(set(per_point)) == 1
    coeffs = [coeff(n) for n in range(order + 1)]
    if all(c.is_zero() for c in coeffs):
        observed = "VANISHING"
    elif all(c.is_constant() for c in coeffs):
        observed = "RIGID"
    else:
        observed = "NON-RIGID" if consistent else "INDETERMINATE"
    branch, predicted = "none", None
    if consistent:
        n = per_point[0]
        k_vanishing = (fixture.k % 2 == 1) if even else (fixture.k % 2 == 0)
        if n < 0:
            branch, predicted = "i", "VANISHING"
        elif n == 0:
            branch, predicted = "ii", "VANISHING" if k_vanishing else "RIGID"
        elif n == 2 and k_vanishing:
            branch, predicted = "iii", "VANISHING"
    if predicted is None:
        ok = True
    elif predicted == "VANISHING":
        ok = observed == "VANISHING"
    else:
        ok = observed in ("RIGID", "VANISHING")
    return {"observed": observed, "branch": branch, "predicted": predicted, "ok": ok}


def check_verdict(report, expected: dict) -> list[str]:
    got = {
        "observed": report.meta.get("observed"),
        "branch": report.meta.get("branch"),
        "predicted": report.meta.get("predicted"),
        "ok": report.ok,
    }
    problems = [f"{k}: got {got[k]!r}, expected {v!r}" for k, v in expected.items() if got.get(k) != v]
    if not report.verdict.startswith(expected["observed"]):
        problems.append(f"verdict {report.verdict!r} does not start with {expected['observed']}")
    return problems


def verdict_record(report) -> dict:
    """The part of a classify report that the bundled golden records."""
    keep = ("observed", "branch", "predicted", "consistency", "n", "per_point_n", "first_offending_coefficient")
    return {
        "verdict": report.verdict,
        "ok": report.ok,
        "meta": {k: report.meta[k] for k in keep if k in report.meta},
    }


def identity_record(report) -> dict:
    return {"ok": report.ok, "values": report.meta.get("values"),
            "statuses": [item.status for item in report.items]}


def _near_one(c, eps: float) -> float:
    return abs(c.evaluate(cmath.exp(1j * math.pi * eps)))


def check_identity_values(report, order: int, coeff) -> list[str]:
    """evaluate_at_identity against numeric values of the checked series."""
    problems = []
    values = []
    all_ok = True
    for n in range(order + 1):
        item = report.items[n] if n < len(report.items) else None
        if item is None or item.name != f"q^{n}":
            return [f"identity report has no item for q^{n}"]
        c = coeff(n)
        pole = _near_one(c, 1e-5) > 10 * _near_one(c, 1e-3)
        says_pole = item.detail == "pole at w=1"
        if pole != says_pole:
            problems.append(f"q^{n}: pole at w=1 is {pole}, report says {says_pole}")
            continue
        if pole:
            all_ok = False
            continue
        v = c.evaluate(1.0)
        is_int = abs(v.imag) < 1e-9 and abs(v.real - round(v.real)) < 1e-6 * max(1.0, abs(v.real))
        if is_int:
            values.append(round(v.real))
            if item.status != "pass" or item.detail != str(round(v.real)):
                problems.append(f"q^{n}: value {round(v.real)} vs report {item.detail!r}")
        else:
            all_ok = False
            if item.status != "fail":
                problems.append(f"q^{n}: value {v} is not an integer but the report passes it")
    if report.ok != all_ok:
        problems.append(f"identity report ok={report.ok}, expected {all_ok}")
    if all_ok and report.meta.get("values") != values:
        problems.append(f"values {report.meta.get('values')} vs {values}")
    return problems


# --------------------------------------------------------------------- e8


def check_theta_e8(series, beta, order: int, t: float) -> list[str]:
    """A q-series in w equal to theta_E8 along beta: either side of the
    identity, the lattice sum (`theta_e8`) or the theta products
    (`theta_product_side`)."""
    from e8theta.theta import ThetaKind, theta_eval

    problems = []
    coeffs = [series.q_coefficient(n) for n in range(order + 1)]
    for n, c in enumerate(coeffs):
        count = c.evaluate(1.0).real
        if round(count) != shell_count(n) or abs(count - round(count)) > 1e-6:
            problems.append(f"shell {n}: {count} vectors, expected {shell_count(n)}")

    w = cmath.exp(1j * math.pi * t)
    exact = [c.evaluate(w) for c in coeffs]
    y = FOURIER_IM_TAU
    samples = []
    scale = 0.0
    for j in range(FOURIER_SAMPLES):
        tau = complex(j / FOURIER_SAMPLES, y)
        total = 0j
        for kind in ThetaKind:
            prod = 1 + 0j
            for b in beta:
                prod *= theta_eval(kind, b * t, tau)
            scale = max(scale, abs(prod))
            total += prod
        samples.append(total / 2)
    problems += _compare_coefficients(
        "theta_e8", exact, _fourier_coefficients(samples, order, y), scale, y
    )
    return problems


def check_character(character, order: int) -> list[str]:
    dims = list(character.graded_dims)
    want = list(E8_DIMS[: order + 1])
    return [] if dims == want else [f"graded dimensions {dims}, expected {want}"]


def check_identity_report(report, beta, order: int) -> list[str]:
    """The verdict of `check_identity_116`, and that it compared through
    q^order; its product side is checked apart by `check_theta_e8`."""
    problems = []
    if not report.ok or report.verdict != "pass":
        problems.append(f"identity verdict {report.verdict!r}")
    items = [(item.name, item.status) for item in report.items]
    if items != [(f"lattice sum = theta products through q^{order}", "pass")]:
        problems.append(f"identity items {items} do not cover q^0..q^{order}")
    if report.meta.get("beta") != list(beta) or report.meta.get("order") != order:
        problems.append(f"identity meta {report.meta.get('beta')}, {report.meta.get('order')}")
    return problems


# -------------------------------------------------------------------- cli


def check_cli(argv: list[str], exit_code: int, stdout: str, golden: dict) -> list[str]:
    want = golden.get(" ".join(argv))
    if want is None:
        return [f"no golden output for {' '.join(argv)!r}"]
    problems = []
    if exit_code != want["exit_code"]:
        problems.append(f"exit code {exit_code}, golden {want['exit_code']}")
    got = mask_timestamp(stdout)
    if got != want["stdout"]:
        at = next((i for i, (a, b) in enumerate(zip(got, want["stdout"])) if a != b),
                  min(len(got), len(want["stdout"])))
        problems.append(f"stdout differs from golden at byte {at}")
    return problems
