"""Command-line front end.

Exit codes: 0 on success/pass, 1 on verification failure, 2 on usage or
input errors.  Reports print as text or JSON (--format json); JSON output
is byte-identical across identical invocations apart from the timestamp.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .e8 import basic_character, check_identity_116, theta_e8, validate_beta
from .errors import FixtureFormatError
from .fixtures import IndexFlavor, resolve_fixture
from .index import (
    check_transform_laws,
    classify,
    index_series,
    verify_qexpansion,
)
from .report import ReportItem, VerificationReport
from .series import format_series
from .theta import (
    ThetaKind,
    check_lattice_transform,
    check_modular_transform,
    jacobi_identity_residual,
    theta_series,
)

_THETA_NAMES = {k.value: k for k in ThetaKind}

# fixed sample point (z, tau) for `theta check`: inside the documented domain
_THETA_SAMPLE = (0.2 + 0.0j, 1.1j)
_JACOBI_TAUS = [1.3j, 0.8j, 0.2 + 1.1j, -0.4 + 0.9j, 2.0j]

# largest `e8 identity --random` count: ~1.9 s at order 10 on a 2-vCPU host
MAX_RANDOM = 1000


def _emit(args, command: str, report: VerificationReport, text: str | None = None) -> int:
    if args.format == "json":
        payload = report.to_dict(command=command)
        payload["meta"]["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        print(json.dumps(payload, indent=2))
    else:
        if text:
            print(text)
        print(report.summary())
    return 0 if report.ok else 1


def _parse_beta(text: str) -> tuple[int, ...]:
    try:
        return validate_beta([int(x) for x in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}")


def _parse_fixture(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must name a fixture file or a bundled fixture, got ''")
    return text


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r} ({exc})")


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number > 0, got {text!r}")
    return tol


def _parse_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = -1
    if not 0 <= n <= MAX_RANDOM:
        raise argparse.ArgumentTypeError(f"must be an integer in 0..{MAX_RANDOM}, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e8theta",
        description="Exact theta-function, E8-character and equivariant-index toolkit",
    )
    parser.add_argument("--format", choices=["text", "json"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_theta = sub.add_parser("theta", help="Jacobi theta expansions and law checks")
    theta_sub = p_theta.add_subparsers(dest="subcommand", required=True)
    p = theta_sub.add_parser("expand", help="print an exact expansion")
    p.set_defaults(handler=_cmd_theta_expand)
    p.add_argument("--kind", choices=sorted(_THETA_NAMES), default="theta")
    p.add_argument("--order", type=int, default=5)
    p = theta_sub.add_parser("check", help="Jacobi identity and all sixteen transformation laws")
    p.set_defaults(handler=_cmd_theta_check)
    p.add_argument("--tol", type=_parse_tol, default=1e-9)

    p_e8 = sub.add_parser("e8", help="root-lattice theta function and basic character")
    e8_sub = p_e8.add_subparsers(dest="subcommand", required=True)
    p = e8_sub.add_parser("theta", help="print the specialized lattice theta series")
    p.set_defaults(handler=_cmd_e8_theta)
    p.add_argument("--beta", type=_parse_beta, default=(0,) * 8)
    p.add_argument("--order", type=int, default=3)
    p = e8_sub.add_parser("dims", help="graded dimensions of the basic representation")
    p.set_defaults(handler=_cmd_e8_dims)
    p.add_argument("--order", type=int, default=3)
    p = e8_sub.add_parser("identity", help="lattice sum versus four theta products")
    p.set_defaults(handler=_cmd_e8_identity)
    p.add_argument("--beta", type=_parse_beta, default=None)
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--random", type=_parse_count, default=0, metavar="N", help="also check N random specializations")
    p.add_argument("--seed", type=int, default=20260808)

    p_index = sub.add_parser("index", help="equivariant index series on a fixture")
    index_sub = p_index.add_subparsers(dest="subcommand", required=True)
    for name, helptext, handler in (
        ("expand", "print the exact index series", _cmd_index_expand),
        ("check", "q-expansion cross-check, rigidity and theorem conformance", _cmd_index_check),
        ("transform", "numeric transformation-law residuals", _cmd_index_transform),
    ):
        p = index_sub.add_parser(name, help=helptext)
        p.set_defaults(handler=handler)
        p.add_argument(
            "--fixture", type=_parse_fixture, required=True, help="path or bundled name (s2, cp2, ...)"
        )
        p.add_argument("--flavor", choices=["I", "J"], default=None, help="override the fixture's flavor")
        if name == "transform":
            p.add_argument("--tol", type=_parse_tol, default=1e-8)
            p.add_argument("--t", type=_parse_complex, default=0.11 + 0.07j)
            p.add_argument("--tau", type=_parse_complex, default=0.2 + 1.1j)
            p.add_argument("--a", type=int, default=2)
            p.add_argument("--b", type=int, default=0)
        else:
            p.add_argument("--order", type=int, default=5)

    p = sub.add_parser("classify", help="theorem branch prediction versus observed behavior")
    p.set_defaults(handler=_cmd_classify)
    p.add_argument("--fixture", type=_parse_fixture, required=True)
    p.add_argument("--flavor", choices=["I", "J"], default=None)
    p.add_argument("--order", type=int, default=5)

    return parser


def _load(args):
    fixture, flavor = resolve_fixture(args.fixture)
    if getattr(args, "flavor", None):
        flavor = IndexFlavor(args.flavor)
    return fixture, flavor


def _cmd_theta_expand(args) -> int:
    series = theta_series(_THETA_NAMES[args.kind], args.order)
    print(f"{args.kind}(z, tau) =", format_series(series, fractional=True))
    return 0


def _cmd_theta_check(args) -> int:
    items = []
    for tau in _JACOBI_TAUS:
        r = jacobi_identity_residual(tau)
        ok = r < args.tol
        items.append(
            ReportItem(f"Jacobi identity at tau={tau}", "pass" if ok else "fail", residual=r)
        )
    z, tau = _THETA_SAMPLE
    for kind in ThetaKind:
        rep = check_modular_transform(kind, z, tau, tol=args.tol)
        items.extend(rep.items)
        for a, b in ((1, 0), (0, 1)):
            rep = check_lattice_transform(kind, z, tau, a, b, tol=args.tol)
            items.extend(rep.items)
    report = VerificationReport.from_items(items, {"tol": args.tol, "z": str(z), "tau": str(tau)})
    return _emit(args, "theta check", report)


def _cmd_e8_theta(args) -> int:
    s = theta_e8(args.beta, args.order)
    print(format_series(s, fractional=False))
    return 0


def _cmd_e8_dims(args) -> int:
    ch = basic_character((0,) * 8, args.order)
    print(" ".join(str(d) for d in ch.graded_dims))
    return 0


def _cmd_e8_identity(args) -> int:
    betas: list[tuple[int, ...]] = []
    if args.beta is not None:
        betas.append(args.beta)
    if args.random:
        import random  # only this option draws betas

        rng = random.Random(args.seed)
        betas.extend(
            tuple(rng.randint(-3, 3) for _ in range(8)) for _ in range(args.random)
        )
    if not betas:
        betas = [(0,) * 8, (1, 0, 0, 0, 0, 0, 0, 0)]
    items = []
    for beta in betas:
        for item in check_identity_116(beta, args.order).items:
            item.name = f"beta={list(beta)}: {item.name}"
            items.append(item)
    report = VerificationReport.from_items(items, {"order": args.order})
    return _emit(args, "e8 identity", report)


def _cmd_index_expand(args) -> int:
    fixture, flavor = _load(args)
    ixs = index_series(fixture, flavor, args.order)
    print(f"# {fixture.label} (flavor {flavor.value}, k={fixture.k})")
    print(format_series(ixs.series, fractional=False))
    return 0


def _cmd_index_check(args) -> int:
    fixture, flavor = _load(args)
    qrep = verify_qexpansion(fixture, flavor)
    crep = classify(fixture, flavor, args.order)
    items = qrep.items + crep.items
    # full verification: the q-expansion must cross-check, the theorem branch
    # must be respected, and the observed behavior must be rigid or vanishing
    ok = qrep.ok and crep.ok and crep.meta["observed"] in ("RIGID", "VANISHING")
    report = VerificationReport(verdict=crep.verdict, ok=ok, items=items, meta=crep.meta)
    return _emit(args, "index check", report, text=crep.verdict)


def _cmd_index_transform(args) -> int:
    fixture, flavor = _load(args)
    report = check_transform_laws(
        fixture, flavor, args.t, args.tau, args.a, args.b, tol=args.tol
    )
    text = f"lattice law resolved: {report.meta['lattice_law_resolved']} exponent"
    return _emit(args, "index transform", report, text=text)


def _cmd_classify(args) -> int:
    fixture, flavor = _load(args)
    report = classify(fixture, flavor, args.order)
    return _emit(args, "classify", report, text=report.verdict)


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (FixtureFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
