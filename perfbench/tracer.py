"""Run-time tracing of the e8theta layers, from the benchmark's own files.

`install()` wraps public functions and methods of the package after import:

* a function is replaced in every ``e8theta`` module that holds a global
  bound to it, i.e. where the name is looked up at call time
  (``e8theta.ratfunc.laurent_gcd``, ``e8theta.index.theta_series``, ...);
* a method is replaced on its class.

Every wrapper keeps an aggregated counter ``[calls, self seconds, extra...]``
so memory stays bounded however many times a fine-grained operation runs.
Self time is a call's duration minus the time of the wrapped calls (and the
garbage collections) that ran inside it.  Coarse entry points also record
one span each (name, id, parent id, start, end); spans are written out as
JSON when the traced process ends.

A target that the package no longer has (a renamed function, a method
moved off its class) makes `install()` raise, so the traced run fails
rather than reporting 0 for a layer that was never wrapped.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import itertools
import json
import sys
import time
import types

_clock = time.perf_counter

# (module, function, counter key, span?)
_FUNCTIONS = (
    ("e8theta.laurent", "laurent_gcd", "laurent.gcd", False),
    ("e8theta.laurent", "laurent_exact_div", "laurent.exact_div", False),
    ("e8theta.theta", "theta_series", "theta.theta_series", False),
    ("e8theta.theta", "theta_eval", "theta.theta_eval", False),
    ("e8theta.e8", "enumerate_shells", "e8.enumerate_shells", True),
    ("e8theta.e8", "_cached_shells", "e8.cached_shells", False),
    ("e8theta.e8", "theta_e8", "e8.theta_e8", True),
    ("e8theta.e8", "theta_product_side", "e8.theta_product_side", True),
    ("e8theta.e8", "basic_character", "e8.basic_character", True),
    ("e8theta.e8", "check_identity_116", "e8.check_identity_116", True),
    ("e8theta.index", "index_series", "index.index_series", True),
    ("e8theta.index", "point_contribution", "index.point_contribution", True),
    ("e8theta.index", "verify_qexpansion", "index.verify_qexpansion", True),
    ("e8theta.index", "classify", "index.classify", True),
    ("e8theta.index", "evaluate_at_identity", "index.evaluate_at_identity", True),
    ("e8theta.index", "check_transform_laws", "index.check_transform_laws", True),
    ("e8theta.index", "point_value", "index.point_value", False),
    ("e8theta.series", "format_series", "report.render", False),
    ("e8theta.cli", "run", "cli.run", True),
)

# (module, class, methods, counter key)
_METHODS = (
    ("e8theta.gaussian", "GaussianRational", ("__mul__", "__rmul__"), "gaussian.mul"),
    ("e8theta.gaussian", "GaussianRational", ("__truediv__", "__rtruediv__"), "gaussian.div"),
    (
        "e8theta.gaussian",
        "GaussianRational",
        ("__add__", "__radd__", "__sub__", "__rsub__"),
        "gaussian.addsub",
    ),
    ("e8theta.laurent", "LaurentPolynomial", ("__mul__",), "laurent.mul"),
    ("e8theta.ratfunc", "RationalFunction", ("__init__",), "ratfunc.normalise"),
    ("e8theta.ratfunc", "RationalFunction", ("__add__",), "ratfunc.add"),
    ("e8theta.ratfunc", "RationalFunction", ("__mul__",), "ratfunc.mul"),
    ("e8theta.series", "TruncatedSeries", ("__mul__",), "series.mul"),
    ("e8theta.series", "TruncatedSeries", ("invert",), "series.invert"),
    ("e8theta.series", "TruncatedSeries", ("times_one_plus",), "series.times_one_plus"),
    ("e8theta.report", "VerificationReport", ("to_dict", "summary"), "report.render"),
)

# the per-layer metrics every traced run reports, in BENCHMARK.json order
LAYER_METRICS = (
    ("gaussian.mul.calls", "count"),
    ("gaussian.div.calls", "count"),
    ("gaussian.addsub.calls", "count"),
    ("gaussian.self_s", "s"),
    ("laurent.mul.calls", "count"),
    ("laurent.mul.term_products", "count"),
    ("laurent.mul.self_s", "s"),
    ("laurent.gcd.calls", "count"),
    ("laurent.gcd.self_s", "s"),
    ("laurent.gcd.nontrivial_frac", "ratio"),
    ("laurent.exact_div.calls", "count"),
    ("laurent.exact_div.self_s", "s"),
    ("ratfunc.normalise.calls", "count"),
    ("ratfunc.normalise.self_s", "s"),
    ("ratfunc.add.calls", "count"),
    ("ratfunc.mul.calls", "count"),
    ("series.mul.calls", "count"),
    ("series.mul.term_products", "count"),
    ("series.mul.laurent.self_s", "s"),
    ("series.mul.ratfunc.self_s", "s"),
    ("series.mul.scalar.self_s", "s"),
    ("series.invert.calls", "count"),
    ("series.invert.self_s", "s"),
    ("series.times_one_plus.calls", "count"),
    ("series.times_one_plus.self_s", "s"),
    ("theta.theta_series.calls", "count"),
    ("theta.theta_series.hit_frac", "ratio"),
    ("theta.theta_series.self_s", "s"),
    ("theta.theta_eval.calls", "count"),
    ("theta.theta_eval.self_s", "s"),
    ("e8.enumerate_shells.calls", "count"),
    ("e8.enumerate_shells.self_s", "s"),
    ("e8.shell_vectors", "count"),
    ("e8.cached_shells.hit_frac", "ratio"),
    ("e8.theta_e8.self_s", "s"),
    ("e8.theta_product_side.self_s", "s"),
    ("e8.basic_character.self_s", "s"),
    ("index.index_series.calls", "count"),
    ("index.index_series.self_s", "s"),
    ("index.point_contribution.calls", "count"),
    ("index.point_contribution.self_s", "s"),
    ("index.points", "count"),
    ("index.coeff_terms", "count"),
    ("index.verify_qexpansion.self_s", "s"),
    ("index.classify.self_s", "s"),
    ("index.point_value.calls", "count"),
    ("index.point_value.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.run.self_s", "s"),
    ("report.render.self_s", "s"),
    ("py.gc.collections", "count"),
    ("py.gc.self_s", "s"),
    ("trace.overhead", "ratio"),
)


def _ring_tag(series) -> str:
    """'laurent', 'ratfunc' or 'scalar', from the coefficient type."""
    for c in series.coeffs.values():
        name = type(c).__name__
        if "Laurent" in name:
            return "laurent"
        if "Rational" in name and "Gaussian" not in name:
            return "ratfunc"
        return "scalar"
    return "scalar"


class Tracer:
    """Aggregated counters, a child-time stack and coarse spans."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.stack: list[float] = [0.0]
        self.spans: list[tuple] = []
        self._span_ids = itertools.count(1)
        self._span_stack: list[int] = [0]
        self.import_s = 0.0
        self._gc_t0 = 0.0

    def stat(self, key: str) -> list:
        # [calls, self seconds, extra counter a, extra counter b]
        return self.stats.setdefault(key, [0, 0.0, 0, 0])

    # wrappers -------------------------------------------------------------

    def wrap(self, fn, key, after=None, span=False):
        """Count calls and self time of `fn` under `key`.

        `after(stat, args, result, self_s)` runs after each successful call to
        add extra counters; with `span` each call also records a span.
        """
        stat = self.stat(key)
        stack = self.stack
        spans = self.spans
        span_ids = self._span_ids
        span_stack = self._span_stack

        def wrapper(*args, **kwargs):
            if span:
                span_id = next(span_ids)
                parent = span_stack[-1]
                span_stack.append(span_id)
            stack.append(0.0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                dt = t1 - t0
                child = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt - child
                if span:
                    span_stack.pop()
                    spans.append((span_id, parent, key, t0, t1))
            if after is not None:
                after(stat, args, result, dt - child)
            return result

        return wrapper

    @contextlib.contextmanager
    def job_span(self, name: str):
        """Record one span around a whole job."""
        span_id = next(self._span_ids)
        parent = self._span_stack[-1]
        self._span_stack.append(span_id)
        t0 = _clock()
        try:
            yield
        finally:
            self._span_stack.pop()
            self.spans.append((span_id, parent, name, t0, _clock()))

    # gc ---------------------------------------------------------------------

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = _clock()
            return
        dt = _clock() - self._gc_t0
        stat = self.stat("py.gc")
        stat[0] += 1
        stat[1] += dt
        self.stack[-1] += dt

    # output -----------------------------------------------------------------

    def raw(self) -> dict:
        return {"stats": self.stats, "import_s": self.import_s}

    def write_spans(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    **meta,
                    "fields": ["id", "parent", "name", "start_s", "end_s"],
                    "spans": self.spans,
                },
                f,
            )


# hooks adding the extra counters --------------------------------------------


def _after_laurent_mul(stat, args, result, self_s):
    if len(args) == 2:
        b = getattr(args[1], "coeffs", None)
        if b is not None:
            stat[2] += len(args[0].coeffs) * len(b)


def _after_gcd(stat, args, result, self_s):
    is_constant = getattr(result, "is_constant", None)
    if is_constant is not None and not is_constant():
        stat[2] += 1


def _after_enumerate(stat, args, result, self_s):
    total = getattr(result, "total_vectors", None)
    if total is not None:
        stat[2] += total()


def _after_index_series(stat, args, result, self_s):
    fixture = args[0] if args else None
    points = getattr(fixture, "points", ())
    stat[2] += len(points)
    series = getattr(result, "series", None)
    for c in getattr(series, "coeffs", {}).values():
        num, den = getattr(c, "num", None), getattr(c, "den", None)
        if num is None:
            stat[3] += len(getattr(c, "coeffs", ()))
        else:
            stat[3] += len(num.coeffs) + len(den.coeffs)


def _after_cached(fn):
    """Hook keeping the lru_cache hits of `fn` since install in stat[2]."""
    base = fn.cache_info().hits

    def after(stat, args, result, self_s):
        stat[2] = fn.cache_info().hits - base

    return after


def _after_series_mul(tracer: Tracer):
    """Hook for TruncatedSeries.__mul__: term products, and self time split
    by coefficient ring."""
    by_ring = {tag: tracer.stat(f"series.mul.{tag}") for tag in ("laurent", "ratfunc", "scalar")}

    def after(stat, args, result, self_s):
        a, b = args
        b_coeffs = getattr(b, "coeffs", None)
        if b_coeffs is not None:
            stat[2] += len(a.coeffs) * len(b_coeffs)
        ring = by_ring[_ring_tag(a)]
        ring[0] += 1
        ring[1] += self_s

    return after


# lru_cache'd functions whose hit share is reported
_CACHED = ("theta.theta_series", "e8.cached_shells")

_AFTER = {
    "laurent.mul": _after_laurent_mul,
    "laurent.gcd": _after_gcd,
    "e8.enumerate_shells": _after_enumerate,
    "index.index_series": _after_index_series,
}


def _replace_everywhere(original, replacement) -> int:
    """Rebind every e8theta module global that refers to `original`."""
    n = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "e8theta" or name.startswith("e8theta.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                n += 1
    return n


def install() -> Tracer:
    """Import the package, wrap its layers and start counting.

    Raises, before wrapping anything, if any target is missing, so that a
    renamed or moved layer fails the traced run instead of reading 0.
    """
    tracer = Tracer()
    t0 = _clock()
    importlib.import_module("e8theta.cli")
    tracer.import_s = _clock() - t0

    functions, methods, missing = [], [], []
    for module_name, attr, key, span in _FUNCTIONS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None or (key in _CACHED and not hasattr(original, "cache_info")):
            missing.append(f"{module_name}.{attr}")
        else:
            functions.append((original, key, span))
    for module_name, cls_name, names, key in _METHODS:
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        for name in names:
            original = cls.__dict__.get(name) if cls is not None else None
            if original is None:
                missing.append(f"{module_name}.{cls_name}.{name}")
            else:
                methods.append((cls, name, original, key))
    cli = sys.modules["e8theta.cli"]
    json_module = getattr(cli, "json", None)
    if not isinstance(json_module, types.ModuleType):
        missing.append("e8theta.cli.json")
    if missing:
        raise RuntimeError("tracer: targets not found in e8theta: " + ", ".join(missing))

    for original, key, span in functions:
        after = _after_cached(original) if key in _CACHED else _AFTER.get(key)
        _replace_everywhere(original, tracer.wrap(original, key, after=after, span=span))
    for cls, name, original, key in methods:
        after = _after_series_mul(tracer) if key == "series.mul" else _AFTER.get(key)
        setattr(cls, name, tracer.wrap(original, key, after=after))
    shim = types.SimpleNamespace(**vars(json_module))
    shim.dumps = tracer.wrap(json_module.dumps, "report.render")
    cli.json = shim

    gc.callbacks.append(tracer._on_gc)
    return tracer


def uninstall(tracer: Tracer) -> None:
    """Stop gc accounting; the wrappers stay but are no longer read."""
    if tracer._on_gc in gc.callbacks:
        gc.callbacks.remove(tracer._on_gc)


def merge_raw(raws: list[dict]) -> dict:
    """Sum the raw counters of several traced processes."""
    stats: dict[str, list] = {}
    import_s = 0.0
    for raw in raws:
        import_s += raw["import_s"]
        for key, values in raw["stats"].items():
            acc = stats.setdefault(key, [0, 0.0, 0, 0])
            for i, v in enumerate(values):
                acc[i] += v
    return {"stats": stats, "import_s": import_s}


def layer_metrics(raw: dict, overhead: float) -> dict:
    """Turn raw counters into the named per-layer metrics."""
    stats = raw["stats"]

    def get(key):
        return stats.get(key, [0, 0.0, 0, 0])

    def frac(num, den):
        return num / den if den else 0.0

    gcd = get("laurent.gcd")
    ts = get("theta.theta_series")
    cached = get("e8.cached_shells")
    idx = get("index.index_series")
    values = {
        "gaussian.mul.calls": get("gaussian.mul")[0],
        "gaussian.div.calls": get("gaussian.div")[0],
        "gaussian.addsub.calls": get("gaussian.addsub")[0],
        "gaussian.self_s": sum(get(k)[1] for k in ("gaussian.mul", "gaussian.div", "gaussian.addsub")),
        "laurent.mul.calls": get("laurent.mul")[0],
        "laurent.mul.term_products": get("laurent.mul")[2],
        "laurent.mul.self_s": get("laurent.mul")[1],
        "laurent.gcd.calls": gcd[0],
        "laurent.gcd.self_s": gcd[1],
        "laurent.gcd.nontrivial_frac": frac(gcd[2], gcd[0]),
        "laurent.exact_div.calls": get("laurent.exact_div")[0],
        "laurent.exact_div.self_s": get("laurent.exact_div")[1],
        "ratfunc.normalise.calls": get("ratfunc.normalise")[0],
        "ratfunc.normalise.self_s": get("ratfunc.normalise")[1],
        "ratfunc.add.calls": get("ratfunc.add")[0],
        "ratfunc.mul.calls": get("ratfunc.mul")[0],
        "series.mul.calls": get("series.mul")[0],
        "series.mul.term_products": get("series.mul")[2],
        "series.mul.laurent.self_s": get("series.mul.laurent")[1],
        "series.mul.ratfunc.self_s": get("series.mul.ratfunc")[1],
        "series.mul.scalar.self_s": get("series.mul.scalar")[1],
        "series.invert.calls": get("series.invert")[0],
        "series.invert.self_s": get("series.invert")[1],
        "series.times_one_plus.calls": get("series.times_one_plus")[0],
        "series.times_one_plus.self_s": get("series.times_one_plus")[1],
        "theta.theta_series.calls": ts[0],
        "theta.theta_series.hit_frac": frac(ts[2], ts[0]),
        "theta.theta_series.self_s": ts[1],
        "theta.theta_eval.calls": get("theta.theta_eval")[0],
        "theta.theta_eval.self_s": get("theta.theta_eval")[1],
        "e8.enumerate_shells.calls": get("e8.enumerate_shells")[0],
        "e8.enumerate_shells.self_s": get("e8.enumerate_shells")[1],
        "e8.shell_vectors": get("e8.enumerate_shells")[2],
        "e8.cached_shells.hit_frac": frac(cached[2], cached[0]),
        "e8.theta_e8.self_s": get("e8.theta_e8")[1],
        "e8.theta_product_side.self_s": get("e8.theta_product_side")[1],
        "e8.basic_character.self_s": get("e8.basic_character")[1],
        "index.index_series.calls": idx[0],
        "index.index_series.self_s": idx[1],
        "index.point_contribution.calls": get("index.point_contribution")[0],
        "index.point_contribution.self_s": get("index.point_contribution")[1],
        "index.points": idx[2],
        "index.coeff_terms": idx[3],
        "index.verify_qexpansion.self_s": get("index.verify_qexpansion")[1],
        "index.classify.self_s": get("index.classify")[1],
        "index.point_value.calls": get("index.point_value")[0],
        "index.point_value.self_s": get("index.point_value")[1],
        "cli.import_s": raw["import_s"],
        "cli.run.self_s": get("cli.run")[1],
        "report.render.self_s": get("report.render")[1],
        "py.gc.collections": get("py.gc")[0],
        "py.gc.self_s": get("py.gc")[1],
        "trace.overhead": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
