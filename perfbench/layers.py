"""Layer spans and counters, recorded from outside the program.

`install` wraps each layer's public functions in the already imported
`ngontower` modules: every module global bound to a wrapped function is
rebound to the wrapper, so callers that imported the name directly are
traced too.  Nothing under src/ changes.  A target that no longer exists is
reported as unresolved, and its span then records no calls.
"""

import importlib
import os
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np


def _dumped_bytes(args, kwargs, result):
    return {"towerfile.bytes": os.path.getsize(kwargs.get("path") or args[1])}


def _loaded_bytes(args, kwargs, result):
    return {"towerfile.bytes": os.path.getsize(kwargs.get("path") or args[0])}


def _schedule_nodes(args, kwargs, result):
    return {"tower.schedule_nodes": len(result.nodes)}


def _pair_products(args, kwargs, result):
    a, b = args[0], args[1]
    return {"oracle.pair_products": int(np.count_nonzero(a.coeffs)) * int(np.count_nonzero(b.coeffs))}


def _arith_instrs(args, kwargs, result):
    return {"construction.arith_instrs": len(result.instrs)}


def _pair_cosines(args, kwargs, result):
    return {"tower.cosines": (kwargs.get("params") or args[1]).npairs}


@dataclass(frozen=True)
class Span:
    name: str
    targets: tuple[str, ...]  # "module:attr" or "module:Class.method"
    time_metric: str
    calls_metric: str
    count: object = None  # (args, kwargs, result) -> {counter: amount}


@dataclass(frozen=True)
class Count:
    """A counter on calls that get no span of their own."""

    name: str
    targets: tuple[str, ...]
    count: object = None  # as Span.count; None counts one per call


SPANS = (
    Span("invariant_sets.build", ("ngontower.invariant_sets:build_invariant_sets",),
         "invariant_sets.build_s", "invariant_sets.build.calls"),
    Span("tower.schedule", ("ngontower.tower:build_schedule",),
         "tower.schedule_s", "tower.schedule.calls", _schedule_nodes),
    Span("tower.signs", ("ngontower.tower:resolve_signs",), "tower.signs_s", "tower.signs.calls"),
    Span("tower.evaluate", ("ngontower.tower:evaluate_tower",),
         "tower.evaluate_s", "tower.evaluate.calls"),
    Span("verify.oracle", ("ngontower.verify:oracle_check_node",),
         "verify.oracle_s", "verify.oracle.calls"),
    Span("oracle.mul", ("ngontower.oracle:pv_mul",), "oracle.mul_s", "oracle.muls", _pair_products),
    Span("oracle.expand", ("ngontower.verify:pv_of_part",), "oracle.expand_s", "oracle.expand.calls"),
    Span("report.render", ("ngontower.report:render_report",), "report.render_s", "report.render.calls"),
    Span("towerfile.dump", ("ngontower.towerfile:dump_tower",),
         "towerfile.dump_s", "towerfile.dump.calls", _dumped_bytes),
    Span("towerfile.load", ("ngontower.towerfile:load_tower",),
         "towerfile.load_s", "towerfile.loads", _loaded_bytes),
    Span("construction.arith", ("ngontower.construction:compile_to_arith",),
         "construction.arith_s", "construction.arith.calls", _arith_instrs),
    Span("construction.geom", ("ngontower.construction:lower_to_geom",),
         "construction.geom_s", "construction.geom.calls"),
    Span("construction.program_dump",
         ("ngontower.construction:dump_arith", "ngontower.construction:dump_geom"),
         "construction.program_dump_s", "construction.program_dump.calls"),
    Span("construction.svg", ("ngontower.construction:emit_svg",),
         "construction.svg_s", "construction.svg.calls"),
)
COUNTS = (
    Count("splitting.split_products",
          ("ngontower.splitting:f_split_product", "ngontower.splitting:g_split_product")),
    Count("tower.cosines", ("ngontower.tower:CosineCache.__init__",), _pair_cosines),
)
COUNTER_METRICS = (
    "tower.schedule_nodes",
    "oracle.pair_products",
    "towerfile.bytes",
    "construction.arith_instrs",
    "splitting.split_products",
    "tower.cosines",
)
# Per-layer metrics a traced run reports, in BENCHMARK.json order.
LAYER_METRICS = (
    tuple(s.time_metric for s in SPANS)
    + ("cli.self_s",)
    + COUNTER_METRICS
    + tuple(s.calls_metric for s in SPANS)
    + ("trace.overhead_s", "trace.span_cost_s", "trace.missing_layers")
)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric == "towerfile.bytes" else "count"


class Tracer:
    """Spans as [name, start, end, parent index] and counters, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.unresolved: list[str] = []

    def span(self, name, fn, count):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(rec)
            self._stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return traced

    def counter(self, name, fn, count):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts.update(count(args, kwargs, result) if count else {name: 1})
            return result

        return counted


def resolve(target: str):
    """(owner, attribute name, current value) of a "module:attr" or
    "module:Class.method" target, or None if the program has no such name."""
    module_name, attr = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


def _rebind(target: str, make_wrapper) -> bool:
    found = resolve(target)
    if found is None:
        return False
    owner, attr, original = found
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return True
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "ngontower" or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
    return True


def install(tracer: Tracer) -> None:
    for s in SPANS:
        for target in s.targets:
            if not _rebind(target, lambda fn, s=s: tracer.span(s.name, fn, s.count)):
                tracer.unresolved.append(target)
    for c in COUNTS:
        for target in c.targets:
            if not _rebind(target, lambda fn, c=c: tracer.counter(c.name, fn, c.count)):
                tracer.unresolved.append(target)


def layer_totals(traces, op_seconds: float) -> dict[str, float]:
    """Per-layer metrics of one operation from the traces of its commands.

    Times are self times: a span's duration less that of its child spans.
    cli.self_s is the operation time that no outermost span covers, less the
    time each command took to install the wrappers.
    """
    by_name = {s.name: s for s in SPANS}
    out = {m: 0 for m in LAYER_METRICS if not m.startswith("trace.")}
    covered = 0.0
    counts = Counter()
    for trace in traces:
        spans = trace["spans"]
        counts.update(trace["counts"])
        covered += trace.get("install_s", 0.0)
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                covered += end - start
        for (name, start, end, parent), inner in zip(spans, child_time):
            s = by_name[name]
            out[s.time_metric] += end - start - inner
            out[s.calls_metric] += 1
    out["cli.self_s"] = op_seconds - covered
    for name in COUNTER_METRICS:
        out[name] = int(counts.get(name, 0))
    return out


def wrapped_call_s(calls: int = 100_000) -> float:
    """Seconds a span wrapper adds to one call: a wrapped function that does
    nothing, less the same function called bare."""

    def nothing():
        return None

    wrapped = Tracer().span("nothing", nothing, None)
    times = []
    for fn in (nothing, wrapped):
        start = perf_counter()
        for _ in range(calls):
            fn()
        times.append(perf_counter() - start)
    return (times[1] - times[0]) / calls


def calls_by_layer(totals: dict[str, float]) -> dict[str, int]:
    """Calls recorded per span, and per counter, for the missing-layer flag."""
    calls = {s.name: int(totals[s.calls_metric]) for s in SPANS}
    for c in COUNTS:
        calls[c.name] = int(totals[c.name])
    return calls
