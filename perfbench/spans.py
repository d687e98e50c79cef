"""Span recording and per-layer accounting for the oubstop benchmark.

A traced pass replaces library functions at the modules that import them
with recorders. Each call becomes one span: function name, call site,
layer, start, end, parent span and an optional work measure. Spans stay in
memory; the runner writes them out when the run ends.

A span's self time is its duration minus the part of it that its child
spans cover. Recorders keep one call stack, so wrapped functions must only
be called from the thread that runs the pass (the library calls none of
them from its worker threads).

Standard library only, so the runner's own tests need neither numpy nor
oubstop.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("kernel", "solver", "pricing", "transform", "bridge", "mc", "cli")

# per-layer metric name -> (unit, better)
PER_LAYER = {
    "kernel.calls": ("count", "lower"),
    "kernel.evals": ("count", "lower"),
    "kernel.mean_batch": ("count", "higher"),
    "kernel.self_s": ("s", "lower"),
    "kernel.evals_per_s": ("1/s", "higher"),
    "kernel.bytes_computed": ("B", "lower"),
    "solver.solves": ("count", "lower"),
    "solver.sweeps": ("count", "lower"),
    "solver.self_s": ("s", "lower"),
    "solver.ms_per_sweep": ("ms", "lower"),
    "pricing.value_calls": ("count", "lower"),
    "pricing.value_us": ("us", "lower"),
    "pricing.clamped_frac": ("ratio", "higher"),
    "pricing.self_s": ("s", "lower"),
    "transform.calls": ("count", "lower"),
    "transform.self_s": ("s", "lower"),
    "bridge.calls": ("count", "lower"),
    "bridge.self_s": ("s", "lower"),
    "mc.calls": ("count", "lower"),
    "mc.paths": ("count", "lower"),
    "mc.path_steps": ("count", "lower"),
    "mc.self_s": ("s", "lower"),
    "mc.paths_per_s": ("1/s", "higher"),
    "mc.oracle_calls": ("count", "lower"),
    "mc.oracle_ms": ("ms", "lower"),
    "mc.paths_per_s_w2": ("1/s", "higher"),
    "cli.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.rows_out": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """A metric name starts with a letter or digit and has at most 64 of
    letters, digits, '_', '.' and '-'."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


class MissingCallSite(RuntimeError):
    """A function the tracer must wrap is not where the trace expects it."""


class TraceError(RuntimeError):
    """A traced pass is inconsistent: a layer reads zero, or span times do
    not add up to the pass's wall time."""


@dataclass(slots=True)
class Span:
    func: str
    site: str
    layer: str
    start: float
    end: float
    parent: int
    work: tuple | None = None


class Tracer:
    """Installs recorders at call sites and collects their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def recorder(self, fn, func: str, site: str, layer: str, measure=None):
        """Wrap fn so that each call records a span; measure(args, result)
        returns the span's work tuple."""
        spans, stack = self.spans, self._stack

        def record(*args, **kwargs):
            span = Span(func, site, layer, 0.0, 0.0,
                        stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if measure is not None:
                span.work = measure(args, out)
            return out

        return record

    def install(self, module, func: str, layer: str, measure=None) -> None:
        """Replace module.func with a recorder; raise MissingCallSite if the
        module no longer has that name."""
        fn = getattr(module, func, None)
        if not callable(fn):
            raise MissingCallSite(f"{module.__name__}.{func} is missing")
        site = module.__name__.rsplit(".", 1)[-1]
        setattr(module, func, self.recorder(fn, func, site, layer, measure))
        self._installed.append((module, func, fn))

    def uninstall(self) -> None:
        while self._installed:
            module, func, fn = self._installed.pop()
            setattr(module, func, fn)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part covered by its children."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        inner = covered((max(k.start, span.start), min(k.end, span.end))
                        for k in kids)
        out.append(span.end - span.start - inner)
    return out


def check_accounting(spans: list[Span], selfs: list[float], start: float,
                     end: float) -> float:
    """Raise TraceError unless self times plus unspanned time add up to the
    pass's wall time end - start; return the unspanned time."""
    wall = end - start
    top = covered((max(s.start, start), min(s.end, end))
                  for s in spans if s.parent < 0)
    unspanned = wall - top
    gap = abs(sum(selfs) + unspanned - wall)
    if gap > 1e-9 * len(spans) + 1e-6 * wall:
        raise TraceError(f"self times plus unspanned time miss wall time "
                         f"{wall:.6f} s by {gap:.3e} s")
    return unspanned


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], start: float, end: float,
                  required: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (those the pass itself can
    measure: everything in PER_LAYER except cli.rows_out,
    mc.paths_per_s_w2 and trace.overhead_s).

    Raises TraceError if a layer in `required` recorded no call, or if the
    span times do not account for the pass's wall time.
    """
    selfs = self_times(spans)
    check_accounting(spans, selfs, start, end)
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for span, st in zip(spans, selfs):
        calls[span.layer] += 1
        self_s[span.layer] += st
    missing = [layer for layer in required if calls[layer] == 0]
    if missing:
        raise TraceError(f"no calls recorded in layer(s) {missing}")

    def timed(func: str) -> tuple[int, float]:
        # calls and total span time of one function (its spans never nest)
        hits = [s for s in spans if s.func == func]
        return len(hits), sum(s.end - s.start for s in hits)

    kernel = [s for s in spans if s.layer == "kernel"]
    evals = sum(s.work[0] for s in kernel if s.work)
    nbytes = sum(s.work[1] for s in kernel if s.work)
    kernel_s = sum(s.end - s.start for s in kernel)  # kernel spans never nest
    sweeps = sum(1 for s in spans
                 if s.func == "drift_kernel" and s.site == "solver")
    solves, solve_s = timed("picard_solve")

    value_n, value_s = timed("value")
    with_kernel = {s.parent for s in kernel}
    clamped = sum(1 for i, s in enumerate(spans)
                  if s.func == "value" and i not in with_kernel)

    sims = [s for s in spans if s.func in ("simulate_stopped_payoff",
                                           "perturbation_test")]
    paths = sum(s.work[0] for s in sims)
    path_steps = sum(s.work[0] * s.work[1] for s in sims)
    sim_s = sum(s.end - s.start for s in sims)
    oracle_n, oracle_s = timed("kernel_oracle")

    out = {
        "kernel.calls": calls["kernel"],
        "kernel.evals": evals,
        "kernel.mean_batch": _ratio(evals, len(kernel)),
        "kernel.self_s": self_s["kernel"],
        "kernel.evals_per_s": _ratio(evals, kernel_s),
        "kernel.bytes_computed": nbytes,
        "solver.solves": solves,
        "solver.sweeps": sweeps,
        "solver.self_s": self_s["solver"],
        "solver.ms_per_sweep": 1e3 * _ratio(solve_s, sweeps),
        "pricing.value_calls": value_n,
        "pricing.value_us": 1e6 * _ratio(value_s, value_n),
        "pricing.clamped_frac": _ratio(clamped, value_n),
        "pricing.self_s": self_s["pricing"],
        "transform.calls": calls["transform"],
        "transform.self_s": self_s["transform"],
        "bridge.calls": calls["bridge"],
        "bridge.self_s": self_s["bridge"],
        "mc.calls": calls["mc"],
        "mc.paths": paths,
        "mc.path_steps": path_steps,
        "mc.self_s": self_s["mc"],
        "mc.paths_per_s": _ratio(paths, sim_s),
        "mc.oracle_calls": oracle_n,
        "mc.oracle_ms": 1e3 * _ratio(oracle_s, oracle_n),
        "cli.calls": calls["cli"],
        "cli.self_s": self_s["cli"],
    }
    bad = [k for k, v in out.items() if not math.isfinite(v)]
    if bad:
        raise TraceError(f"non-finite layer metrics {bad}")
    return out

