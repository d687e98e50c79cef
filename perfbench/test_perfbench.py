"""Tests of the benchmark runner's own logic; none of them call oubstop."""
import json
import types
from pathlib import Path

import pytest

import run
import spans


def _span(start, end, parent, layer="kernel", func="f"):
    return spans.Span(func, "test", layer, start, end, parent)


def test_self_time_of_nested_spans():
    tree = [_span(0, 10, -1, "cli"), _span(1, 4, 0, "pricing"),
            _span(5, 6, 0, "solver"), _span(2, 3, 1), _span(11, 12, -1)]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx([6, 2, 1, 1, 1])
    # 2 s of the 13 s pass lie outside every top-level span
    assert spans.check_accounting(tree, selfs, 0.0, 13.0) == pytest.approx(2)


def test_overlapping_children_are_counted_once_and_flagged():
    tree = [_span(0, 10, -1), _span(1, 4, 0), _span(3, 6, 0)]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(5)
    with pytest.raises(spans.TraceError):
        spans.check_accounting(tree, selfs, 0.0, 10.0)


def test_recorders_nest_and_uninstall():
    mod = types.ModuleType("fake")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return 2 * inner(x)\n", mod.__dict__)
    original = mod.outer
    tracer = spans.Tracer()
    tracer.install(mod, "inner", "kernel", lambda args, out: (args[0], out))
    tracer.install(mod, "outer", "solver")
    assert mod.outer(1) == 4
    outer, inner = tracer.spans
    assert (outer.func, outer.site, outer.layer, outer.parent) == \
        ("outer", "fake", "solver", -1)
    assert (inner.func, inner.parent, inner.work) == ("inner", 0, (1, 2))
    assert outer.start <= inner.start <= inner.end <= outer.end
    with pytest.raises(spans.MissingCallSite):
        tracer.install(mod, "gone", "kernel")
    tracer.uninstall()
    assert mod.outer is original


def test_layer_reading_zero_fails_loudly():
    tree = [_span(0, 1, -1, "kernel", "drift_kernel")]
    assert spans.layer_metrics(tree, 0.0, 1.0, ("kernel",))["kernel.calls"] == 1
    with pytest.raises(spans.TraceError, match="mc"):
        spans.layer_metrics(tree, 0.0, 1.0, ("kernel", "mc"))


@pytest.mark.parametrize("name,ok", [
    ("wall_s", True), ("kernel.self_s", True), ("mc.paths_per_s_w2", True),
    ("9-lives", True), ("x" * 64, True), ("x" * 65, False), ("", False),
    ("_wall", False), ("wall s", False), ("a/b", False), ("é", False),
])
def test_metric_name_validation(name, ok):
    assert spans.valid_metric_name(name) is ok


def test_result_line_rejects_bad_metrics():
    units = {"wall_s": "s"}
    line = json.loads(run.result_line(run.Tally(), {"wall_s": 1.5}, units))
    assert line == {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}
    with pytest.raises(ValueError):
        run.result_line(run.Tally(), {"wall s": 1.0}, {"wall s": "s"})
    with pytest.raises(ValueError):
        run.result_line(run.Tally(), {}, units)
    with pytest.raises(ValueError):
        run.result_line(run.Tally(), {"wall_s": float("nan")}, units)


def test_benchmark_json_matches_runner():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == spans.PER_LAYER
    assert all(spans.valid_metric_name(n) for n in [*e2e, *layer])
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def _argparse_exit(argv):
    raise SystemExit(2)


class _Raising:
    """A workload whose pass makes one good call, one raising call and two
    CLI calls that exit non-zero (one by return code, one as argparse
    does), then fails its output check."""

    layers = ()

    def run(self, inputs, tally):
        tally.call("good", lambda: 1)
        tally.call("boom", lambda: 1 / 0)
        tally.cli(lambda argv: 1, ["verify"])
        tally.cli(_argparse_exit, ["value"])
        return None

    def check(self, inputs, outputs, tally):
        tally.check(outputs is not None, "no outputs")
        return {}


def test_failed_ops_counts_raises_exits_and_checks():
    tally = run.Tally()
    passes = run.run_passes(_Raising(), None, 0.0, tally)
    assert len(passes) == 1
    assert (tally.attempted, tally.failed) == (5, 4)
    assert "ZeroDivisionError" in tally.errors[0]
