"""Benchmark runner for oubstop.

    python3 perfbench/run.py --workload solve|verify \
        --seed N --seconds S --trace 0|1

Run from the repository root. The run builds its inputs from the seed,
measures passes of the workload until S seconds of passes have elapsed,
checks every pass's outputs outside the timed section and prints, as the
last line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones (tracing off); with --trace 1 the run spends half of S
untraced and half traced and reports the per-layer metrics. Lines before
the JSON give the machine facts and the output statistics; the full record
(with the spans of the last traced pass) goes to perfbench/out/.

The load is a closed loop with one client: each library call starts when
the previous one returns. Every run pins OUBSTOP_THREADS and the BLAS/OpenMP
thread counts to 1, except the one extra traced verify pass that measures
Monte Carlo at OUBSTOP_THREADS=2.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

THREAD_ENV = {"OUBSTOP_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# end-to-end metric name -> unit; all lower-is-better
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}

# fresh interpreters timed for setup_s, half before the passes and half
# after, so that a slow spell on the host at either end moves the median
# less
SETUP_PROBES = 10

# the workloads in workloads.WORKLOADS, named here so that arguments are
# checked before oubstop is imported
WORKLOADS = ("solve", "verify")


class Tally:
    """Counts operations and their failures. An operation is one library
    call made by a pass, or one output check; it fails by raising, by a
    non-zero CLI exit or by a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    def call(self, what: str, fn, *args):
        """fn(*args), or None if it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failed operation is counted, not fatal
            self._fail(f"{what}: {traceback.format_exc(limit=3)}")
            return None

    def cli(self, main, argv: list[str]) -> str | None:
        """Run the CLI entry point with stdout captured; return the output
        (also on a non-zero exit, which counts as a failure), or None if it
        raised."""
        buf = io.StringIO()

        def call() -> int:
            try:
                with redirect_stdout(buf):
                    return main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments
                return exc.code if isinstance(exc.code, int) else 1

        rc = self.call(f"oubstop {argv[0]}", call)
        if rc is None:
            return None
        if rc != 0:
            self._fail(f"oubstop {' '.join(argv)}: exit code {rc}")
        return buf.getvalue()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(what)


@dataclass
class Pass:
    wall: float
    cpu: float
    maxrss_kb: int
    outputs: object
    stats: dict
    spans: list = field(default_factory=list)
    layers: dict | None = None


def run_passes(workload, inputs, seconds: float, tally: Tally,
               tracer: spans.Tracer | None = None) -> list[Pass]:
    """Run timed passes until `seconds` of pass time have elapsed (at least
    one), checking each pass's outputs after its timed section."""
    passes: list[Pass] = []
    while not passes or sum(p.wall for p in passes) < seconds:
        if tracer is not None:
            tracer.reset()
        c0 = time.process_time()
        t0 = time.perf_counter()
        outputs = workload.run(inputs, tally)
        t1 = time.perf_counter()
        c1 = time.process_time()
        rec = Pass(wall=t1 - t0, cpu=c1 - c0,
                   maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   outputs=outputs, stats={})
        if tracer is not None:
            rec.spans = list(tracer.spans)
            rec.layers = spans.layer_metrics(rec.spans, t0, t1,
                                             workload.layers)
        rec.stats = workload.check(inputs, outputs, tally)
        passes.append(rec)
    return passes


def traced_run(workloads, workload, inputs, seconds: float,
               tally: Tally) -> tuple[dict, list[Pass]]:
    """Half the time untraced, half traced; return per-layer metrics."""
    untraced = run_passes(workload, inputs, seconds / 2, tally)
    tracer = spans.Tracer()
    try:
        workloads.install(tracer)
        traced = run_passes(workload, inputs, seconds / 2, tally, tracer)
        w2 = None
        if workload.parallel_mc:
            os.environ["OUBSTOP_THREADS"] = "2"
            try:
                w2 = run_passes(workload, inputs, 0.0, tally, tracer)[0]
            finally:
                os.environ["OUBSTOP_THREADS"] = THREAD_ENV["OUBSTOP_THREADS"]
    finally:
        tracer.uninstall()
    metrics = {k: statistics.median(p.layers[k] for p in traced)
               for k in traced[0].layers}
    metrics["cli.rows_out"] = statistics.median(
        workload.rows_out(p.outputs) for p in traced)
    metrics["mc.paths_per_s_w2"] = w2.layers["mc.paths_per_s"] if w2 else 0.0
    metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                   - statistics.median(p.wall for p in untraced))
    return metrics, untraced + traced + ([w2] if w2 else [])


def setup_probes(args, count: int) -> list[float]:
    """Times from spawning an interpreter to the workload's inputs being
    ready in it, for `count` fresh processes run one after another."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(count):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def machine_facts(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def result_line(tally: Tally, metrics: dict, units: dict) -> str:
    """The final JSON line; raises ValueError on a malformed metric."""
    for name, value in metrics.items():
        if not spans.valid_metric_name(name) or name not in units:
            raise ValueError(f"bad metric name {name!r}")
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    if set(metrics) != set(units):
        raise ValueError(f"missing metrics {sorted(set(units) - set(metrics))}")
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    })


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_ENV)  # before numpy loads its BLAS
    if not (SRC / "oubstop" / "__init__.py").is_file():
        print(f"error: oubstop sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.inputs(args.seed)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0

    inputs = workload.inputs(args.seed)
    # untimed: lazy imports and the allocator settle before the first pass
    workload.warm(Tally())
    tally = Tally()
    if args.trace:
        try:
            metrics, passes = traced_run(workloads, workload, inputs,
                                         args.seconds, tally)
        except (spans.MissingCallSite, spans.TraceError) as err:
            print(f"error: trace failed: {err}", file=sys.stderr)
            return 3
        units = {k: unit for k, (unit, _) in spans.PER_LAYER.items()}
    else:
        probes = setup_probes(args, SETUP_PROBES // 2)
        passes = run_passes(workload, inputs, args.seconds, tally)
        probes += setup_probes(args, SETUP_PROBES - len(probes))
        metrics = {
            "setup_s": statistics.median(probes),
            "wall_s": statistics.median(p.wall for p in passes),
            "cpu_s": statistics.median(p.cpu for p in passes),
            "peak_rss_mb": passes[0].maxrss_kb / 1024.0,
        }
        units = END_TO_END
    line = result_line(tally, metrics, units)

    stats: dict = {}
    for p in passes:
        for k, v in p.stats.items():
            stats[k] = max(stats.get(k, v), v, key=abs)
    record = {
        "facts": machine_facts(args),
        "passes": [{"wall_s": p.wall, "cpu_s": p.cpu} for p in passes],
        "stats": stats,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": metrics,
        "spans": [[s.func, s.site, s.layer, s.start, s.end, s.parent, s.work]
                  for s in passes[-1].spans],
    }
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record), encoding="utf-8")

    print("# facts " + json.dumps(record["facts"]))
    print(f"# passes {len(passes)}, output stats " + json.dumps(stats))
    print(f"# failed_ops {tally.failed}/{tally.attempted}")
    for err in tally.errors[:5]:
        print("# error " + err.replace("\n", " | "))
    for k, v in sorted(metrics.items()):
        print(f"# {k} {v:.6g} {units[k]}")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
