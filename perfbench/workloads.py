"""The oubstop benchmark workloads: inputs, timed passes and output checks.

Each workload turns the run's seed into inputs, runs one pass of library
calls (the timed section) and checks the pass's outputs afterwards. A pass
looks up every library function by attribute when it calls it, so the
recorders a traced pass installs at `CALL_SITES` see the benchmark's own
calls as well as those inside the library. NOTES.md says why each workload
exists and which layers it loads.
"""
from __future__ import annotations

import math
import random

import numpy as np

import oubstop
from oubstop import cli, kernel, mc, pricing, solver
from oubstop import OUBParams, SolverConfig, drift_kernel

# (call site, function, layer): library functions that a traced pass
# replaces with recorders in the module that imports them; the first two
# are the entry points the workloads call themselves. The scalar
# drift/density calls inside the quadrature oracle's integrand are left
# out: one call costs less than its recorder would.
CALL_SITES = (
    (oubstop, "solve_boundary", "solver"),
    (cli, "main", "cli"),
    (cli, "picard_solve", "solver"),
    (cli, "value", "pricing"),
    (cli, "simulate_stopped_payoff", "mc"),
    (cli, "perturbation_test", "mc"),
    (cli, "kernel_oracle", "mc"),
    (cli, "drift_kernel", "kernel"),
    (cli, "reduce_to_canonical", "bridge"),
    (cli, "make_context", "transform"),
    (cli, "original_to_transformed", "transform"),
    (cli, "envelope", "transform"),
    (cli, "envelope_deriv", "transform"),
    (solver, "picard_solve", "solver"),
    (solver, "drift_kernel", "kernel"),
    (solver, "reduce_to_canonical", "bridge"),
    (pricing, "drift_kernel", "kernel"),
    (pricing, "boundary_eval", "solver"),
    (kernel, "cond_mean", "bridge"),
    (kernel, "cond_std", "bridge"),
    (mc, "cond_mean", "bridge"),
    (mc, "cond_std", "bridge"),
    (mc, "boundary_eval", "solver"),
)


def _kernel_work(args, out):
    # drift_kernel(params, t1, x1, t2, x2): evaluations are the broadcast
    # size; bytes are computed from the argument and result arrays, not
    # measured
    arrays = [np.asarray(a) for a in args[1:5]]
    nbytes = sum(a.nbytes for a in arrays) + np.asarray(out).nbytes
    return np.broadcast(*arrays).size, nbytes


def _mc_work(args, out):
    # simulate_stopped_payoff(params, sol, t0, x0, cfg) and
    # perturbation_test(params, sol, deltas, t0, x0, cfg): paths are
    # monitored at the solver nodes after t0
    sol, t0, cfg = args[1], args[-3], args[-1]
    return cfg.paths, int(np.count_nonzero(sol.grid.nodes > t0))


MEASURES = {
    "drift_kernel": _kernel_work,
    "simulate_stopped_payoff": _mc_work,
    "perturbation_test": _mc_work,
}


def install(tracer) -> None:
    """Put recorders at every call site."""
    for module, func, layer in CALL_SITES:
        tracer.install(module, func, layer, MEASURES.get(func))


def max_residual(params: OUBParams, sol) -> float:
    """max_i |G(beta)_i - beta_i| for a canonical solution, G being one
    right-Riemann sweep of the Volterra equation, assembled row by row from
    the public drift_kernel (independent of the solver's batched sweep)."""
    t, b = sol.grid.nodes, sol.beta
    n = t.size - 1
    dt = np.diff(t)
    worst = abs(params.z - b[n - 1])
    for i in range(n - 1):
        k = drift_kernel(params, t[i], b[i], t[i + 1:n], b[i + 1:n])
        worst = max(worst, abs(params.z - float(np.dot(k, dt[i:n - 1]))
                               - b[i]))
    return worst


def _parse_csv(text: str | None, header: str):
    lines = text.splitlines() if text else []
    if not lines or lines[0] != header:
        return None
    return lines[1:]


class Solve:
    """solve_boundary over a fixed list of problems (no random input)."""

    name = "solve"
    layers = ("kernel", "solver", "bridge")
    parallel_mc = False
    PROBLEMS = tuple(
        (OUBParams(alpha=a, gamma=g, z=z), SolverConfig(n=n))
        for a, g, z, n in ((1.0, 1.0, 0.0, 500), (0.01, 1.0, 5.0, 500),
                           (5.0, 1.0, -5.0, 500), (1.0, 0.5, -5.0, 500),
                           (1.0, 2.0, 5.0, 500), (5.0, 1.0, 0.0, 500),
                           (1.0, 1.0, 0.0, 2000))
    ) + ((OUBParams(alpha=0.5, gamma=1.0, z=2.0, theta=1.0, horizon=3.0),
          SolverConfig(n=500)),)

    def inputs(self, seed: int):
        return self.PROBLEMS

    def warm(self, tally) -> None:
        # one coarse sweep at the largest mesh: the first large arrays
        # otherwise page-fault through the whole first pass
        tally.call("warm", oubstop.solve_boundary,
                   OUBParams(alpha=2.0, gamma=1.0, z=0.0),
                   SolverConfig(n=2000, eps=1.0))

    def run(self, problems, tally):
        return [tally.call("solve", oubstop.solve_boundary, p, cfg)
                for p, cfg in problems]

    def check(self, problems, sols, tally) -> dict:
        worst = 0.0
        for (p, cfg), sol in zip(problems, sols):
            pinned = False
            res = math.inf
            if sol is not None:
                params = sol.reduction.canonical
                pinned = sol.canonical.beta[-1] == params.z
                res = max_residual(params, sol.canonical)
                worst = max(worst, res)
            tally.check(pinned, f"beta[-1] != z for {p}")
            tally.check(res <= cfg.eps, f"residual {res:.3e} > eps for {p}")
        return {"max_residual": worst}

    def rows_out(self, outputs) -> int:
        return 0


class Verify:
    """The CLI verify suite at its defaults, 1e5 paths."""

    name = "verify"
    layers = ("kernel", "solver", "pricing", "transform", "bridge", "mc",
              "cli")
    parallel_mc = True

    def inputs(self, seed: int) -> list[str]:
        mc_seed = random.Random(f"verify:{seed}").randrange(2 ** 31)
        return ["verify", "--paths", "100000", "--seed", str(mc_seed)]

    def warm(self, tally) -> None:
        tally.cli(cli.main, ["verify", "--paths", "2000"])

    def run(self, argv, tally):
        return tally.cli(cli.main, argv)

    def check(self, argv, text, tally) -> dict:
        rows = _parse_csv(text, "check,statistic,threshold,result")
        tally.check(bool(rows), "verify wrote no check rows")
        stats = {}
        for row in rows or ():
            name, stat, _, result = row.split(",")
            tally.check(result == "pass", f"verify row failed: {row}")
            if name == "mc_value_consistency":
                stats["mc_gap"] = float(stat)
        return stats

    def rows_out(self, outputs) -> int:
        rows = _parse_csv(outputs, "check,statistic,threshold,result")
        return len(rows) if rows else 0


WORKLOADS = {w.name: w for w in (Solve(), Verify())}
