"""Command-line front end: solve boundaries, evaluate values, run the
verification suite, and emit figure datasets as CSV files.

Each subcommand accepts only the flags it reads (see build_parser); only
verify simulates, so only it takes --seed, --paths and OUBSTOP_THREADS.

Data goes to files or standard output, diagnostics to standard error.
Exit codes: 0 success, 1 verification failures, 2 validation or
convergence errors. All outputs are deterministic given the full flag set
including the seed.
"""
from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .bridge import OUBParams, reduce_to_canonical
from .kernel import KernelQuery, drift_kernel
from .mc import MCConfig, kernel_oracle, perturbation_test
from .pricing import ValueSurfaceQuery, value
from .solver import (
    BoundarySolution,
    ConvergenceError,
    SolvedBoundary,
    SolverConfig,
    TimeGrid,
    _SHEPP,
    _drift_sign_bound,
    solve_boundary,
)
from .transform import make_context
# Not called here (verify takes perturbation_test's baseline, picard_solve is
# solve_boundary's fallback, boundary_lower_bound needs no transform map),
# but perfbench/workloads.py CALL_SITES wraps these names in this module.
from .mc import simulate_stopped_payoff  # noqa: F401
from .solver import picard_solve  # noqa: F401
from .transform import envelope, envelope_deriv, original_to_transformed  # noqa: F401

__all__ = ["main", "build_parser"]

_FIG1_ALPHAS = (0.01, -0.01, 1.0, -1.0, 5.0, -5.0)
_FIG2_GAMMAS = (0.5, 1.0, 2.0)
_FIG3_SIZES = (10, 100, 500)
_FIG_PINS = (0.0, -5.0, 5.0)
# A negative number as argparse should read it: its own pattern (Python
# 3.10-3.13) has no exponent, so "--z -1e-3" took -1e-3 for an option.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _fmt(x: float) -> str:
    """17-significant-digit decimal, always carrying a decimal point."""
    s = f"{x:.17g}"
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _emit(lines, out: str | None) -> None:
    text = "".join(line + "\n" for line in lines)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _write_columns(header, columns, out: str | None) -> None:
    """Write equal-length columns of floats as a CSV under the column
    names in header."""
    _emit([",".join(header)]
          + [",".join(_fmt(v) for v in row) for row in zip(*columns)], out)


def read_boundary_csv(path: str):
    """Read a `t,beta` CSV written by the solve command."""
    rows = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not rows or rows[0] != "t,beta":
        raise ValueError(f"{path}: expected header 't,beta'")
    fields = [r.split(",") for r in rows[1:]]
    if not fields or any(len(f) != 2 for f in fields):
        raise ValueError(f"{path}: expected one or more 't,beta' data rows")
    data = np.array([[float(c) for c in f] for f in fields])
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: every t and beta must be finite")
    return data[:, 0], data[:, 1]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # None stands for SolverConfig's default (500), so that verify can tell
    # a given --n from an omitted one
    common.add_argument("--n", type=int, default=None,
                        help="mesh size N (default 500)")
    common.add_argument("--out", type=str, default=None)
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--alpha", type=float, default=1.0)
    problem.add_argument("--gamma", type=float, default=1.0)
    problem.add_argument("--z", type=float, default=0.0)
    problem.add_argument("--theta", type=float, default=0.0)
    problem.add_argument("--horizon", type=float, default=1.0)

    parser = argparse.ArgumentParser(
        prog="oubstop",
        description="Optimal stopping boundary of an Ornstein-Uhlenbeck bridge",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("solve", parents=[problem, common],
                   help="solve the boundary and write a t,beta CSV")
    p_val = sub.add_parser("value", parents=[problem, common],
                           help="evaluate the value function")
    p_val.add_argument("--t", type=float, default=None)
    p_val.add_argument("--x", type=float, default=None)
    p_val.add_argument("--grid", type=str, default=None,
                       help="surface mode: T0:T1:NT,X0:X1:NX")
    p_ver = sub.add_parser("verify", parents=[problem, common],
                           help="run the verification checks")
    p_ver.add_argument("--seed", type=int, default=1)
    p_ver.add_argument("--paths", type=int, default=100_000)
    p_ver.add_argument("--boundary", type=str, default=None,
                       help="verify a boundary CSV instead of solving")
    sub.add_parser("figures", parents=[common],
                   help="emit the figure datasets into --out directory")
    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _params(args: argparse.Namespace) -> OUBParams:
    """The problem of solve, value and verify."""
    return OUBParams(alpha=args.alpha, gamma=args.gamma, z=args.z,
                     theta=args.theta, horizon=args.horizon)


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    """SolverConfig from --n, its default where omitted."""
    return SolverConfig() if args.n is None else SolverConfig(n=args.n)


def _warn_drift_sign(sol: SolvedBoundary) -> None:
    """One stderr line if nodes of sol sit at or below the drift-sign bound,
    where verify's drift_sign_bound row fails."""
    margin = sol.drift_margin
    below = int(np.count_nonzero(~(margin > 0)))
    if below:
        p = sol.reduction.original
        print(f"warning: alpha={p.alpha:g} gamma={p.gamma:g} z={p.z:g} "
              f"theta={p.theta:g} horizon={p.horizon:g} "
              f"n={sol.canonical.grid.n}: {below} of {margin.size} nodes at "
              "or below the drift-sign bound z/cosh(alpha(1-t)), which the "
              "true boundary stays above", file=sys.stderr)


def cmd_solve(args: argparse.Namespace) -> int:
    params = _params(args)
    try:
        sol = solve_boundary(params, _solver_config(args))
    except ConvergenceError as err:
        if args.out is not None:
            partial = SolvedBoundary(reduction=reduce_to_canonical(params),
                                     canonical=err.solution)
            _write_columns(("t", "beta"), (partial.nodes, partial.values),
                           args.out + ".partial")
            print(f"partial result written to {args.out}.partial",
                  file=sys.stderr)
        raise
    _write_columns(("t", "beta"), (sol.nodes, sol.values), args.out)
    print(f"method={sol.canonical.method} iterations="
          f"{sol.canonical.iterations} "
          f"residual={sol.canonical.final_residual:.6e}", file=sys.stderr)
    _warn_drift_sign(sol)
    return 0


def _parse_grid(arg: str):
    try:
        tpart, xpart = arg.split(",")
        t0, t1, nt = tpart.split(":")
        x0, x1, nx = xpart.split(":")
        ends = [float(v) for v in (t0, t1, x0, x1)]
        # finite ends can still overflow np.linspace's spans T1 - T0, X1 - X0
        finite = ends + [ends[1] - ends[0], ends[3] - ends[2]]
        if int(nt) < 1 or int(nx) < 1 or not all(map(math.isfinite, finite)):
            raise ValueError("NT and NX must be >= 1, ends and spans finite")
        return (np.linspace(*ends[:2], int(nt)),
                np.linspace(*ends[2:], int(nx)))
    except ValueError as exc:
        raise ValueError(f"bad --grid value {arg!r}, "
                         "expected T0:T1:NT,X0:X1:NX") from exc


def cmd_value(args: argparse.Namespace) -> int:
    params, cfg = _params(args), _solver_config(args)
    if args.grid is not None and (args.t, args.x) == (None, None):
        ts, xs = _parse_grid(args.grid)
    elif args.grid is None and None not in (args.t, args.x):
        ts, xs = np.array([args.t]), np.array([args.x])
    else:
        raise ValueError("value needs either --t and --x or --grid")
    if not all(0.0 <= t < params.horizon for t in ts):
        raise ValueError(f"value needs t in [0, {params.horizon!r})")
    solved = solve_boundary(params, cfg)
    red, sol = solved.reduction, solved.canonical
    queries = [ValueSurfaceQuery(t=float(red.to_canonical_time(t)),
                                 x=red.to_canonical_space(xs)) for t in ts]
    _warn_drift_sign(solved)
    vs = [red.from_canonical_space(value(red.canonical, sol, q))
          for q in queries]
    _write_columns(("t", "x", "V"), (np.repeat(ts, xs.size),
                                     np.tile(xs, ts.size),
                                     np.concatenate(vs)), args.out)
    return 0


def _verify_checks(solved: SolvedBoundary, mc: MCConfig):
    """Yield (name, statistic, threshold, passed) verification rows for
    solved, checked on its canonical problem."""
    params, sol = solved.reduction.canonical, solved.canonical
    z, gamma = params.z, params.gamma

    yield ("terminal_pinning", abs(float(sol.beta[-1]) - z), 0.0,
           float(sol.beta[-1]) == z)

    rng = np.random.default_rng(mc.seed)
    worst = 0.0
    for _ in range(20):
        t1 = rng.uniform(0.0, 0.95)
        t2 = rng.uniform(t1, 0.99)
        x1 = z + gamma * rng.uniform(-3.0, 3.0)
        x2 = z + gamma * rng.uniform(-3.0, 3.0)
        q = KernelQuery(t1=t1, x1=x1, t2=t2, x2=x2)
        worst = max(worst, abs(drift_kernel(params, t1, x1, t2, x2)
                               - kernel_oracle(params, q)))
    yield ("kernel_vs_quadrature", worst, 1e-8, worst < 1e-8)

    v0 = value(params, sol, ValueSurfaceQuery(t=0.0, x=z))
    # one simulation: the unshifted rule is the baseline of the paired
    # perturbation test (common random numbers)
    report = perturbation_test(params, sol, (0.25 * gamma, -0.25 * gamma),
                               0.0, z, mc)
    est = report.baseline
    # MC stops in continuous time, but the discretised boundary next to the
    # horizon leaves it below v0 (about 1.4e-3 at N=500, shrinking with N);
    # allow for it explicitly so a correct solution verifies cleanly at any N
    allowance = 3.0 * est.std_error + 2.0 * gamma * (math.e - 1.0) / sol.grid.n
    stat = abs(est.mean - v0)
    yield ("mc_value_consistency", stat, allowance, stat <= allowance)

    for entry in report.entries:
        name = "perturbation_up" if entry.delta > 0 else "perturbation_down"
        if entry.se_diff > 0.0:
            stat = entry.mean_diff / entry.se_diff
        else:  # the same difference on every path: its sign is certain
            stat = math.copysign(math.inf, entry.mean_diff) \
                if entry.mean_diff != 0.0 else 0.0
        yield (name, stat, 3.0, stat <= 3.0)

    # The transformed lower bound at t = 0, b(0) - c_z f(0)/f'(0), below
    # which the gain grows in time, is (beta(0) - z/cosh(alpha)) / scale:
    # upsilon(0) = 0, f(0) = 1 and f'(0) = cosh(alpha).
    gap = sol.beta[0] - _drift_sign_bound(params, 0.0)
    margin = float(gap / make_context(params).scale)
    yield ("boundary_lower_bound", margin, 0.0, margin > 0.0)

    margin = float(np.min(solved.drift_margin))
    yield ("drift_sign_bound", margin, 0.0, margin > 0.0)


def cmd_verify(args: argparse.Namespace) -> int:
    params = _params(args)
    threads = os.environ.get("OUBSTOP_THREADS", "1").strip()
    if not threads.isdecimal() or int(threads) < 1:
        raise ValueError(f"OUBSTOP_THREADS must be an integer >= 1, got {threads!r}")
    mc = MCConfig(paths=args.paths, seed=args.seed, workers=int(threads))
    if args.boundary is not None:
        red = reduce_to_canonical(params)
        if args.n is not None:
            raise ValueError("--n does not apply with --boundary, which is "
                             "verified as read")
        t, b = read_boundary_csv(args.boundary)
        nodes = np.asarray(red.to_canonical_time(t), dtype=float)
        if nodes[0] != 0.0:
            raise ValueError(f"{args.boundary}: first time {float(t[0])!r} "
                             "is not 0")
        if abs(nodes[-1] - 1.0) > 1e-12:
            raise ValueError(f"{args.boundary}: last time {float(t[-1])!r} "
                             f"is not the horizon {params.horizon!r}")
        # solve's own files end at the horizon exactly; the slack accepts
        # files from other writers and earlier versions, whose last t / T
        # may round off 1, which TimeGrid would reject
        nodes[-1] = 1.0
        try:
            grid = TimeGrid(nodes)
        except ValueError as err:
            raise ValueError(f"{args.boundary}: {err}") from err
        solved = SolvedBoundary(red, BoundarySolution(
            grid=grid,
            beta=np.asarray(red.to_canonical_space(b), dtype=float),
            iterations=0, final_residual=math.nan, method="file"))
    else:
        solved = solve_boundary(params, _solver_config(args))

    lines = ["check,statistic,threshold,result"]
    failed = False
    for name, stat, thr, ok in _verify_checks(solved, mc):
        failed = failed or not ok
        lines.append(f"{name},{stat:.10g},{thr:.10g},"
                     f"{'pass' if ok else 'fail'}")
    _emit(lines, args.out)
    return 1 if failed else 0


def cmd_figures(args: argparse.Namespace) -> int:
    base = _solver_config(args)
    outdir = Path(args.out if args.out is not None else "figures")
    outdir.mkdir(parents=True, exist_ok=True)
    solved: dict = {}

    def solve_beta(alpha: float, gamma: float, z: float,
                   n: int) -> SolvedBoundary:
        # Each distinct canonical problem is solved once: +-alpha give the
        # same nodes and values, and the figures share alpha = gamma = 1
        key = (abs(alpha), gamma, z, n)
        if key not in solved:
            solved[key] = solve_boundary(
                OUBParams(alpha=alpha, gamma=gamma, z=z), SolverConfig(n=n))
            _warn_drift_sign(solved[key])
        return solved[key]

    def ztag(z: float) -> str:
        return ("m" if z < 0 else "p") + f"{abs(z):g}" if z else "0"

    for z in _FIG_PINS:
        curves = [solve_beta(a, 1.0, z, base.n)
                  for a in _FIG1_ALPHAS]
        t = curves[0].nodes
        bb = z + _SHEPP * np.sqrt(1.0 - t)
        _write_columns(
            ["t"] + [f"alpha_{a:g}" for a in _FIG1_ALPHAS] + ["bb_ref"],
            [t] + [c.values for c in curves] + [bb],
            str(outdir / f"fig1_z{ztag(z)}.csv"))

    for z in _FIG_PINS:
        curves = [solve_beta(1.0, g, z, base.n)
                  for g in _FIG2_GAMMAS]
        _write_columns(["t"] + [f"gamma_{g:g}" for g in _FIG2_GAMMAS],
                       [curves[0].nodes] + [c.values for c in curves],
                       str(outdir / f"fig2_z{ztag(z)}.csv"))

    for n in _FIG3_SIZES:
        curves = [solve_beta(1.0, 1.0, z, n) for z in _FIG_PINS]
        _write_columns(
            ["t"] + [f"z_{ztag(z)}" for z in _FIG_PINS],
            [curves[0].nodes]
            + [c.values - z for c, z in zip(curves, _FIG_PINS)],
            str(outdir / f"fig3_n{n}.csv"))

    print(f"figure datasets written to {outdir}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "solve":
            return cmd_solve(args)
        if args.subcommand == "value":
            return cmd_value(args)
        if args.subcommand == "verify":
            return cmd_verify(args)
        return cmd_figures(args)
    except (ValueError, OSError, ConvergenceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
