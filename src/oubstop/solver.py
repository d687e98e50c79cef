"""Free-boundary solver for the bridge stopping problem.

The boundary beta solves the nonlinear Volterra equation

    beta(t) = z - integral_t^1 K(t, beta(t), u, beta(u)) du,

discretised on a partition 0 = t_0 < ... < t_N = 1 by a right Riemann sum.
The addend with right endpoint t_N = 1 is dropped: the kernel is undefined
there and the omitted piece is an integrable tail that vanishes as t_{N-1}
approaches 1. Two solution schemes are provided:

* Backward induction, the production path: the system is triangular, so
  one scalar root per node, from beta(1) = z back to t_0, solves it exactly.
* Picard iteration, the paper's scheme: the whole boundary, from the
  constant z, is updated at once until the sup-norm change falls below the
  tolerance. The cross-check, and the production path where backward
  induction finds no root near a node (see backward_solve).

With the dropped addend both schemes force beta(t_{N-1}) = z; the genuine
unknowns are nodes 0..N-2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bridge import (
    CanonicalReduction,
    OUBParams,
    _require_canonical,
    reduce_to_canonical,
)
from .kernel import KernelTable, drift_kernel

__all__ = [
    "TimeGrid",
    "SolverConfig",
    "BoundarySolution",
    "SolvedBoundary",
    "ConvergenceError",
    "log_partition",
    "picard_solve",
    "backward_solve",
    "boundary_eval",
    "solve_boundary",
]


class ConvergenceError(RuntimeError):
    """Picard iteration missed eps within max_iter sweeps, or backward
    induction found no root at a node. .solution is the partial
    BoundarySolution (iterations and final_residual describe the failed
    run): Picard's last iterate, or the solved nodes, the others at z.
    """

    def __init__(self, message: str, solution: BoundarySolution):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing partition of [0, 1] with exact endpoints."""

    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("grid needs at least three nodes")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError("grid endpoints must be exactly 0 and 1")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("grid nodes must be finite, strictly increasing")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def n(self) -> int:
        """Number of intervals N (nodes run 0..N)."""
        return self.nodes.size - 1


def log_partition(n: int) -> TimeGrid:
    """Logarithmically spaced partition t_i = ln(1 + i(e-1)/N).

    Spacing decreases smoothly towards the horizon, where the boundary is
    steep; t_N is forced to 1.0 to absorb rounding.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    i = np.arange(n + 1, dtype=float)
    t = np.log1p(i * (math.e - 1.0) / n)
    t[-1] = 1.0
    return TimeGrid(t)


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs; defaults follow the reference setup (N = 500,
    logarithmic mesh). eps (1e-4) is picard_solve's tolerance only;
    max_iter caps Picard's sweeps and backward_solve's steps per node."""

    n: int = 500
    eps: float = 1e-4
    max_iter: int = 500

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not (self.eps > 0.0):
            raise ValueError("eps must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def build_grid(self) -> TimeGrid:
        return log_partition(self.n)


@dataclass(frozen=True)
class BoundarySolution:
    """A solved boundary on a canonical grid.

    beta is aligned with grid.nodes; beta[-1] == z exactly. iterations and
    final_residual describe the run that produced it.
    """

    grid: TimeGrid
    beta: np.ndarray
    iterations: int
    final_residual: float
    method: str

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta, dtype=float)
        if beta.shape != self.grid.nodes.shape:
            raise ValueError("beta must align with the grid nodes")
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)


def boundary_eval(sol: BoundarySolution, t):
    """Piecewise-linear boundary interpolation; exact at the grid nodes and
    equal to z at t = 1."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("boundary_eval requires t in [0, 1]")
    out = np.interp(t, sol.grid.nodes, sol.beta)
    return out if out.ndim else float(out)


def _riemann_rows(nodes: np.ndarray, starts):
    """The right Riemann sum of integral_s^1 f(u) du on the grid nodes, for
    each start s in starts (0 <= s < 1), as flat arrays (row, j, w).

    Row r (the index of its start) sums w * f(t_j) over the right endpoints
    t_j in (s, t_{N-1}], where w is the width from t_j back to the previous
    endpoint, or back to s itself for the first one. The addend ending at
    t_N = 1 is dropped: the kernel is undefined there. Picard, backward
    induction and pricing.value all take their quadrature from here.
    """
    starts = np.atleast_1d(np.asarray(starts, dtype=float))
    first = np.searchsorted(nodes, starts, side="right")
    counts = np.maximum(nodes.size - 1 - first, 0)  # endpoints first..N-1
    row = np.repeat(np.arange(starts.size), counts)
    head = np.cumsum(counts) - counts  # flat index of each row's first entry
    j = np.arange(row.size)
    j += np.repeat(first - head, counts)
    w = np.diff(nodes)[j - 1]
    live = counts > 0
    w[head[live]] = nodes[first[live]] - starts[live]
    return row, j, w


def _triangle(params: OUBParams, grid: TimeGrid):
    # The Riemann rows of the starts t_0..t_{N-2} as one flat operator,
    # built once per solve: a sweep only gathers beta at both ends of each
    # pair.
    t = grid.nodes
    i_idx, j_idx, w = _riemann_rows(t, t[:-2])
    return {"i": i_idx, "j": j_idx, "w": w, "n": grid.n,
            "table": KernelTable(params, t[i_idx], t[j_idx])}


def _picard_sweep(params: OUBParams, tri, beta: np.ndarray) -> np.ndarray:
    """One full-boundary update of the discretised Volterra equation."""
    k = drift_kernel(params, None, beta[tri["i"]], None, beta[tri["j"]],
                     table=tri["table"])
    k *= tri["w"]
    sums = np.bincount(tri["i"], weights=k, minlength=tri["n"])
    new = np.empty_like(beta)
    new[:-1] = params.z - sums
    new[-1] = params.z
    return new


def picard_solve(params: OUBParams, cfg: SolverConfig = SolverConfig()) -> BoundarySolution:
    """Solve the discretised free-boundary equation by Picard iteration.

    Starts from the constant boundary z and stops at the first iteration
    whose sup-norm change is below cfg.eps. Raises ConvergenceError (with
    the last iterate attached) if max_iter is exhausted. The sweep count
    depends on the problem: 15 at alpha = gamma = 1, z = 0, but 205-225 at
    z = -5 with alpha = 5 or gamma = 0.5 (N = 500).
    """
    _require_canonical(params)
    grid = cfg.build_grid()
    tri = _triangle(params, grid)
    beta = np.full(grid.nodes.size, params.z, dtype=float)
    for k in range(1, cfg.max_iter + 1):
        new = _picard_sweep(params, tri, beta)
        residual = float(np.max(np.abs(new - beta)))
        beta = new
        if residual < cfg.eps:
            break
    sol = BoundarySolution(grid=grid, beta=beta, iterations=k,
                           final_residual=residual, method="picard")
    if not residual < cfg.eps:  # also when the sweeps went non-finite
        raise ConvergenceError(
            f"Picard iteration did not reach eps={cfg.eps:g} within "
            f"{cfg.max_iter} sweeps (last residual {residual:.3e})", sol)
    return sol


def _node_root(h, b0: float, step: float, width: float, tol: float,
               max_steps: int):
    """The first sign change of h, which rises through it, from b0 out.

    Until h changes sign each step heads down where h > 0 and up otherwise,
    never past b0 +- width: by the secant through the last two points, or
    by twice the last step (first: step) where that is shorter or the
    secant turns back. Illinois steps (regula falsi halving h at an end
    kept twice running) then close in until |h| < tol or the bracket is at
    rounding width. Returns (b, h(b), steps, error), error None on success.
    """
    a = fa = b = fb = math.nan  # the last two points; h(a)h(b) < 0 once
    x, bracketed = b0, False
    for steps in range(1, max_steps + 1):
        fx = h(x)
        if not math.isfinite(fx):
            return x, fx, steps, "h is not finite"
        if abs(fx) < tol:
            return x, fx, steps, None
        if bracketed and (fx > 0.0) == (fb > 0.0):
            fa *= 0.5
        else:
            bracketed = bracketed or (steps > 1 and (fx > 0.0) != (fb > 0.0))
            a, fa = b, fb
        b, fb = x, fx
        secant = b - fb * (b - a) / (fb - fa) if fb != fa else math.nan
        if bracketed:
            if abs(b - a) < 1e-15 * (1.0 + abs(b)):
                return b, fb, steps, None
            x = secant
            continue
        step = math.copysign(step, -fb)
        x = secant if 0.0 < (secant - b) / step < 1.0 else b + step
        x = min(max(x, b0 - width), b0 + width)
        if x == b:
            return b, fb, steps, f"h keeps its sign within {width:.3g}"
        step = 2.0 * (x - b)
    return b, fb, max_steps, f"|h| = {abs(fb):.3e} after {max_steps} steps"


def backward_solve(params: OUBParams, cfg: SolverConfig = SolverConfig()) -> BoundarySolution:
    """Solve the discretised free-boundary equation exactly, node by node.

    Row i of the Riemann sum involves beta_i and later nodes only, so from
    the pinned end back each node is a root of h(b) = b - z +
    sum_j w_j K(t_i, b, t_j, beta_j): the first sign change _node_root
    finds from beta_{i+1} within 2*gamma*sqrt(t_{i+1} - t_i) of it (over
    the envelope at N >= 120 smooth boundaries move by less than half
    that), to |h| < 1e-9*max(1, gamma), its first step the last node's move.
    cfg.max_iter caps the steps (kernel rows) per node; iterations counts
    them. At far pins h can stay just below zero near the boundary, its
    nearest root far off. A node with no root in its window, or out of
    steps, raises ConvergenceError (with the partial solution) instead.
    """
    _require_canonical(params)
    grid = cfg.build_grid()
    t, n, z = grid.nodes, grid.n, params.z
    tol = 1e-9 * max(1.0, params.gamma)
    beta = np.full(n + 1, z, dtype=float)
    step = params.gamma * math.sqrt(t[n - 1] - t[n - 2])
    total, worst = 0, 0.0
    for i in range(n - 2, -1, -1):
        _, j, w = _riemann_rows(t, t[i])
        x2 = beta[j]
        table = KernelTable(params, t[i], t[j])

        def h(b: float) -> float:
            k = drift_kernel(params, None, b, None, x2, table=table)
            return b - z + float(np.dot(k, w))

        width = 2.0 * params.gamma * math.sqrt(t[i + 1] - t[i])
        b, hb, steps, error = _node_root(h, beta[i + 1], step, width, tol,
                                         cfg.max_iter)
        total += steps
        worst = max(worst, abs(hb))
        if error is not None:
            sol = BoundarySolution(grid=grid, beta=beta, iterations=total,
                                   final_residual=worst, method="backward")
            raise ConvergenceError(f"backward induction found no root at "
                                   f"node {i}: {error}", sol)
        beta[i] = b
        step = max(abs(b - beta[i + 1]), tol)

    return BoundarySolution(grid=grid, beta=beta, iterations=total,
                            final_residual=worst, method="backward")


@dataclass(frozen=True)
class SolvedBoundary:
    """A boundary for general (theta, horizon) parameters.

    Wraps the canonical solution along with the affine reduction; nodes and
    values are exposed in original coordinates.
    """

    reduction: CanonicalReduction
    canonical: BoundarySolution
    nodes: np.ndarray = field(init=False)
    values: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        nodes = self.reduction.from_canonical_time(self.canonical.grid.nodes)
        values = self.reduction.from_canonical_space(self.canonical.beta)
        values[-1] = self.reduction.original.z  # pin exactly
        nodes.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    def eval(self, t):
        """Boundary value at original time t in [0, horizon]."""
        params = self.reduction.original
        tc = self.reduction.to_canonical_time(t)
        out = self.reduction.from_canonical_space(
            boundary_eval(self.canonical, tc))
        out = np.where(np.asarray(t, dtype=float) == params.horizon,
                       params.z, out)
        return out if out.ndim else float(out)


def solve_boundary(params: OUBParams,
                   cfg: SolverConfig = SolverConfig()) -> SolvedBoundary:
    """Solve for general parameters on the canonical problem: by backward
    induction, or by Picard iteration (smooth, stopped at cfg.eps) where
    that raises ConvergenceError.

    The reduction is exact (affine), so equivariance in the pulling level
    and the horizon holds node-wise up to the shared canonical solve.
    """
    red = reduce_to_canonical(params)
    try:
        sol = backward_solve(red.canonical, cfg)
    except ConvergenceError:
        sol = picard_solve(red.canonical, cfg)
    return SolvedBoundary(reduction=red, canonical=sol)
