"""Free-boundary solver for the bridge stopping problem.

The boundary beta solves the nonlinear Volterra equation

    beta(t) = z - integral_t^1 K(t, beta(t), u, beta(u)) du,

discretised on a partition 0 = t_0 < ... < t_N = 1 by a right Riemann sum.
The addend with right endpoint t_N = 1 is dropped: the kernel is undefined
there and the omitted piece is an integrable tail that vanishes as t_{N-1}
approaches 1. Two solution schemes are provided:

* Picard iteration: starting from the constant boundary z, the whole
  discretised boundary is updated at once until the sup-norm change falls
  below the tolerance. This is the production path.
* Backward induction: node-by-node scalar solves from the known terminal
  value beta(1) = z, kept as a cross-check.

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
    "ScalarSolveError",
    "log_partition",
    "picard_solve",
    "backward_solve",
    "boundary_eval",
    "solve_boundary",
]


class ConvergenceError(RuntimeError):
    """Picard iteration failed to meet the tolerance within max_iter.

    Carries the last iterate and its residual so callers can inspect or
    persist the partial result.
    """

    def __init__(self, message: str, beta_last: np.ndarray, residual: float,
                 iterations: int):
        super().__init__(message)
        self.beta_last = beta_last
        self.residual = residual
        self.iterations = iterations


class ScalarSolveError(RuntimeError):
    """A backward-induction scalar solve found no bracket; carries the
    failing node index."""

    def __init__(self, message: str, node: int):
        super().__init__(message)
        self.node = node


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
    tolerance 1e-4, logarithmic mesh)."""

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
    return {
        "i": i_idx,
        "j": j_idx,
        "w": w,
        "table": KernelTable(params, t[i_idx], t[j_idx]),
        "n": grid.n,
    }


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
    residual = math.inf
    for k in range(1, cfg.max_iter + 1):
        new = _picard_sweep(params, tri, beta)
        residual = float(np.max(np.abs(new - beta)))
        beta = new
        if residual < cfg.eps:
            return BoundarySolution(grid=grid, beta=beta, iterations=k,
                                    final_residual=residual, method="picard")
    raise ConvergenceError(
        f"Picard iteration did not reach eps={cfg.eps:g} within "
        f"{cfg.max_iter} sweeps (last residual {residual:.3e})",
        beta_last=beta, residual=residual, iterations=cfg.max_iter)


def backward_solve(params: OUBParams, cfg: SolverConfig = SolverConfig()) -> BoundarySolution:
    """Solve node-by-node from the pinned terminal value.

    At node i the scalar equation b = z - sum_j w_j K(t_i, b, t_j, beta_j),
    over node i's Riemann row, is solved with the later nodes fixed: plain
    fixed-point steps first, damped by 0.5 after 20 steps, with a bisection
    fallback on the bracket [z - 10*gamma, z + 10*gamma].
    """
    _require_canonical(params)
    grid = cfg.build_grid()
    t = grid.nodes
    n = grid.n
    z = params.z
    tol = 1e-9 * max(1.0, params.gamma)
    beta = np.full(n + 1, z, dtype=float)
    total_iters = 0
    worst = 0.0

    for i in range(n - 2, -1, -1):
        _, j, w = _riemann_rows(t, t[i])
        x2 = beta[j]
        table = KernelTable(params, t[i], t[j])

        def g(b: float) -> float:
            k = drift_kernel(params, None, b, None, x2, table=table)
            return z - float(np.dot(k, w))

        b = beta[i + 1]
        solved = False
        for it in range(80):
            gb = g(b)
            total_iters += 1
            if abs(gb - b) < tol:
                b = gb
                solved = True
                break
            b = gb if it < 20 else b + 0.5 * (gb - b)
        if not solved:
            lo = z - 10.0 * params.gamma
            hi = z + 10.0 * params.gamma
            h_lo = lo - g(lo)
            h_hi = hi - g(hi)
            if h_lo == 0.0:
                b = lo
            elif h_hi == 0.0:
                b = hi
            elif h_lo * h_hi > 0.0:
                raise ScalarSolveError(
                    f"no sign change on [z-10*gamma, z+10*gamma] at node {i}",
                    node=i)
            else:
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    h_mid = mid - g(mid)
                    total_iters += 1
                    if abs(h_mid) < tol or (hi - lo) < 1e-15 * (1.0 + abs(mid)):
                        break
                    if (h_mid > 0.0) == (h_hi > 0.0):
                        hi, h_hi = mid, h_mid
                    else:
                        lo, h_lo = mid, h_mid
                b = 0.5 * (lo + hi)
        beta[i] = b
        worst = max(worst, abs(b - g(b)))

    return BoundarySolution(grid=grid, beta=beta, iterations=total_iters,
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
    """Solve for general parameters by Picard iteration on the canonical
    problem.

    The reduction is exact (affine), so equivariance in the pulling level
    and the horizon holds node-wise up to the shared canonical solve.
    """
    red = reduce_to_canonical(params)
    return SolvedBoundary(reduction=red,
                          canonical=picard_solve(red.canonical, cfg))
