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
    "picard_solve",
    "backward_solve",
    "boundary_eval",
    "solve_boundary",
]


class ConvergenceError(RuntimeError):
    """Picard iteration missed eps within max_iter sweeps or went
    non-finite, or backward induction found no root at a node. .solution
    is the partial BoundarySolution (iterations and final_residual
    describe the failed run): Picard's last iterate, or the solved nodes,
    the others at z. Where solve_boundary's Picard fallback fails too, the
    message names both failures and .solution is Picard's.
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


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs; defaults follow the reference setup (N = 500,
    logarithmic mesh). backward_solve reads n only: eps (1e-4) is
    picard_solve's tolerance and max_iter caps its sweeps (up to 799 over
    the documented envelope at N = 500)."""

    n: int = 500
    eps: float = 1e-4
    max_iter: int = 2000

    def __post_init__(self) -> None:
        for name, low in (("n", 2), ("max_iter", 1)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}")
        if not (0.0 < self.eps < math.inf):
            raise ValueError("eps must be finite and > 0")

    def build_grid(self) -> TimeGrid:
        """Logarithmically spaced partition t_i = ln(1 + i(e-1)/N).

        Spacing decreases smoothly towards the horizon, where the boundary
        is steep; t_N is forced to 1.0 to absorb rounding.
        """
        i = np.arange(self.n + 1, dtype=float)
        t = np.log1p(i * (math.e - 1.0) / self.n)
        t[-1] = 1.0
        return TimeGrid(t)


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
    if not ((0.0 <= t) & (t <= 1.0)).all():
        raise ValueError("boundary_eval requires t in [0, 1]")
    return np.interp(t, sol.grid.nodes, sol.beta)


def _riemann_rows(params: OUBParams, nodes: np.ndarray, starts):
    """The right Riemann sum of integral_s^1 K(s, ., u, .) du on the grid
    nodes, for each start s in starts (0 <= s < 1), as row offsets head,
    flat arrays (j, w) and the KernelTable of their time pairs (s, t_j).

    Row r sums w * K(s, ., t_j, .) over the right endpoints t_j in
    (s, t_{N-1}], where w is the width from t_j back to the previous
    endpoint, or back to s itself for the first one; its entries are
    head[r]..head[r+1]-1 (the last row's run to the end). The addend ending
    at t_N = 1 is dropped: the kernel is undefined there. A start at or
    past t_{N-1} has an empty row, so np.add.reduceat, which returns the
    entry at the offset for an empty run, needs starts before t_{N-1}.
    Picard, backward induction and pricing.value all take their quadrature
    and kernel table from here.
    """
    starts = np.atleast_1d(np.asarray(starts, dtype=float))
    first = np.searchsorted(nodes, starts, side="right")
    counts = np.maximum(nodes.size - 1 - first, 0)  # endpoints first..N-1
    head = np.cumsum(counts) - counts
    j = np.arange(counts.sum())
    j += np.repeat(first - head, counts)
    w = np.diff(nodes)[j - 1]
    live = counts > 0
    w[head[live]] = nodes[first[live]] - starts[live]
    table = KernelTable(params, np.repeat(starts, counts), nodes[j])
    return head, j, w, table


def _picard_sweep(params: OUBParams, rows, beta: np.ndarray) -> np.ndarray:
    """One full-boundary update of the discretised Volterra equation on the
    Riemann rows (head, j, w, table) of the starts t_0..t_{N-2}, each of
    them non-empty."""
    head, j, w, table = rows
    x1 = np.repeat(beta[:head.size], np.diff(head, append=j.size))
    k = drift_kernel(params, None, x1, None, beta[j], table=table)
    k *= w
    new = np.full_like(beta, params.z)
    new[:head.size] -= np.add.reduceat(k, head)
    return new


def picard_solve(params: OUBParams, cfg: SolverConfig = SolverConfig()) -> BoundarySolution:
    """Solve the discretised free-boundary equation by Picard iteration.

    Starts from the constant boundary z and stops at the first iteration
    whose sup-norm change is below cfg.eps. Raises ConvergenceError (with
    the last iterate attached) if max_iter is exhausted, or at the first
    sweep that gives a non-finite boundary. The sweep count
    depends on the problem (N = 500): 15 at alpha = gamma = 1, z = 0;
    225 at alpha = 5, gamma = 1, z = -5 and 205 at alpha = 1, gamma = 0.5,
    z = -5; 799 at alpha = 5, gamma = 0.5, z = -5.
    """
    _require_canonical(params)
    grid = cfg.build_grid()
    rows = _riemann_rows(params, grid.nodes, grid.nodes[:-2])
    beta = np.full(grid.nodes.size, params.z, dtype=float)
    for k in range(1, cfg.max_iter + 1):
        new = _picard_sweep(params, rows, beta)
        residual = float(np.max(np.abs(new - beta)))
        beta = new
        if residual < cfg.eps or not math.isfinite(residual):
            break
    sol = BoundarySolution(grid=grid, beta=beta, iterations=k,
                           final_residual=residual, method="picard")
    if not math.isfinite(residual):
        raise ConvergenceError(f"Picard sweep {k} gave a non-finite "
                               "boundary", sol)
    if not residual < cfg.eps:
        raise ConvergenceError(
            f"Picard iteration did not reach eps={cfg.eps:g} within "
            f"{cfg.max_iter} sweeps (last residual {residual:.3e})", sol)
    return sol


# Steps (kernel rows) per node in backward_solve; over the 27-case envelope
# at N = 10-500 no node takes more than 11.
_MAX_NODE_STEPS = 40
# Table entries per block of nodes whose Riemann rows backward_solve builds
# at once: blocks cut the setup per node, and a budget, not a node count,
# keeps the block's arrays small at large N (64 nodes at N = 2000 raised
# peak memory by a seventh).
_BLOCK_ENTRIES = 2 ** 15


def _node_root(h, b0: float, step: float, width: float, tol: float):
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
    for steps in range(1, _MAX_NODE_STEPS + 1):
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
    return b, fb, steps, f"|h| = {abs(fb):.3e} after {steps} steps"


def backward_solve(params: OUBParams, cfg: SolverConfig = SolverConfig()) -> BoundarySolution:
    """Solve the discretised free-boundary equation exactly, node by node.

    Row i of the Riemann sum involves beta_i and later nodes only, so from
    the pinned end back each node is a root of h(b) = b - z +
    sum_j w_j K(t_i, b, t_j, beta_j): the first sign change _node_root
    finds from beta_{i+1} within 2*gamma*sqrt(t_{i+1} - t_i) of it (over
    the envelope at N >= 120 smooth boundaries move by less than half
    that), to |h| < 1e-9*max(1, gamma), its first step the last node's move.
    _MAX_NODE_STEPS caps the steps (kernel rows) per node; iterations
    counts them. The Riemann rows (head, j, w, table) of a block of
    consecutive nodes, up to _BLOCK_ENTRIES entries, are built at once;
    its nodes are then solved one at a time, from the last, each on slices
    of them. Of cfg it reads n only. At far pins h can stay just below
    zero near the boundary, its nearest root far off. A node with no root
    in its window, or out of steps, raises ConvergenceError (with the
    partial solution) instead.
    """
    _require_canonical(params)
    grid = cfg.build_grid()
    t, n, z = grid.nodes, grid.n, params.z
    tol = 1e-9 * max(1.0, params.gamma)
    beta = np.full(n + 1, z, dtype=float)
    step = params.gamma * math.sqrt(t[n - 1] - t[n - 2])
    total, worst = 0, 0.0
    block = max(1, _BLOCK_ENTRIES // n)
    for top in range(n - 2, -1, -block):
        low = max(top - block + 1, 0)
        head, j, w, table = _riemann_rows(params, t, t[low:top + 1])
        ends = np.append(head[1:], j.size)
        for i in range(top, low - 1, -1):
            row = slice(head[i - low], ends[i - low])
            x2, wi, ti = beta[j[row]], w[row], table[row]

            def h(b: float) -> float:
                k = drift_kernel(params, None, b, None, x2, table=ti)
                return b - z + float(np.dot(k, wi))

            width = 2.0 * params.gamma * math.sqrt(t[i + 1] - t[i])
            b, hb, steps, error = _node_root(h, beta[i + 1], step, width, tol)
            total += steps
            worst = max(worst, abs(hb))
            if error is not None:
                sol = BoundarySolution(grid=grid, beta=beta, iterations=total,
                                       final_residual=worst,
                                       method="backward")
                raise ConvergenceError(f"backward induction found no root "
                                       f"at node {i}: {error}", sol)
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
        t = np.asarray(t, dtype=float)
        if not ((0.0 <= t) & (t <= params.horizon)).all():
            raise ValueError(f"SolvedBoundary.eval requires t in "
                             f"[0, {params.horizon!r}]")
        tc = self.reduction.to_canonical_time(t)
        out = self.reduction.from_canonical_space(
            boundary_eval(self.canonical, tc))
        return np.where(t == params.horizon, params.z, out)[()]


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
    except ConvergenceError as backward_err:
        try:
            sol = picard_solve(red.canonical, cfg)
        except ConvergenceError as picard_err:
            raise ConvergenceError(f"{backward_err}; then {picard_err}",
                                   picard_err.solution) from backward_err
    return SolvedBoundary(reduction=red, canonical=sol)
