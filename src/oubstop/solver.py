"""Free-boundary solver for the bridge stopping problem.

The boundary beta solves the nonlinear Volterra equation

    beta(t) = z - integral_t^1 K(t, beta(t), u, beta(u)) du,

discretised on a partition 0 = t_0 < ... < t_N = 1 by a right Riemann sum.
The addend with right endpoint t_N = 1 is dropped: the kernel is undefined
there and the omitted piece is an integrable tail that vanishes as t_{N-1}
approaches 1. _Riemann is that rule, the one that the two solution schemes
below and pricing.value read.

* Backward induction, the production path: the system is triangular, so
  one scalar root per node, from beta(1) = z back to t_0, solves it exactly.
* Picard iteration, the paper's scheme: the whole boundary, from the
  drift-sign bound, is updated at once, Anderson-mixed (_anderson), until
  the sup-norm change falls below the tolerance. The cross-check, and the
  production path where backward induction finds no root near a node (see
  backward_solve).

With the dropped addend both schemes force beta(t_{N-1}) = z; the genuine
unknowns are nodes 0..N-2.
"""
from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field

import numpy as np

from .bridge import (CanonicalReduction, OUBParams, _require_canonical,
                     reduce_to_canonical)
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
    message names both failures and .solution is Picard's."""

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


def _require_integers(config, **lows) -> None:
    """ValueError unless each field named in lows is an int >= its low."""
    for name, low in lows.items():
        value = getattr(config, name)
        if (not isinstance(value, (int, np.integer))
                or isinstance(value, bool) or value < low):
            raise ValueError(f"{name} must be an integer >= {low}")


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs; defaults follow the reference setup (N = 500,
    logarithmic mesh). backward_solve reads n only: eps (1e-4) is
    picard_solve's tolerance, relative to gamma, and max_iter caps its
    sweeps (up to 281 over the envelope at N = 500, 382 over the grid)."""

    n: int = 500
    eps: float = 1e-4
    max_iter: int = 2000

    def __post_init__(self) -> None:
        _require_integers(self, n=2, max_iter=1)
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


def _drift_sign_bound(params: OUBParams, t):
    """z/cosh(alpha(1 - t)): the drift is > 0 below it, so waiting pays."""
    return params.z / np.cosh(params.alpha * (1.0 - t))


def boundary_eval(sol: BoundarySolution, t):
    """Piecewise-linear boundary interpolation; exact at the grid nodes and
    equal to z at t = 1."""
    t = np.asarray(t, dtype=float)
    if not ((0.0 <= t) & (t <= 1.0)).all():
        raise ValueError("boundary_eval requires t in [0, 1]")
    return np.interp(t, sol.grid.nodes, sol.beta)


# Table entries per block of rows or per evaluation of a row: a budget, not
# a row count, bounds a block at any N (64 rows at N = 2000 raised peak 1/7).
_BLOCK_ENTRIES = 2 ** 15


@dataclass(frozen=True, eq=False)
class _Riemann:
    """The right Riemann sum of integral_s^1 K(s, ., u, .) du on the nodes:
    row s sums w * K(s, ., t_j, .) over the endpoints t_j in (s, t_{N-1}],
    w the smaller of t_j - t_{j-1} and t_j - s. The addend ending at t_N = 1
    is dropped (K is undefined there), so a start at or past t_{N-1} has an
    empty row. The rule keeps no rows: a solve holds those it builds."""

    params: OUBParams
    nodes: np.ndarray

    def rows(self, starts):
        """The rows of the starts (0 <= s < 1) as (offsets, table, x2): row
        r's entries are offsets[r]..offsets[r+1]-1, table their KernelTable
        (gaps from the mesh, unchecked), and x2(beta, out=None) gathers the
        node values beta onto their endpoints."""
        nodes = self.nodes
        starts = np.atleast_1d(np.asarray(starts, dtype=float))
        first = np.searchsorted(nodes, starts, side="right")
        counts = np.maximum(nodes.size - 1 - first, 0)  # endpoints first..N-1
        offsets = np.concatenate(([0], np.cumsum(counts)))
        j = np.arange(offsets[-1])
        j += np.repeat(first - offsets[:-1], counts)
        s, u = np.repeat(starts, counts), nodes[j]
        gap = u - s
        w = np.minimum(np.diff(nodes)[j - 1], gap)
        rem1 = np.subtract(1.0, s, out=s)
        rem2 = np.subtract(1.0, u, out=u)
        table = KernelTable(self.params, rem1, gap, rem2, w)
        return offsets, table, lambda beta, out=None: np.take(beta, j, out=out)

    def row(self, t: float):
        """The row of t as (table, x2, step): step x1 per kernel evaluation
        keep it within _BLOCK_ENTRIES entries."""
        offsets, table, x2 = self.rows(t)
        return table, x2, max(1, _BLOCK_ENTRIES // max(int(offsets[-1]), 1))

    def blocks(self):
        """The rows of t_0..t_{N-2} in blocks of consecutive rows, of at most
        _BLOCK_ENTRIES entries or one row, from the last back: pairs (lo,
        rows of t_lo..t_{hi-1}), generated one at a time."""
        n2, hi = 2 * self.nodes.size - 2, self.nodes.size - 2  # n2 = 2N
        while hi > 0:
            lo = hi - 1  # rows lo-1..hi-1 hold (hi-lo+1)(n2-lo-hi)/2 entries
            while lo and (hi - lo + 1) * (n2 - lo - hi) <= 2 * _BLOCK_ENTRIES:
                lo -= 1
            yield lo, self.rows(self.nodes[lo:hi])
            hi = lo

    def sweep(self):
        """The full-boundary update as a function of beta, which keeps every
        block (rows nonempty, as np.add.reduceat needs) and two work arrays."""
        params, blocks = self.params, list(self.blocks())
        work = np.empty((2, max(rows[0][-1] for _, rows in blocks)))

        def sweep(beta: np.ndarray) -> np.ndarray:
            new = np.full_like(beta, params.z)
            for lo, (offsets, table, gather) in blocks:
                hi = lo + offsets.size - 1
                x1 = np.repeat(beta[lo:hi], np.diff(offsets))
                x2, k = work[:, :offsets[-1]]
                gather(beta, out=x2)
                drift_kernel(params, None, x1, None, x2, table=table,
                             _work=(x1, x2, k))
                new[lo:hi] -= np.add.reduceat(k, offsets[:-1])
            return new

        return sweep


# Differences that _anderson's mixing keeps (Walker & Ni 2011).
_MIX_DEPTH = 5


def _anderson(sweep, x0: np.ndarray, tol: float, max_iter: int):
    """Anderson-mixed iteration of sweep G from x0 (Walker & Ni 2011), as
    (x, sweeps, change): the first x whose change sup|G(x) - x| is below
    tol, or the last x swept after max_iter sweeps or a non-finite change.
    Otherwise the next iterate is G(x) less a combination of the last
    _MIX_DEPTH differences of sweep outputs, its coefficients the
    least-squares fit of G(x) - x by the differences of sweep changes.
    Where a mixed iterate's change is not smaller than the previous one,
    G(x) itself is the next iterate and the differences start afresh."""
    x = x0
    dg, df = [], []  # differences of sweep outputs and of sweep changes
    last = None  # the previous sweep's (output, change, sup-norm change)
    for k in range(1, max_iter + 1):
        g = sweep(x)
        f = g - x
        residual = float(np.max(np.abs(f)))
        if not tol <= residual < math.inf or k == max_iter:
            break
        x = g
        if df and not residual < last[2]:  # swept a mixed iterate, no better
            dg, df, last = [], [], None
            continue
        if last is not None:
            dg.append(g - last[0])
            df.append(f - last[1])
            if len(df) > _MIX_DEPTH:
                del dg[0], df[0]
        last = g, f, residual
        if df:
            c = np.linalg.lstsq(np.array(df).T, f, rcond=None)[0]
            x = g - c @ np.array(dg)
    return x, k, residual


# Shepp's constant L: near the horizon beta ~ z + L*gamma*sqrt(1 - t).
_SHEPP = 0.8399


def picard_solve(params: OUBParams, cfg: SolverConfig = SolverConfig()) -> BoundarySolution:
    """Solve the discretised free-boundary equation by Picard iteration,
    Anderson-mixed (_anderson), from max(z/cosh(alpha(1 - t)), z +
    _SHEPP*gamma*sqrt(1 - t)), z at t_{N-1} and t_N: the drift-sign bound,
    below which waiting pays, or Shepp's asymptote where that is higher.

    Returns the first iterate whose sweep changes it by less than
    cfg.eps*gamma, that change its final_residual; iterations counts the
    sweeps, max_iter caps them. Raises ConvergenceError, with the last
    iterate swept and its change, if max_iter is exhausted or a sweep gives
    a non-finite boundary. At N = 500 it takes 10 sweeps at alpha = gamma =
    1, z = 0, 30 at alpha = 1, gamma = 0.5, z = -5, at most 382 over the
    168 grid problems. Its sweep keeps the row blocks, 7 arrays over
    N(N-1)/2 entries (j and the weighted table): 112 MB at N = 2000.
    """
    _require_canonical(params)
    grid = cfg.build_grid()
    t, z, eps = grid.nodes, params.z, cfg.eps * params.gamma
    x = np.maximum(_drift_sign_bound(params, t),
                   z + _SHEPP * params.gamma * np.sqrt(1.0 - t))
    x[-2:] = z
    x, k, residual = _anderson(_Riemann(params, t).sweep(), x, eps,
                               cfg.max_iter)
    sol = BoundarySolution(grid=grid, beta=x, iterations=k,
                           final_residual=residual, method="picard")
    if not math.isfinite(residual):
        raise ConvergenceError(f"Picard sweep {k} gave a non-finite "
                               "boundary", sol)
    if not residual < eps:
        raise ConvergenceError(
            f"Picard iteration did not reach eps*gamma={eps:g} within "
            f"{cfg.max_iter} sweeps (last residual {residual:.3e})", sol)
    return sol


# Steps (kernel rows) per node in backward_solve; over the 27-case envelope
# at N = 10-500 no node takes more than 24.
_MAX_NODE_STEPS = 40


def _node_root(h, x: float, b0: float, width: float, step: float,
               slope: float, gamma: float):
    """The first sign change of h, which rises through it, from x out.

    x is first clamped into b0 +- width. Until h changes sign each step
    heads down where h > 0 and up otherwise, never past b0 +- width: by the
    secant through the last two points (first: the Newton step by slope), or
    by twice the last step (first: step) where that is shorter or the secant
    turns back. Illinois steps (regula falsi halving h at an end kept twice
    running) then close in until |h| < 1e-12*gamma or the bracket is
    narrower than 1e-15*(gamma + |b|): h and b are in units of gamma, so
    every tolerance scales with it. Returns (b, h(b), slope, steps, error),
    error None on success; slope is the secant of h's last two points, the
    given one where the first is accepted.
    """
    a = fa = b = fb = math.nan  # the last two points; h(a)h(b) < 0 once
    x, bracketed = min(max(x, b0 - width), b0 + width), False
    for steps in range(1, _MAX_NODE_STEPS + 1):
        fx = h(x)
        if not math.isfinite(fx):
            return x, fx, slope, steps, "h is not finite"
        if steps > 1 and x != b:
            slope = (fx - fb) / (x - b)
        if abs(fx) < 1e-12 * gamma:
            return x, fx, slope, steps, None
        if bracketed and (fx > 0.0) == (fb > 0.0):
            fa *= 0.5
        else:
            bracketed = bracketed or (steps > 1 and (fx > 0.0) != (fb > 0.0))
            a, fa = b, fb
        b, fb = x, fx
        if bracketed:
            if abs(b - a) < 1e-15 * (gamma + abs(b)):
                return b, fb, slope, steps, None
            x = b - fb * (b - a) / (fb - fa)
            continue
        step = math.copysign(step, -fb)
        x = b - fb / slope if slope else math.nan
        x = x if 0.0 < (x - b) / step < 1.0 else b + step
        x = min(max(x, b0 - width), b0 + width)
        if x == b:
            return b, fb, slope, steps, f"h keeps its sign within {width:.3g}"
        step = 2.0 * (x - b)
    return b, fb, slope, steps, f"|h| = {abs(fb):.3e} after {steps} steps"


# u^2 = inf in KernelTable.residual (gamma 1e-100, |z| 1e90): exp(-u^2) = 0
@np.errstate(over="ignore")
def backward_solve(params: OUBParams, cfg: SolverConfig = SolverConfig()) -> BoundarySolution:
    """Solve the discretised free-boundary equation exactly, node by node.

    Row i of the Riemann sum involves beta_i and later nodes only, so from
    the pinned end back each node is a root of h(b) = b - z +
    sum_j w_j K(t_i, b, t_j, beta_j) within 2*gamma*sqrt(t_{i+1} - t_i) of
    beta_{i+1} (over the envelope at N >= 120 smooth boundaries move by
    less than half that). Each node is one _node_root search, accepted at
    |h| < 1e-12*gamma. Node i starts at the quadratic extrapolation of
    beta_{i+1..i+3} (the two nodes before t_{N-1}: at beta_{i+1}); its
    first step is the Newton step by the slope of h that the last node's
    search measured (1 at first), at most the last node's move.
    _MAX_NODE_STEPS caps the steps (kernel rows) per node; iterations
    counts them. The rule's row blocks (_Riemann.blocks) are built one at a
    time, from the last, and their nodes solved from the last, each on its
    row of the block's weighted table (KernelTable.residual). Of cfg it
    reads n only. At far pins h can stay just below zero near the
    boundary, its nearest root far off. A node with no root in its window,
    or out of steps, raises ConvergenceError (with the partial solution)
    instead.
    """
    _require_canonical(params)
    grid = cfg.build_grid()
    t, n, z = grid.nodes, grid.n, params.z
    beta = np.full(n + 1, z, dtype=float)
    tl = t.tolist()
    b1 = b2 = b3 = z  # beta_{i+1}, beta_{i+2}, beta_{i+3}
    step = params.gamma * math.sqrt(tl[n - 1] - tl[n - 2])
    slope = 1.0
    work = np.empty((3, n))
    total, worst = 0, 0.0
    for low, (offsets, table, x2) in _Riemann(params, t).blocks():
        offsets = offsets.tolist()
        for i in range(low + len(offsets) - 2, low - 1, -1):
            h = table.residual(slice(offsets[i - low], offsets[i - low + 1]),
                               beta[i + 1:n], z, work)
            width = 2.0 * params.gamma * math.sqrt(tl[i + 1] - tl[i])
            x = b1
            if i + 3 < n:
                t0, t1, t2, t3 = tl[i:i + 4]
                x = (b1 * (t0 - t2) * (t0 - t3) / ((t1 - t2) * (t1 - t3))
                     + b2 * (t0 - t1) * (t0 - t3) / ((t2 - t1) * (t2 - t3))
                     + b3 * (t0 - t1) * (t0 - t2) / ((t3 - t1) * (t3 - t2)))
            b, hb, slope, steps, error = _node_root(h, x, b1, width, step,
                                                    slope, params.gamma)
            total += steps
            worst = max(worst, abs(hb))
            if error is not None:
                sol = BoundarySolution(grid=grid, beta=beta, iterations=total,
                                       final_residual=worst, method="backward")
                raise ConvergenceError(f"backward induction found no root "
                                       f"at node {i}: {error}", sol)
            beta[i] = b
            step = max(abs(b - b1), 1e-12 * params.gamma)
            b1, b2, b3 = b, b1, b2
        del table, x2, h  # free the block before the next is built

    return BoundarySolution(grid=grid, beta=beta, iterations=total,
                            final_residual=worst, method="backward")


@dataclass(frozen=True)
class SolvedBoundary:
    """A boundary for general (theta, horizon) parameters.

    Wraps the canonical solution along with the affine reduction; nodes and
    values are exposed in original coordinates. drift_margin is, canonical,
    (beta_i - z/cosh(alpha(1 - t_i))) / (gamma*sqrt(t_{i+1} - t_i)) at the
    solved nodes 0..N-2: the true boundary stays above that drift-sign
    bound, so a node at or below 0 shows a mesh too coarse for the pull.
    """

    reduction: CanonicalReduction
    canonical: BoundarySolution
    nodes: np.ndarray = field(init=False)
    values: np.ndarray = field(init=False)
    drift_margin: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        params, t = self.reduction.canonical, self.canonical.grid.nodes
        nodes = self.reduction.from_canonical_time(t)
        values = self.reduction.from_canonical_space(self.canonical.beta)
        values[-1] = self.reduction.original.z  # pin exactly
        with np.errstate(over="ignore"):  # far-out partial boundaries: +-inf
            gap = self.canonical.beta[:-2] - _drift_sign_bound(params, t[:-2])
            margin = gap / (params.gamma * np.sqrt(np.diff(t[:-1])))
        for name, array in (("nodes", nodes), ("values", values),
                            ("drift_margin", margin)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def eval(self, t):
        """Piecewise-linear boundary at original time t in [0, horizon]."""
        t = np.asarray(t, dtype=float)
        horizon = float(self.nodes[-1])  # the horizon exactly
        if not ((0.0 <= t) & (t <= horizon)).all():
            raise ValueError(f"SolvedBoundary.eval requires t in "
                             f"[0, {horizon!r}]")
        return np.interp(t, self.nodes, self.values)[()]


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
        traceback.clear_frames(backward_err.__traceback__)  # frees row blocks
        try:
            sol = picard_solve(red.canonical, cfg)
        except ConvergenceError as picard_err:
            raise ConvergenceError(f"{backward_err}; then {picard_err}",
                                   picard_err.solution) from backward_err
    return SolvedBoundary(reduction=red, canonical=sol)
