"""Independent Monte Carlo and quadrature verification of a solved boundary.

Paths of the bridge are simulated with the exact Gaussian transition law on
the solver mesh and stopped in continuous time: a path stops the first time
it touches the boundary, joined linearly between nodes, and pays the
boundary there. Between two nodes the path is a bridge between known
values, so whether and when it crosses is drawn from the Brownian-bridge
crossing law (Beaglehole, Dybvig & Zhou 1997; Broadie, Glasserman & Kou
1997), exact up to O((alpha*dt)**2). A path that never crosses before t = 1
pays the pinned value z. This is the rule that oubstop.pricing.value
prices; what remains between the two is the discretisation of the boundary
itself next to the horizon (see simulate_stopped_payoff), so consistency
checks are stated in standard errors plus an allowance for it.

Paths are generated in fixed-size blocks, one splittable rng stream per
(seed, block) pair, and reduced in block order, so results are bitwise
identical for any worker count. Each block walks all its paths one step at
a time, drops paths once they have stopped and draws the same numbers per
step whichever paths are left, so perturbation tests reuse the same draws
across boundary shifts (common random numbers), making the suboptimality
comparison a low-variance paired test.

The module also hosts the brute-force quadrature oracle for the drift
kernel, deliberately independent of the closed form in oubstop.kernel.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bridge import OUBParams, _require_canonical, cond_mean, cond_std, drift
from .kernel import KernelQuery, density
from .solver import BoundarySolution, boundary_eval

__all__ = [
    "MCConfig",
    "MCEstimate",
    "PerturbationEntry",
    "PerturbationReport",
    "simulate_stopped_payoff",
    "perturbation_test",
    "kernel_oracle",
]

# Paths are processed in blocks of a fixed row count, so the block layout (and
# with it every drawn number) is independent of the worker count. A block
# holds one position per path, never the whole path, so memory does not grow
# with the mesh.
_BLOCK_ROWS = 16384

# A step crosses with probability exp(-2*d0*d1/var). Steps with
# d0*d1 >= 18.4*var, where that is below 2**-53, are skipped; each moves a
# path's survival probability by less than 2**-53.
_CROSS_REACH = 18.4


@dataclass(frozen=True)
class MCConfig:
    paths: int
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n: int


@dataclass(frozen=True)
class PerturbationEntry:
    """Estimate for the rule 'stop at boundary + delta', paired against the
    unshifted rule on the same paths."""

    delta: float
    estimate: MCEstimate
    mean_diff: float
    se_diff: float


@dataclass(frozen=True)
class PerturbationReport:
    baseline: MCEstimate
    entries: tuple[PerturbationEntry, ...]


def _estimate(payoffs: np.ndarray) -> MCEstimate:
    n = payoffs.size
    if np.all(payoffs == payoffs[0]):
        # exact reduction for degenerate rules (immediate stop, never stop)
        return MCEstimate(mean=float(payoffs[0]), std_error=0.0, n=n)
    mean = float(np.mean(payoffs))
    se = float(np.std(payoffs, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MCEstimate(mean=mean, std_error=se, n=n)


def _monitor_nodes(sol: BoundarySolution, t0: float):
    grid = sol.grid.nodes
    nodes = np.concatenate(([t0], grid[grid > t0]))
    return nodes, boundary_eval(sol, nodes)


def _step_coefficients(params: OUBParams, nodes: np.ndarray):
    t1 = nodes[:-1]
    t2 = nodes[1:]
    shift = cond_mean(params, t1, np.zeros_like(t1), t2)
    slope = cond_mean(params, t1, np.ones_like(t1), t2) - shift
    sd = cond_std(params, t1, t2)
    return slope, shift, sd


def _advance(x: np.ndarray, k: int, slope, shift, sd,
             noise: np.ndarray) -> np.ndarray:
    """Exact transition over step k; the last step lands on z exactly."""
    return slope[k] * x + shift[k] + sd[k] * noise


def _crossing_fraction(d0, d1, var, gauss, unif):
    """Time of the first crossing inside a step, as a fraction of the step,
    for bridges that start d0 > 0 below a level line, end d1 below it and
    cross it.

    r = tau / (dt - tau) is inverse Gaussian with mean d0/|d1| and shape
    d0**2/var (the Levy law of scale d0**2/var when d1 == 0). It is drawn
    from one normal and one uniform by the Michael-Schucany-Haas method,
    written for 1/r so that no mean enters and d1 == 0 needs no branch.
    """
    a = np.abs(d1)
    c = 2.0 * a * d0 / var
    g2 = gauss * gauss
    inv = (g2 + c + np.abs(gauss) * np.sqrt(g2 + 2.0 * c)) \
        * (var / (2.0 * d0 * d0))
    small = unif * (d0 * inv + a) <= d0 * inv
    with np.errstate(divide="ignore"):
        inv = np.where(small, inv, a * a / (d0 * d0 * inv))
    return 1.0 / (1.0 + inv)


def _block_payoffs(x0: float, coef, var: np.ndarray, levels: np.ndarray,
                   z: float, rng: np.random.Generator,
                   size: int) -> np.ndarray:
    """Payoffs of one block of paths, one row per column of levels.

    levels[k, j] is stopping level j at node k, joined linearly between
    nodes. A path stops the first time it touches the level in continuous
    time and pays the level there. Given both ends of a step, the path is a
    Brownian bridge with variance var[k] up to O((alpha*dt)**2), which gives
    the crossing probability exp(-2*d0*d1/var) for gaps d = level - x and
    the law of the crossing time. A block draws three numbers per path up
    front and one normal per row at every step, whatever has stopped, so a
    path's numbers do not depend on the levels or on the other paths: every
    level column equals the result for that level alone.
    """
    slope, shift, sd = coef
    n_lev = levels.shape[1]
    pay = np.full((n_lev, size), z)
    live = np.repeat((x0 < levels[0])[:, None], size, axis=1)
    pay[~live] = x0
    if not live.any():
        return pay
    reach = _CROSS_REACH * var
    # Given the node values, steps cross independently, so a path stops in
    # the first step where its summed hazard -log(1 - p) reaches its own
    # Exp(1) clock; one normal and one uniform then time the crossing.
    clock = rng.standard_exponential(size)
    gauss = rng.standard_normal(size)
    unif = rng.random(size)
    rows = np.arange(size)
    x = np.full(size, x0)
    gap = levels[0][:, None] - x
    hazard = np.zeros((n_lev, size))
    stops = 0
    for k in range(slope.size):
        noise = rng.standard_normal(size)
        x = _advance(x, k, slope, shift, sd,
                     noise if rows.size == size else noise[rows])
        new = levels[k + 1][:, None] - x
        prod = gap * new
        near = np.flatnonzero(live & (prod < reach[k]))
        if near.size:
            p = np.exp(-2.0 * np.maximum(prod.take(near), 0.0) / var[k])
            with np.errstate(divide="ignore"):
                h = hazard.take(near) - np.log1p(-p)
            np.put(hazard, near, h)
            hit = near[h >= clock[rows[near % rows.size]]]
            j, i = np.divmod(hit, rows.size)
            r = rows[i]
            frac = _crossing_fraction(gap.take(hit), new.take(hit), var[k],
                                      gauss[r], unif[r])
            pay[j, r] = levels[k, j] + (levels[k + 1, j] - levels[k, j]) * frac
            np.put(live, hit, False)
            stops += hit.size
        gap = new
        if 8 * stops >= rows.size:
            keep = live.any(axis=0)
            if not keep.any():
                break
            # compress, unlike boolean indexing, keeps the (level, row)
            # arrays C-contiguous, so flat take/put on them stay cheap
            rows, x = rows[keep], x[keep]
            gap, live, hazard = (np.compress(keep, a, axis=1)
                                 for a in (gap, live, hazard))
            stops = 0
    return pay


def _run_payoffs(params: OUBParams, sol: BoundarySolution, t0: float,
                 x0: float, cfg: MCConfig, deltas: tuple[float, ...]):
    nodes, bounds = _monitor_nodes(sol, t0)
    coef = _step_coefficients(params, nodes)
    var = params.gamma ** 2 * np.diff(nodes)
    levels = bounds[:, None] + np.asarray(deltas, dtype=float)[None, :]
    n_blocks = (cfg.paths + _BLOCK_ROWS - 1) // _BLOCK_ROWS

    def run_block(b: int):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(b,)))
        size = min(_BLOCK_ROWS, cfg.paths - b * _BLOCK_ROWS)
        return _block_payoffs(x0, coef, var, levels, params.z, rng, size)

    if cfg.workers > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            per_block = list(pool.map(run_block, range(n_blocks)))
    else:
        per_block = [run_block(b) for b in range(n_blocks)]

    return list(np.concatenate(per_block, axis=1))


def simulate_stopped_payoff(params: OUBParams, sol: BoundarySolution,
                            t0: float, x0: float,
                            cfg: MCConfig) -> MCEstimate:
    """Monte Carlo estimate of the payoff of the boundary rule started at
    (t0, x0), stopping in continuous time.

    A path pays the boundary where it first touches it, or exactly z if it
    never does; a start at or above the boundary stops immediately with
    zero standard error. On a solved boundary the estimate sits about
    1.4e-3 below value() at N=500: beta is pinned to z one node early, so
    the rule stops too low next to the horizon. That residual shrinks as N
    grows; it is no monitoring bias, since paths stop between nodes too.
    """
    return perturbation_test(params, sol, (), t0, x0, cfg).baseline


def perturbation_test(params: OUBParams, sol: BoundarySolution,
                      deltas, t0: float, x0: float,
                      cfg: MCConfig) -> PerturbationReport:
    """Evaluate shifted rules 'stop at boundary + delta' with common random
    numbers across all deltas.

    The delta = 0 column is bit-identical to simulate_stopped_payoff with
    the same config. If the solved boundary is optimal, no shift improves
    the paired mean beyond noise.
    """
    _require_canonical(params)
    if not (0.0 <= t0 < 1.0):
        raise ValueError("t0 must be in [0, 1)")
    deltas = tuple(float(d) for d in deltas)
    all_payoffs = _run_payoffs(params, sol, t0, x0, cfg, (0.0,) + deltas)
    base = all_payoffs[0]
    entries = []
    for d, pays in zip(deltas, all_payoffs[1:]):
        diff = pays - base
        n = diff.size
        se = float(np.std(diff, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        entries.append(PerturbationEntry(
            delta=d, estimate=_estimate(pays),
            mean_diff=float(np.mean(diff)), se_diff=se))
    return PerturbationReport(baseline=_estimate(base), entries=tuple(entries))


def kernel_oracle(params: OUBParams, q: KernelQuery) -> float:
    """Quadrature ground truth for the drift kernel:

        integral_{x2}^{inf} drift(t2, w) * N(w; m, v^2) dw

    by adaptive quadrature on [x2, m + 12v]; the discarded tail carries a
    Gaussian mass below 1e-30 of the total. Independent of the closed form
    in oubstop.kernel.
    """
    # imported here, its only use: scipy.integrate is a third of the cost
    # of importing oubstop
    from scipy.integrate import quad

    _require_canonical(params)
    m = cond_mean(params, q.t1, q.x1, q.t2)
    v = cond_std(params, q.t1, q.t2)
    hi = m + 12.0 * v
    if q.x2 >= hi:
        return 0.0

    def integrand(w: float) -> float:
        return drift(params, q.t2, w) * density((w - m) / v) / v

    inner = [p for p in (m - 4.0 * v, m, m + 4.0 * v) if q.x2 < p < hi]
    result, _ = quad(integrand, q.x2, hi, epsabs=1e-13, epsrel=1e-12,
                     limit=200, points=inner or None)
    return float(result)
