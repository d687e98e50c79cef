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
identical for any worker count. Paths come in antithetic twins: paths 2i
and 2i+1 of a block take the step normals +Z and -Z (Glasserman 2004,
section 4.2), so a step draws one normal per pair and each path keeps its
exact Gaussian law; a last odd path takes +Z alone. Each block walks all
its paths one step at a time and draws the same numbers per step whichever
paths are left, so perturbation tests reuse the same draws across boundary
shifts (common random numbers), making the suboptimality comparison a
low-variance paired test. The step loop only finds the step in which each
path stops; crossing times and payoffs are computed for many stops at
once, in batches and after the last step. A block drops its stopped paths
only once they are half of its paths, since copying its work arrays costs
more than walking a few stopped paths.

Twins are dependent, so a standard error is the larger of the formula for
independent paths and the one over independent units (a twin pair or a
last odd path): no check built on it is tighter than without twins. For
the stopped payoff the twins are anti-correlated and the realised error is
about 0.65x the reported one; for paired differences the unit formula is
the larger by a few per cent.

The module also hosts the quadrature oracle for the drift kernel, fixed
Gauss-Legendre panels over the conditional law in plain numpy, deliberately
independent of the closed form in oubstop.kernel.
"""
from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bridge import (OUBParams, _require_canonical, _sinh_factors, cond_mean,
                     cond_std, drift)
from .kernel import KernelQuery, density
from .solver import BoundarySolution, _require_integers, boundary_eval

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
# with the mesh. The count is even, so no twin pair straddles two blocks.
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
        _require_integers(self, paths=1, seed=0, workers=1)


@dataclass(frozen=True)
class MCEstimate:
    """Mean payoff over n paths. std_error is the larger of the
    independent-path standard error and the one over twin units (pairs of
    paths with opposite step normals, and a last odd path), 0 with fewer
    than two paths or when all payoffs are equal. A stopped payoff's
    realised error is about 0.65x the reported one."""

    mean: float
    std_error: float
    n: int


@dataclass(frozen=True)
class PerturbationEntry:
    """Estimate for the rule 'stop at boundary + delta', paired against the
    unshifted rule on the same paths; se_diff is the standard error of
    mean_diff by MCEstimate's rule."""

    delta: float
    estimate: MCEstimate
    mean_diff: float
    se_diff: float


@dataclass(frozen=True)
class PerturbationReport:
    baseline: MCEstimate
    entries: tuple[PerturbationEntry, ...]


def _std_error(x: np.ndarray) -> float:
    """Standard error of the mean of per-path values x, paths in twin
    pairs (2i, 2i+1): the larger of the formula for independent paths and
    the one over independent units, a pair or a last odd path, each
    weighted by its size. With fewer than two pairs only the first. Exactly
    0 when all values are equal: the rounded mean of equal values can
    differ from them and leave a spurious spread."""
    n = x.size
    if n < 2 or np.all(x == x[0]):
        return 0.0
    se = float(np.std(x, ddof=1)) / math.sqrt(n)
    if n < 4:
        return se
    mean = np.mean(x)
    resid = x[:n - 1:2] + x[1::2] - 2.0 * mean
    ss = float(resid @ resid)
    if n % 2:
        ss += float(x[-1] - mean) ** 2
    units = n - n // 2
    return max(se, math.sqrt(ss * units / (units - 1)) / n)


def _estimate(payoffs: np.ndarray) -> MCEstimate:
    n = payoffs.size
    if np.all(payoffs == payoffs[0]):
        # exact reduction for degenerate rules (immediate stop, never stop)
        return MCEstimate(mean=float(payoffs[0]), std_error=0.0, n=n)
    return MCEstimate(mean=float(np.mean(payoffs)),
                      std_error=_std_error(payoffs), n=n)


def _monitor_nodes(sol: BoundarySolution, t0: float):
    grid = sol.grid.nodes
    nodes = np.concatenate(([t0], grid[grid > t0]))
    return nodes, boundary_eval(sol, nodes)


def _step_coefficients(params: OUBParams, nodes: np.ndarray):
    """Step k's exact transition: cond_mean slope[k]*x + shift[k], sd[k]."""
    den, s_gap, s_rem = _sinh_factors(params, 1.0 - nodes[:-1],
                                      np.diff(nodes), 1.0 - nodes[1:])
    var = params.gamma ** 2 / abs(params.alpha) * s_rem * s_gap / den
    return s_rem / den, params.z * (s_gap / den), np.sqrt(var)


def _advance(x: np.ndarray, k: int, slope, shift, sd,
             noise: np.ndarray) -> np.ndarray:
    """Exact transition over step k, in place: x becomes its new value and
    noise its scaled value, and x is returned. The last step lands on z
    exactly."""
    x *= slope[k]
    x += shift[k]
    noise *= sd[k]
    x += noise
    return x


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
    front and, at every step, one normal per twin pair of rows (2i, 2i+1),
    which moves row 2i by +Z and row 2i+1 by -Z, whatever has stopped; a
    last odd row takes +Z alone. So a path's numbers do not depend on the
    levels or on the other paths: every level column equals the result
    for that level alone.

    The step loop only decides which (level, path) pairs stop in which
    step, and keeps the step and both gaps of each. Their crossing times
    and payoffs are computed together: at a payment, once the stops since
    the last one reach an eighth of the rows, and after the last step. A
    payment also ends the loop once every row has stopped, or drops the
    stopped rows once they are at least half of them; a drop allocates new
    (level, row) work arrays, which the loop reuses in between.
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
    pairs = size // 2
    draws = np.empty(size - pairs)
    noise = np.empty(size)
    x = np.full(size, x0, dtype=float)
    gap = levels[0][:, None] - x
    hazard = np.zeros((n_lev, size))
    new, prod = np.empty_like(gap), np.empty_like(gap)
    near_mask = np.empty(gap.shape, dtype=bool)
    hits = []  # (step, level, row, gap before, gap after) of each stop
    stops = 0
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf: a sure crossing
        for k in range(slope.size):
            rng.standard_normal(out=draws)
            noise[0::2] = draws
            np.negative(draws[:pairs], out=noise[1::2])
            _advance(x, k, slope, shift, sd,
                     noise if rows.size == size else noise[rows])
            np.subtract(levels[k + 1][:, None], x, out=new)
            np.multiply(gap, new, out=prod)
            np.less(prod, reach[k], out=near_mask)
            near_mask &= live
            near = np.flatnonzero(near_mask)
            if near.size:
                p = np.exp(-2.0 * np.maximum(prod.take(near), 0.0) / var[k])
                h = hazard.take(near) - np.log1p(-p)
                np.put(hazard, near, h)
                hit = near[h >= clock[rows[near % rows.size]]]
                if hit.size:
                    j, i = np.divmod(hit, rows.size)
                    hits.append((k, j, rows[i], gap.take(hit),
                                 new.take(hit)))
                    np.put(live, hit, False)
                    stops += hit.size
            gap, new = new, gap
            if 8 * stops >= rows.size:
                _pay_crossings(pay, hits, levels, var, gauss, unif)
                hits = []
                stops = 0
                keep = live.any(axis=0)
                if not keep.any():
                    break
                if 2 * np.count_nonzero(keep) <= rows.size:  # half dead
                    # compress, unlike boolean indexing, keeps the (level,
                    # row) arrays C-contiguous, so flat take/put on them
                    # stay cheap
                    rows, x = rows[keep], x[keep]
                    gap, hazard, live = (np.compress(keep, a, axis=1)
                                         for a in (gap, hazard, live))
                    new, prod = np.empty_like(gap), np.empty_like(gap)
                    near_mask = np.empty_like(live)
    if hits:
        _pay_crossings(pay, hits, levels, var, gauss, unif)
    return pay


def _pay_crossings(pay, hits, levels, var, gauss, unif) -> None:
    """Pay each stop in hits, a list of (step k, level j, row r, gaps d0 and
    d1 at the step's ends) with array entries, the level at its crossing
    time, timed by the path's own normal and uniform."""
    k = np.repeat([hit[0] for hit in hits], [hit[1].size for hit in hits])
    j, r, d0, d1 = (np.concatenate([hit[n] for hit in hits])
                    for n in range(1, 5))
    frac = _crossing_fraction(d0, d1, var[k], gauss[r], unif[r])
    pay[j, r] = levels[k, j] + (levels[k + 1, j] - levels[k, j]) * frac


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
    zero standard error. Paths come in antithetic twins, and std_error
    accounts for them (see MCEstimate). On a solved boundary the estimate sits about
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
    the same config. Every delta sees the same antithetic twins, and
    se_diff is the larger of the independent-path and twin-unit standard
    errors of the paired differences. If the solved boundary is optimal,
    no shift improves the paired mean beyond noise. A delta of +inf never stops and one of
    -inf stops at once; x0 must be finite and no delta may be nan.
    """
    _require_canonical(params)
    if not (0.0 <= t0 < 1.0):
        raise ValueError("t0 must be in [0, 1)")
    if not np.isfinite(x0):
        raise ValueError("x0 must be finite")
    deltas = tuple(float(d) for d in deltas)
    if any(map(math.isnan, deltas)):
        raise ValueError("deltas must not be nan")
    all_payoffs = _run_payoffs(params, sol, t0, x0, cfg, (0.0,) + deltas)
    base = all_payoffs[0]
    entries = []
    for d, pays in zip(deltas, all_payoffs[1:]):
        diff = pays - base
        entries.append(PerturbationEntry(
            delta=d, estimate=_estimate(pays),
            mean_diff=float(np.mean(diff)), se_diff=_std_error(diff)))
    return PerturbationReport(baseline=_estimate(base), entries=tuple(entries))


def kernel_oracle(params: OUBParams, q: KernelQuery) -> float:
    """Quadrature ground truth for the drift kernel:

        integral_{x2}^{inf} drift(t2, w) * N(w; m, v^2) dw

    With w = m + v*u this is the integral of drift(t2, m + v*u) * phi(u) over
    u from max((x2 - m)/v, -12) to 12, split at u = -4, 0 and 4 and summed
    by 32-point Gauss-Legendre on each panel. The integrand is a linear
    function a + b*u times the normal density, and no panel is wider than
    8: the rule's remainder there is 8**65 (32!)**4 / (65 (64!)**3) ~ 1.8e-69
    times the integrand's 64th derivative, which Cramer's bound on Hermite
    functions keeps below 4e45 (|a| + |b|), so each panel is exact to
    rounding. The discarded tails beyond |u| = 12 carry a Gaussian mass
    below 1e-30 of the total; for x2 >= m + 12v the result is 0.0.
    Independent of the closed form in oubstop.kernel.
    """
    _require_canonical(params)
    m = cond_mean(params, q.t1, q.x1, q.t2)
    v = cond_std(params, q.t1, q.t2)
    if q.x2 >= m + 12.0 * v:
        return 0.0
    lo = max((q.x2 - m) / v, -12.0)
    edges = np.array([lo] + [c for c in (-4.0, 0.0, 4.0) if c > lo] + [12.0])
    nodes, weights = _gauss_legendre()
    half = 0.5 * np.diff(edges)[:, None]
    u = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes
    f = drift(params, q.t2, m + v * u) * density(u)
    return float(np.sum(half * weights * f))


@functools.cache
def _gauss_legendre():
    """Nodes and weights of 32-point Gauss-Legendre on [-1, 1], built on
    first use so that importing oubstop does not build them."""
    return np.polynomial.legendre.leggauss(32)
