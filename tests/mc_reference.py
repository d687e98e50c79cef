"""The Monte Carlo block loop as it stood before its crossing times were
batched, a test oracle.

oubstop.mc._block_payoffs walks a block of paths one step at a time,
records each step's stops and times their crossings in batches; it drops
stopped paths only once they are half of the paths left, and until then
reuses its arrays from step to step. This module keeps the loop that
allocated fresh arrays at every step, timed each step's crossings within
it and dropped stopped paths whenever the stops since the last drop
reached an eighth of the paths left. Both draw the same numbers in the
same order and do the same floating-point operations on each path, so
tests assert that their payoffs are identical, bit for bit.
"""
from __future__ import annotations

import numpy as np

# oubstop.mc._CROSS_REACH: steps with d0*d1 >= 18.4*var are skipped
_CROSS_REACH = 18.4


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


def block_payoffs(x0: float, coef, var: np.ndarray, levels: np.ndarray,
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
    x = np.full(size, x0)
    gap = levels[0][:, None] - x
    hazard = np.zeros((n_lev, size))
    stops = 0
    for k in range(slope.size):
        rng.standard_normal(out=draws)
        noise[0::2] = draws
        np.negative(draws[:pairs], out=noise[1::2])
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
