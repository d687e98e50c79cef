"""The transformed mirror of the pricing formula, a test oracle.

The canonical bridge problem on [0, 1) maps onto an optimal stopping
problem for a Brownian motion Y on [0, inf) with gain

    G_c(s, y) = (c*s + y) / envelope(s),

under the clock s = upsilon(t) and the space scaling y = x / scale (see
oubstop.transform, which keeps the forward map). oubstop prices in original
coordinates only; this module evaluates the same value in transformed
coordinates,

    W(s, y) = c - integral_s^inf E[G_t(u, Y_u) 1(Y_u >= b(u))] du,

so that tests can check the paper's time-space equivalence against the
production path: V(t, x) = scale * W(upsilon(t), x / scale) up to the two
quadratures' errors.

Its quadrature refines the image of the solver mesh under the clock map
(whose cells stretch enormously towards the horizon; the integrand tail
decays only like u^-3/2 because the boundary grows like sqrt(u)) and, like
the production path, stops at the image of the last interior node.
Starting clocks beyond the mesh integrate out to upsilon(1 - 1e-6).
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

from oubstop import boundary_eval, envelope, envelope_deriv
from oubstop.kernel import density
from oubstop.transform import original_to_transformed, upsilon

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_TRUNCATION_TIME = 1.0 - 1e-6
_REFINE = 4     # sub-cells per solver cell in the image quadrature
_TAIL_RATIO = 0.7  # geometric decay of 1-t towards the truncation time


def survival(u):
    """Upper tail probability of a standard normal, 1 - Phi(u).

    Uses the complementary error function, so relative accuracy is kept far
    into the right tail (survival(40) is a subnormal, not 0).
    """
    out = 0.5 * erfc(np.asarray(u, dtype=float) * _INV_SQRT2)
    return out if out.ndim else float(out)


def _kappa(alpha: float, t):
    """kappa(t) = (1 - e^{-2 alpha t}) / (2 alpha): the clock's own
    derivation here, upsilon(t) = kappa(t) e^{-alpha} / (kappa(1) -
    kappa(t)), independent of the sinh ratio that oubstop.transform uses."""
    t = np.asarray(t, dtype=float)
    return -np.expm1(-2.0 * alpha * t) / (2.0 * alpha)


def _kappa_inv(alpha: float, s):
    """Inverse of kappa: -ln(1 - 2 alpha s) / (2 alpha), for s < kappa(1)
    (always so from upsilon_inv)."""
    s = np.asarray(s, dtype=float)
    out = -np.log1p(-2.0 * alpha * s) / (2.0 * alpha)
    return out if out.ndim else float(out)


def upsilon_inv(alpha: float, s):
    """Inverse clock: t with upsilon(t) = s, for s >= 0."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("upsilon_inv requires s >= 0")
    k1 = _kappa(alpha, 1.0)
    return _kappa_inv(alpha, s * k1 / (s + math.exp(-alpha)))


def gain(c: float, alpha: float, s, y):
    """Transformed gain G_c(s, y) = (c s + y) / envelope(s)."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    out = (c * s + y) / envelope(alpha, s)
    return out if out.ndim else float(out)


def gain_t(c: float, alpha: float, s, y):
    """Time partial of the gain:
    (c (f - s f') - f' y) / f^2 with f = envelope, f' = envelope_deriv."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    f = envelope(alpha, s)
    fp = envelope_deriv(alpha, s)
    out = (c * (f - s * fp) - fp * y) / (f * f)
    return out if out.ndim else float(out)


def transformed_integrand(ctx, s, y, u, b_u):
    """Integrand of the transformed pricing formula at clock time u > s:

    (c*S - (a + 2u) * ((y + c*u)*S + sqrt(u - s)*p) / (2 f(u)^2)) / f(u)

    with c = c_z, a = e^alpha + e^-alpha, f = envelope, and S, p the
    survival/density of the standardised threshold (b(u) - y) / sqrt(u - s).
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    b_u = np.asarray(b_u, dtype=float)
    if np.any(u <= s):
        raise ValueError("transformed integrand requires u > s")
    sd = np.sqrt(u - s)
    std = (b_u - y) / sd
    surv = survival(std)
    dens = density(std)
    f = envelope(ctx.alpha, u)
    a = math.exp(ctx.alpha) + math.exp(-ctx.alpha)
    c = ctx.c_z
    out = (c * surv - (a + 2.0 * u)
           * ((y + c * u) * surv + sd * dens) / (2.0 * f * f)) / f
    out = np.asarray(out)
    return out if out.ndim else float(out)


def _boundary_transformed(ctx, sol, s):
    t = upsilon_inv(ctx.alpha, s)
    _, b = original_to_transformed(ctx, t, boundary_eval(sol, t))
    return b


def _image_times(sol, t_start: float) -> np.ndarray:
    # Quadrature times for the transformed integral. Inside the mesh: the
    # solver nodes after t_start, each cell subdivided, because the clock
    # map stretches cells near the horizon enormously and the integrand
    # tail decays only like u^-3/2. The region past the last interior node
    # is excluded, mirroring the dropped terminal addend of the production
    # path (the interpolated boundary is flat there and the occupation
    # integral over that strip would not measure the value). A start beyond
    # the last interior node instead integrates a geometric continuation of
    # 1-t down to the truncation time.
    nodes = sol.grid.nodes
    base = nodes[(nodes > t_start) & (nodes < 1.0)]
    if base.size:
        edges = np.concatenate(([t_start], base))
        return np.concatenate([
            np.linspace(edges[i], edges[i + 1], _REFINE + 1)[1:]
            for i in range(edges.size - 1)
        ])
    tail = []
    w = (1.0 - t_start) * _TAIL_RATIO
    while w > 1.0 - _TRUNCATION_TIME:
        tail.append(1.0 - w)
        w *= _TAIL_RATIO
    tail.append(_TRUNCATION_TIME)
    return np.asarray(tail)


def transformed_value(ctx, sol, s: float, y: float) -> float:
    """Mirror evaluation of the value in transformed coordinates.

    Integrates over a refined image of the solver mesh under the clock
    map; like the production path it stops at the image of the last
    interior node. For y on or above the transformed boundary the gain is
    returned directly.
    """
    if s < 0.0:
        raise ValueError("transformed value requires s >= 0")
    if y >= _boundary_transformed(ctx, sol, s):
        return gain(ctx.c_z, ctx.alpha, s, y)

    t_start = upsilon_inv(ctx.alpha, s)
    if t_start >= _TRUNCATION_TIME:
        return ctx.c_z
    tmesh = _image_times(sol, t_start)
    u = upsilon(ctx.alpha, tmesh)
    keep = u > s  # guard against clock round-trip rounding at the start
    u = u[keep]
    _, b_u = original_to_transformed(ctx, tmesh[keep],
                                     boundary_eval(sol, tmesh[keep]))
    if u.size == 0:
        return ctx.c_z
    widths = np.diff(np.concatenate(([s], u)))
    integ = transformed_integrand(ctx, s, y, u, b_u)
    return float(ctx.c_z - np.dot(integ, widths))
