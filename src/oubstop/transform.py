"""Time-space equivalence with an infinite-horizon Brownian-motion problem.

The canonical bridge problem on [0, 1) maps onto an optimal stopping
problem for a Brownian motion Y on [0, inf) with gain

    G_c(s, y) = (c*s + y) / envelope(s),
    envelope(s) = sqrt((e^alpha + s) * (e^-alpha + s)),

under the strictly increasing clock s = upsilon(t) and the space scaling
y = x / scale with scale = gamma * sqrt(sinh(alpha)/alpha). oubstop solves
and prices in original coordinates; this module maps boundary points
forward into transformed coordinates for verify's initial-node lower bound.

Everywhere the constant `scale` replaces the ratio z / c_z: the two agree
when z != 0, but the ratio is 0/0 at z = 0 while the map itself is regular.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import OUBParams, _require_canonical

__all__ = [
    "TransformContext",
    "make_context",
    "upsilon",
    "envelope",
    "envelope_deriv",
    "original_to_transformed",
]


@dataclass(frozen=True)
class TransformContext:
    """Precomputed constants of the bridge <-> Brownian-motion equivalence.

    c_z = z / scale is the gain parameter; scale > 0 always, and c_z = 0
    iff z = 0.
    """

    alpha: float
    c_z: float
    scale: float


def make_context(params: OUBParams) -> TransformContext:
    _require_canonical(params)
    a = params.alpha
    # kappa(1) * e^alpha == sinh(alpha)/alpha, even in alpha and stable for
    # small |alpha|.
    scale = params.gamma * math.sqrt(math.sinh(a) / a)
    return TransformContext(alpha=a, c_z=params.z / scale, scale=scale)


def _kappa(alpha: float, t):
    """kappa(t) = (1 - e^{-2 alpha t}) / (2 alpha)."""
    t = np.asarray(t, dtype=float)
    return -np.expm1(-2.0 * alpha * t) / (2.0 * alpha)


def _kappa_gap(alpha: float, t):
    # kappa(1) - kappa(t) = e^{-2 alpha t} (1 - e^{-2 alpha (1 - t)}) / (2 alpha),
    # free of cancellation as t -> 1 and of overflow for large alpha > 0
    return -np.exp(-2.0 * alpha * t) * np.expm1(-2.0 * alpha * (1.0 - t)) / (2.0 * alpha)


def upsilon(alpha: float, t):
    """Clock of the transformed problem:
    upsilon(t) = kappa(t) e^{-alpha} / (kappa(1) - kappa(t)).

    Strictly increasing bijection [0, 1) -> [0, inf) with upsilon(0) = 0.
    """
    t = np.asarray(t, dtype=float)
    if not ((0.0 <= t) & (t < 1.0)).all():
        raise ValueError("upsilon requires t in [0, 1)")
    return _kappa(alpha, t) * math.exp(-alpha) / _kappa_gap(alpha, t)


def envelope(alpha: float, s):
    """Normalising envelope of the transformed gain:
    sqrt((e^alpha + s)(e^-alpha + s)). Satisfies envelope(0) = 1,
    envelope(s) >= sqrt(1 + s^2), and is increasing on s >= 0."""
    s = np.asarray(s, dtype=float)
    return np.sqrt((math.exp(alpha) + s) * (math.exp(-alpha) + s))


def envelope_deriv(alpha: float, s):
    """Derivative of the envelope: (a + 2s) / (2 envelope(s))."""
    s = np.asarray(s, dtype=float)
    a = math.exp(alpha) + math.exp(-alpha)
    return (a + 2.0 * s) / (2.0 * envelope(alpha, s))


def original_to_transformed(ctx: TransformContext, t, beta_t):
    """Map an original boundary point (t, beta(t)), t in [0, 1), to the
    transformed coordinates (s, b(s))."""
    s = upsilon(ctx.alpha, t)
    b_s = beta_t * envelope(ctx.alpha, s) / ctx.scale - ctx.c_z * s
    return s, b_s
