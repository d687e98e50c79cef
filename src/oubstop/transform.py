"""Time-space equivalence with an infinite-horizon Brownian-motion problem.

The canonical bridge problem on [0, 1) maps onto an optimal stopping
problem for a Brownian motion Y on [0, inf) with gain

    G_c(s, y) = (c*s + y) / envelope(s),
    envelope(s) = sqrt((e^alpha + s) * (e^-alpha + s)),

under the strictly increasing clock s = upsilon(t) and the space scaling
y = x / scale with scale = gamma * sqrt(sinh(alpha)/alpha). The clock and
the envelope along it are ratios of the bridge's sinh factors, finite for
|alpha| <= 700. oubstop solves and prices in original coordinates; verify's
initial-node lower bound is (beta(0) - z/cosh(alpha)) / scale, so
production uses only make_context.

Everywhere the constant `scale` replaces the ratio z / c_z: the two agree
when z != 0, but the ratio is 0/0 at z = 0 while the map itself is regular.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import OUBParams, _require_canonical, _sinh_factors

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
    scale = params.gamma * math.sqrt(math.sinh(a) / a)
    return TransformContext(alpha=a, c_z=params.z / scale, scale=scale)


def upsilon(alpha: float, t):
    """Clock of the transformed problem:
    upsilon(t) = sinh(|alpha| t) / sinh(|alpha| (1 - t)).

    Strictly increasing bijection [0, 1) -> [0, inf) with upsilon(0) = 0.
    """
    t = np.asarray(t, dtype=float)
    if not ((0.0 <= t) & (t < 1.0)).all():
        raise ValueError("upsilon requires t in [0, 1)")
    _, s_gap, s_rem = _sinh_factors(alpha, 1.0, t, 1.0 - t)
    return s_gap / s_rem


def envelope(alpha: float, s):
    """Normalising envelope of the transformed gain:
    sqrt((e^alpha + s)(e^-alpha + s)). Satisfies envelope(0) = 1,
    envelope(s) >= sqrt(1 + s^2), and is increasing on s >= 0. Where the
    product overflows, as along the clock at large |alpha|, it is the
    product of the two square roots."""
    s = np.asarray(s, dtype=float)
    hi, lo = math.exp(alpha) + s, math.exp(-alpha) + s
    with np.errstate(over="ignore"):
        prod = hi * lo
    split = np.sqrt(np.abs(hi)) * np.sqrt(np.abs(lo))  # |hi||lo| = prod there
    return np.where(np.isinf(prod), split, np.sqrt(prod))[()]


def envelope_deriv(alpha: float, s):
    """Derivative of the envelope: (a + 2s) / (2 envelope(s))."""
    s = np.asarray(s, dtype=float)
    a = math.exp(alpha) + math.exp(-alpha)
    return (a + 2.0 * s) / (2.0 * envelope(alpha, s))


def original_to_transformed(ctx: TransformContext, t, beta_t):
    """Map an original boundary point (t, beta(t)), t in [0, 1), to the
    transformed coordinates (s, b(s))."""
    t = np.asarray(t, dtype=float)
    s = upsilon(ctx.alpha, t)
    s_one, _, s_rem = _sinh_factors(ctx.alpha, 1.0, t, 1.0 - t)
    return s, beta_t * (s_one / s_rem) / ctx.scale - ctx.c_z * s
