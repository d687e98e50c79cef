"""Time-space equivalence with an infinite-horizon Brownian-motion problem.

The canonical bridge problem on [0, 1) maps onto an optimal stopping
problem for a Brownian motion Y on [0, inf) with gain

    G_c(s, y) = (c*s + y) / envelope(s),
    envelope(s) = sqrt((e^alpha + s) * (e^-alpha + s)),

under the strictly increasing clock s = upsilon(t) and the space scaling
y = x / scale with scale = gamma * sqrt(sinh(alpha)/alpha). oubstop works in
original coordinates; this module serves only verify's lower-bound check and
the transformed mirror of the value (pricing.transformed_value).

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
    "upsilon_inv",
    "envelope",
    "envelope_deriv",
    "gain",
    "gain_t",
    "original_to_transformed",
]


@dataclass(frozen=True)
class TransformContext:
    """Precomputed constants of the bridge <-> Brownian-motion equivalence.

    c_z = z / scale is the gain parameter; a = e^alpha + e^-alpha enters the
    envelope derivative; scale > 0 always, and c_z = 0 iff z = 0.
    """

    alpha: float
    gamma: float
    z: float
    c_z: float
    a: float
    scale: float


def make_context(params: OUBParams) -> TransformContext:
    _require_canonical(params)
    a = params.alpha
    # kappa(1) * e^alpha == sinh(alpha)/alpha, even in alpha and stable for
    # small |alpha|.
    scale = params.gamma * math.sqrt(math.sinh(a) / a)
    return TransformContext(
        alpha=a,
        gamma=params.gamma,
        z=params.z,
        c_z=params.z / scale,
        a=math.exp(a) + math.exp(-a),
        scale=scale,
    )


def _kappa(alpha: float, t):
    """kappa(t) = (1 - e^{-2 alpha t}) / (2 alpha)."""
    t = np.asarray(t, dtype=float)
    out = -np.expm1(-2.0 * alpha * t) / (2.0 * alpha)
    return out if out.ndim else float(out)


def _kappa_inv(alpha: float, s):
    """Inverse of kappa: -ln(1 - 2 alpha s) / (2 alpha)."""
    s = np.asarray(s, dtype=float)
    arg = -2.0 * alpha * s
    if np.any(arg <= -1.0):
        raise ValueError("kappa_inv domain error: 1 - 2*alpha*s must be > 0")
    out = -np.log1p(arg) / (2.0 * alpha)
    return out if out.ndim else float(out)


def _kappa_gap(alpha: float, t):
    # kappa(1) - kappa(t), written to avoid cancellation as t -> 1
    return math.exp(-2.0 * alpha) * np.expm1(2.0 * alpha * (1.0 - t)) / (2.0 * alpha)


def upsilon(alpha: float, t):
    """Clock of the transformed problem:
    upsilon(t) = kappa(t) e^{-alpha} / (kappa(1) - kappa(t)).

    Strictly increasing bijection [0, 1) -> [0, inf) with upsilon(0) = 0.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t >= 1.0):
        raise ValueError("upsilon requires t in [0, 1)")
    out = _kappa(alpha, t) * math.exp(-alpha) / _kappa_gap(alpha, t)
    return out if out.ndim else float(out)


def upsilon_inv(alpha: float, s):
    """Inverse clock: t with upsilon(t) = s, for s >= 0."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("upsilon_inv requires s >= 0")
    k1 = _kappa(alpha, 1.0)
    return _kappa_inv(alpha, s * k1 / (s + math.exp(-alpha)))


def envelope(alpha: float, s):
    """Normalising envelope of the transformed gain:
    sqrt((e^alpha + s)(e^-alpha + s)). Satisfies envelope(0) = 1,
    envelope(s) >= sqrt(1 + s^2), and is increasing on s >= 0."""
    s = np.asarray(s, dtype=float)
    out = np.sqrt((math.exp(alpha) + s) * (math.exp(-alpha) + s))
    return out if out.ndim else float(out)


def envelope_deriv(alpha: float, s):
    """Derivative of the envelope: (a + 2s) / (2 envelope(s))."""
    s = np.asarray(s, dtype=float)
    a = math.exp(alpha) + math.exp(-alpha)
    out = (a + 2.0 * s) / (2.0 * envelope(alpha, s))
    return out if out.ndim else float(out)


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


def original_to_transformed(ctx: TransformContext, t, beta_t):
    """Map an original boundary point (t, beta(t)), t in [0, 1), to the
    transformed coordinates (s, b(s))."""
    s = upsilon(ctx.alpha, t)
    b_s = beta_t * envelope(ctx.alpha, s) / ctx.scale - ctx.c_z * s
    return s, b_s
