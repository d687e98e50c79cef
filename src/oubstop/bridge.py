"""Ornstein-Uhlenbeck bridge process.

An OU process on [0, T] conditioned to end at a fixed pinning value z.
The bridge solves

    dX_t = mu(t, X_t) dt + gamma dB_t,
    mu(t, x) = alpha * (z - cosh(alpha*(1 - t)) * x) / sinh(alpha*(1 - t))

in canonical coordinates (pulling level 0, horizon 1). The conditional law
between two times is Gaussian and available in closed form, so paths can be
sampled exactly; no Euler stepping is used anywhere. The drift blows up as
t -> 1, which is why exact transitions matter near the horizon.

General pulling level theta and horizon T are handled by an affine
reduction to the canonical problem (shift space by theta, rescale time by
1/T); see :func:`reduce_to_canonical`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OUBParams",
    "CanonicalReduction",
    "drift",
    "cond_mean",
    "cond_std",
    "reduce_to_canonical",
]


@dataclass(frozen=True)
class OUBParams:
    """Parameters of an OU bridge.

    alpha:   slope of the underlying OU process (any sign, nonzero; the
             bridge law is even in alpha).
    gamma:   volatility, > 0.
    z:       pinning value at the horizon.
    theta:   pulling level of the underlying OU process (default 0).
    horizon: terminal time T (default 1).
    """

    alpha: float
    gamma: float
    z: float
    theta: float = 0.0
    horizon: float = 1.0

    def __post_init__(self) -> None:
        for name in ("alpha", "gamma", "z", "theta", "horizon"):
            # as float: an array built from an int field takes its dtype
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.alpha == 0.0:
            raise ValueError("alpha must be nonzero (the Brownian-bridge "
                             "case is a limit, use a small alpha instead)")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be > 0")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be > 0")

    @property
    def is_canonical(self) -> bool:
        return self.theta == 0.0 and self.horizon == 1.0


@dataclass(frozen=True)
class CanonicalReduction:
    """Affine reduction of a general bridge to canonical coordinates.

    The canonical problem has theta = 0 and horizon = 1; original and
    canonical objects are linked by

        t_canonical = time_scale * t          (time_scale = 1 / T)
        x_canonical = x - space_shift         (space_shift = theta)
        beta(t) = beta_canonical(t / T) + theta
        V(t, x) = V_canonical(t / T, x - theta) + theta

    The pulling level is removed first, then time is rescaled. The slope
    sign is also normalised to |alpha| (the bridge law is even in alpha),
    which makes +/-alpha runs bitwise identical.
    """

    original: OUBParams
    canonical: OUBParams
    time_scale: float
    space_shift: float

    def to_canonical_time(self, t):
        return np.multiply(t, self.time_scale)

    def from_canonical_time(self, t):
        return np.divide(t, self.time_scale)

    def to_canonical_space(self, x):
        return np.subtract(x, self.space_shift)

    def from_canonical_space(self, x):
        return np.add(x, self.space_shift)


def reduce_to_canonical(params: OUBParams) -> CanonicalReduction:
    """Reduce general (theta, T) parameters to the canonical theta=0, T=1
    problem.

    Shifting by theta maps the bridge onto one pinned at z - theta; running
    the clock at rate 1/T maps horizon T onto 1 with slope alpha*T and
    volatility gamma*sqrt(T).
    """
    r = 1.0 / params.horizon
    canonical = OUBParams(
        alpha=abs(params.alpha * params.horizon),
        gamma=params.gamma * math.sqrt(params.horizon),
        z=params.z - params.theta,
        theta=0.0,
        horizon=1.0,
    )
    return CanonicalReduction(
        original=params,
        canonical=canonical,
        time_scale=r,
        space_shift=params.theta,
    )


def _require_canonical(params: OUBParams) -> None:
    if not params.is_canonical:
        raise ValueError("expected canonical parameters (theta=0, horizon=1); "
                         "apply reduce_to_canonical first")


def drift(params: OUBParams, t, x):
    """Bridge drift mu(t, x) for canonical params; scalars or arrays."""
    _require_canonical(params)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if not ((0.0 <= t) & (t < 1.0)).all():
        raise ValueError("drift requires 0 <= t < horizon")
    aa = abs(params.alpha)
    rem = aa * (1.0 - t)
    return aa * (params.z - np.cosh(rem) * x) / np.sinh(rem)


def cond_mean(params: OUBParams, t1, x1, t2):
    """Conditional mean of X_{t2} given X_{t1} = x1 (canonical params).

    Equals x1 at t2 = t1 and z at t2 = 1 (the pinned endpoint).
    """
    _require_canonical(params)
    t1 = np.asarray(t1, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    if not ((0.0 <= t1) & (t1 < 1.0) & (t1 <= t2) & (t2 <= 1.0)).all():
        raise ValueError("cond_mean requires 0 <= t1 <= t2 <= 1, t1 < 1")
    aa = abs(params.alpha)
    den = np.sinh(aa * (1.0 - t1))
    # each weight over den on its own: exactly 0 and 1 at t2 = 1, so z exactly
    return (x1 * (np.sinh(aa * (1.0 - t2)) / den)
            + params.z * (np.sinh(aa * (t2 - t1)) / den))


def cond_std(params: OUBParams, t1, t2):
    """Conditional standard deviation of X_{t2} given X_{t1} (canonical).

    sqrt((gamma^2/alpha) * sinh(a(1-t2)) sinh(a(t2-t1)) / sinh(a(1-t1)));
    zero at t2 = t1 and at the pinned endpoint t2 = 1, and even in alpha.
    """
    _require_canonical(params)
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    if not ((0.0 <= t1) & (t1 < 1.0) & (t1 <= t2) & (t2 <= 1.0)).all():
        raise ValueError("cond_std requires 0 <= t1 <= t2 <= 1, t1 < 1")
    aa = abs(params.alpha)
    var = (params.gamma ** 2 / aa) * np.sinh(aa * (1.0 - t2)) \
        * np.sinh(aa * (t2 - t1)) / np.sinh(aa * (1.0 - t1))
    return np.sqrt(var)
