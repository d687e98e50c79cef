"""Ornstein-Uhlenbeck bridge process.

An OU process on [0, T] conditioned to end at a fixed pinning value z.
The bridge solves

    dX_t = mu(t, X_t) dt + gamma dB_t,
    mu(t, x) = alpha * (z - cosh(alpha*(1 - t)) * x) / sinh(alpha*(1 - t))

in canonical coordinates (pulling level 0, horizon 1). The conditional law
between two times is Gaussian and available in closed form, so paths can be
sampled exactly; no Euler stepping is used anywhere. The drift blows up as
t -> 1, which is why exact transitions matter near the horizon. The law's
sinh factors and Gaussian step are computed here only, for mc and kernel too.

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
    canonical objects are linked through the original T and theta by

        t_canonical = t / T
        x_canonical = x - theta
        beta(t) = beta_canonical(t / T) + theta
        V(t, x) = V_canonical(t / T, x - theta) + theta

    The pulling level is removed first, then time is rescaled. The slope
    sign is also normalised to |alpha| (the bridge law is even in alpha),
    which makes +/-alpha runs bitwise identical.
    """

    original: OUBParams
    canonical: OUBParams

    # Both time maps are one correctly rounded operation with T itself, not
    # with a rounded 1/T: every t < T maps below 1, and canonical 1 maps to
    # T exactly.
    def to_canonical_time(self, t):
        return np.divide(t, self.original.horizon)

    def from_canonical_time(self, t):
        return np.multiply(t, self.original.horizon)

    def to_canonical_space(self, x):
        return np.subtract(x, self.original.theta)

    def from_canonical_space(self, x):
        return np.add(x, self.original.theta)


# Largest canonical slope |alpha|*T accepted. The kernel table's factors
# sinh(|alpha|(1 - t1)) and cosh(|alpha|(1 - t2)) overflow once |alpha| passes
# about 710.5 (1 - t1 = 1 at t1 = 0, and 1 - t2 nears 1 at the first node of a
# fine mesh); 700 leaves a margin.
_MAX_ALPHA = 700.0
# Smallest canonical gamma*sqrt(T) accepted. At N = 500 backward induction
# fails from 2^-506 (4.8e-153), where the kernel's variance turns subnormal,
# at |alpha| = 1, and from 2^-499 (6.1e-151) at 700. 1e-100 leaves a margin.
_MIN_GAMMA = 1e-100


def reduce_to_canonical(params: OUBParams) -> CanonicalReduction:
    """Reduce general (theta, T) parameters to the canonical theta=0, T=1
    problem.

    Shifting by theta maps the bridge onto one pinned at z - theta; running
    the clock at rate 1/T maps horizon T onto 1 with slope alpha*T and
    volatility gamma*sqrt(T). A canonical slope |alpha|*T above 700 is
    refused: the kernel overflows soon after. So are an infinite gamma^2,
    gamma^2/|alpha| (the law's variance scale) or pin z - theta, and a
    canonical gamma below 1e-100, where the solvers lose the scale.
    """
    alpha = abs(params.alpha * params.horizon)
    if alpha > _MAX_ALPHA:
        raise ValueError(f"|alpha| * horizon must be <= {_MAX_ALPHA:g} (the "
                         f"kernel overflows soon after), got {alpha!r}")
    gamma = params.gamma * math.sqrt(params.horizon)
    if not math.isfinite(gamma * gamma):
        raise ValueError("(gamma * sqrt(horizon))^2 overflows, got "
                         f"gamma * sqrt(horizon) = {gamma!r}")
    if not alpha or not math.isfinite(gamma ** 2 / alpha):
        raise ValueError("gamma^2 / |alpha| overflows, got gamma * "
                         f"sqrt(horizon) = {gamma!r} and |alpha| * horizon "
                         f"= {alpha!r}")
    if gamma < _MIN_GAMMA:
        raise ValueError(f"gamma * sqrt(horizon) must be >= {_MIN_GAMMA:g}, "
                         f"got {gamma!r}")
    z = params.z - params.theta
    if not math.isfinite(z):
        raise ValueError(f"the canonical pin z - theta overflows, got "
                         f"z = {params.z!r} and theta = {params.theta!r}")
    canonical = OUBParams(alpha=alpha, gamma=gamma, z=z, theta=0.0,
                          horizon=1.0)
    return CanonicalReduction(original=params, canonical=canonical)


def _require_canonical(params: OUBParams) -> None:
    if not params.is_canonical:
        raise ValueError("expected canonical parameters (theta=0, horizon=1); "
                         "apply reduce_to_canonical first")


def drift(params: OUBParams, t, x):
    """Bridge drift mu(t, x) for canonical params; scalars or arrays."""
    _require_canonical(params)
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    if not ((0.0 <= t) & (t < 1.0)).all():
        raise ValueError("drift requires 0 <= t < horizon")
    aa = abs(params.alpha)
    rem = aa * (1.0 - t)
    return aa * (params.z - np.cosh(rem) * x) / np.sinh(rem)


def _sinh_factors(alpha: float, rem1, gap, rem2):
    """sinh(|alpha| r) of canonical spans rem1 = 1 - t1, gap = t2 - t1 and
    rem2 = 1 - t2, unchecked: the one copy, for law, kernel and transform."""
    aa = abs(alpha)
    return np.sinh(aa * rem1), np.sinh(aa * gap), np.sinh(aa * rem2)


def _transition_law(params: OUBParams, s_start, s_gap, s_rem):
    """(slope, shift, var) of X_t2 given X_t1 from the sinh factors, the one
    copy, unchecked; 0, z, 0 at t2 = 1. Ratios over s_start come first, var's
    of the larger factor (>= e^-350 at |alpha| <= 700), so none underflows."""
    var = np.maximum(s_gap, s_rem) / s_start
    var *= np.minimum(s_gap, s_rem)
    var *= params.gamma ** 2 / abs(params.alpha)
    return s_rem / s_start, params.z * (s_gap / s_start), var


def _transition_factors(caller: str, params: OUBParams, t1, t2):
    """X_t2 given X_t1 = x is N(slope*x + shift, var) for canonical times
    0 <= t1 <= t2 <= 1, t1 < 1: (slope, shift, var), or ValueError."""
    _require_canonical(params)
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    if not ((0.0 <= t1) & (t1 < 1.0) & (t1 <= t2) & (t2 <= 1.0)).all():
        raise ValueError(f"{caller} requires 0 <= t1 <= t2 <= 1, t1 < 1")
    return _transition_law(params, *_sinh_factors(
        params.alpha, 1.0 - t1, t2 - t1, 1.0 - t2))


def cond_mean(params: OUBParams, t1, x1, t2):
    """Conditional mean of X_{t2} given X_{t1} = x1 (canonical params).

    Equals x1 at t2 = t1 and z at t2 = 1 (the pinned endpoint).
    """
    slope, shift, _ = _transition_factors("cond_mean", params, t1, t2)
    return np.asarray(x1, dtype=float) * slope + shift


def cond_std(params: OUBParams, t1, t2):
    """Conditional standard deviation of X_{t2} given X_{t1} (canonical).

    sqrt((gamma^2/alpha) * sinh(a(1-t2)) sinh(a(t2-t1)) / sinh(a(1-t1)));
    zero at t2 = t1 and at the pinned endpoint t2 = 1, and even in alpha.
    """
    return np.sqrt(_transition_factors("cond_std", params, t1, t2)[2])
