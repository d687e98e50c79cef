"""Gaussian primitives and the integral kernel of the pricing equations.

The kernel K(t1, x1, t2, x2) is the expected drift of the bridge at time t2
restricted to the region above the threshold x2, conditional on X_{t1} = x1:

    K = alpha * (z*S - cosh(a(1-t2)) * (m*S + v*p)) / sinh(a(1-t2)),

where m, v are the conditional mean/std of X_{t2}, u = (x2 - m)/v,
S = 1 - Phi(u) is the normal upper tail and p = density(u). It is evaluated
for t1 < t2 < 1 only: it is undefined at t2 = 1, and no Riemann row of the
pricing equations has t2 = t1, so there is no continuity extension there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .bridge import OUBParams, _require_canonical
# Not called here since KernelTable computes the moments itself; the traced
# benchmark runs still wrap these two names in this module
# (perfbench/workloads.py CALL_SITES), so they stay importable from it.
from .bridge import cond_mean, cond_std  # noqa: F401

__all__ = [
    "KernelQuery",
    "KernelTable",
    "density",
    "drift_kernel",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def density(u):
    """Standard normal density."""
    u = np.asarray(u, dtype=float)
    return np.exp(-0.5 * u * u) * _INV_SQRT_2PI


@dataclass(frozen=True)
class KernelQuery:
    """Arguments of a kernel evaluation, 0 <= t1 < t2 < 1, x1 and x2
    finite."""

    t1: float
    x1: float
    t2: float
    x2: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.t1 < self.t2 < 1.0):
            raise ValueError("kernel query requires 0 <= t1 < t2 < 1")
        if not (np.isfinite(self.x1) and np.isfinite(self.x2)):
            raise ValueError("kernel query requires finite x1 and x2")


class KernelTable:
    """The beta-independent part of K over fixed time pairs 0 <= t1 < t2 < 1.

    The conditional mean is affine in x1, m = slope*x1 + shift, and with
    w = (x2 - m) / (sqrt(2) v) and rem = |alpha|(1 - t2) the kernel reads

        K = (cz - cm*m) * erfc(w) - cv * exp(-w^2),

    cz = |alpha| z / (2 sinh(rem)), cm = |alpha| coth(rem) / 2 and
    cv = 2 cm v / sqrt(2 pi). Only x1 and x2 vary between evaluations on the
    same time pairs, so a solver that sweeps them many times builds the
    table once and passes it to drift_kernel; t1 and t2 are not kept. The
    coefficient arrays are at least one-dimensional, all of one shape.
    """

    __slots__ = ("params", "slope", "shift", "inv_v", "cz", "cm", "cv")

    def __init__(self, params: OUBParams, t1, t2):
        _require_canonical(params)
        t1, t2 = np.broadcast_arrays(*np.atleast_1d(
            np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)))
        if not ((t1 >= 0.0) & (t1 < t2) & (t2 < 1.0)).all():
            raise ValueError("kernel table requires 0 <= t1 < t2 < 1")
        aa = abs(params.alpha)
        self.params = params
        # in place, with each formula's operations in order (bits depend on it)
        sinh_rem = aa * (1.0 - t2)  # rem, until sinh overwrites it
        self.cm = np.cosh(sinh_rem)
        np.sinh(sinh_rem, out=sinh_rem)
        sinh_gap = np.sinh(aa * (t2 - t1))
        v = np.sinh(aa * (1.0 - t1))  # sinh_start, until v overwrites it
        # the conditional moments of bridge.cond_mean and bridge.cond_std
        self.slope = sinh_rem / v
        self.shift = params.z * sinh_gap / v
        np.multiply(params.gamma ** 2 / aa, self.slope, out=v)
        v *= sinh_gap
        self.inv_v = _INV_SQRT2 / np.sqrt(v, out=v)
        self.cm *= 0.5 * aa
        self.cm /= sinh_rem
        self.cz = np.divide(0.5 * aa * params.z, sinh_rem, out=sinh_rem)
        self.cv = np.multiply(2.0 * _INV_SQRT_2PI, self.cm, out=sinh_gap)
        self.cv *= v

    def evaluate(self, x1, x2, _work=None) -> np.ndarray:
        """K at (x1, x2), broadcast against the table's time pairs.

        _work, for a caller that sweeps the same table many times, is three
        float arrays of the result's shape that take m, w and the result in
        turn, so that the call allocates nothing; the first two may be x1
        and x2 themselves, which are then overwritten."""
        m, w, out = (None, None, None) if _work is None else _work
        # the class formula, in place: every line below rewrites m, w or out
        m = np.multiply(self.slope, x1, out=m)
        m += self.shift
        w = np.subtract(x2, m, out=w)
        w *= self.inv_v
        out = erfc(w, out=out)
        m *= self.cm
        np.subtract(self.cz, m, out=m)
        out *= m
        w *= w
        np.negative(w, out=w)
        np.exp(w, out=w)
        w *= self.cv
        out -= w
        return out


def drift_kernel(params: OUBParams, t1, x1, t2, x2, table=None, _work=None):
    """Evaluate K(t1, x1, t2, x2) for canonical params; broadcasts over
    array arguments.

    Raises unless 0 <= t1 < t2 < 1. With a KernelTable built for params,
    pass t1 = t2 = None: the times are the table's, and the result is the
    array table.evaluate(x1, x2, _work).
    """
    if table is not None:
        if (t1 is not None or t2 is not None
                or (table.params is not params and table.params != params)):
            raise ValueError("with a table, pass t1 = t2 = None and the "
                             "params it was built for")
        return table.evaluate(x1, x2, _work)
    shape = np.broadcast(t1, x1, t2, x2).shape
    return KernelTable(params, t1, t2).evaluate(x1, x2).reshape(shape)[()]

