"""Gaussian primitives and the integral kernel of the pricing equations.

The kernel K(t1, x1, t2, x2) is the expected drift of the bridge at time t2
restricted to the region above the threshold x2, conditional on X_{t1} = x1:

    K = alpha * (z*S - cosh(a(1-t2)) * (m*S + v*p)) / sinh(a(1-t2)),

where m, v are the conditional mean/std of X_{t2}, u = (x2 - m)/v,
S = 1 - Phi(u) is the normal upper tail and p = density(u). It is evaluated
for t1 < t2 < 1 only: it is undefined at t2 = 1, and no Riemann row of the
pricing equations has t2 = t1, so there is no continuity extension there.

KernelTable, K over fixed time pairs with quadrature weights folded in, is
the one form of K that the solvers and pricing evaluate.
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
    """The beta-independent part of w*K over fixed time pairs
    0 <= t1 < t2 < 1, w a weight per pair (a Riemann width, or 1).

    With m = slope*x1 + shift and v the conditional mean and std of X_t2,
    rem = |alpha|(1 - t2), cz = |alpha| z / (2 sinh(rem)), cm = |alpha|
    coth(rem) / 2, cv = 2 cm v / sqrt(2 pi) and inv_v = 1 / (sqrt(2) v),
    K = (cz - cm*m) erfc((x2 - m) inv_v) - cv exp(-((x2 - m) inv_v)^2).
    The table keeps w*K affine in x1: with p = (x2 - shift) inv_v,

        w*K = (a - b*x1) * erfc(p - q*x1) - c * exp(-(p - q*x1)^2),

    q = slope inv_v, a = w cz - (w cm) shift, b = (w cm) slope, c = w cv.
    A solver that sweeps x1 and x2 many times builds it once; t1, t2 and w
    are not kept. The arrays are at least one-dimensional, of one shape.
    """

    __slots__ = ("params", "q", "shift", "inv_v", "a", "b", "c")

    def __init__(self, params: OUBParams, t1, t2, w=1.0):
        _require_canonical(params)
        t1, t2 = np.broadcast_arrays(*np.atleast_1d(
            np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)))
        if not ((t1 >= 0.0) & (t1 < t2) & (t2 < 1.0)).all():
            raise ValueError("kernel table requires 0 <= t1 < t2 < 1")
        aa = abs(params.alpha)
        self.params = params
        # in place, with each formula's operations in order (bits depend on it)
        sinh_rem = aa * (1.0 - t2)  # rem, until sinh overwrites it
        b = self.b = np.cosh(sinh_rem)  # cm, until w and slope fold in
        np.sinh(sinh_rem, out=sinh_rem)
        sinh_gap = np.sinh(aa * (t2 - t1))
        v = np.sinh(aa * (1.0 - t1))  # sinh_start, until v overwrites it
        # the conditional moments of bridge.cond_mean and bridge.cond_std
        q = self.q = sinh_rem / v  # slope, until inv_v folds into it
        self.shift = params.z * sinh_gap / v
        np.multiply(params.gamma ** 2 / aa, q, out=v)
        v *= sinh_gap
        self.inv_v = _INV_SQRT2 / np.sqrt(v, out=v)
        b *= 0.5 * aa
        b /= sinh_rem
        a = self.a = np.divide(0.5 * aa * params.z, sinh_rem, out=sinh_rem)
        c = self.c = np.multiply(2.0 * _INV_SQRT_2PI, b, out=sinh_gap)
        c *= v
        c *= w
        a *= w
        b *= w
        a -= np.multiply(b, self.shift, out=v)
        b *= q
        q *= self.inv_v

    def evaluate(self, x1, x2, _work=None) -> np.ndarray:
        """w*K at (x1, x2), broadcast against the table's time pairs.

        _work, for a caller that sweeps the same table many times, is three
        float arrays of the result's shape that take a - b*x1, the erfc
        argument and the result, so that the call allocates nothing; the
        first two may be x1 and x2 themselves, which are then overwritten."""
        if _work is None:  # fresh arrays of the full shape: none may grow
            shape = np.broadcast(self.q, x1, x2).shape
            _work = np.empty(shape), np.empty(shape), np.empty(shape)
        m, u, out = _work
        # the class formula, in place: x1 is read twice before m takes it
        np.subtract(x2, self.shift, out=u)
        u *= self.inv_v
        np.multiply(self.q, x1, out=out)
        u -= out
        np.multiply(self.b, x1, out=out)
        np.subtract(self.a, out, out=m)
        erfc(u, out=out)
        out *= m
        np.square(u, out=u)
        np.negative(u, out=u)
        np.exp(u, out=u)
        u *= self.c
        out -= u
        return out

    def residual(self, rows: slice, x2: np.ndarray, z: float, work):
        """h(x) = x - z + sum_j w_j K(t_i, x, t_j, x2_j) over the entries
        rows (one node's Riemann row), x2 the later nodes' beta. work, three
        float arrays as long as the row or longer, takes p and each
        evaluation's arguments and values."""
        q, a, b, c = self.q[rows], self.a[rows], self.b[rows], self.c[rows]
        p, u, e = work[:, :q.size]
        np.subtract(x2, self.shift[rows], out=p)
        p *= self.inv_v[rows]

        def h(x: float) -> float:
            np.multiply(q, x, out=u)
            np.subtract(p, u, out=u)
            erfc(u, out=e)
            s = a.dot(e) - x * b.dot(e)
            np.square(u, out=u)
            np.negative(u, out=u)
            np.exp(u, out=u)
            return float(x - z + s - c.dot(u))

        return h


def drift_kernel(params: OUBParams, t1, x1, t2, x2, table=None, _work=None):
    """Evaluate K(t1, x1, t2, x2) for canonical params; broadcasts over
    array arguments.

    Raises unless 0 <= t1 < t2 < 1. With a KernelTable built for params,
    pass t1 = t2 = None: the times are the table's, and the result is the
    array table.evaluate(x1, x2, _work), w*K for the table's weights w.
    """
    if table is not None:
        if (t1 is not None or t2 is not None
                or (table.params is not params and table.params != params)):
            raise ValueError("with a table, pass t1 = t2 = None and the "
                             "params it was built for")
        return table.evaluate(x1, x2, _work)
    shape = np.broadcast(t1, x1, t2, x2).shape
    return KernelTable(params, t1, t2).evaluate(x1, x2).reshape(shape)[()]

