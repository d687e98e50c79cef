"""Gaussian primitives and the integral kernel of the pricing equations.

The kernel K(t1, x1, t2, x2) is the expected drift of the bridge at time t2
restricted to the region above the threshold x2, conditional on X_{t1} = x1:

    K = alpha * (z*S - cosh(a(1-t2)) * (m*S + v*p)) / sinh(a(1-t2)),

where m, v are the conditional mean/std of X_{t2}, u = (x2 - m)/v,
S = 1 - Phi(u) is the normal upper tail and p = density(u). With m affine in
x1, S's coefficient is alpha*(z*cosh(a(t2-t1)) - x1*cosh(a(1-t2))) /
sinh(a(1-t1)) by sinh's addition theorem, with no cancellation as t2 -> 1.
It is evaluated for t1 < t2 < 1 only: it is undefined at t2 = 1, and no
Riemann row of the pricing equations has t2 = t1, so there is no continuity
extension there.

KernelTable is K over fixed time pairs with quadrature weights folded in.
Its evaluate is the form of K that drift_kernel, the Picard sweep and
pricing use; its residual restates that formula over one row, for backward
induction's node equations. It takes time gaps and checks nothing;
drift_kernel, the public entry, checks the times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .bridge import (OUBParams, _require_canonical, _sinh_factors,
                     _transition_law)
# Not called here: importable for perfbench/workloads.py CALL_SITES to wrap.
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
    0 <= t1 < t2 < 1, w a weight per pair (a Riemann width, or 1). A pair
    is given, unchecked, by its gaps rem1 = 1 - t1, gap = t2 - t1 and rem2 =
    1 - t2, which keep their digits near the horizon where 1 - t2 would not.

    With m = slope*x1 + shift and v the conditional mean and std of X_t2,
    inv_v = 1 / (sqrt(2) v), p = (x2 - shift) inv_v and q = slope inv_v,

        w*K = (a - b*x1) * erfc(p - q*x1) - c * exp(-(p - q*x1)^2),

    in the module's closed form: with h = (|alpha| / (2 sinh(|alpha| rem1)))
    w, a = z (h cosh(|alpha| gap)), b = h cosh(|alpha| rem2) and c = 2 (b /
    slope) v / sqrt(2 pi). A solver that sweeps x1 and x2 many times builds
    it once; the gaps and w are not kept. The arrays are at least
    one-dimensional, of one shape.
    """

    __slots__ = ("params", "q", "shift", "inv_v", "a", "b", "c")

    def __init__(self, params: OUBParams, rem1, gap, rem2, w=1.0):
        rem1, gap, rem2 = np.broadcast_arrays(*np.atleast_1d(rem1, gap, rem2))
        aa = abs(params.alpha)
        self.params = params
        s_start, s_gap, s_rem = _sinh_factors(aa, rem1, gap, rem2)
        self.q, self.shift, v = _transition_law(params, s_start, s_gap, s_rem)
        self.inv_v = _INV_SQRT2 / np.sqrt(v, out=v)
        # |alpha| / (2 s_start) lies in [6.9e-302, 1 / (2 rem1)] at |alpha| <=
        # 700: formed first, and z last, no factor leaves the float range
        h = np.divide(0.5 * aa, s_start, out=s_start)
        h *= w
        b = self.b = np.cosh(np.multiply(aa, rem2, out=s_rem), out=s_rem)
        b *= h
        a = self.a = np.cosh(np.multiply(aa, gap, out=s_gap), out=s_gap)
        a *= h
        a *= params.z
        c = self.c = np.divide(b, self.q, out=h)
        c *= 2.0 * _INV_SQRT_2PI
        c *= v
        self.q *= self.inv_v  # q was the slope

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


# the squared erfc argument u^2 overflows at extreme scales (gamma 1e-100,
# |z| 1e90) to inf, where exp(-u^2) = 0 is exact: allowed once per call
@np.errstate(over="ignore")
def drift_kernel(params: OUBParams, t1, x1, t2, x2, table=None, _work=None):
    """Evaluate K(t1, x1, t2, x2) for canonical params; broadcasts over
    array arguments.

    Raises unless params are canonical and 0 <= t1 < t2 < 1: KernelTable,
    which takes the gaps, checks neither. With a KernelTable built for
    params, pass t1 = t2 = None: the times are the table's, and the result
    is the array table.evaluate(x1, x2, _work), w*K for the table's weights.
    """
    if table is not None:
        if (t1 is not None or t2 is not None
                or (table.params is not params and table.params != params)):
            raise ValueError("with a table, pass t1 = t2 = None and the "
                             "params it was built for")
        return table.evaluate(x1, x2, _work)
    _require_canonical(params)
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    if not ((t1 >= 0.0) & (t1 < t2) & (t2 < 1.0)).all():
        raise ValueError("drift_kernel requires 0 <= t1 < t2 < 1")
    shape = np.broadcast(t1, x1, t2, x2).shape
    table = KernelTable(params, 1.0 - t1, t2 - t1, 1.0 - t2)
    return table.evaluate(x1, x2).reshape(shape)[()]

