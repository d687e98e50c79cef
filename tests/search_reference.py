"""Backward induction by a root search from the previous node, a test oracle.

oubstop.solver.backward_solve starts each node's root search at the
quadratic extrapolation of the three roots after it, takes a Newton step
by the slope of h carried from the last root, and accepts a root at
|h| < 1e-12*gamma. This module keeps the search it replaced: each node
starts at beta_{i+1}, its first step is the last node's move, and a root
is accepted at |h| < 1e-9*max(1, gamma). Both share the rows of the
Riemann rule (solver._Riemann.blocks, KernelTable.residual) and the window
beta_{i+1} +- 2*gamma*sqrt(t_{i+1} - t_i); tests assert that both find a
root at every node, or both do not, and that their boundaries give values
V(0, z) within 1e-6 of each other.
"""
from __future__ import annotations

import math

import numpy as np

from oubstop.solver import _Riemann

# oubstop.solver._MAX_NODE_STEPS
_MAX_NODE_STEPS = 40


def _node_root(h, b0: float, step: float, width: float, tol: float):
    """The first sign change of h from b0 out, by secant or doubling steps
    until h changes sign, then Illinois steps: (b, error), error None on
    success."""
    a = fa = b = fb = math.nan  # the last two points; h(a)h(b) < 0 once
    x, bracketed = b0, False
    for steps in range(1, _MAX_NODE_STEPS + 1):
        fx = h(x)
        if not math.isfinite(fx):
            return x, "h is not finite"
        if abs(fx) < tol:
            return x, None
        if bracketed and (fx > 0.0) == (fb > 0.0):
            fa *= 0.5
        else:
            bracketed = bracketed or (steps > 1 and (fx > 0.0) != (fb > 0.0))
            a, fa = b, fb
        b, fb = x, fx
        secant = b - fb * (b - a) / (fb - fa) if fb != fa else math.nan
        if bracketed:
            if abs(b - a) < 1e-15 * (1.0 + abs(b)):
                return b, None
            x = secant
            continue
        step = math.copysign(step, -fb)
        x = secant if 0.0 < (secant - b) / step < 1.0 else b + step
        x = min(max(x, b0 - width), b0 + width)
        if x == b:
            return b, f"h keeps its sign within {width:.3g}"
        step = 2.0 * (x - b)
    return b, f"|h| = {abs(fb):.3e} after {steps} steps"


def backward_beta(params, t: np.ndarray):
    """The boundary on the nodes t, or None where a node has no root."""
    n, z = t.size - 1, params.z
    tol = 1e-9 * max(1.0, params.gamma)
    beta = np.full(n + 1, z)
    step = params.gamma * math.sqrt(t[n - 1] - t[n - 2])
    work = np.empty((3, n))
    for low, (offsets, table, _) in _Riemann(params, t).blocks():
        for i in range(low + offsets.size - 2, low - 1, -1):
            h = table.residual(slice(offsets[i - low], offsets[i - low + 1]),
                               beta[i + 1:n], z, work)
            width = 2.0 * params.gamma * math.sqrt(t[i + 1] - t[i])
            b, error = _node_root(h, beta[i + 1], step, width, tol)
            if error is not None:
                return None
            step = max(abs(b - beta[i + 1]), tol)
            beta[i] = b
    return beta
