"""Value function evaluation from a solved boundary, in original
coordinates:

    V(t, x) = z - integral_t^1 K(t, x, u, beta(u)) du,

discretised by the solvers' own right Riemann rule (solver._Riemann: the
solver mesh restricted to (t, 1), the addend ending at u = 1 dropped), so
that value-matching at the boundary holds by construction of the shared
discretisation; one row serves all the x of a t. In the stopping region
x >= beta(t) the identity V = x is applied directly instead of quadrature.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bridge import OUBParams, _require_canonical
from .kernel import drift_kernel
from .solver import BoundarySolution, _Riemann, boundary_eval

__all__ = ["ValueSurfaceQuery", "value"]


@dataclass(frozen=True)
class ValueSurfaceQuery:
    """A (t, x) evaluation request, t in [0, 1) and x finite, or x an array."""

    t: float
    x: float | np.ndarray

    def __post_init__(self) -> None:
        if not (0.0 <= self.t < 1.0):
            raise ValueError("value query requires t in [0, 1)")
        if not np.isfinite(self.x).all():
            raise ValueError("value query requires a finite x")


def value(params: OUBParams, sol: BoundarySolution, q: ValueSurfaceQuery,
          clamp: bool = True):
    """Value function at q = (t, x) from a solved canonical boundary: a
    float, or for an array q.x an array of its shape. With clamp=True (the
    default) the stopping-region identity V(t, x) = x is returned for x >=
    beta(t); clamp=False evaluates the raw quadrature everywhere, which is
    what value-matching checks exercise.
    """
    _require_canonical(params)
    v = np.array(q.x, dtype=float)  # V = x where clamped
    run = v < boundary_eval(sol, q.t) if clamp else np.full(v.shape, True)
    if run.any():  # in the dropped terminal strip the row is empty: V = z
        table, x2, step = _Riemann(params, sol.grid.nodes).row(q.t)
        beta = x2(sol.beta)
        # at x <= lo, lo <= 0, every erfc argument is >= 28 (the factor
        # covers rounding) and each term exactly 0: x is raised to lo
        p = (beta - table.shift) * table.inv_v
        lo = np.min((p - 28.0) / table.q, initial=0.0) * (1.0 + 1e-14)
        x = np.maximum(v[run], lo)[:, None]
        v[run] = np.concatenate([params.z - drift_kernel(
            params, None, x[i:i + step], None, beta, table=table).sum(axis=-1)
            for i in range(0, x.size, step)])
    return float(v) if v.ndim == 0 else v
