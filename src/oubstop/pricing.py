"""Value function evaluation from a solved boundary, in original
coordinates:

    V(t, x) = z - integral_t^1 K(t, x, u, beta(u)) du,

discretised by the solver's own right Riemann rule (solver._riemann_rows:
the solver mesh restricted to (t, 1), the addend ending at u = 1 dropped),
so that value-matching at the boundary holds by construction of the shared
discretisation. In the stopping region x >= beta(t) the identity V = x is
applied directly instead of quadrature.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bridge import OUBParams, _require_canonical
from .kernel import drift_kernel
from .solver import BoundarySolution, _riemann_rows, boundary_eval

__all__ = ["ValueSurfaceQuery", "value"]


@dataclass(frozen=True)
class ValueSurfaceQuery:
    """A (t, x) evaluation request, t in [0, 1) and x finite."""

    t: float
    x: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.t < 1.0):
            raise ValueError("value query requires t in [0, 1)")
        if not np.isfinite(self.x):
            raise ValueError("value query requires a finite x")


def value(params: OUBParams, sol: BoundarySolution, q: ValueSurfaceQuery,
          clamp: bool = True) -> float:
    """Value function at q = (t, x) from a solved canonical boundary.

    With clamp=True (the default) the stopping-region identity V(t, x) = x
    is returned for x >= beta(t); clamp=False evaluates the raw quadrature
    everywhere, which is what value-matching checks exercise.
    """
    _require_canonical(params)
    if clamp and q.x >= boundary_eval(sol, q.t):
        return float(q.x)
    # a start in the dropped terminal strip has an empty row: V = z
    _, j, table = _riemann_rows(params, sol.grid.nodes, q.t)
    k = drift_kernel(params, None, q.x, None, sol.beta[j], table=table)
    return float(params.z - k.sum())

