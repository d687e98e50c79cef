"""Value function evaluation from a solved boundary.

The production path works in original coordinates:

    V(t, x) = z - integral_t^1 K(t, x, u, beta(u)) du,

discretised by the solver's own right Riemann rule (solver._riemann_rows:
the solver mesh restricted to (t, 1), the addend ending at u = 1 dropped),
so that value-matching at the boundary holds by construction of the shared
discretisation. In the stopping region x >= beta(t) the identity V = x is
applied directly instead of quadrature.

The transformed-space formula W(s, y) = c - integral_s^inf ... du is kept
as a mirror check. Its quadrature refines the image of the solver mesh
under the clock map (whose cells stretch enormously towards the horizon;
the integrand tail decays only like u^-3/2 because the boundary grows like
sqrt(u)) and, like the production path, stops at the image of the last
interior node. Starting clocks beyond the mesh integrate out to
upsilon(1 - 1e-6).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bridge import OUBParams, _require_canonical
from .kernel import drift_kernel, transformed_integrand
from .solver import BoundarySolution, _riemann_rows, boundary_eval
from .transform import TransformContext, gain, original_to_transformed, upsilon, upsilon_inv

__all__ = ["ValueSurfaceQuery", "value", "transformed_value"]

_TRUNCATION_TIME = 1.0 - 1e-6


@dataclass(frozen=True)
class ValueSurfaceQuery:
    """A (t, x) evaluation request, t in [0, 1)."""

    t: float
    x: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.t < 1.0):
            raise ValueError("value query requires t in [0, 1)")


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
    _, j, w = _riemann_rows(sol.grid.nodes, q.t)
    if j.size == 0:
        # the whole remaining time lies in the dropped terminal strip
        return float(params.z)
    k = drift_kernel(params, q.t, q.x, sol.grid.nodes[j], sol.beta[j])
    return float(params.z - np.dot(k, w))


def _boundary_transformed(ctx: TransformContext, sol: BoundarySolution, s):
    t = upsilon_inv(ctx.alpha, s)
    _, b = original_to_transformed(ctx, t, boundary_eval(sol, t))
    return b


_REFINE = 4     # sub-cells per solver cell in the image quadrature
_TAIL_RATIO = 0.7  # geometric decay of 1-t towards the truncation time


def _image_times(sol: BoundarySolution, t_start: float) -> np.ndarray:
    # Quadrature times for the transformed integral. Inside the mesh: the
    # solver nodes after t_start, each cell subdivided, because the clock
    # map stretches cells near the horizon enormously and the integrand
    # tail decays only like u^-3/2. The region past the last interior node
    # is excluded, mirroring the dropped terminal addend of the production
    # path (the interpolated boundary is flat there and the occupation
    # integral over that strip would not measure the value). A start beyond
    # the last interior node instead integrates a geometric continuation of
    # 1-t down to the truncation time.
    nodes = sol.grid.nodes
    base = nodes[(nodes > t_start) & (nodes < 1.0)]
    if base.size:
        edges = np.concatenate(([t_start], base))
        return np.concatenate([
            np.linspace(edges[i], edges[i + 1], _REFINE + 1)[1:]
            for i in range(edges.size - 1)
        ])
    tail = []
    w = (1.0 - t_start) * _TAIL_RATIO
    while w > 1.0 - _TRUNCATION_TIME:
        tail.append(1.0 - w)
        w *= _TAIL_RATIO
    tail.append(_TRUNCATION_TIME)
    return np.asarray(tail)


def transformed_value(ctx: TransformContext, sol: BoundarySolution,
                      s: float, y: float) -> float:
    """Mirror evaluation of the value in transformed coordinates.

    Integrates over a refined image of the solver mesh under the clock
    map; like the production path it stops at the image of the last
    interior node. For y on or above the transformed boundary the gain is
    returned directly.
    """
    if s < 0.0:
        raise ValueError("transformed value requires s >= 0")
    if y >= _boundary_transformed(ctx, sol, s):
        return gain(ctx.c_z, ctx.alpha, s, y)

    t_start = upsilon_inv(ctx.alpha, s)
    if t_start >= _TRUNCATION_TIME:
        return ctx.c_z
    tmesh = _image_times(sol, t_start)
    u = upsilon(ctx.alpha, tmesh)
    keep = u > s  # guard against clock round-trip rounding at the start
    u = u[keep]
    _, b_u = original_to_transformed(ctx, tmesh[keep],
                                     boundary_eval(sol, tmesh[keep]))
    if u.size == 0:
        return ctx.c_z
    widths = np.diff(np.concatenate(([s], u)))
    integ = transformed_integrand(ctx, s, y, u, b_u)
    return float(ctx.c_z - np.dot(integ, widths))
