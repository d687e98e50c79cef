import numpy as np
import pytest

from oubstop import (
    OUBParams,
    SolverConfig,
    ValueSurfaceQuery,
    boundary_eval,
    make_context,
    original_to_transformed,
    picard_solve,
    value,
)
from oubstop.transform import upsilon

from mirror import _boundary_transformed, gain, transformed_value


def test_query_validation():
    with pytest.raises(ValueError):
        ValueSurfaceQuery(t=1.0, x=0.0)
    for x in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite x"):
            ValueSurfaceQuery(t=0.2, x=x)


def test_stopping_region_identity(std_params, std_solution):
    sol = std_solution
    for t in (0.0, 0.4, 0.9):
        b = boundary_eval(sol, t)
        x = b + 10.0
        assert value(std_params, sol, ValueSurfaceQuery(t=t, x=x)) == x
        assert value(std_params, sol, ValueSurfaceQuery(t=t, x=b)) == b


def test_value_near_horizon_is_pinning(std_params, std_solution):
    for x in (-0.004, 0.0, 0.004):
        v = value(std_params, std_solution, ValueSurfaceQuery(t=0.999, x=x))
        assert abs(v - std_params.z) < 5e-3


def test_value_matching_at_boundary_nodes():
    # raw quadrature (no stopping-region clamp) evaluated on the boundary
    # reproduces the boundary itself
    p = OUBParams(alpha=1.0, gamma=1.0, z=0.0)
    sol = picard_solve(p, SolverConfig(n=200))
    t = sol.grid.nodes
    mask = t <= 0.95
    worst = max(
        abs(value(p, sol, ValueSurfaceQuery(t=float(ti), x=float(bi)),
                  clamp=False) - bi)
        for ti, bi in zip(t[mask], sol.beta[mask]))
    assert worst < 5e-3


def test_value_dominates_immediate_stop(std_params, std_solution):
    rng = np.random.default_rng(53)
    for _ in range(40):
        t = rng.uniform(0.0, 0.99)
        x = boundary_eval(std_solution, t) - rng.uniform(0.0, 3.0)
        v = value(std_params, std_solution, ValueSurfaceQuery(t=t, x=x))
        assert v >= x - 1e-6


def test_value_monotone_in_x(std_params, std_solution):
    for t in (0.0, 0.5, 0.9):
        xs = np.linspace(-3.0, 2.0, 41)
        vs = [value(std_params, std_solution, ValueSurfaceQuery(t=t, x=float(x)))
              for x in xs]
        assert np.all(np.diff(vs) >= -1e-9)


def test_transformed_mirror_agreement():
    # two independent quadratures of the same object; the production
    # right-Riemann sum carries an O(sqrt(dt)) overshoot near the horizon,
    # so agreement is ~1e-2 at N=500 and tightens with N
    worst = {}
    for n in (500, 2000):
        p = OUBParams(alpha=1.0, gamma=1.0, z=-5.0)
        sol = picard_solve(p, SolverConfig(n=n))
        ctx = make_context(p)
        diffs = []
        for (t, x) in [(0.0, -5.0), (0.3, -5.8), (0.6, -4.8), (0.9, -5.0)]:
            v = value(p, sol, ValueSurfaceQuery(t=t, x=x))
            s, y = original_to_transformed(ctx, t, x)
            w = transformed_value(ctx, sol, s, y)
            diffs.append(abs(v - ctx.scale * w))
        worst[n] = max(diffs)
    assert worst[500] < 0.02
    assert worst[2000] < worst[500]


def test_transformed_value_far_clock_reaches_gain_parameter(std_solution):
    for z in (0.0, 5.0):
        p = OUBParams(alpha=1.0, gamma=1.0, z=z)
        sol = picard_solve(p, SolverConfig(n=500)) if z else std_solution
        ctx = make_context(p)
        s = upsilon(ctx.alpha, 0.9999)
        b = _boundary_transformed(ctx, sol, s)
        w = transformed_value(ctx, sol, s, b - 1e-9)
        assert abs(w - ctx.c_z) < 1e-2


def test_transformed_value_stopping_region_is_gain(std_solution):
    ctx = make_context(OUBParams(alpha=1.0, gamma=1.0, z=0.0))
    s, y = 1.0, 10.0
    assert transformed_value(ctx, std_solution, s, y) == gain(
        ctx.c_z, ctx.alpha, s, y)


def test_transformed_value_rejects_negative_clock(std_solution):
    ctx = make_context(OUBParams(alpha=1.0, gamma=1.0, z=0.0))
    with pytest.raises(ValueError):
        transformed_value(ctx, std_solution, -0.5, 0.0)
