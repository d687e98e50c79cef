import tracemalloc
import warnings

import numpy as np
import pytest

from oubstop import (
    OUBParams,
    SolverConfig,
    ValueSurfaceQuery,
    boundary_eval,
    drift_kernel,
    make_context,
    original_to_transformed,
    picard_solve,
    value,
)
from oubstop import pricing
from oubstop.solver import _BLOCK_ENTRIES
from oubstop.transform import upsilon

from mirror import _boundary_transformed, gain, transformed_value


def test_query_validation():
    with pytest.raises(ValueError):
        ValueSurfaceQuery(t=1.0, x=0.0)
    for x in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite x"):
            ValueSurfaceQuery(t=0.2, x=x)


def _one_point_value(params, sol, t, x, clamp):
    """V(t, x) by one Riemann row for the one point, summed as a 1-D array:
    the reference for value's batched, chunked rows."""
    if clamp and x >= boundary_eval(sol, t):
        return x
    _, j, table = pricing._riemann_rows(params, sol.grid.nodes, t)
    k = drift_kernel(params, None, x, None, sol.beta[j], table=table)
    return float(params.z - k.sum())


@pytest.mark.parametrize("clamp", [True, False])
@pytest.mark.parametrize("t", [0.0, 0.37, 0.9, 0.9999])
def test_array_value_is_the_one_point_sums_bit_for_bit(std_params,
                                                       std_solution, clamp, t):
    # x on both sides of beta(t) and more of them than one kernel evaluation
    # takes; t = 0.9999 is in the dropped terminal strip (an empty row)
    row = np.count_nonzero(std_solution.grid.nodes[:-1] > t)
    b = boundary_eval(std_solution, t)
    xs = np.linspace(b - 4.0, b + 1.0, _BLOCK_ENTRIES // max(row, 1) + 7)
    xs[3] = b
    got = value(std_params, std_solution, ValueSurfaceQuery(t=t, x=xs),
                clamp=clamp)
    want = np.array([_one_point_value(std_params, std_solution, t, float(x),
                                      clamp) for x in xs])
    assert got.shape == xs.shape
    assert got.tobytes() == want.tobytes()
    one = value(std_params, std_solution, ValueSurfaceQuery(t=t, x=xs[5]),
                clamp=clamp)
    assert type(one) is float and one == want[5]


def test_value_builds_one_row_per_call(std_params, std_solution, monkeypatch):
    calls = []
    rows = pricing._riemann_rows
    monkeypatch.setattr(pricing, "_riemann_rows",
                        lambda *a: calls.append(a) or rows(*a))
    xs = np.linspace(-3.0, 1.0, 500)
    value(std_params, std_solution, ValueSurfaceQuery(t=0.2, x=xs))
    assert len(calls) == 1
    # x all in the stopping region: no row at all
    value(std_params, std_solution, ValueSurfaceQuery(t=0.2, x=xs + 5.0))
    assert len(calls) == 1


def test_value_memory_stays_of_one_row(std_params, std_solution):
    # one unchunked evaluation over 20000 x and the 499-entry row at t = 0
    # would hold three 80 MB arrays
    xs = np.linspace(-3.0, 0.0, 20000)
    tracemalloc.start()
    try:
        value(std_params, std_solution, ValueSurfaceQuery(t=0.0, x=xs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("alpha, t, x", [(1.0, 0.0, -1e308),
                                         (1.0, 0.0, -1e300),
                                         (5.0, 0.0, -1e154),
                                         (5.0, 0.5, -1e200)])
def test_value_far_below_the_boundary_is_z_silently(alpha, t, x):
    p = OUBParams(alpha=alpha, gamma=1.0, z=0.0)
    sol = picard_solve(p, SolverConfig(n=500))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = value(p, sol, ValueSurfaceQuery(t=t, x=x))
        vs = value(p, sol, ValueSurfaceQuery(t=t, x=np.array([x, -40.0])))
    assert v == 0.0
    assert vs[0] == 0.0 and vs[1] == value(
        p, sol, ValueSurfaceQuery(t=t, x=-40.0))


@pytest.mark.parametrize("z", [1.0, -1.0])
def test_value_far_below_is_z_where_the_erfc_argument_rounds_coarsely(z):
    # at gamma = 1e-50 the erfc arguments reach 1e50, where their rounding
    # is far above 1. At z = -1 the clip point is below 0, and without its
    # relative margin it has nonzero terms (V(0, -1e5) came out -1.00006);
    # at z = 1 it would lie above 0, and x is raised to 0 instead
    p = OUBParams(alpha=1.0, gamma=1e-50, z=z)
    sol = picard_solve(p, SolverConfig(n=40))
    for t in (0.0, 0.5):
        assert value(p, sol, ValueSurfaceQuery(t=t, x=-1e5)) == z


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
