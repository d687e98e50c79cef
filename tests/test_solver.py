import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oubstop import (
    BoundarySolution,
    ConvergenceError,
    OUBParams,
    SolvedBoundary,
    SolverConfig,
    TimeGrid,
    ValueSurfaceQuery,
    backward_solve,
    boundary_eval,
    drift_kernel,
    picard_solve,
    reduce_to_canonical,
    solve_boundary,
    value,
)
from oubstop import solver
from oubstop.solver import _picard_sweep, _riemann_rows

import search_reference


def _reference_sweep(params, rows, beta):
    """One Picard sweep as it was written before it reused work arrays:
    fresh arrays for x1, x2 and the kernel values at every call."""
    head, j, table = rows
    x1 = np.repeat(beta[:head.size], np.diff(head, append=j.size))
    k = drift_kernel(params, None, x1, None, beta[j], table=table)
    new = np.full_like(beta, params.z)
    new[:head.size] -= np.add.reduceat(k, head)
    return new


def _row_residual(p, t, b):
    """The largest residual over rows 0..N-2 of the discrete system for the
    boundary b on the nodes t, each row rebuilt from the public kernel."""
    n = t.size - 1
    dt = np.diff(t)
    return max(
        abs(p.z - float(np.dot(drift_kernel(p, t[i], b[i], t[i + 1:n],
                                            b[i + 1:n]), dt[i:n - 1])) - b[i])
        for i in range(n - 1))


def test_log_partition_endpoints_and_midpoint():
    grid = SolverConfig(n=500).build_grid()
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == 1.0
    assert grid.n == 500
    # ln(1 + 0.5*(e-1))
    assert grid.nodes[250] == pytest.approx(0.6201145069582775, abs=1e-15)
    assert np.all(np.diff(grid.nodes) > 0.0)
    # spacing shrinks towards the horizon
    d = np.diff(grid.nodes)
    assert d[-1] < d[0]


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.9]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 0.5, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, math.nan, 1.0]))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n=1)
    with pytest.raises(ValueError):
        SolverConfig(eps=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    # a fractional n gave a half-width last cell, a fractional max_iter a
    # TypeError from the Picard fallback, eps = inf a first sweep taken as
    # converged
    # bool is an int subclass: max_iter=True would run one sweep
    for field, bad in (("n", 500.5), ("max_iter", 2.5), ("eps", math.inf),
                       ("n", True), ("max_iter", True)):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SolverConfig(**{field: bad})
    assert SolverConfig(n=np.int64(60)).build_grid().n == 60


def test_picard_terminal_pinning():
    for z in (-5.0, 0.0, 2.5):
        sol = picard_solve(OUBParams(alpha=1.0, gamma=1.0, z=z),
                           SolverConfig(n=60))
        assert sol.beta[-1] == z
        assert sol.final_residual < 1e-4
        assert sol.method == "picard"


def test_picard_requires_canonical():
    with pytest.raises(ValueError):
        picard_solve(OUBParams(alpha=1.0, gamma=1.0, z=0.0, horizon=2.0))


def test_picard_is_deterministic():
    p = OUBParams(alpha=1.0, gamma=1.0, z=-5.0)
    a = picard_solve(p, SolverConfig(n=80))
    b = picard_solve(p, SolverConfig(n=80))
    assert np.array_equal(a.beta, b.beta)
    assert a.iterations == b.iterations


def test_picard_alpha_parity_identical():
    cfg = SolverConfig(n=200)
    sp = picard_solve(OUBParams(alpha=2.0, gamma=1.0, z=0.0), cfg)
    sm = picard_solve(OUBParams(alpha=-2.0, gamma=1.0, z=0.0), cfg)
    assert np.max(np.abs(sp.beta - sm.beta)) <= 1e-10


def test_picard_brownian_bridge_limit():
    sol = picard_solve(OUBParams(alpha=1e-4, gamma=1.0, z=0.0),
                       SolverConfig(n=200))
    t = sol.grid.nodes
    mask = t <= 0.95
    ref = 0.8399 * np.sqrt(1.0 - t[mask])
    assert np.max(np.abs(sol.beta[mask] - ref)) < 0.02


def test_picard_non_convergence_error():
    with pytest.raises(ConvergenceError) as err:
        picard_solve(OUBParams(alpha=1.0, gamma=1.0, z=0.0),
                     SolverConfig(n=50, max_iter=1))
    assert err.value.solution.iterations == 1
    assert err.value.solution.final_residual > 1e-4
    assert err.value.solution.beta.shape == (51,)


def test_picard_stops_at_first_non_finite_sweep():
    # sinh(800) overflows, so the first sweep is nan: stop there rather
    # than run all max_iter sweeps on nan
    with (np.errstate(all="ignore"),
          pytest.raises(ConvergenceError, match="sweep 1 gave") as err):
        picard_solve(OUBParams(alpha=800.0, gamma=1.0, z=0.0),
                     SolverConfig(n=50))
    assert err.value.solution.iterations == 1
    assert not math.isfinite(err.value.solution.final_residual)


def test_backward_matches_picard():
    p = OUBParams(alpha=1.0, gamma=1.0, z=0.0)
    cfg = SolverConfig(n=120)
    sp = picard_solve(p, cfg)
    sb = backward_solve(p, cfg)
    assert sb.method == "backward"
    assert sb.beta[-1] == 0.0
    assert sb.beta[-2] == 0.0
    assert np.max(np.abs(sp.beta - sb.beta)) < 5e-3


@pytest.mark.parametrize("alpha,gamma,z", list(itertools.product(
    (0.01, 1.0, 5.0), (0.5, 1.0, 2.0), (-5.0, 0.0, 5.0))))
def test_backward_bisection_meets_tolerance(alpha, gamma, z):
    # Across the envelope every node is one root-finder run that stops at
    # |h| < tol within 40 kernel rows, and the residual of every row of the
    # discrete system, rebuilt from the public kernel, agrees. Only at
    # z = -5 may a node find no root within its window; solve_boundary then
    # takes Picard's boundary. Either way the production boundary moves by
    # less than 1.5*gamma*sqrt(t_{i+1} - t_i) per node (at most 0.94 seen;
    # spikes were 5-23): no spikes. At z = 0, where each node's root is
    # unique, Picard is within its stopping error.
    p = OUBParams(alpha=alpha, gamma=gamma, z=z)
    tol = 1e-12 * gamma
    for n in (120, 200, 500):
        cfg = SolverConfig(n=n)
        t = cfg.build_grid().nodes
        try:
            sol = backward_solve(p, cfg)
        except ConvergenceError as err:
            assert z < 0.0 and "h keeps its sign within" in str(err)
            sol = None
        if sol is not None:
            b = sol.beta
            assert sol.final_residual < tol
            assert sol.iterations <= 40 * (n - 1)
            assert b[-2] == b[-1] == z
            assert _row_residual(p, t, b) <= 2.0 * tol
            if z == 0.0:
                assert np.max(np.abs(b - picard_solve(p, cfg).beta)) < 5e-3
        production = solve_boundary(p, cfg).canonical
        assert production.method == ("backward" if sol else "picard")
        assert np.all(np.abs(np.diff(production.beta))
                      < 1.5 * gamma * np.sqrt(np.diff(t)))


def test_backward_failure_carries_partial(monkeypatch):
    # with one step per node the warm start z is the only try at node N-2
    monkeypatch.setattr(solver, "_MAX_NODE_STEPS", 1)
    cfg = SolverConfig(n=50)
    with pytest.raises(ConvergenceError, match="no root at node 48") as err:
        backward_solve(OUBParams(alpha=1.0, gamma=1.0, z=0.0), cfg)
    sol = err.value.solution
    assert sol.method == "backward" and sol.iterations == 1
    assert sol.final_residual > 1e-9
    assert np.array_equal(sol.beta, np.zeros(cfg.n + 1))


@pytest.mark.parametrize("alpha", (0.01, 1.0, 5.0))
@pytest.mark.parametrize("gamma", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("z", (-5.0, 0.0, 5.0))
def test_folded_row_is_the_kernel_row(alpha, gamma, z):
    # on the block's weighted table, h(x) - (x - z) is the row's weighted
    # kernel sum built from the public kernel and the widths, at the node's
    # own beta and off it
    p = OUBParams(alpha=alpha, gamma=gamma, z=z)
    t = SolverConfig(n=60).build_grid().nodes
    n = t.size - 1
    dt = np.diff(t)
    beta = z + 0.84 * gamma * np.sqrt(1.0 - t)
    beta[-2:] = z
    head, j, table = _riemann_rows(p, t, t[:-2])
    ends = np.append(head[1:], j.size)
    work = np.empty((3, n))
    for i in range(n - 1):
        h = table.residual(slice(head[i], ends[i]), beta[i + 1:n], z, work)
        for x in (beta[i], beta[i] - 0.3 * gamma, beta[i] + 0.3 * gamma):
            k = drift_kernel(p, t[i], x, t[i + 1:n], beta[i + 1:n])
            sum_wk = float(np.dot(k, dt[i:n - 1]))
            assert abs(h(x) - (x - z) - sum_wk) <= 1e-14 * (1.0 + abs(z))


@pytest.mark.parametrize("alpha,gamma,z", list(itertools.product(
    (0.01, 1.0, 5.0), (0.5, 1.0, 2.0), (-5.0, 0.0, 5.0))))
def test_extrapolated_start_changes_no_outcome(alpha, gamma, z):
    # against the search from beta_{i+1} at |h| < 1e-9*max(1, gamma) that
    # the extrapolated start replaced (tests/search_reference.py): the same
    # outcome, and a boundary whose V(0, z) is within 1e-6 (5.1e-8 seen)
    p = OUBParams(alpha=alpha, gamma=gamma, z=z)
    cfg = SolverConfig(n=500)
    ref = search_reference.backward_beta(p, cfg.build_grid().nodes)
    try:
        sol = backward_solve(p, cfg)
    except ConvergenceError:
        assert ref is None
        return
    assert ref is not None
    q = ValueSurfaceQuery(t=0.0, x=z)
    old = BoundarySolution(grid=sol.grid, beta=ref, iterations=0,
                           final_residual=0.0, method="backward")
    assert abs(value(p, sol, q) - value(p, old, q)) <= 1e-6


@pytest.mark.parametrize("n,rows_per_node", [(500, 3.0), (2000, 2.5)])
def test_backward_rows_per_node(n, rows_per_node):
    # from the extrapolated root a node mostly takes two or three rows;
    # the search from beta_{i+1} alone took 4.03 per node at N = 500 and
    # 3.04 at N = 2000
    sol = backward_solve(OUBParams(alpha=1.0, gamma=1.0, z=0.0),
                         SolverConfig(n=n))
    assert sol.iterations <= rows_per_node * (n - 1)


def test_solve_boundary_falls_back_to_picard():
    # at a far pin h can stay just below zero at a node, its nearest root
    # far outside the window; the production boundary is then Picard's.
    # Here the root search fails at node 45 at every root tolerance from
    # 1e-13 to 1e-9 (at node 46 at 1e-8); at (1, 1, -5) it failed at 1e-9
    # only, so which solver answered there hung on the tolerance
    p = OUBParams(alpha=1.0, gamma=0.5, z=-5.0)
    cfg = SolverConfig(n=200)
    with pytest.raises(ConvergenceError, match="no root at node 45: h keeps"):
        backward_solve(p, cfg)
    sol = solve_boundary(p, cfg).canonical
    assert sol.method == "picard"
    assert np.array_equal(sol.beta, picard_solve(p, cfg).beta)


@pytest.mark.parametrize("alpha,gamma,z,below", [(5.0, 1.0, -5.0, 240),
                                                  (1.0, 1.0, 0.0, 0)])
def test_drift_margin_is_the_direct_expression(alpha, gamma, z, below):
    # the margin of nodes 0..N-2 above z/cosh(alpha(1 - t)), in units of
    # gamma*sqrt(t_{i+1} - t_i), that verify's rows and the CLI warning
    # read; at (5, 1, -5) N=500 crosses the bound
    solved = solve_boundary(OUBParams(alpha=-alpha, gamma=gamma, z=z),
                            SolverConfig(n=500))
    beta, t = solved.canonical.beta, solved.canonical.grid.nodes
    gap = beta[:-2] - z / np.cosh(alpha * (1 - t[:-2]))
    margin = solved.drift_margin
    assert np.array_equal(margin, gap / (gamma * np.sqrt(np.diff(t[:-1]))))
    assert margin.size == 499 and np.count_nonzero(margin <= 0.0) == below
    assert not margin.flags.writeable


def test_drift_margin_past_the_largest_float_is_inf_without_warning():
    # solve --z=1e308 --out writes such a partial boundary
    p = OUBParams(alpha=1.0, gamma=1e-100, z=1e308)
    grid = SolverConfig(n=100).build_grid()
    sol = BoundarySolution(grid=grid, beta=np.full(101, 1e308), iterations=0,
                           final_residual=math.nan, method="picard")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        margin = SolvedBoundary(reduce_to_canonical(p), sol).drift_margin
    assert np.isposinf(margin).all()


# The grid problems (alpha, gamma, z) of alpha in {0.01, 0.5, 1, 2, 3, 5},
# gamma in {0.25, 0.5, 1, 2}, z in {-10, -5, -2, 0, 2, 5, 10} where, at
# N = 500, backward induction finds no root and solve_boundary falls back.
FALLBACKS_N500 = ((0.5, 0.25, -10.0), (0.5, 0.25, -5.0), (0.5, 0.5, -10.0),
                  (1.0, 0.25, -5.0), (1.0, 0.25, -2.0), (1.0, 0.5, -10.0),
                  (1.0, 0.5, -5.0), (1.0, 1.0, -10.0), (2.0, 0.5, -2.0),
                  (2.0, 1.0, -5.0), (2.0, 2.0, -10.0))


def test_backward_fallback_set_at_n500():
    # backward induction raises on the grid problems of FALLBACKS_N500 and
    # on no other
    raised = set()
    for alpha, gamma, z in itertools.product((0.01, 0.5, 1.0, 2.0, 3.0, 5.0),
                                             (0.25, 0.5, 1.0, 2.0),
                                             (-10.0, -5.0, -2.0, 0.0, 2.0,
                                              5.0, 10.0)):
        try:
            backward_solve(OUBParams(alpha=alpha, gamma=gamma, z=z),
                           SolverConfig(n=500))
        except ConvergenceError:
            raised.add((alpha, gamma, z))
    assert raised == set(FALLBACKS_N500)


@pytest.mark.parametrize("alpha,gamma,z", FALLBACKS_N500)
def test_picard_fallback_contract(alpha, gamma, z):
    # the fallback's boundary solves every row of the discrete system,
    # rebuilt from the public kernel, to eps*gamma, without spikes, in at
    # most 100 sweeps (unmixed Picard from the constant z took 121-649).
    # The returned boundary is the iterate whose sweep changed it by less
    # than eps*gamma, so that change, final_residual, is its row residual.
    p = OUBParams(alpha=alpha, gamma=gamma, z=z)
    cfg = SolverConfig(n=500)
    sol = solve_boundary(p, cfg).canonical
    assert sol.method == "picard"
    assert sol.iterations <= 100
    t, b = sol.grid.nodes, sol.beta
    residual = _row_residual(p, t, b)
    assert abs(residual - sol.final_residual) <= 1e-12
    assert residual <= cfg.eps * gamma
    assert np.all(np.abs(np.diff(b)) < 1.5 * gamma * np.sqrt(np.diff(t)))
    if (alpha, gamma, z) == (1.0, 0.5, -5.0):
        # unmixed Picard's V(0, z); both stop within about eps of the
        # discrete solution
        v = value(p, sol, ValueSurfaceQuery(t=0.0, x=z))
        assert abs(v - -4.39687) <= 1e-4


@pytest.mark.parametrize("alpha,gamma,z,unmixed", [
    (2.0, 0.25, -2.0, 207), (3.0, 0.5, -2.0, 101), (5.0, 1.0, -5.0, 225),
    (5.0, 0.5, -5.0, 799)])
def test_picard_mixing_takes_no_more_sweeps(alpha, gamma, z, unmixed):
    # off the fallback set too, the mixed iteration converges in no more
    # sweeps than unmixed Picard from the constant z (it takes 11, 23, 38
    # and 254); started at the constant z, without the ridge it had
    # there, it takes 413 at the second
    sol = picard_solve(OUBParams(alpha=alpha, gamma=gamma, z=z),
                       SolverConfig(n=500))
    assert sol.iterations <= unmixed


@pytest.mark.parametrize("alpha,gamma,z", [
    (3.0, 1.0, -5.0), (3.0, 2.0, -10.0), (5.0, 0.5, -2.0)])
def test_picard_converges_at_n1000(alpha, gamma, z):
    # started at the constant z, the mixing moved beta(0) far in its first
    # sweeps, while the change was still travelling back to node 0, and
    # stalled next to a spiky near-fixed point (2000 sweeps, residual about
    # 2e-3; unmixed Picard took 146-184 sweeps). From the drift-sign bound
    # it converges, without spikes.
    p = OUBParams(alpha=alpha, gamma=gamma, z=z)
    sol = picard_solve(p, SolverConfig(n=1000))
    assert sol.iterations <= 100
    t, b = sol.grid.nodes, sol.beta
    assert np.all(np.abs(np.diff(b)) < 1.5 * gamma * np.sqrt(np.diff(t)))


def test_far_pin_fallback_without_spikes_at_n1000():
    # backward induction finds no root here; the fallback started at the
    # constant z ended on a spiky near-fixed point (node steps up to 5.45
    # gamma sqrt(dt)), the one started at the drift-sign bound does not
    p = OUBParams(alpha=2.0, gamma=1.0, z=-10.0)
    sol = solve_boundary(p, SolverConfig(n=1000)).canonical
    assert sol.method == "picard"
    t = sol.grid.nodes
    assert np.all(np.abs(np.diff(sol.beta)) < 1.5 * np.sqrt(np.diff(t)))


def test_solve_boundary_failure_keeps_both_errors():
    # where Picard fails too, the error names both solvers, is caused by
    # backward induction's and carries Picard's last iterate
    p = OUBParams(alpha=1.0, gamma=0.5, z=-5.0)
    cfg = SolverConfig(n=120, max_iter=1)
    with pytest.raises(ConvergenceError) as picard:
        picard_solve(p, cfg)
    with pytest.raises(ConvergenceError) as err:
        solve_boundary(p, cfg)
    assert "backward induction found no root at node 2" in str(err.value)
    assert str(picard.value) in str(err.value)
    assert isinstance(err.value.__cause__, ConvergenceError)
    assert err.value.__cause__.solution.method == "backward"
    assert err.value.solution.method == "picard"
    assert np.array_equal(err.value.solution.beta, picard.value.solution.beta)


def test_mesh_refinement_converges():
    p = OUBParams(alpha=1.0, gamma=1.0, z=0.0)
    sols = {n: picard_solve(p, SolverConfig(n=n)) for n in (10, 100, 500)}
    d1 = np.max(np.abs(sols[10].beta
                       - boundary_eval(sols[100], sols[10].grid.nodes)))
    d2 = np.max(np.abs(sols[100].beta
                       - boundary_eval(sols[500], sols[100].grid.nodes)))
    assert d2 < d1


def test_backward_mesh_refinement_converges():
    p = OUBParams(alpha=1.0, gamma=1.0, z=0.0)
    sols = {n: backward_solve(p, SolverConfig(n=n)) for n in (10, 60, 150)}
    d1 = np.max(np.abs(sols[10].beta
                       - boundary_eval(sols[60], sols[10].grid.nodes)))
    d2 = np.max(np.abs(sols[60].beta
                       - boundary_eval(sols[150], sols[60].grid.nodes)))
    assert d2 < d1


def test_gamma_scaling_at_zero_pinning():
    cfg = SolverConfig(n=200)
    s1 = picard_solve(OUBParams(alpha=1.0, gamma=1.0, z=0.0), cfg)
    s2 = picard_solve(OUBParams(alpha=1.0, gamma=2.0, z=0.0), cfg)
    assert np.max(np.abs(s2.beta - 2.0 * s1.beta)) < 2e-3


def test_boundary_eval_interpolation(std_solution):
    sol = std_solution
    t = sol.grid.nodes
    assert np.array_equal(boundary_eval(sol, t), sol.beta)
    assert boundary_eval(sol, 1.0) == sol.beta[-1]
    mid = 0.5 * (t[3] + t[4])
    assert boundary_eval(sol, mid) == pytest.approx(
        0.5 * (sol.beta[3] + sol.beta[4]), rel=1e-12)
    with pytest.raises(ValueError):
        boundary_eval(sol, 1.5)
    with pytest.raises(ValueError):
        boundary_eval(sol, -0.1)
    with pytest.raises(ValueError):
        boundary_eval(sol, math.nan)


def test_pulling_level_equivariance():
    cfg = SolverConfig(n=150)
    shifted = solve_boundary(OUBParams(alpha=1.0, gamma=1.0, z=5.0,
                                       theta=5.0), cfg)
    base = solve_boundary(OUBParams(alpha=1.0, gamma=1.0, z=0.0), cfg)
    assert np.max(np.abs(shifted.values - (base.values + 5.0))) <= 1e-9
    assert shifted.values[-1] == 5.0


def test_horizon_equivariance():
    # beta over horizon T from the canonical solve equals the directly
    # rescaled boundary: beta_{a, g, T}(t) = beta_{aT, g sqrt(T), 1}(t / T)
    cfg = SolverConfig(n=150)
    T = 2.0
    general = solve_boundary(OUBParams(alpha=2.0, gamma=1.0, z=0.0,
                                       horizon=T), cfg)
    canonical = backward_solve(OUBParams(alpha=4.0, gamma=math.sqrt(2.0),
                                         z=0.0), cfg)
    assert np.max(np.abs(general.values - canonical.beta)) <= 1e-9
    tau = canonical.grid.nodes
    assert np.max(np.abs(general.nodes - T * tau)) <= 1e-12
    # eval in original time hits the canonical values at the nodes
    assert np.max(np.abs(general.eval(T * tau) - canonical.beta)) <= 1e-9


def test_slope_horizon_scaling_identity():
    # beta^{alpha r, gamma, T}(t) = beta^{alpha, gamma r^{-1/2}, rT}(rt)
    cfg = SolverConfig(n=120)
    r = 2.0
    lhs = solve_boundary(OUBParams(alpha=1.0 * r, gamma=1.0, z=0.0,
                                   horizon=1.0), cfg)
    rhs = solve_boundary(OUBParams(alpha=1.0, gamma=1.0 / math.sqrt(r),
                                   z=0.0, horizon=r * 1.0), cfg)
    t = lhs.nodes
    assert np.max(np.abs(lhs.values - rhs.eval(r * t))) <= 1e-9


def test_solved_boundary_eval_endpoints():
    sol = solve_boundary(OUBParams(alpha=1.0, gamma=1.0, z=0.3, theta=0.1,
                                   horizon=2.0), SolverConfig(n=60))
    assert sol.values[-1] == 0.3
    assert sol.eval(2.0) == 0.3
    assert sol.eval(0.0) == sol.values[0]
    assert type(sol.eval(1.0)) is np.float64
    assert sol.eval(np.array([0.0, 2.0])).shape == (2,)
    # the range is [0, horizon], named in the error, and nan is outside it
    for bad in (2.5, -0.1, math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match=r"t in \[0, 2\.0\]"):
            sol.eval(bad)
    # canonical 1 maps to the horizon exactly, so no node lies past it (at
    # T = 0.104 the product with a rounded 1 / T gave 0.10400000000000001);
    # eval interpolates the nodes it returns, so it gives back the values
    # exactly
    for theta, horizon in ((1.0, 3.0), (0.0, 0.104)):
        sol = solve_boundary(OUBParams(alpha=1.0, gamma=1.0, z=0.0,
                                       theta=theta, horizon=horizon),
                             SolverConfig(n=60))
        assert sol.nodes[-1] == horizon
        assert np.array_equal(sol.eval(sol.nodes), sol.values)


@pytest.mark.parametrize("alpha,gamma,z,theta,horizon", [
    (1.0, 1.0, 0.3, 0.1, 2.0), (1.0, 1.0, 0.0, 1.0, 3.0),
    (2.0, 0.5, -1.0, -2.0, 0.104)])
def test_solved_boundary_eval_between_nodes(alpha, gamma, z, theta, horizon):
    # between the nodes eval agrees with interpolation in canonical
    # coordinates, mapped back, to rounding
    sol = solve_boundary(OUBParams(alpha=alpha, gamma=gamma, z=z,
                                   theta=theta, horizon=horizon),
                         SolverConfig(n=60))
    red = sol.reduction
    t = np.random.default_rng(4).uniform(0.0, horizon, 2000)
    canonical = red.from_canonical_space(
        boundary_eval(sol.canonical, red.to_canonical_time(t)))
    ulp = np.spacing(np.max(np.abs(sol.values)))
    assert np.max(np.abs(sol.eval(t) - canonical)) <= 8 * ulp


def test_solve_boundary_method_choice():
    # solve_boundary is backward induction; picard_solve is called directly
    p = OUBParams(alpha=1.0, gamma=1.0, z=0.0)
    cfg = SolverConfig(n=60)
    sb = solve_boundary(p, cfg)
    assert sb.canonical.method == "backward"
    assert np.array_equal(sb.canonical.beta, backward_solve(p, cfg).beta)
    with pytest.raises(TypeError):
        solve_boundary(p, cfg, method="backward")


def _backward_outcomes():
    out = []
    for alpha, gamma, z, n in itertools.product(
            (0.01, 1.0, 5.0), (0.5, 1.0, 2.0), (-5.0, 0.0, 5.0), (120, 200)):
        try:
            sol, msg = backward_solve(OUBParams(alpha=alpha, gamma=gamma,
                                                z=z), SolverConfig(n=n)), None
        except ConvergenceError as err:
            sol, msg = err.solution, str(err)
        out.append((sol.beta, sol.iterations, sol.final_residual, msg))
    return out


def test_backward_block_size_changes_nothing(monkeypatch):
    # the nodes share their Riemann rows block by block; how many a block
    # holds changes no bit of the boundary, the counts or the errors
    default = _backward_outcomes()
    assert any(msg is not None for *_, msg in default)
    for entries in (1, 10 ** 9):  # one node per block, one block
        monkeypatch.setattr(solver, "_BLOCK_ENTRIES", entries)
        for (b0, k0, r0, m0), (b, k, r, m) in zip(default,
                                                  _backward_outcomes()):
            assert np.array_equal(b, b0)
            assert (k, r, m) == (k0, r0, m0)


def _picard_outcomes():
    out = []
    for alpha, gamma, z, n, max_iter in (
            (1.0, 0.5, -5.0, 20, 2000), (1.0, 0.5, -5.0, 500, 2000),
            (1.0, 1.0, 0.0, 80, 2000), (2.0, 1.0, 0.0, 80, 2000),
            (-2.0, 1.0, 0.0, 80, 2000), (1.0, 1.0, 0.0, 80, 1),
            (800.0, 1.0, 0.0, 50, 2000)):
        p = OUBParams(alpha=alpha, gamma=gamma, z=z)
        cfg = SolverConfig(n=n, max_iter=max_iter)
        try:
            with np.errstate(all="ignore"):  # sinh(800) overflows
                sol, msg = picard_solve(p, cfg), None
        except ConvergenceError as err:
            sol, msg = err.solution, str(err)
        out.append((sol.beta, sol.iterations, sol.final_residual, msg))
    return out


def test_picard_block_size_changes_nothing(monkeypatch):
    # Picard sweeps backward induction's row blocks; how many rows a block
    # holds changes no bit of the boundary, the counts or the errors
    default = _picard_outcomes()
    assert sum(msg is not None for *_, msg in default) == 2
    for entries in (1, 10 ** 9):  # one row per block, one block
        monkeypatch.setattr(solver, "_BLOCK_ENTRIES", entries)
        for (b0, k0, r0, m0), (b, k, r, m) in zip(default,
                                                  _picard_outcomes()):
            assert np.array_equal(b, b0, equal_nan=True)
            assert np.array_equal((k, r), (k0, r0), equal_nan=True)
            assert m == m0


def test_picard_memory_is_bounded_by_its_table():
    # the blocks keep the six arrays of the weighted table and the int64 j
    # of the N(N-1)/2 entries; nothing else as long as them may be held at
    # once
    p = OUBParams(alpha=1.0, gamma=0.5, z=-5.0)
    cfg = SolverConfig(n=500)
    kept = 7 * 8 * cfg.n * (cfg.n - 1) // 2
    tracemalloc.start()
    try:
        picard_solve(p, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * kept


@pytest.mark.parametrize("alpha", (0.01, 1.0, 5.0))
@pytest.mark.parametrize("gamma", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("z", (-5.0, 0.0, 5.0))
def test_operator_sweep_matches_row_by_row(alpha, gamma, z):
    # one sweep of the precomputed operator against the same sweep rebuilt
    # row by row from the public kernel, from the same boundary
    p = OUBParams(alpha=alpha, gamma=gamma, z=z)
    grid = SolverConfig(n=60).build_grid()
    t, n = grid.nodes, grid.n
    dt = np.diff(t)
    beta = z + 0.84 * gamma * np.sqrt(1.0 - t)
    beta[-1] = z
    riemann = _riemann_rows(p, t, t[:-2])
    swept = _picard_sweep(p, [(0, riemann)], beta,
                          np.empty((2, riemann[1].size)))
    rows = [z - float(np.dot(drift_kernel(p, t[i], beta[i], t[i + 1:n],
                                          beta[i + 1:n]), dt[i:n - 1]))
            for i in range(n - 1)]
    assert swept[-2] == swept[-1] == z
    assert np.max(np.abs(swept[:-2] - rows)) <= 1e-14 * (1.0 + abs(z))

    # value takes the solver's Riemann rows: unclamped on the boundary it
    # is z less the sum of the block table's row, bit for bit, and the
    # row-by-row sweep within the sweep's bound
    sol = BoundarySolution(grid=grid, beta=beta, iterations=0,
                           final_residual=0.0, method="given")
    priced = [value(p, sol, ValueSurfaceQuery(t=t[i], x=beta[i]), clamp=False)
              for i in range(n - 1)]
    i, j = np.triu_indices(n - 1)
    x1, x2 = beta[i], beta[j + 1]
    tabled = drift_kernel(p, None, x1, None, x2, table=riemann[2])
    ends = np.append(riemann[0], tabled.size)
    assert priced == [z - float(tabled[a:b].sum())
                      for a, b in zip(ends[:-1], ends[1:])]
    assert np.max(np.abs(np.subtract(priced, rows))) <= 1e-14 * (1.0 + abs(z))

    # the table path is the weighted kernel itself, not an approximation
    direct = drift_kernel(p, t[i], x1, t[j + 1], x2)
    assert np.max(np.abs(tabled - dt[j] * direct)) <= 1e-14 * (1.0 + abs(z))


@pytest.mark.parametrize("n", [20, 500])
def test_sweep_work_arrays_change_nothing(n):
    # sweeps that write into one set of work arrays give the boundaries of
    # sweeps that allocate afresh, bit for bit
    p = OUBParams(alpha=1.0, gamma=0.5, z=-5.0)
    t = SolverConfig(n=n).build_grid().nodes
    rows = _riemann_rows(p, t, t[:-2])
    work = np.empty((2, rows[1].size))
    got = want = np.full(t.size, p.z)
    for _ in range(30):
        got = _picard_sweep(p, [(0, rows)], got, work)
        want = _reference_sweep(p, rows, want)
        assert np.array_equal(got, want)


def _reference_mixing(p, cfg):
    """Anderson-mixed Picard as a plain loop on the allocating sweep over
    all rows at once, from the larger of the drift-sign bound and Shepp's
    asymptote, the differences kept as the rows of two arrays. A mixed
    iterate whose change is not smaller than the last empties both, and
    the next difference is taken between the two sweeps after it. Returns
    the iterate whose sweep changed it by less than eps*gamma."""
    t = cfg.build_grid().nodes
    rows = _riemann_rows(p, t, t[:-2])
    x = np.maximum(p.z / np.cosh(p.alpha * (1.0 - t)),
                   p.z + 0.8399 * p.gamma * np.sqrt(1.0 - t))
    x[-2:] = p.z
    dg = df = np.empty((0, t.size))
    base = None
    for k in range(1, cfg.max_iter + 1):
        g = _reference_sweep(p, rows, x)
        f = g - x
        residual = float(np.max(np.abs(f)))
        if residual < cfg.eps * p.gamma:
            return x, k, residual
        x = g
        if len(df) and residual >= base[2]:
            dg = df = np.empty((0, t.size))
            base = None
            continue
        if base is not None:
            dg = np.vstack([dg, g - base[0]])[-solver._MIX_DEPTH:]
            df = np.vstack([df, f - base[1]])[-solver._MIX_DEPTH:]
        base = g, f, residual
        if len(df):
            x = g - np.linalg.lstsq(df.T, f, rcond=None)[0] @ dg
    raise AssertionError("the reference did not converge")


@pytest.mark.parametrize("alpha,gamma,z,sweeps", [
    (1.0, 0.5, -5.0, 30), (1.0, 1.0, 0.0, 10)])
def test_picard_solve_matches_reference_sweeps(alpha, gamma, z, sweeps):
    # picard_solve, with its row blocks, work arrays and lists of
    # differences, stops after as many sweeps and on the same boundary as
    # the reference loop (unmixed Picard from the constant z takes 205
    # and 15 sweeps)
    p = OUBParams(alpha=alpha, gamma=gamma, z=z)
    cfg = SolverConfig(n=500)
    sol = picard_solve(p, cfg)
    beta, k, residual = _reference_mixing(p, cfg)
    assert sol.iterations == k == sweeps
    assert sol.final_residual == residual
    assert np.array_equal(sol.beta, beta)


@pytest.mark.parametrize("gamma", (1e-2, 1e-4, 1e-8, 1e-12, 1e-100))
def test_small_volatility_solves_the_unit_problem(gamma):
    # every solver tolerance scales with gamma, so (1, gamma, zeta*gamma)
    # is solved as (1, 1, zeta) scaled by gamma: by the same method, and
    # with beta/gamma within 1e-9 (4.6e-11 seen). zeta = -5 is left out:
    # its far-pin node equations agree only to about 1.5e-4 off powers of
    # two (conditioning)
    cfg = SolverConfig(n=500)
    for zeta in (0.0, 5.0):
        unit = solve_boundary(OUBParams(alpha=1.0, gamma=1.0, z=zeta),
                              cfg).canonical
        sol = solve_boundary(OUBParams(alpha=1.0, gamma=gamma,
                                       z=zeta * gamma), cfg).canonical
        assert sol.method == unit.method == "backward"
        assert np.max(np.abs(sol.beta / gamma - unit.beta)) <= 1e-9


@pytest.mark.parametrize("k", (1, 7, 30, 300))
def test_power_of_two_volatility_scales_exactly(k):
    # at gamma = 2^-k every tolerance and every kernel coefficient scales
    # without rounding, so beta is gamma times the gamma = 1 boundary bit
    # for bit, by backward induction and through the Picard fallback
    # ((1, 0.5, -5) against (1, 1, -10) at k = 1)
    gamma = 2.0 ** -k
    for zeta, n in ((-5.0, 500), (0.0, 500), (5.0, 500), (-10.0, 120)):
        cfg = SolverConfig(n=n)
        unit = solve_boundary(OUBParams(alpha=1.0, gamma=1.0, z=zeta),
                              cfg).canonical
        sol = solve_boundary(OUBParams(alpha=1.0, gamma=gamma,
                                       z=zeta * gamma), cfg).canonical
        assert sol.method == unit.method
        assert sol.iterations == unit.iterations
        assert np.array_equal(sol.beta, gamma * unit.beta)
        assert (unit.method == "picard") == (zeta == -10.0)
