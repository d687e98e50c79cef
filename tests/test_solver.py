import itertools
import math

import numpy as np
import pytest

from oubstop import (
    BoundarySolution,
    ConvergenceError,
    OUBParams,
    SolverConfig,
    TimeGrid,
    ValueSurfaceQuery,
    backward_solve,
    boundary_eval,
    drift_kernel,
    picard_solve,
    solve_boundary,
    value,
)
from oubstop import solver
from oubstop.solver import _picard_sweep, _riemann_rows


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
    for field, bad in (("n", 500.5), ("max_iter", 2.5), ("eps", math.inf)):
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
    tol = 1e-9 * max(1.0, gamma)
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
            assert sol.final_residual <= tol
            assert sol.iterations <= 40 * (n - 1)
            assert b[-2] == b[-1] == z
            dt = np.diff(t)
            residual = max(
                abs(z - float(np.dot(drift_kernel(p, t[i], b[i], t[i + 1:n],
                                                  b[i + 1:n]), dt[i:n - 1]))
                    - b[i])
                for i in range(n - 1))
            assert residual <= 2.0 * tol
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


def test_solve_boundary_falls_back_to_picard():
    # at a far pin h can stay just below zero at a node, its nearest root
    # far outside the window; the production boundary is then Picard's
    p = OUBParams(alpha=1.0, gamma=1.0, z=-5.0)
    cfg = SolverConfig(n=200)
    with pytest.raises(ConvergenceError, match="no root at node 2: h keeps"):
        backward_solve(p, cfg)
    sol = solve_boundary(p, cfg).canonical
    assert sol.method == "picard"
    assert np.array_equal(sol.beta, picard_solve(p, cfg).beta)


def test_solve_boundary_failure_keeps_both_errors():
    # where Picard fails too, the error names both solvers, is caused by
    # backward induction's and carries Picard's last iterate
    p = OUBParams(alpha=1.0, gamma=0.5, z=-5.0)
    cfg = SolverConfig(n=120, max_iter=1)
    with pytest.raises(ConvergenceError) as picard:
        picard_solve(p, cfg)
    with pytest.raises(ConvergenceError) as err:
        solve_boundary(p, cfg)
    assert "backward induction found no root at node 0" in str(err.value)
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
    swept = _picard_sweep(p, riemann, beta)
    rows = [z - float(np.dot(drift_kernel(p, t[i], beta[i], t[i + 1:n],
                                          beta[i + 1:n]), dt[i:n - 1]))
            for i in range(n - 1)]
    assert swept[-2] == swept[-1] == z
    assert np.max(np.abs(swept[:-2] - rows)) <= 1e-14 * (1.0 + abs(z))

    # value takes the solver's Riemann rows: unclamped on the boundary it
    # is the row-by-row sweep, bit for bit
    sol = BoundarySolution(grid=grid, beta=beta, iterations=0,
                           final_residual=0.0, method="given")
    priced = [value(p, sol, ValueSurfaceQuery(t=t[i], x=beta[i]), clamp=False)
              for i in range(n - 1)]
    assert priced == rows

    # the table path is the kernel itself, not an approximation of it
    i, j = np.triu_indices(n - 1)
    x1, x2 = beta[i], beta[j + 1]
    direct = drift_kernel(p, t[i], x1, t[j + 1], x2)
    tabled = drift_kernel(p, None, x1, None, x2, table=riemann[3])
    assert np.array_equal(direct, tabled)
