import math
import os
import subprocess
import sys

import numpy as np
import pytest

from oubstop import (
    BoundarySolution,
    KernelQuery,
    MCConfig,
    OUBParams,
    SolverConfig,
    ValueSurfaceQuery,
    boundary_eval,
    drift,
    drift_kernel,
    kernel_oracle,
    perturbation_test,
    picard_solve,
    simulate_stopped_payoff,
    value,
)
from oubstop.bridge import cond_mean, cond_std


def test_config_validation():
    with pytest.raises(ValueError):
        MCConfig(paths=0)
    with pytest.raises(ValueError):
        MCConfig(paths=10, workers=0)
    # a float count would fail deep inside the simulation, or run silently
    with pytest.raises(ValueError):
        MCConfig(paths=2000.0)
    with pytest.raises(ValueError):
        MCConfig(paths=10, workers=2.5)
    # a negative or float seed would fail later, inside SeedSequence
    with pytest.raises(ValueError, match="seed"):
        MCConfig(paths=10, seed=-3)
    with pytest.raises(ValueError, match="seed"):
        MCConfig(paths=100, seed=1.5)
    assert MCConfig(paths=np.int64(10), workers=np.int32(2)).paths == 10
    assert MCConfig(paths=10, seed=np.int64(0)).seed == 0


def test_determinism_same_seed(std_params, std_solution):
    cfg = MCConfig(paths=30_000, seed=7)
    a = simulate_stopped_payoff(std_params, std_solution, 0.0, 0.0, cfg)
    b = simulate_stopped_payoff(std_params, std_solution, 0.0, 0.0, cfg)
    assert a == b


def test_determinism_across_workers(std_params, std_solution):
    a = simulate_stopped_payoff(std_params, std_solution, 0.0, 0.0,
                                MCConfig(paths=50_000, seed=7, workers=1))
    b = simulate_stopped_payoff(std_params, std_solution, 0.0, 0.0,
                                MCConfig(paths=50_000, seed=7, workers=4))
    assert a == b


def test_immediate_stop(std_params, std_solution):
    x0 = boundary_eval(std_solution, 0.0) + 1.0
    est = simulate_stopped_payoff(std_params, std_solution, 0.0, x0,
                                  MCConfig(paths=5000, seed=1))
    assert est.mean == x0
    assert est.std_error == 0.0
    assert est.n == 5000


def test_never_stop_pays_pinning_exactly(std_params, std_solution):
    # a boundary shifted far out of reach is never crossed; every path is
    # pinned at z at the horizon
    report = perturbation_test(std_params, std_solution, [1000.0],
                               0.0, 0.0, MCConfig(paths=5000, seed=3))
    far = report.entries[0]
    assert far.estimate.mean == std_params.z
    assert far.estimate.std_error == 0.0


def test_perturbation_zero_delta_bit_identical(std_params, std_solution):
    cfg = MCConfig(paths=30_000, seed=11)
    base = simulate_stopped_payoff(std_params, std_solution, 0.0, 0.0, cfg)
    report = perturbation_test(std_params, std_solution, [0.0, 0.25],
                               0.0, 0.0, cfg)
    assert report.baseline == base
    zero = report.entries[0]
    assert zero.delta == 0.0
    assert zero.estimate == base
    assert zero.mean_diff == 0.0
    assert zero.se_diff == 0.0


def test_perturbations_do_not_improve(std_params, std_solution):
    cfg = MCConfig(paths=50_000, seed=13)
    report = perturbation_test(std_params, std_solution, [0.25, -0.25],
                               0.0, 0.0, cfg)
    for entry in report.entries:
        assert entry.mean_diff <= 3.0 * entry.se_diff
        # at this path count the suboptimality is decisive, not borderline
        assert entry.mean_diff < 0.0


def test_perturbations_do_not_improve_strong_pull():
    # hard regime: strong pull towards a distant pinning level; optimality
    # of the production-mesh boundary holds, while coarse meshes (N ~ 250)
    # are exploitable here by a +1 shift
    p = OUBParams(alpha=5.0, gamma=1.0, z=-5.0)
    sol = picard_solve(p, SolverConfig(n=500))
    report = perturbation_test(p, sol, [-0.25, 1.0, -1.0], 0.0, -5.0,
                               MCConfig(paths=30_000, seed=4))
    for entry in report.entries:
        assert entry.mean_diff <= 3.0 * entry.se_diff


def test_mc_consistency_with_pricing(std_params, std_solution):
    # the boundary's discretisation next to the horizon leaves MC below V
    # (about 1.4e-3 at N=500), so the comparison allows 3 SE plus the
    # documented discretisation term
    cfg = MCConfig(paths=50_000, seed=5)
    est = simulate_stopped_payoff(std_params, std_solution, 0.0, 0.0, cfg)
    v = value(std_params, std_solution, ValueSurfaceQuery(t=0.0, x=0.0))
    allowance = 3.0 * est.std_error \
        + 2.0 * std_params.gamma * (math.e - 1.0) / std_solution.grid.n
    assert abs(est.mean - v) <= allowance
    assert est.mean < v  # the residual's direction is known


def test_mc_from_interior_state(std_params, std_solution):
    cfg = MCConfig(paths=50_000, seed=19)
    t0, x0 = 0.35, -0.4
    est = simulate_stopped_payoff(std_params, std_solution, t0, x0, cfg)
    v = value(std_params, std_solution, ValueSurfaceQuery(t=t0, x=x0))
    allowance = 3.0 * est.std_error \
        + 2.0 * std_params.gamma * (math.e - 1.0) / std_solution.grid.n
    assert abs(est.mean - v) <= allowance


# alpha -> 0 is the Brownian bridge from 0 to 0 over [0, 1], where the
# stopped payoff of simple boundaries is known in closed form
BROWNIAN_BRIDGE = OUBParams(alpha=1e-4, gamma=1.0, z=0.0)


def _fixed_boundary(beta_of_t) -> BoundarySolution:
    grid = SolverConfig(n=100).build_grid()
    return BoundarySolution(grid=grid, beta=beta_of_t(grid.nodes),
                            iterations=0, final_residual=0.0,
                            method="closed-form")


def test_constant_boundary_closed_form():
    # the bridge reaches level c before t = 1 with probability
    # exp(-2c^2) and then pays c; monitoring at nodes only reads 0.2998
    c = 0.5
    sol = _fixed_boundary(lambda t: np.full(t.shape, c))
    est = simulate_stopped_payoff(BROWNIAN_BRIDGE, sol, 0.0, 0.0,
                                  MCConfig(paths=100_000, seed=0))
    exact = c * math.exp(-2.0 * c * c)
    assert abs(est.mean - exact) <= 3.0 * est.std_error


def test_shepp_boundary_closed_form():
    # Shepp (1969): stopping the Brownian bridge at B*sqrt(1-t) is optimal
    # and is worth sqrt(2*pi)*(1 - B^2)/2 from (0, 0); monitoring at nodes
    # only reads 0.3528. The payoff depends on when the path crosses, so
    # this also checks the law of the crossing time between nodes.
    b = 0.839924
    sol = _fixed_boundary(lambda t: b * np.sqrt(1.0 - t))
    est = simulate_stopped_payoff(BROWNIAN_BRIDGE, sol, 0.0, 0.0,
                                  MCConfig(paths=100_000, seed=0))
    exact = math.sqrt(2.0 * math.pi) * (1.0 - b * b) / 2.0
    assert abs(est.mean - exact) <= 3.0 * est.std_error


@pytest.mark.parametrize("d0,d1,var", [(0.3, -0.2, 0.5), (0.3, 0.0, 0.5),
                                       (0.2, 0.15, 0.5), (0.05, 0.4, 0.01)])
def test_crossing_time_law(d0, d1, var):
    # a bridge over a unit step from d0 below a level to d1 below it that
    # touches the level first at u has density proportional to
    # u^-3/2 (1-u)^-1/2 exp(-d0^2/(2 var u) - d1^2/(2 var (1-u)))
    from scipy.integrate import quad
    from oubstop.mc import _crossing_fraction

    def moment(k, hi=1.0):
        return quad(lambda u: u ** (k - 1.5) * (1.0 - u) ** -0.5 * math.exp(
            -d0 * d0 / (2.0 * var * u) - d1 * d1 / (2.0 * var * (1.0 - u))),
            0.0, hi, limit=200)[0]

    n = 200_000
    rng = np.random.default_rng(3)
    frac = _crossing_fraction(np.full(n, d0), np.full(n, d1), var,
                              rng.standard_normal(n), rng.random(n))
    assert np.all((frac >= 0.0) & (frac <= 1.0))
    mean = moment(1) / moment(0)
    assert abs(frac.mean() - mean) <= 4.0 * frac.std() / math.sqrt(n)
    below = moment(0, 0.5) / moment(0)
    assert abs(np.mean(frac <= 0.5) - below) \
        <= 4.0 * math.sqrt(below * (1.0 - below) / n)


def test_non_finite_start_is_refused(std_params, std_solution):
    # a nan x0 gave a nan mean; both entry points go through
    # perturbation_test
    cfg = MCConfig(paths=100)
    for x0 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="x0"):
            simulate_stopped_payoff(std_params, std_solution, 0.0, x0, cfg)
        with pytest.raises(ValueError, match="x0"):
            perturbation_test(std_params, std_solution, [0.25], 0.0, x0, cfg)


def test_nan_delta_is_refused(std_params, std_solution):
    # a nan delta compared false with every path and so stopped at once,
    # paying x0 and reading as a decisive suboptimality
    with pytest.raises(ValueError, match="nan"):
        perturbation_test(std_params, std_solution, [0.25, math.nan],
                          0.0, 0.0, MCConfig(paths=100))


def test_estimate_standard_error_definition(std_params, std_solution):
    from oubstop.mc import _run_payoffs
    cfg = MCConfig(paths=10_000, seed=29)
    payoffs = _run_payoffs(std_params, std_solution, 0.0, 0.0, cfg, (0.0,))[0]
    est = simulate_stopped_payoff(std_params, std_solution, 0.0, 0.0, cfg)
    assert est.mean == np.mean(payoffs)
    assert est.std_error == pytest.approx(
        np.std(payoffs, ddof=1) / math.sqrt(payoffs.size), rel=1e-12)


def test_kernel_oracle_saturation_limits(std_params):
    p = std_params
    t1, x1, t2 = 0.1, 0.3, 0.7
    m = cond_mean(p, t1, x1, t2)
    v = cond_std(p, t1, t2)
    assert kernel_oracle(p, KernelQuery(t1=t1, x1=x1, t2=t2,
                                        x2=m + 40.0 * v)) == 0.0
    lo = kernel_oracle(p, KernelQuery(t1=t1, x1=x1, t2=t2, x2=m - 40.0 * v))
    assert lo == pytest.approx(drift(p, t2, m), abs=1e-10)


def test_kernel_oracle_matches_adaptive_quadrature():
    # the fixed Gauss-Legendre panels against scipy's adaptive quad on the
    # same integral, over the envelope, deep into both tails and close to
    # the horizon
    from scipy.integrate import quad
    from oubstop.kernel import density

    rng = np.random.default_rng(41)
    worst = 0.0
    for alpha in (1e-4, 0.5, -2.5, 5.0):
        for _ in range(60):
            p = OUBParams(alpha=alpha, gamma=rng.uniform(0.25, 2.0),
                          z=rng.uniform(-10.0, 10.0))
            t1 = rng.uniform(0.0, 0.95)
            t2 = rng.uniform(t1 + 1e-4, 0.999)
            x1 = p.z + p.gamma * rng.uniform(-3.0, 3.0)
            m = cond_mean(p, t1, x1, t2)
            v = cond_std(p, t1, t2)
            x2 = m + v * rng.uniform(-40.0, 15.0)
            k = kernel_oracle(p, KernelQuery(t1=t1, x1=x1, t2=t2, x2=x2))
            hi = m + 12.0 * v
            ref = 0.0
            if x2 < hi:
                inner = [c for c in (m - 4.0 * v, m, m + 4.0 * v) if x2 < c]
                ref = quad(lambda w: drift(p, t2, w) * density((w - m) / v)
                           / v, x2, hi, epsabs=1e-14, epsrel=1e-12,
                           limit=200, points=inner or None)[0]
            worst = max(worst, abs(k - ref) / max(1.0, abs(ref)))
    assert worst <= 1e-12


def test_kernel_oracle_equal_times():
    # the oracle's queries take the kernel's domain t1 < t2 only, like
    # drift_kernel: equal times are refused
    with pytest.raises(ValueError):
        KernelQuery(t1=0.4, x1=1.0, t2=0.4, x2=0.5)


def test_kernel_oracle_vs_closed_form_alpha_signs():
    rng = np.random.default_rng(31)
    for alpha in (0.5, -2.5):
        p = OUBParams(alpha=alpha, gamma=1.3, z=2.0)
        for _ in range(10):
            t1 = rng.uniform(0.0, 0.9)
            t2 = rng.uniform(t1 + 1e-3, 0.99)
            x1 = 2.0 + rng.uniform(-3.0, 3.0)
            x2 = 2.0 + rng.uniform(-3.0, 3.0)
            q = KernelQuery(t1=t1, x1=x1, t2=t2, x2=x2)
            assert kernel_oracle(p, q) == pytest.approx(
                drift_kernel(p, t1, x1, t2, x2), abs=1e-8)


def test_paths_pinned_at_horizon(std_params):
    # walk paths with the simulator's own transition: after the last step
    # every position is exactly z (z = 0.7, N = 100 once landed 1 ulp off)
    from oubstop.mc import _advance, _monitor_nodes, _step_coefficients
    for params, n in ((std_params, 50),
                      (OUBParams(alpha=1.0, gamma=1.0, z=0.7), 100)):
        sol = picard_solve(params, SolverConfig(n=n))
        nodes, _ = _monitor_nodes(sol, 0.0)
        slope, shift, sd = _step_coefficients(params, nodes)
        rng = np.random.default_rng(0)
        x = np.zeros(200)
        for k in range(slope.size):
            x = _advance(x, k, slope, shift, sd, rng.standard_normal(x.size))
        assert np.all(x == params.z)


def test_import_leaves_quadrature_out():
    # no code path of oubstop needs scipy.integrate: a whole verify run,
    # kernel oracle included, loads none of it
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["oubstop"].__file__)))
    code = ("import sys; from oubstop import cli; "
            "code = cli.main(['verify', '--n', '60', '--paths', '2000']); "
            "print(code, any(m.startswith('scipy.integrate') "
            "for m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "0 False"
