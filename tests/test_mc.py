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
    solve_boundary,
    value,
)
from oubstop.bridge import cond_mean, cond_std

import mc_reference


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
    # bool is an int subclass: True would run one path on one worker
    for field, low in (("paths", 1), ("seed", 0), ("workers", 1)):
        with pytest.raises(ValueError,
                           match=f"^{field} must be an integer >= {low}$"):
            MCConfig(**{"paths": 10, field: True})
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


def _unit_std_error(x):
    """Standard error over independent units: twin pairs (2i, 2i+1) and a
    lone last path when the count is odd, each weighted by its size."""
    n = x.size
    starts = np.arange(0, n, 2)
    sums = np.add.reduceat(x, starts)
    sizes = np.diff(np.append(starts, n))
    units = starts.size
    resid = sums - sizes * np.mean(x)
    return math.sqrt(units / (units - 1) * np.sum(resid ** 2)) / n


def test_estimate_standard_error_definition(std_params, std_solution):
    # twins are dependent, so std_error and se_diff are the larger of the
    # independent-path formula and the one over twin units
    from oubstop.mc import _run_payoffs
    for paths in (10_000, 10_001):
        cfg = MCConfig(paths=paths, seed=29)
        base, up = _run_payoffs(std_params, std_solution, 0.0, 0.0, cfg,
                                (0.0, 0.25))
        report = perturbation_test(std_params, std_solution, [0.25],
                                   0.0, 0.0, cfg)
        assert report.baseline.mean == np.mean(base)
        ratios = []
        for x, se in ((base, report.baseline.std_error),
                      (up - base, report.entries[0].se_diff)):
            indep = np.std(x, ddof=1) / math.sqrt(x.size)
            unit = _unit_std_error(x)
            assert se == pytest.approx(max(indep, unit), rel=1e-12)
            ratios.append(unit / indep)
        # twins are anti-correlated in V, so its realised error is about
        # 0.65x the reported one; in the paired difference they are not
        assert 0.5 < ratios[0] < 0.8 and ratios[1] > 1.0
    # for an even count the unit formula is the SE of the pair means
    pair_means = base[:-1].reshape(-1, 2).mean(axis=1)
    assert _unit_std_error(base[:-1]) == pytest.approx(
        np.std(pair_means, ddof=1) / math.sqrt(pair_means.size), rel=1e-12)


@pytest.mark.parametrize("n", [3, 7, 10])
def test_std_error_of_equal_values_is_zero(n):
    # the rounded mean of n equal values can differ from them (by 1e-17
    # at these counts), which left a spread where there is none
    from oubstop.mc import _std_error
    for v in (0.1, 0.354, 1.0 / 3.0, 0.7):
        assert _std_error(np.full(n, v)) == 0.0


class _CountingRng:
    """A Generator that records the kind and count of every draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = []

    def standard_exponential(self, size):
        self.calls.append(("exponential", size))
        return self._rng.standard_exponential(size)

    def random(self, size):
        self.calls.append(("uniform", size))
        return self._rng.random(size)

    def standard_normal(self, size=None, out=None):
        self.calls.append(("normal", size if out is None else out.size))
        return self._rng.standard_normal(size, out=out)


@pytest.mark.parametrize("size", [1, 1000, 1001])
def test_block_draws_one_normal_per_twin_pair(std_params, std_solution, size):
    from oubstop.mc import _block_payoffs, _monitor_nodes, _step_coefficients
    nodes, bounds = _monitor_nodes(std_solution, 0.0)
    coef = _step_coefficients(std_params, nodes)
    var = std_params.gamma ** 2 * np.diff(nodes)
    # a level out of reach stops no path, so every step is walked
    rng = _CountingRng(0)
    _block_payoffs(0.0, coef, var, bounds[:, None] + 1000.0, std_params.z,
                   rng, size)
    assert rng.calls[:3] == [("exponential", size), ("normal", size),
                             ("uniform", size)]
    assert rng.calls[3:] == [("normal", (size + 1) // 2)] * (nodes.size - 1)


@pytest.mark.parametrize("n", [20, 500])
@pytest.mark.parametrize("alpha,gamma,z", [
    (1.0, 1.0, 0.0), (5.0, 1.0, -5.0), (1.0, 2.0, 5.0), (0.01, 1.0, 0.0)])
def test_block_payoffs_match_reference(alpha, gamma, z, n):
    # the block loop that times crossings in batches and drops stopped
    # rows only once half are dead gives the payoffs of the loop that timed
    # them step by step and dropped rows at every eighth of stops
    # (tests/mc_reference.py), bit for bit: from below, at and above the
    # boundary, from t0 > 0, at +-inf shifts, on block sizes with and
    # without a last odd row, on levels that stop every path early, which
    # leaves the loop by its break, and on finite levels from above the
    # boundary, where more than half the rows stop in every level, so the
    # loop drops rows and walks the rest
    from oubstop.mc import _block_payoffs, _monitor_nodes, _step_coefficients
    params = OUBParams(alpha=alpha, gamma=gamma, z=z)
    sol = solve_boundary(params, SolverConfig(n=n)).canonical
    deltas = np.array([0.0, 0.25, -0.25, math.inf, -math.inf]) * gamma
    small, full = (1, 2, 3, 1001), (1, 2, 3, 1001, 16384)
    cases = []
    for t0 in (0.0, 0.4):
        nodes, bounds = _monitor_nodes(sol, t0)
        levels = bounds[:, None] + deltas
        for x0 in (z, bounds[0], bounds[0] + 0.1 * gamma):
            cases.append((nodes, levels, x0, full if t0 == x0 == z else small))
    nodes, bounds = _monitor_nodes(sol, 0.0)
    plunge = np.where(nodes < 0.5, 0.0, -1e3 * gamma)
    cases.append((nodes, (bounds + plunge)[:, None] + deltas[:3], z, full))
    finite = (nodes, bounds[:, None] + deltas[:3], bounds[0] + 0.1 * gamma,
              (16384,))
    cases.append(finite)
    stopped_early = False
    for case in cases:
        nodes, levels, x0, sizes = case
        coef = _step_coefficients(params, nodes)
        var = gamma ** 2 * np.diff(nodes)
        for size in sizes:
            got, want = (
                block(x0, coef, var, levels, z, np.random.default_rng(size),
                      size)
                for block in (_block_payoffs, mc_reference.block_payoffs))
            assert np.array_equal(got, want)
            if levels.shape[1] == 3:
                stopped_early |= bool(np.all(got != z))
            if case is finite:
                assert 2 * np.count_nonzero(np.all(got != z, axis=0)) > size
    assert stopped_early


def test_twin_rows_are_antithetic(std_params, std_solution):
    # rows 2i and 2i+1 move by +Z and -Z at every step: their payoffs are
    # anti-correlated, while rows of different pairs are independent
    from oubstop.mc import _run_payoffs
    pay = _run_payoffs(std_params, std_solution, 0.0, 0.0,
                       MCConfig(paths=20_000, seed=3), (0.0,))[0]
    assert np.corrcoef(pay[0::2], pay[1::2])[0, 1] < -0.4
    assert abs(np.corrcoef(pay[1:-1:2], pay[2::2])[0, 1]) < 0.05


def test_odd_last_block_across_workers(std_params, std_solution):
    # two full blocks and one of a single, unpaired path
    reports = [perturbation_test(std_params, std_solution, [0.25], 0.0, 0.0,
                                 MCConfig(paths=2 * 16384 + 1, seed=7,
                                          workers=w))
               for w in (1, 3)]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("paths", [1, 2, 3, 4, 5])
def test_few_paths_give_finite_standard_errors(std_params, std_solution,
                                               paths):
    report = perturbation_test(std_params, std_solution, [0.25], 0.0, 0.0,
                               MCConfig(paths=paths, seed=2))
    entry = report.entries[0]
    assert report.baseline.n == paths
    assert all(math.isfinite(v) and v >= 0.0 for v in (
        report.baseline.std_error, entry.estimate.std_error, entry.se_diff))


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
