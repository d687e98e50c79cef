"""Acceptance suite: one check per numbered criterion, each printing a
PASS/FAIL line (run with `pytest -rA` or `-s` to see every line).

Shared N=500 solves are session fixtures; every tolerance is stated inline.
"""
import math
import time

import numpy as np

from oubstop import (
    KernelQuery,
    MCConfig,
    OUBParams,
    SolverConfig,
    ValueSurfaceQuery,
    backward_solve,
    boundary_eval,
    drift_kernel,
    envelope,
    envelope_deriv,
    kernel_oracle,
    make_context,
    original_to_transformed,
    perturbation_test,
    picard_solve,
    simulate_stopped_payoff,
    solve_boundary,
    value,
)

N = 500
CFG = SolverConfig(n=N, eps=1e-4, max_iter=500)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_brownian_bridge_limit():
    start = time.perf_counter()
    sol = picard_solve(OUBParams(alpha=1e-4, gamma=1.0, z=0.0), CFG)
    elapsed = time.perf_counter() - start
    t = sol.grid.nodes
    mask = t <= 0.95
    dev = float(np.max(np.abs(sol.beta[mask]
                              - 0.8399 * np.sqrt(1.0 - t[mask]))))
    report(1, dev < 0.02 and elapsed < 120.0,
           f"max|beta - 0.8399*sqrt(1-t)| = {dev:.4f} (< 0.02), "
           f"runtime {elapsed:.1f}s (< 120s)")


def test_criterion_02_alpha_parity():
    plus = picard_solve(OUBParams(alpha=2.0, gamma=1.0, z=0.0), CFG)
    minus = picard_solve(OUBParams(alpha=-2.0, gamma=1.0, z=0.0), CFG)
    dev = float(np.max(np.abs(plus.beta - minus.beta)))
    report(2, dev <= 1e-10, f"max node diff alpha=+/-2: {dev:.2e} (<= 1e-10)")


def test_criterion_03_terminal_pinning(std_solution):
    sols = [(std_solution, 0.0)]
    for z in (-5.0, 5.0):
        sols.append((picard_solve(OUBParams(alpha=1.0, gamma=1.0, z=z),
                                  SolverConfig(n=100)), z))
    sols.append((backward_solve(OUBParams(alpha=1.0, gamma=1.0, z=2.0),
                                SolverConfig(n=80)), 2.0))
    general = solve_boundary(OUBParams(alpha=1.0, gamma=1.0, z=5.0,
                                       theta=5.0), SolverConfig(n=80))
    exact = all(sol.beta[-1] == z for sol, z in sols) \
        and general.values[-1] == 5.0
    report(3, exact, "beta(t_N) == z exactly for all solved configurations")


def test_criterion_04_kernel_oracle_equivalence(std_params):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        t1 = rng.uniform(0.0, 0.95)
        t2 = rng.uniform(t1, 0.99)
        x1 = rng.uniform(-3.0, 3.0)
        x2 = rng.uniform(-3.0, 3.0)
        q = KernelQuery(t1=t1, x1=x1, t2=t2, x2=x2)
        worst = max(worst, abs(drift_kernel(std_params, t1, x1, t2, x2)
                               - kernel_oracle(std_params, q)))
    elapsed = time.perf_counter() - start
    report(4, worst < 1e-8 and elapsed < 10.0,
           f"max|K - quadrature| over 100 queries: {worst:.2e} (< 1e-8), "
           f"runtime {elapsed:.1f}s (< 10s)")


def test_criterion_05_value_matching(std_params, std_solution):
    t = std_solution.grid.nodes
    mask = t <= 0.95
    worst = max(
        abs(value(std_params, std_solution,
                  ValueSurfaceQuery(t=float(ti), x=float(bi)), clamp=False)
            - bi)
        for ti, bi in zip(t[mask], std_solution.beta[mask]))
    report(5, worst < 5e-3,
           f"max|V(t_i, beta_i) - beta_i| on t <= 0.95: {worst:.2e} (< 5e-3)")


def test_criterion_06_mc_consistency(std_params, std_solution):
    start = time.perf_counter()
    est = simulate_stopped_payoff(std_params, std_solution, 0.0, 0.0,
                                  MCConfig(paths=100_000, seed=0))
    elapsed = time.perf_counter() - start
    v = value(std_params, std_solution, ValueSurfaceQuery(t=0.0, x=0.0))
    gap = est.mean - v
    ok = abs(gap) <= 3.0 * est.std_error and elapsed < 60.0
    # MC stops paths in continuous time, the rule V prices. What remains is
    # the boundary's discretisation next to the horizon (beta(t_{N-1}) = z
    # and beta(t_{N-2}) about a third of its limit), which leaves MC about
    # 1.4e-3 low at N=500 (mean over 10 seeds of 1e5 paths), ~1.7x the
    # standard error of a 1e5-path run, shrinking with N; seed 0 sits
    # within 3 SE.
    if not ok:
        print("ACCEPTANCE 06 note: continuously monitored MC sits ~1.4e-3 "
              "below V at the N=500 mesh (~1.7x the 1e5-path SE) because "
              "of the boundary's discretisation next to the horizon. "
              "See README.md.")
    report(6, ok,
           f"|MC - V(0,0)| = {abs(gap):.2e} vs 3*SE = {3 * est.std_error:.2e} "
           f"(MC {est.mean:.6f}, V {v:.6f}, runtime {elapsed:.1f}s)")


def test_criterion_07_suboptimality(std_params, std_solution):
    rep = perturbation_test(std_params, std_solution, [0.25, -0.25],
                            0.0, 0.0, MCConfig(paths=100_000, seed=0))
    ok = all(e.mean_diff <= 3.0 * e.se_diff for e in rep.entries)
    detail = ", ".join(
        f"delta={e.delta:+.2f}: diff {e.mean_diff:+.5f} "
        f"(3*SE_diff {3 * e.se_diff:.5f})" for e in rep.entries)
    report(7, ok, detail)


def test_criterion_08_parameter_equivariances():
    shifted = solve_boundary(OUBParams(alpha=1.0, gamma=1.0, z=5.0,
                                       theta=5.0), CFG)
    base = solve_boundary(OUBParams(alpha=1.0, gamma=1.0, z=0.0), CFG)
    dev_shift = float(np.max(np.abs(shifted.values - (base.values + 5.0))))

    T = 2.0
    general = solve_boundary(OUBParams(alpha=2.0, gamma=1.0, z=0.0,
                                       horizon=T), CFG)
    canonical = backward_solve(OUBParams(alpha=4.0, gamma=math.sqrt(2.0),
                                         z=0.0), CFG)
    tau = canonical.grid.nodes
    dev_horizon = float(np.max(np.abs(general.eval(T * tau)
                                      - canonical.beta)))
    ok = dev_shift <= 1e-9 and dev_horizon <= 1e-9
    report(8, ok, f"theta-shift dev {dev_shift:.2e}, horizon round-trip dev "
                  f"{dev_horizon:.2e} (both <= 1e-9)")


def test_criterion_09_mesh_convergence():
    ok = True
    details = []
    for z in (-5.0, 0.0, 5.0):
        p = OUBParams(alpha=1.0, gamma=1.0, z=z)
        sols = {n: picard_solve(p, SolverConfig(n=n)) for n in (10, 100, 500)}
        d1 = float(np.max(np.abs(
            sols[10].beta - boundary_eval(sols[100], sols[10].grid.nodes))))
        d2 = float(np.max(np.abs(
            sols[100].beta - boundary_eval(sols[500], sols[100].grid.nodes))))
        ok = ok and d2 < d1
        details.append(f"z={z:g}: {d1:.4f} > {d2:.4f}")
    report(9, ok, "successive deviations strictly decreasing; "
           + "; ".join(details))


def test_criterion_10_method_cross_check(std_params, std_solution):
    bw = backward_solve(std_params, CFG)
    dev = float(np.max(np.abs(std_solution.beta - bw.beta)))
    report(10, dev < 5e-3, f"max|picard - backward| at N=500: {dev:.2e} "
                           f"(< 5e-3)")


def test_criterion_11_transformed_lower_bound(std_params, std_solution):
    # checked at the genuinely solved nodes 0..N-2; the last two nodes are
    # pinned to z by the discretisation itself
    ctx = make_context(std_params)
    t = std_solution.grid.nodes[:-2]
    s, b = original_to_transformed(ctx, t, std_solution.beta[:-2])
    f = envelope(ctx.alpha, s)
    fp = envelope_deriv(ctx.alpha, s)
    margin = float(np.min(b - ctx.c_z * (f - s * fp) / f))
    report(11, margin > 0.0,
           f"min margin b(s) - c_z(f - s f')/f over solved nodes: "
           f"{margin:.4f} (> 0)")
