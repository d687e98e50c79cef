import argparse
import functools
import warnings

import numpy as np
import pytest

from oubstop import (
    BoundarySolution,
    ConvergenceError,
    MCConfig,
    OUBParams,
    SolvedBoundary,
    SolverConfig,
    TimeGrid,
    ValueSurfaceQuery,
    backward_solve,
    boundary_eval,
    envelope,
    envelope_deriv,
    make_context,
    original_to_transformed,
    reduce_to_canonical,
    simulate_stopped_payoff,
    solve_boundary,
    value,
)
from oubstop import cli, mc
from oubstop.cli import main, read_boundary_csv


def run_cli(*args):
    return main(list(args))


@pytest.fixture
def one_sweep(monkeypatch):
    # the CLI runs Picard with its default sweep cap (2000); a cap of one
    # sweep makes the fallback fail wherever backward induction fails
    monkeypatch.setattr(cli, "SolverConfig",
                        functools.partial(SolverConfig, max_iter=1))


def test_solve_writes_boundary_csv(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code = run_cli("solve", "--alpha", "1", "--gamma", "1", "--z", "0",
                   "--n", "80", "--out", str(out))
    assert code == 0
    err = capsys.readouterr().err
    assert "iterations=" in err and "residual=" in err
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "t,beta"
    assert len(rows) == 82  # header + N+1 nodes
    assert rows[-1] == "1.0,0.0"
    first_t = float(rows[1].split(",")[0])
    assert first_t == 0.0


def test_solve_alpha_sign_produces_identical_files(tmp_path):
    a = tmp_path / "plus.csv"
    b = tmp_path / "minus.csv"
    assert run_cli("solve", "--alpha", "2", "--n", "100", "--out", str(a)) == 0
    assert run_cli("solve", "--alpha", "-2", "--n", "100", "--out", str(b)) == 0
    assert a.read_text() == b.read_text()


def test_solve_brownian_bridge_limit(tmp_path):
    out = tmp_path / "bb.csv"
    assert run_cli("solve", "--alpha", "1e-4", "--n", "200",
                   "--out", str(out)) == 0
    t, beta = read_boundary_csv(str(out))
    mask = t <= 0.95
    assert np.max(np.abs(beta[mask] - 0.8399 * np.sqrt(1 - t[mask]))) < 0.02


def test_solve_to_stdout(capsys):
    assert run_cli("solve", "--n", "40") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "t,beta"
    assert out.splitlines()[-1] == "1.0,0.0"


def test_solve_general_parameters(tmp_path):
    out = tmp_path / "g.csv"
    assert run_cli("solve", "--n", "60", "--theta", "5", "--z", "5",
                   "--horizon", "2", "--out", str(out)) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[-1] == "2.0,5.0"
    t, beta = read_boundary_csv(str(out))
    assert t[0] == 0.0 and t[-1] == 2.0
    # boundary sits at the shifted zero-pinning solution
    assert np.all(beta >= 5.0 - 1e-12)


def test_verify_accepts_general_horizon_boundary(tmp_path):
    src = tmp_path / "g.csv"
    assert run_cli("solve", "--n", "120", "--horizon", "2",
                   "--out", str(src)) == 0
    report = tmp_path / "r.csv"
    code = run_cli("verify", "--horizon", "2", "--paths", "20000",
                   "--boundary", str(src), "--out", str(report))
    assert code == 0


def test_solve_nonconvergence_writes_partial(tmp_path, capsys, one_sweep):
    # canonically alpha = 1, gamma = 0.5, z = -5: backward induction finds
    # no root at node 2, and one Picard sweep does not converge
    out = tmp_path / "b.csv"
    code = run_cli("solve", "--n", "120", "--alpha",
                   "0.25", "--gamma", "0.25", "--theta", "1", "--horizon",
                   "4", "--z", "-4", "--out", str(out))
    assert code == 2
    assert not out.exists()
    partial = tmp_path / "b.csv.partial"
    assert partial.exists()
    assert "error:" in capsys.readouterr().err
    # the library's last iterate, in original coordinates; 17 digits
    # round-trip exactly
    params = OUBParams(alpha=0.25, gamma=0.25, z=-4.0, theta=1.0,
                       horizon=4.0)
    with pytest.raises(ConvergenceError) as err:
        solve_boundary(params, SolverConfig(n=120, max_iter=1))
    expected = SolvedBoundary(reduction=reduce_to_canonical(params),
                              canonical=err.value.solution)
    t, beta = read_boundary_csv(str(partial))
    assert t.size == 121
    assert np.array_equal(t, expected.nodes)
    assert np.array_equal(beta, expected.values)


def test_boundary_round_trip_is_exact(tmp_path):
    out = tmp_path / "b.csv"
    assert run_cli("solve", "--n", "90", "--out", str(out)) == 0
    t, beta = read_boundary_csv(str(out))
    sol = BoundarySolution(grid=TimeGrid(t), beta=beta, iterations=0,
                           final_residual=0.0, method="file")
    assert np.array_equal(boundary_eval(sol, t), beta)


def test_value_stopping_region(capsys):
    assert run_cli("value", "--n", "60", "--t", "0.5", "--x", "10") == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "t,x,V"
    t, x, v = (float(c) for c in out[1].split(","))
    assert (t, x, v) == (0.5, 10.0, 10.0)


def test_value_near_horizon(capsys):
    assert run_cli("value", "--n", "200", "--t", "0.999", "--x", "0.001") == 0
    v = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[2])
    assert abs(v - 0.0) < 5e-3


def test_value_general_parameters(capsys):
    # theta shift moves value by theta in the stopping region
    assert run_cli("value", "--n", "60", "--theta", "5", "--z", "5",
                   "--t", "0.5", "--x", "15") == 0
    v = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[2])
    assert v == 15.0


def test_value_grid_mode(tmp_path):
    out = tmp_path / "surface.csv"
    assert run_cli("value", "--n", "60", "--grid", "0:0.9:4,-1:1:3",
                   "--out", str(out)) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "t,x,V"
    assert len(rows) == 1 + 4 * 3


def test_value_prices_one_row_per_t(tmp_path, monkeypatch, capsys):
    calls = []
    priced = cli.value
    monkeypatch.setattr(cli, "value",
                        lambda p, sol, q: calls.append(q) or priced(p, sol, q))
    out = tmp_path / "surface.csv"
    assert run_cli("value", "--n", "60", "--grid", "0:0.9:4,-1:1:3",
                   "--out", str(out)) == 0
    assert [q.t for q in calls] == list(np.linspace(0.0, 0.9, 4))
    assert all(q.x.shape == (3,) for q in calls)
    # the --t/--x point is the 1x1 grid
    assert run_cli("value", "--n", "60", "--t", "0.3", "--x", "-0.2") == 0
    point = capsys.readouterr().out
    assert run_cli("value", "--n", "60", "--grid",
                   "0.3:0.3:1,-0.2:-0.2:1") == 0
    assert capsys.readouterr().out == point
    assert len(calls) == 6


def test_value_grid_11x11_within_budget(tmp_path):
    import time
    out = tmp_path / "surface.csv"
    start = time.perf_counter()
    assert run_cli("value", "--n", "500", "--grid", "0:0.9:11,-2:2:11",
                   "--out", str(out)) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert len(out.read_text().strip().splitlines()) == 1 + 121


def test_value_requires_point_or_grid(capsys):
    assert run_cli("value", "--n", "40") == 2
    assert "error:" in capsys.readouterr().err


def test_verify_passes_and_is_deterministic(tmp_path):
    a = tmp_path / "r1.csv"
    b = tmp_path / "r2.csv"
    args = ("verify", "--n", "150", "--paths", "20000", "--seed", "9")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_text() == b.read_text()
    rows = a.read_text().strip().splitlines()
    assert rows[0] == "check,statistic,threshold,result"
    names = {r.split(",")[0] for r in rows[1:]}
    assert names == {"terminal_pinning", "kernel_vs_quadrature",
                     "mc_value_consistency", "perturbation_up",
                     "perturbation_down", "boundary_lower_bound",
                     "drift_sign_bound"}
    assert all(r.endswith("pass") for r in rows[1:])


def test_verify_simulates_once_and_keeps_numbers(tmp_path, monkeypatch):
    runs = []
    run_payoffs = mc._run_payoffs

    def counted(*args):
        runs.append(args[-1])
        return run_payoffs(*args)

    monkeypatch.setattr(mc, "_run_payoffs", counted)
    out = tmp_path / "r.csv"
    assert run_cli("verify", "--n", "150", "--paths", "20000", "--seed", "9",
                   "--out", str(out)) == 0
    # the MC row and both perturbation rows come from one simulation
    assert runs == [(0.0, 0.25, -0.25)]

    rows = dict(r.split(",", 1)
                for r in out.read_text().strip().splitlines()[1:])
    params = OUBParams(alpha=1.0, gamma=1.0, z=0.0)
    sol = backward_solve(params, SolverConfig(n=150))
    est = simulate_stopped_payoff(params, sol, 0.0, 0.0,
                                  MCConfig(paths=20000, seed=9))
    v0 = value(params, sol, ValueSurfaceQuery(t=0.0, x=0.0))
    stat = rows["mc_value_consistency"].split(",")[0]
    assert stat == f"{abs(est.mean - v0):.10g}"


@pytest.mark.parametrize("alpha,gamma,z", [
    (1.0, 1.0, -5.0), (1.0, 0.5, -5.0), (5.0, 1.0, -5.0), (1.0, 2.0, 5.0)])
def test_verify_lower_bound_away_from_zero_pin(alpha, gamma, z, tmp_path):
    # the f' form of the transformed lower bound holds off z = 0 as well
    # (margins about 0.20, 0.17, 0.08 and 1.27 at N = 500)
    out = tmp_path / "r.csv"
    run_cli("verify", "--alpha", str(alpha), "--gamma", str(gamma),
            "--z", str(z), "--n", "500", "--paths", "2000",
            "--out", str(out))
    row = next(r for r in out.read_text().splitlines()
               if r.startswith("boundary_lower_bound,"))
    _, margin, _, result = row.split(",")
    assert result == "pass" and float(margin) > 0.0
    # the row is the paper's b(0) - c_z (f(0) - s f'(0)) / f'(0), s = 0,
    # computed in original coordinates as the drift-sign gap over the scale
    params = OUBParams(alpha=alpha, gamma=gamma, z=z)
    solved = solve_boundary(params, SolverConfig(n=500))
    sol = solved.canonical
    rows = {r[0]: r[1] for r in cli._verify_checks(
        solved, MCConfig(paths=10, seed=1))}
    ctx = make_context(params)
    s0, b0 = original_to_transformed(ctx, 0.0, float(sol.beta[0]))
    f0, fp0 = envelope(ctx.alpha, s0), envelope_deriv(ctx.alpha, s0)
    paper = float(b0 - ctx.c_z * (f0 - s0 * fp0) / fp0)
    assert rows["boundary_lower_bound"] == pytest.approx(paper, rel=1e-12)


@pytest.mark.parametrize("alpha,z,passes", [(1.0, 0.0, True),
                                            (5.0, -5.0, False)])
def test_verify_drift_sign_bound_checks_every_node(alpha, z, passes,
                                                   tmp_path):
    # at (5, 1, -5) N=500 resolves the strong pull badly: the boundary
    # crosses z/cosh(alpha(1-t)) at 240 nodes (margin about -7.04) while
    # the t=0 row passes; at (1, 1, 0) the margin is about 0.391
    out = tmp_path / "r.csv"
    run_cli("verify", "--alpha", str(alpha), "--z", str(z), "--n", "500",
            "--paths", "2000", "--out", str(out))
    rows = {r.split(",")[0]: r.split(",")[1:]
            for r in out.read_text().strip().splitlines()[1:]}
    assert rows["boundary_lower_bound"][2] == "pass"
    margin, threshold, result = rows["drift_sign_bound"]
    assert threshold == "0"
    assert result == ("pass" if passes else "fail")
    assert (float(margin) > 0.0) == passes


def _verify_row(out, name):
    return next(r for r in out.read_text().splitlines()
                if r.startswith(name + ",")).split(",")[1:]


@pytest.mark.parametrize("alpha,z", [(5.0, -5.0), (1.0, 0.0)])
def test_verify_drift_sign_bound_reads_the_margin(alpha, z, tmp_path):
    # the row is the least drift_margin of the boundary verified: the one
    # solved, or the --boundary file's read as verify reads it
    problem = ("--alpha", str(alpha), "--z", str(z), "--theta", "1",
               "--horizon", "2")
    out, src = tmp_path / "r.csv", tmp_path / "b.csv"
    run_cli("verify", *problem, "--paths", "10", "--out", str(out))
    params = OUBParams(alpha=alpha, gamma=1.0, z=z, theta=1.0, horizon=2.0)
    solved = solve_boundary(params)
    assert (np.min(solved.drift_margin) > 0.0) == (z == 0.0)
    stat = _verify_row(out, "drift_sign_bound")[0]
    assert stat == f"{float(np.min(solved.drift_margin)):.10g}"

    assert run_cli("solve", *problem, "--n", "60", "--out", str(src)) == 0
    run_cli("verify", *problem, "--boundary", str(src), "--paths", "10",
            "--out", str(out))
    red = reduce_to_canonical(params)
    t, beta = read_boundary_csv(str(src))
    read = SolvedBoundary(red, BoundarySolution(
        grid=TimeGrid(red.to_canonical_time(t)),
        beta=red.to_canonical_space(beta), iterations=0,
        final_residual=np.nan, method="file"))
    stat = _verify_row(out, "drift_sign_bound")[0]
    assert stat == f"{float(np.min(read.drift_margin)):.10g}"


def test_verify_boundary_rejects_solver_flags(tmp_path, capsys):
    # a boundary file is verified as read, never solved
    src = tmp_path / "b.csv"
    assert run_cli("solve", "--n", "50", "--out", str(src)) == 0
    capsys.readouterr()
    assert run_cli("verify", "--boundary", str(src), "--n", "1") == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--boundary" in err


def test_verify_detects_tampered_boundary(tmp_path):
    src = tmp_path / "b.csv"
    assert run_cli("solve", "--n", "150", "--out", str(src)) == 0
    t, beta = read_boundary_csv(str(src))
    tampered = tmp_path / "tampered.csv"
    rows = ["t,beta"] + [f"{float(ti)!r},{float(bi) + 0.5!r}"
                         for ti, bi in zip(t, beta)]
    tampered.write_text("\n".join(rows) + "\n")
    report = tmp_path / "report.csv"
    code = run_cli("verify", "--paths", "20000",
                   "--boundary", str(tampered), "--out", str(report))
    assert code == 1
    failing = [r for r in report.read_text().strip().splitlines()
               if r.endswith("fail")]
    assert any(r.startswith("perturbation") for r in failing)


def test_verify_flags_degenerate_regime(tmp_path):
    # the default mesh does not resolve a strong pull towards a far-away
    # pinning level; the perturbation and lower-bound checks must catch it
    report = tmp_path / "r.csv"
    code = run_cli("verify", "--alpha", "3", "--gamma", "0.25", "--z", "-10",
                   "--n", "100", "--paths", "10000", "--out", str(report))
    assert code == 1
    failing = {r.split(",")[0] for r in report.read_text().strip().splitlines()
               if r.endswith("fail")}
    assert "boundary_lower_bound" in failing


def test_figures_datasets(tmp_path, capsys):
    outdir = tmp_path / "figs"
    assert run_cli("figures", "--n", "60", "--out", str(outdir)) == 0
    # one warning per solved problem that crosses the drift-sign bound
    warned = [line.split(":")[1] for line in capsys.readouterr().err
              .splitlines() if line.startswith("warning:")]
    assert warned == [" alpha=5 gamma=1 z=-5 theta=0 horizon=1 n=60",
                      " alpha=1 gamma=0.5 z=-5 theta=0 horizon=1 n=60"]
    names = sorted(p.name for p in outdir.iterdir())
    assert names == ["fig1_z0.csv", "fig1_zm5.csv", "fig1_zp5.csv",
                     "fig2_z0.csv", "fig2_zm5.csv", "fig2_zp5.csv",
                     "fig3_n10.csv", "fig3_n100.csv", "fig3_n500.csv"]

    # fig1: alpha sign pairs yield duplicate curves, bb reference present
    rows = (outdir / "fig1_z0.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header[-1] == "bb_ref"
    data = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
    for base in (1, 3, 5):  # (alpha, -alpha) column pairs
        assert np.array_equal(data[:, base], data[:, base + 1])

    # fig2 z=0: gamma=2 curve is twice the gamma=1 curve
    rows = (outdir / "fig2_z0.csv").read_text().strip().splitlines()
    data = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
    assert np.max(np.abs(data[:, 3] - 2.0 * data[:, 2])) < 2e-3

    # fig3: beta - z curves converge as N grows
    curves = {}
    for n in (10, 100, 500):
        rows = (outdir / f"fig3_n{n}.csv").read_text().strip().splitlines()
        curves[n] = np.array([[float(c) for c in r.split(",")]
                              for r in rows[1:]])
    for col in (1, 2, 3):
        d1 = np.max(np.abs(curves[10][:, col]
                           - np.interp(curves[10][:, 0], curves[100][:, 0],
                                       curves[100][:, col])))
        d2 = np.max(np.abs(curves[100][:, col]
                           - np.interp(curves[100][:, 0], curves[500][:, 0],
                                       curves[500][:, col])))
        assert d2 < d1


def test_figures_solve_each_problem_once(tmp_path, monkeypatch):
    solves = []
    solve = cli.solve_boundary

    def counted(params, cfg):
        solves.append((params, cfg))
        return solve(params, cfg)

    monkeypatch.setattr(cli, "solve_boundary", counted)
    outdir = tmp_path / "figs"
    assert run_cli("figures", "--n", "60", "--out", str(outdir)) == 0
    # fig1: 9 of 18 (+-alpha), fig2: 6 new of 9 (gamma = 1 is fig1's
    # alpha = 1), fig3: 9 (none at N = 60)
    assert len(solves) == len(set(solves)) == 24

    def columns(name):
        rows = (outdir / name).read_text().strip().splitlines()
        return np.array([[float(c) for c in r.split(",")] for r in rows[1:]])

    def alone(alpha, gamma, z, n):
        # the same curve from its own solve; 17 digits round-trip exactly
        return solve_boundary(OUBParams(alpha=alpha, gamma=gamma, z=z),
                              SolverConfig(n=n)).values

    for z, tag in ((0.0, "0"), (-5.0, "m5"), (5.0, "p5")):
        fig1 = columns(f"fig1_z{tag}.csv")
        for col, alpha in enumerate((0.01, -0.01, 1.0, -1.0, 5.0, -5.0), 1):
            assert np.array_equal(fig1[:, col], alone(alpha, 1.0, z, 60))
        fig2 = columns(f"fig2_z{tag}.csv")
        for col, gamma in enumerate((0.5, 1.0, 2.0), 1):
            assert np.array_equal(fig2[:, col], alone(1.0, gamma, z, 60))
    for n in (10, 100, 500):
        fig3 = columns(f"fig3_n{n}.csv")
        for col, z in enumerate((0.0, -5.0, 5.0), 1):
            assert np.array_equal(fig3[:, col], alone(1.0, 1.0, z, n) - z)


@pytest.mark.parametrize("threads", ("2.5", "0", "abc"))
def test_bad_thread_count_names_the_variable(threads, monkeypatch, capsys):
    monkeypatch.setenv("OUBSTOP_THREADS", threads)
    assert run_cli("verify", "--n", "20") == 2
    err = capsys.readouterr().err
    assert f"error: OUBSTOP_THREADS must be an integer >= 1, got '{threads}'" \
        in err


def test_verify_at_largest_accepted_alpha(capsys):
    # up to the slope limit 700 verify runs without a numpy warning (the
    # kernel overflows from about 704.6), and the next float up is a
    # validation error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("verify", "--alpha", "700", "--n", "20",
                       "--paths", "10") == 0
    capsys.readouterr()
    above = str(float(np.nextafter(700.0, 701.0)))
    assert run_cli("verify", "--alpha", above, "--n", "20",
                   "--paths", "10") == 2
    assert "error: |alpha| * horizon must be <= 700" \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("solve",), ("value", "--t", "0", "--x", "0"),
                                  ("verify", "--paths", "10")])
def test_volatility_whose_square_overflows_is_refused(argv, capsys):
    # the kernel squares the canonical gamma * sqrt(T), which overflows from
    # about 1.34e154: a validation error (exit 2), not a traceback with
    # exit 1, the code verify keeps for failed checks
    assert run_cli(*argv, "--n", "20", "--gamma", "1.5e154") == 2
    err = capsys.readouterr().err
    assert "error: (gamma * sqrt(horizon))^2 overflows" in err
    assert "Traceback" not in err
    # the refusal is of the canonical volatility: 1e154 * sqrt(4)
    assert run_cli(*argv, "--n", "20", "--gamma", "1e154",
                   "--horizon", "4") == 2
    assert "Traceback" not in capsys.readouterr().err


def test_large_volatility_below_the_refusal_still_solves(tmp_path):
    out = tmp_path / "b.csv"
    assert run_cli("solve", "--gamma", "1e150", "--n", "60",
                   "--out", str(out)) == 0
    _, beta = read_boundary_csv(str(out))
    assert beta[-1] == 0.0 and beta[0] > 1e149


@pytest.mark.parametrize("argv", [("solve",), ("value", "--t", "0", "--x", "0"),
                                  ("verify", "--paths", "10")])
def test_volatility_below_the_floor_is_refused(argv, capsys):
    # below a canonical gamma * sqrt(T) of 1e-100 the kernel's variance
    # nears the subnormal range (divide by zero at 1e-200): a validation
    # error, exit 2, without a traceback or a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv, "--n", "20", "--gamma", "1e-200") == 2
    err = capsys.readouterr().err
    assert "error: gamma * sqrt(horizon) must be >= 1e-100" in err
    assert "Traceback" not in err
    # the refusal is of the canonical volatility: 1e-100 * sqrt(0.25)
    assert run_cli(*argv, "--n", "20", "--gamma", "1e-100",
                   "--horizon", "0.25") == 2
    assert "Traceback" not in capsys.readouterr().err


def test_small_volatility_at_the_floor_still_solves(tmp_path):
    # at gamma = 1e-100 the boundary is gamma times the unit one
    out, unit = tmp_path / "b.csv", tmp_path / "u.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("solve", "--gamma", "1e-100", "--z", "5e-100",
                       "--out", str(out)) == 0
    assert run_cli("solve", "--z", "5", "--out", str(unit)) == 0
    _, beta = read_boundary_csv(str(out))
    _, beta1 = read_boundary_csv(str(unit))
    assert np.max(np.abs(beta / 1e-100 - beta1)) <= 1e-9


@pytest.mark.parametrize("argv,number,name", [
    (("--alpha", "1e-310", "--n", "50"), "1e-310", "gamma^2 / |alpha|"),
    (("--gamma", "1e154", "--alpha", "0.5", "--n", "50"), "1e+154",
     "gamma^2 / |alpha|"),
    (("--gamma", "1e150", "--alpha", "1e-10", "--n", "50"), "1e-10",
     "gamma^2 / |alpha|"),
    (("--alpha", "5e-324"), "5e-324", "gamma^2 / |alpha|"),
    (("--z", "1e308", "--theta", "-1e308"), "1e+308", "z - theta")])
def test_overflowing_canonical_scale_is_refused(argv, number, name, capsys):
    # gamma^2/|alpha| scales the law's variance (the same in original and
    # canonical units), z - theta is the canonical pin: where either
    # overflows, the solvers failed on non-finite rows or warned in numpy
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("solve", *argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert name in err[0] and number in err[0]


@pytest.mark.parametrize("argv", [
    ("--alpha", "1e-308"), ("--alpha", "1e-300"),
    ("--gamma", "1e150", "--alpha", "1e-3"), ("--gamma", "1e153")])
def test_scales_below_the_overflow_refusal_still_solve(argv, tmp_path):
    out = tmp_path / "b.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("solve", *argv, "--out", str(out)) == 0
    _, beta = read_boundary_csv(str(out))
    assert beta[-1] == 0.0 and beta[0] > 0.0


_TINY = ("--gamma", "1e-100", "--n", "60")


@pytest.mark.parametrize("argv", [
    ("solve", "--z", "1e90", *_TINY), ("solve", "--z", "-1e90", *_TINY),
    ("verify", "--z", "1e90", "--paths", "2000", *_TINY),
    ("solve", "--z=1e306"), ("value", "--z=1e306", "--t", "0.5", "--x", "0"),
    ("solve", "--alpha", "700", "--gamma", "1e-9"),
    ("solve", "--alpha", "700", "--gamma", "1e-100", "--z", "1e-100",
     "--n", "60"),
    ("solve", "--alpha", "700", "--z", "1e5"),
    ("verify", "--alpha", "1e-300", "--gamma", "1e-100", "--n", "60",
     "--paths", "2000")])
def test_extreme_scales_run_without_overflow_warnings(argv, capsys):
    # at gamma 1e-100 and |z| 1e90 the kernel's squared erfc argument
    # overflows to inf, where exp(-inf) = 0 is the exact term: no numpy
    # warning, and at z = 1e90 every node is z (a warned far pin at -1e90).
    # At z = 1e306 the table's erfc coefficient z |alpha| cosh(|alpha| gap)
    # / (2 sinh(|alpha| rem1)) is finite, with no difference of terms of
    # order z / sinh(|alpha| rem2) to overflow. The law's slope, shift and
    # variance form each ratio over sinh(|alpha| rem1) before any product,
    # so at alpha 700 the variance (small gamma) and the shift (z 1e5) stay
    # in range, the boundary at z 1e5 is at or above z as V >= E[X_1] = z,
    # and at alpha 1e-300, gamma 1e-100 the Monte Carlo steps keep their
    # variance and verify passes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[1:]]
    if argv[:3] == ("solve", "--z", "1e90"):
        assert len(rows) == 61 and all(float(b) == 1e90 for _, b in rows)
    elif argv[1] == "--z=1e306":
        assert float(rows[-1][-1]) == 1e306
    elif argv[-2:] == ("--z", "1e5"):
        assert rows and all(float(b) >= 1e5 for _, b in rows)
    elif argv[0] == "verify":
        assert rows and all(r[-1] == "pass" for r in rows)


@pytest.mark.parametrize("paths", [3, 4, 5])
def test_verify_constant_paired_difference_is_certain(paths, tmp_path):
    # a strong pull where both shifted rules differ from the unshifted one
    # by the same amount on every path: se_diff is exactly 0, and the
    # statistic is the sign of the difference, not a rounding artefact
    # (9e15 at 3 paths) or 0 (at 4 and 5). The boundary is the solved one
    # made flat up to the two pinned nodes; the solved one differs from
    # node to node by about 1e-13, enough for the shifted rule's payoffs
    # to differ from path to path by as much
    problem = ("--alpha", "-350", "--horizon", "2", "--theta", "1")
    src = tmp_path / "b.csv"
    assert run_cli("solve", *problem, "--n", "20", "--out", str(src)) == 0
    t, beta = read_boundary_csv(str(src))
    beta[:-2] = beta[0]
    flat = tmp_path / "flat.csv"
    flat.write_text("t,beta\n" + "".join(
        f"{float(ti)!r},{float(bi)!r}\n" for ti, bi in zip(t, beta)))
    out = tmp_path / "r.csv"
    assert run_cli("verify", *problem, "--paths", str(paths), "--boundary",
                   str(flat), "--out", str(out)) == 1
    rows = dict(r.split(",", 1)
                for r in out.read_text().strip().splitlines()[1:])
    assert rows["perturbation_up"] == "inf,3,fail"
    assert rows["perturbation_down"] == "-inf,3,pass"


def test_value_just_below_horizon(capsys):
    # the largest float below the horizon 0.11 passes value's own
    # t < horizon check; it must map below the canonical horizon 1 too
    assert run_cli("value", "--horizon", "0.11", "--t",
                   "0.10999999999999999", "--x", "0", "--n", "60") == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(
        "0.10999999999999999,")


def test_solve_far_pin_strong_pull(capsys):
    # Picard takes 254 sweeps here; the node-by-node solve reaches its
    # tolerance at every node, yet N=500 does not resolve the pull: 455
    # nodes sit at or below the drift-sign bound, and V(0, z) is 0.73 off
    assert run_cli("solve", "--alpha", "5", "--gamma", "0.5", "--z", "-5",
                   "--n", "500") == 0
    err = capsys.readouterr().err
    assert float(err.split("residual=")[1].split()[0]) <= 1e-9
    assert "warning: alpha=5 gamma=0.5 z=-5 theta=0 horizon=1 n=500: 455 " \
        "of 499 nodes at or below the drift-sign bound" in err


@pytest.mark.parametrize("alpha,gamma,z,below", [
    (5.0, 1.0, -5.0, 240), (3.0, 0.25, -2.0, 314), (2.0, 0.5, -5.0, 242),
    (1.0, 1.0, 0.0, 0), (5.0, 1.0, 0.0, 0), (1.0, 0.5, -5.0, 0)])
def test_solve_warns_on_drift_sign_crossing(alpha, gamma, z, below,
                                            tmp_path, capsys):
    # one stderr line where verify's drift_sign_bound row fails, naming the
    # problem and the nodes at or below the bound; (1, 0.5, -5) is a Picard
    # fallback that stays above it. stdout is the CSV that --out writes.
    problem = ("--alpha", str(alpha), "--gamma", str(gamma), "--z", str(z))
    out = tmp_path / "b.csv"
    assert run_cli("solve", *problem, "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("solve", *problem) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text()
    warned = [line for line in captured.err.splitlines()
              if line.startswith("warning:")]
    if below:
        assert warned == [
            f"warning: alpha={alpha:g} gamma={gamma:g} z={z:g} theta=0 "
            f"horizon=1 n=500: {below} of 499 nodes at or below the "
            "drift-sign bound z/cosh(alpha(1-t)), which the true boundary "
            "stays above"]
    else:
        assert warned == []
    assert run_cli("value", *problem, "--t", "0", "--x", str(z)) == 0
    assert [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("warning:")] == warned


@pytest.mark.parametrize("argv,flag,number", [
    (("solve", "--n", "20"), "--z", "-1e-3"),
    (("value", "--n", "20", "--t", "0"), "--x", "-2.5e-1"),
    (("solve", "--n", "20"), "--alpha", "-1E+0"),
])
def test_negative_number_in_exponent_notation(argv, flag, number, capsys):
    # argparse's own negative-number pattern has no exponent, so it took
    # -1e-3 for an option and exited 2; read apart or after "=", the
    # number now gives the same output
    assert run_cli(*argv, f"{flag}={number}") == 0
    want = capsys.readouterr()
    assert run_cli(*argv, flag, number) == 0
    assert capsys.readouterr() == want


def test_eps_flag_is_gone():
    # Picard's tolerance, which the fallback keeps at its default: iterated
    # on past it at far pins, Picard drifts to a fixed point with spikes
    with pytest.raises(SystemExit) as err:
        run_cli("solve", "--eps", "1e-3")
    assert err.value.code == 2


@pytest.mark.parametrize("subcommand", ("value", "verify", "figures"))
def test_convergence_error_exits_2(subcommand, tmp_path, capsys, one_sweep):
    # backward induction finds no root at node 2 and one Picard sweep does
    # not converge: a convergence error (exit 2), not a traceback, and for
    # verify not a failed verification (exit 1)
    # (figures draws alpha = 1, gamma = 0.5, z = -5 itself)
    problem = () if subcommand == "figures" else (
        "--alpha", "1", "--gamma", "0.5", "--z", "-5")
    point = ("--t", "0", "--x", "0") if subcommand == "value" else ()
    code = run_cli(subcommand, *problem, "--n", "120", *point,
                   "--out", str(tmp_path / "out"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_convergence_error_names_both_solvers(capsys, one_sweep):
    assert run_cli("value", "--alpha", "1", "--gamma", "0.5", "--z", "-5",
                   "--n", "120", "--t", "0", "--x", "0") == 2
    err = capsys.readouterr().err
    assert "backward induction found no root at node 2" in err
    assert "Picard" in err


def test_solve_picard_fallback_within_default_sweeps(capsys):
    # at the edge of the documented envelope backward induction falls back
    # and Picard needs 62 sweeps, as at (1, 0.5, -10), the same canonical
    # class zeta = -20 (761 unmixed from the constant z)
    assert run_cli("solve", "--alpha", "1", "--gamma", "0.25", "--z",
                   "-5") == 0
    assert "method=picard" in capsys.readouterr().err


def test_validation_errors_exit_code(capsys):
    assert run_cli("solve", "--gamma", "-1") == 2
    assert "error:" in capsys.readouterr().err
    assert run_cli("value", "--grid", "junk") == 2
    capsys.readouterr()
    assert run_cli("value", "--grid", "0:0.9:0,-1:1:3") == 2
    assert "bad --grid value" in capsys.readouterr().err
    assert run_cli("solve", "--n", "1") == 2
    capsys.readouterr()
    for x in ("nan", "inf"):
        assert run_cli("value", "--n", "20", "--t", "0.2", "--x", x) == 2
        assert "finite x" in capsys.readouterr().err
    # an infinite end, and finite ends whose span X1 - X0 or T1 - T0
    # overflows (np.linspace would warn and fill the grid with nan)
    for grid in ("0:0.5:2,-inf:0:2", "0:0.9:2,-1e308:1e308:2",
                 "-1e308:1e308:2,0:1:2"):
        assert run_cli("value", f"--grid={grid}") == 2
        assert capsys.readouterr().err.startswith("error: bad --grid value")
    assert run_cli("value", "--horizon", "3", "--t", "3", "--x", "0") == 2
    assert "t in [0, 3.0)" in capsys.readouterr().err
    assert run_cli("verify", "--seed", "-3") == 2
    assert "error: seed must be an integer >= 0" in capsys.readouterr().err
    # one path has standard error 0, which verify read as a failed check
    assert run_cli("verify", "--n", "60", "--paths", "1") == 2
    assert "error: verify needs --paths >= 2" in capsys.readouterr().err


def test_verify_rejects_malformed_boundary_file(tmp_path, capsys):
    # a file without data rows, with a row that is not one t,beta pair,
    # with a nan, starting after 0, ending before the horizon, with times
    # that do not increase or with fewer than three rows is a validation
    # error (exit 2) that names the file, not a verification result
    src = tmp_path / "b.csv"
    for text, message in (
            ("t,beta\n", "data rows"),
            ("t,beta\n0.0,0.1,7\n0.5,0.2,7\n1.0,0.0,7\n", "data rows"),
            ("t,beta\n0.0,0.1\n0.5,nan\n1.0,0.0\n", "finite"),
            ("t,beta\n0.0,0.1\nnan,0.2\n1.0,0.0\n", "finite"),
            ("t,beta\n0.25,0.1\n0.5,0.2\n1.0,0.0\n",
             f"{src}: first time 0.25 is not 0"),
            ("t,beta\n0.0,0.1\n0.25,0.2\n0.5,0.0\n", "horizon"),
            ("t,beta\n0.0,0.1\n0.5,0.2\n0.5,0.2\n1.0,0.0\n",
             f"{src}: grid nodes must be finite, strictly increasing"),
            ("t,beta\n0.0,0.1\n0.75,0.2\n0.5,0.2\n1.0,0.0\n",
             f"{src}: grid nodes must be finite, strictly increasing"),
            ("t,beta\n0.0,0.1\n1.0,0.0\n",
             f"{src}: grid needs at least three nodes")):
        src.write_text(text)
        assert run_cli("verify", "--boundary", str(src)) == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err


def test_seventeen_digit_formatting(tmp_path):
    out = tmp_path / "b.csv"
    assert run_cli("solve", "--n", "40", "--out", str(out)) == 0
    t, beta = read_boundary_csv(str(out))
    text = out.read_text()
    for ti in t[1:-1]:
        assert repr(float(ti)) in text or f"{ti:.17g}" in text


def test_each_subcommand_accepts_only_the_flags_it_reads(monkeypatch,
                                                         capsys):
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    flags = {name: sorted(s for a in p._actions for s in a.option_strings
                          if s not in ("-h", "--help"))
             for name, p in sub.choices.items()}
    common = ["--n", "--out"]
    problem = sorted(common + ["--alpha", "--gamma", "--horizon", "--theta",
                             "--z"])
    assert flags == {
        "solve": problem,
        "value": sorted(problem + ["--grid", "--t", "--x"]),
        "verify": sorted(problem + ["--boundary", "--paths", "--seed"]),
        "figures": common,
    }

    # Picard's sweep cap is not a flag of any subcommand
    for argv in (("figures", "--alpha", "5"), ("solve", "--seed", "1"),
                 ("solve", "--paths", "0"), ("value", "--paths", "5"),
                 *((name, "--max-iter", "7") for name in flags)):
        with pytest.raises(SystemExit) as err:
            run_cli(*argv)
        assert err.value.code == 2
    capsys.readouterr()
    # both modes of value at once is an error, not --grid winning
    assert run_cli("value", "--t", "0.1", "--x", "0",
                   "--grid", "0:0.9:2,-1:1:2") == 2
    assert "either --t and --x or --grid" in capsys.readouterr().err
    # only verify simulates, so only verify reads OUBSTOP_THREADS
    monkeypatch.setenv("OUBSTOP_THREADS", "abc")
    assert run_cli("solve", "--n", "20") == 0
    assert run_cli("value", "--n", "20", "--t", "0", "--x", "0") == 0
