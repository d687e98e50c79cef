import math

import numpy as np
import pytest

from oubstop import (
    MCConfig,
    OUBParams,
    SolverConfig,
    ValueSurfaceQuery,
    drift,
    drift_kernel,
    reduce_to_canonical,
    simulate_stopped_payoff,
    solve_boundary,
    value,
)
from oubstop.bridge import cond_mean, cond_std


def test_params_validation():
    with pytest.raises(ValueError):
        OUBParams(alpha=0.0, gamma=1.0, z=0.0)
    with pytest.raises(ValueError):
        OUBParams(alpha=1.0, gamma=0.0, z=0.0)
    with pytest.raises(ValueError):
        OUBParams(alpha=1.0, gamma=1.0, z=0.0, horizon=0.0)
    with pytest.raises(ValueError):
        OUBParams(alpha=math.inf, gamma=1.0, z=0.0)
    assert OUBParams(alpha=-2.0, gamma=0.5, z=1.0).is_canonical
    assert not OUBParams(alpha=1.0, gamma=1.0, z=0.0, horizon=2.0).is_canonical


@pytest.mark.parametrize("z", [0, 1])
def test_integer_params_match_float_params(z):
    # int fields are stored as float; an int z used to truncate every Monte
    # Carlo payoff (mean 0.0 with SE 0.0 at z = 0, where V(0, 0) = 0.366)
    ints = OUBParams(alpha=1, gamma=1, z=z)
    floats = OUBParams(alpha=1.0, gamma=1.0, z=float(z))
    assert all(type(getattr(ints, f)) is float
               for f in ("alpha", "gamma", "z", "theta", "horizon"))
    cfg = SolverConfig(n=60)
    sol_i, sol_f = solve_boundary(ints, cfg), solve_boundary(floats, cfg)
    assert np.array_equal(sol_i.values, sol_f.values)
    q = ValueSurfaceQuery(t=0.0, x=float(z))
    assert value(ints, sol_i.canonical, q) == value(floats, sol_f.canonical, q)
    mc = MCConfig(paths=5000, seed=0)
    assert simulate_stopped_payoff(ints, sol_i.canonical, 0.0, float(z), mc) \
        == simulate_stopped_payoff(floats, sol_f.canonical, 0.0, float(z), mc)


def test_drift_zero_at_scaled_pinning():
    p = OUBParams(alpha=1.0, gamma=1.0, z=0.0)
    for t in (0.0, 0.3, 0.9):
        assert drift(p, t, 0.0) == 0.0


def test_drift_spot_value():
    # alpha=1, z=0, t=0, x=1: -cosh(1)/sinh(1) = -coth(1)
    p = OUBParams(alpha=1.0, gamma=1.0, z=0.0)
    assert drift(p, 0.0, 1.0) == pytest.approx(-1.3130352854993313, abs=1e-14)
    assert drift(p, 0.0, 1.0) == pytest.approx(-1.0 / math.tanh(1.0))


def test_drift_alpha_parity():
    pp = OUBParams(alpha=1.0, gamma=1.0, z=0.7)
    pm = OUBParams(alpha=-1.0, gamma=1.0, z=0.7)
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = rng.uniform(0.0, 0.999)
        x = rng.uniform(-5.0, 5.0)
        assert drift(pp, t, x) == drift(pm, t, x)


def test_drift_domain_error():
    p = OUBParams(alpha=1.0, gamma=1.0, z=0.0)
    with pytest.raises(ValueError):
        drift(p, 1.0, 0.0)
    with pytest.raises(ValueError):
        drift(p, -0.1, 0.0)
    # nan fails the range check instead of passing it
    with pytest.raises(ValueError):
        drift(p, math.nan, 1.0)
    with pytest.raises(ValueError):
        drift(p, np.array([0.2, math.nan]), 1.0)


def test_cond_moments_domain_error():
    p = OUBParams(alpha=1.0, gamma=1.0, z=0.0)
    for t1, t2 in ((-0.1, 0.5), (0.5, 0.4), (0.5, 1.1), (1.0, 1.0),
                   (math.nan, 0.5), (0.2, math.nan)):
        with pytest.raises(ValueError):
            cond_mean(p, t1, 0.0, t2)
        with pytest.raises(ValueError):
            cond_std(p, t1, t2)


def test_scalar_in_numpy_float_out():
    # a scalar argument gives a numpy float64 (a float), an array an array
    p = OUBParams(alpha=1.0, gamma=1.0, z=2.0)
    for out in (drift(p, 0.2, 1.0), cond_mean(p, 0.2, 1.0, 0.5),
                cond_std(p, 0.2, 0.5), drift_kernel(p, 0.2, 1.0, 0.5, 0.3)):
        assert type(out) is np.float64
    assert drift(p, np.array([0.2]), 1.0).shape == (1,)
    assert drift_kernel(p, 0.2, 1.0, 0.5, np.array([0.3])).shape == (1,)


def test_drift_general_parameters_reduce():
    # drift takes canonical params only; the horizon-T drift, the closed
    # form with 1-t replaced by T-t, is the canonical drift of the
    # reduction over T
    p = OUBParams(alpha=0.7, gamma=1.0, z=2.0, theta=0.5, horizon=3.0)
    with pytest.raises(ValueError):
        drift(p, 0.5, 0.0)
    t, x = 1.2, 1.1
    rem = p.alpha * (p.horizon - t)
    expected = p.alpha * ((p.z - p.theta) - math.cosh(rem) * (x - p.theta)) \
        / math.sinh(rem)
    red = reduce_to_canonical(p)
    got = drift(red.canonical, red.to_canonical_time(t),
                red.to_canonical_space(x)) / red.original.horizon
    assert got == pytest.approx(expected, rel=1e-12)


def test_cond_mean_degenerate_ends():
    p = OUBParams(alpha=1.3, gamma=1.0, z=2.0)
    assert cond_mean(p, 0.4, -1.7, 0.4) == pytest.approx(-1.7, rel=1e-15)
    assert cond_mean(p, 0.4, -1.7, 1.0) == pytest.approx(2.0, rel=1e-15)


def test_cond_mean_spot_value():
    # alpha=1, z=2: 2*sinh(0.5)/sinh(1)
    p = OUBParams(alpha=1.0, gamma=1.0, z=2.0)
    assert cond_mean(p, 0.0, 0.0, 0.5) == pytest.approx(0.8868188839700739,
                                                        abs=1e-14)


def test_cond_std_zero_at_ends():
    p = OUBParams(alpha=-2.0, gamma=1.5, z=0.0)
    assert cond_std(p, 0.25, 0.25) == 0.0
    assert cond_std(p, 0.25, 1.0) == 0.0


def test_cond_std_spot_value():
    # alpha=1, gamma=1: sinh(0.5)/sqrt(sinh(1))
    p = OUBParams(alpha=1.0, gamma=1.0, z=0.0)
    assert cond_std(p, 0.0, 0.5) == pytest.approx(0.48068552987374696,
                                                  abs=1e-14)


def test_cond_moments_alpha_parity():
    pp = OUBParams(alpha=2.0, gamma=1.0, z=-1.0)
    pm = OUBParams(alpha=-2.0, gamma=1.0, z=-1.0)
    rng = np.random.default_rng(5)
    for _ in range(50):
        t1 = rng.uniform(0.0, 0.95)
        t2 = rng.uniform(t1, 1.0)
        x1 = rng.uniform(-3.0, 3.0)
        assert cond_mean(pp, t1, x1, t2) == cond_mean(pm, t1, x1, t2)
        assert cond_std(pp, t1, t2) == cond_std(pm, t1, t2)


def test_reduce_identity_for_canonical():
    p = OUBParams(alpha=2.0, gamma=1.0, z=-1.0)
    red = reduce_to_canonical(p)
    assert red.canonical == p
    assert red.original.horizon == 1.0
    assert red.original.theta == 0.0
    assert red.from_canonical_time(0.3) == 0.3
    assert red.from_canonical_space(-0.7) == -0.7


def test_reduce_shifts_pulling_level():
    red = reduce_to_canonical(OUBParams(alpha=1.0, gamma=1.0, z=5.0,
                                        theta=5.0))
    assert red.canonical.z == 0.0
    assert red.canonical.theta == 0.0
    assert red.from_canonical_space(red.canonical.z) == 5.0


def test_reduce_rescales_horizon():
    p = OUBParams(alpha=2.0, gamma=1.0, z=0.0, horizon=2.0)
    red = reduce_to_canonical(p)
    assert red.canonical.alpha == pytest.approx(4.0)
    assert red.canonical.gamma == pytest.approx(math.sqrt(2.0))
    assert red.canonical.horizon == 1.0
    assert red.to_canonical_time(2.0) == 1.0


def test_reduce_normalises_slope_sign():
    plus = reduce_to_canonical(OUBParams(alpha=2.0, gamma=1.0, z=0.0))
    minus = reduce_to_canonical(OUBParams(alpha=-2.0, gamma=1.0, z=0.0))
    assert plus.canonical == minus.canonical


def test_reduce_refuses_slope_past_kernel_limit():
    # the canonical slope is |alpha| * T; the kernel overflows from about
    # 704.6, so past 700 the parameters are refused before any solve
    for alpha, horizon in ((700.0, 1.0), (-350.0, 2.0)):
        red = reduce_to_canonical(OUBParams(alpha=alpha, gamma=1.0, z=0.0,
                                            horizon=horizon))
        assert red.canonical.alpha == 700.0
    for alpha, horizon in ((np.nextafter(700.0, np.inf), 1.0),
                           (-350.0, np.nextafter(2.0, np.inf)),
                           (800.0, 1.0), (1e308, 10.0)):
        p = OUBParams(alpha=alpha, gamma=1.0, z=0.0, horizon=horizon)
        with pytest.raises(ValueError, match="must be <= 700"):
            reduce_to_canonical(p)
        with pytest.raises(ValueError, match="must be <= 700"):
            solve_boundary(p, SolverConfig(n=20))


def test_reduce_refuses_volatility_whose_square_overflows():
    # the kernel squares the canonical volatility gamma * sqrt(T)
    red = reduce_to_canonical(OUBParams(alpha=1.0, gamma=1e154, z=0.0))
    assert red.canonical.gamma == 1e154
    for gamma, horizon in ((1.5e154, 1.0), (1e154, 4.0), (1e308, 1.0)):
        p = OUBParams(alpha=1.0, gamma=gamma, z=0.0, horizon=horizon)
        with pytest.raises(ValueError, match=r"\^2 overflows"):
            reduce_to_canonical(p)


def test_reduce_refuses_volatility_below_the_floor():
    # the solvers scale with gamma down to about 1e-151; the canonical
    # gamma * sqrt(T) must be at least 1e-100
    red = reduce_to_canonical(OUBParams(alpha=1.0, gamma=1e-100, z=0.0))
    assert red.canonical.gamma == 1e-100
    for gamma, horizon in ((np.nextafter(1e-100, 0.0), 1.0), (1e-100, 0.25),
                           (1e-200, 1.0), (5e-324, 1.0)):
        p = OUBParams(alpha=1.0, gamma=gamma, z=0.0, horizon=horizon)
        with pytest.raises(ValueError, match="must be >= 1e-100"):
            reduce_to_canonical(p)


def test_reduction_round_trip_one_ulp():
    rng = np.random.default_rng(11)
    for theta, horizon in [(0.3, 3.0), (-1.7, 0.25), (5.0, 1.0), (0.0, 7.0)]:
        p = OUBParams(alpha=1.1, gamma=0.8, z=0.4, theta=theta,
                      horizon=horizon)
        red = reduce_to_canonical(p)
        t = rng.uniform(0.0, horizon, size=200)
        x = rng.uniform(-10.0, 10.0, size=200)
        t_rt = red.from_canonical_time(red.to_canonical_time(t))
        x_rt = red.from_canonical_space(red.to_canonical_space(x))
        assert np.all(np.abs(t_rt - t) <= np.spacing(np.abs(t) + 1.0))
        assert np.all(np.abs(x_rt - x) <= np.spacing(np.abs(x) + 1.0))


def test_time_below_horizon_maps_below_one():
    # t * (1/T), with 1/T rounded, took t = nextafter(T, 0) to 1.0 at 473
    # of these 9901 horizons, 0.11 among them; t / T is correctly rounded.
    # Back the other way, t / (1/T) took canonical 1 off T at 1360 of them;
    # t * T is correctly rounded too
    for horizon in np.arange(100, 10001) / 1000.0:
        red = reduce_to_canonical(OUBParams(alpha=1.0, gamma=1.0, z=0.0,
                                            horizon=horizon))
        assert red.to_canonical_time(np.nextafter(horizon, 0.0)) < 1.0
        assert red.to_canonical_time(horizon) == 1.0
        assert red.from_canonical_time(1.0) == horizon
