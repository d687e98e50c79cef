import math

import numpy as np
import pytest

from oubstop import (
    OUBParams,
    cond_mean,
    cond_std,
    drift,
    reduce_to_canonical,
)


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


def test_drift_general_parameters_reduce():
    # horizon-T drift equals the closed form with 1-t replaced by T-t
    p = OUBParams(alpha=0.7, gamma=1.0, z=2.0, theta=0.5, horizon=3.0)
    t, x = 1.2, 1.1
    rem = p.alpha * (p.horizon - t)
    expected = p.alpha * ((p.z - p.theta) - math.cosh(rem) * (x - p.theta)) \
        / math.sinh(rem)
    assert drift(p, t, x) == pytest.approx(expected, rel=1e-12)


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
    assert red.time_scale == 1.0
    assert red.space_shift == 0.0


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
