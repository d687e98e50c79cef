import math
import warnings

import numpy as np
import pytest

from oubstop import (
    OUBParams,
    envelope,
    envelope_deriv,
    make_context,
    original_to_transformed,
)
from oubstop.transform import upsilon

from mirror import _kappa as kappa, _kappa_inv as kappa_inv, gain, gain_t
from mirror import upsilon_inv


def test_kappa_at_zero():
    for a in (1.0, -1.0, 3.0, 1e-4):
        assert kappa(a, 0.0) == 0.0


def test_kappa_spot_value():
    # (1 - e^-2)/2
    assert kappa(1.0, 1.0) == pytest.approx(0.43233235838169365, abs=1e-15)


def test_kappa_round_trip():
    for a in (1.0, -1.0, 3.0, -3.0):
        for t in np.arange(0.1, 1.0, 0.1):
            assert kappa_inv(a, kappa(a, t)) == pytest.approx(t, abs=1e-12)


def test_psi_upsilon_at_zero():
    for a in (1.0, -2.0):
        assert upsilon(a, 0.0) == 0.0


def test_upsilon_round_trip():
    for a in (1.0, -1.0, 3.0, -3.0):
        assert upsilon_inv(a, upsilon(a, 0.7)) == pytest.approx(0.7, abs=1e-12)
        t = np.linspace(0.0, 0.999, 80)
        assert np.allclose(upsilon_inv(a, upsilon(a, t)), t, atol=1e-12)


def test_upsilon_strictly_increasing():
    rng = np.random.default_rng(17)
    t = np.sort(rng.uniform(0.0, 0.9999, size=1000))
    for a in (1.0, -3.0):
        u = upsilon(a, t)
        assert np.all(np.diff(u) > 0.0)


def test_upsilon_large_alpha_stays_finite():
    # the sinh ratio must match the mirror's kappa form of the clock, and
    # stay finite up to the slope limit 700, where that form overflows
    t = np.linspace(0.0, 0.5, 51)
    for a in (0.5, 3.0):
        assert np.allclose(upsilon(a, t), kappa(a, t) * math.exp(-a)
                           / (kappa(a, 1.0) - kappa(a, t)), rtol=1e-13)
    # the reference writes each sinh ratio as an exponential times a ratio
    # of expm1: upsilon(t) = e^{a(2t-1)} expm1(-2at) / expm1(-2a(1-t)) and
    # envelope(upsilon(t)) = e^{at} expm1(-2a) / expm1(-2a(1-t)), a = |alpha|;
    # b can cancel to 0, so its error is measured against its two terms
    t = np.linspace(0.0, 0.999, 1000)
    beta = np.random.default_rng(43).uniform(-5.0, 5.0, t.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1e-4, 1.0, -3.0, 50.0, 360.0, 700.0):
            a = abs(alpha)
            rem = np.expm1(-2.0 * a * (1.0 - t))
            ref_s = np.exp(a * (2.0 * t - 1.0)) * np.expm1(-2.0 * a * t) / rem
            ref_f = np.exp(a * t) * np.expm1(-2.0 * a) / rem
            s = upsilon(alpha, t)
            assert s[0] == 0.0 and np.isfinite(s).all()
            assert np.all(np.diff(s) > 0.0)
            assert np.all(np.abs(s - ref_s) <= 3e-13 * ref_s), alpha
            ctx = make_context(OUBParams(alpha=alpha, gamma=0.8, z=1.5))
            s_b, b = original_to_transformed(ctx, t, beta)
            assert np.array_equal(s_b, s) and np.isfinite(b).all()
            ref_b = beta * ref_f / ctx.scale - ctx.c_z * ref_s
            terms = np.abs(beta) * ref_f / ctx.scale + abs(ctx.c_z) * ref_s
            assert np.all(np.abs(b - ref_b) <= 3e-13 * terms), alpha


def test_time_maps_domain_errors():
    with pytest.raises(ValueError):
        upsilon(1.0, 1.0)
    with pytest.raises(ValueError):
        upsilon(1.0, math.nan)
    with pytest.raises(ValueError):
        upsilon_inv(1.0, -0.1)


def test_envelope_basics():
    for a in (0.5, -0.5, 2.0, -2.0):
        assert envelope(a, 0.0) == 1.0
        s = np.arange(0.0, 50.5, 0.5)
        assert np.all(envelope(a, s) >= np.sqrt(1.0 + s * s) - 1e-12)
        assert np.all(np.diff(envelope(a, s)) > 0.0)


def test_envelope_stays_finite_along_the_clock_at_large_alpha():
    # along the clock the product (e^a + s)(e^-a + s) overflows at large
    # |alpha|, where envelope(upsilon(t)) = sinh|alpha| / sinh(|alpha|(1-t))
    # is finite; there it is the product of the two square roots
    t = np.linspace(0.0, 0.999, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (360.0, 700.0):
            s = upsilon(alpha, t)
            with np.errstate(over="ignore"):
                prod = (math.exp(alpha) + s) * (math.exp(-alpha) + s)
            assert np.isinf(prod).any()
            f, fp = envelope(alpha, s), envelope_deriv(alpha, s)
            ref = np.sinh(alpha) / np.sinh(alpha * (1.0 - t))
            assert np.isfinite(f).all() and np.isfinite(fp).all()
            assert np.all(np.abs(f - ref) <= 1e-13 * ref), alpha
            assert np.all(fp > 0.0)


def test_envelope_spot_value():
    # sqrt((e + 1)(1/e + 1)) = sqrt(2 + e + 1/e)
    assert envelope(1.0, 1.0) == pytest.approx(2.2552519304127616, abs=1e-14)


def test_envelope_deriv_matches_finite_differences():
    rng = np.random.default_rng(23)
    h = 1e-6
    for _ in range(200):
        a = rng.uniform(-2.0, 2.0)
        s = rng.uniform(h, 20.0)
        fd = (envelope(a, s + h) - envelope(a, s - h)) / (2.0 * h)
        assert envelope_deriv(a, s) == pytest.approx(fd, abs=1e-7)


def test_gain_at_zero_time_is_identity():
    for y in (-2.0, 0.0, 3.5):
        assert gain(0.7, 1.0, 0.0, y) == y


def test_gain_t_matches_finite_differences():
    rng = np.random.default_rng(29)
    h = 1e-6
    for _ in range(200):
        c = rng.uniform(-3.0, 3.0)
        a = rng.uniform(-2.0, 2.0)
        s = rng.uniform(h, 10.0)
        y = rng.uniform(-5.0, 5.0)
        fd = (gain(c, a, s + h, y) - gain(c, a, s - h, y)) / (2.0 * h)
        assert gain_t(c, a, s, y) == pytest.approx(fd, abs=1e-6)


def test_gain_x_is_exact_y_slope():
    # the space partial of the gain is 1 / envelope(s), for every y
    rng = np.random.default_rng(31)
    for _ in range(100):
        c = rng.uniform(-3.0, 3.0)
        a = rng.uniform(-2.0, 2.0)
        s = rng.uniform(0.0, 10.0)
        y = rng.uniform(-5.0, 5.0)
        slope = (gain(c, a, s, y + 1.0) - gain(c, a, s, y))
        assert 1.0 / envelope(a, s) == pytest.approx(slope, abs=1e-8)


def test_gain_t_sign_threshold():
    # gain_t > 0 iff y < c*(f - s f')/f' (from the displayed derivative;
    # dividing c(f - s f') - f' y > 0 by f' > 0)
    rng = np.random.default_rng(37)
    for _ in range(300):
        c = rng.uniform(-3.0, 3.0)
        a = rng.uniform(-2.0, 2.0)
        s = rng.uniform(0.0, 10.0)
        y = rng.uniform(-6.0, 6.0)
        f = envelope(a, s)
        fp = envelope_deriv(a, s)
        threshold = c * (f - s * fp) / fp
        if abs(y - threshold) < 1e-9:
            continue
        assert (gain_t(c, a, s, y) > 0.0) == (y < threshold)


def test_context_constants():
    p = OUBParams(alpha=1.0, gamma=1.0, z=0.0)
    ctx = make_context(p)
    assert ctx.scale == pytest.approx(math.sqrt(math.sinh(1.0)), rel=1e-15)
    assert ctx.c_z == 0.0
    p5 = OUBParams(alpha=-2.0, gamma=0.5, z=5.0)
    ctx5 = make_context(p5)
    assert ctx5.scale > 0.0
    assert ctx5.c_z == pytest.approx(5.0 / ctx5.scale, rel=1e-15)
    # scale even in alpha
    assert ctx5.scale == make_context(OUBParams(alpha=2.0, gamma=0.5,
                                                z=5.0)).scale


def test_context_requires_canonical():
    with pytest.raises(ValueError):
        make_context(OUBParams(alpha=1.0, gamma=1.0, z=0.0, horizon=2.0))


def test_boundary_map_round_trip():
    rng = np.random.default_rng(41)
    for z in (0.0, 5.0, -3.0):
        ctx = make_context(OUBParams(alpha=1.5, gamma=0.8, z=z))
        for _ in range(200):
            t = rng.uniform(0.0, 0.99)
            beta = rng.uniform(-10.0, 10.0)
            s, b = original_to_transformed(ctx, t, beta)
            # the inverse map: t = upsilon_inv(s), beta = scale * G_{c_z}(s, b)
            t2 = upsilon_inv(ctx.alpha, s)
            beta2 = ctx.scale * gain(ctx.c_z, ctx.alpha, s, b)
            assert t2 == pytest.approx(t, abs=1e-10)
            assert beta2 == pytest.approx(beta, abs=1e-10)


def test_boundary_map_at_time_zero():
    # at t = 0 the clock reads 0 and the map is a plain division by the scale
    ctx = make_context(OUBParams(alpha=1.0, gamma=2.0, z=3.0))
    s, b = original_to_transformed(ctx, 0.0, 1.25)
    assert s == 0.0
    assert b == pytest.approx(1.25 / ctx.scale, rel=1e-15)


def test_boundary_map_regular_at_zero_pinning():
    # z / c_z is 0/0 at z = 0; the map divides by scale and stays regular
    ctx = make_context(OUBParams(alpha=1.0, gamma=1.0, z=0.0))
    s, b = original_to_transformed(ctx, 0.5, 0.7)
    assert math.isfinite(b)
    assert b == pytest.approx(0.7 * envelope(1.0, s) / ctx.scale, rel=1e-12)

