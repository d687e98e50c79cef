import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_legendre

from oubstop import (
    KernelQuery,
    OUBParams,
    drift,
    drift_kernel,
    kernel_oracle,
    make_context,
    original_to_transformed,
)
from oubstop.bridge import cond_mean, cond_std
from oubstop.kernel import KernelTable, density
from oubstop.transform import upsilon

from mirror import gain_t, survival, transformed_integrand


def test_survival_density_basics():
    assert survival(0.0) == 0.5
    assert density(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi),
                                         abs=1e-16)
    for u in (0.5, 3.0, 8.0):
        assert survival(u) + survival(-u) == pytest.approx(1.0, abs=1e-15)


def test_survival_far_tail_accuracy():
    # complementary-error form keeps relative accuracy deep in the tail,
    # where 1 - Phi(u) would round to zero
    assert survival(10.0) == pytest.approx(7.619853024160527e-24, rel=1e-10)
    assert survival(25.0) == pytest.approx(3.056696706382561e-138, rel=1e-10)


def test_kernel_query_validation():
    with pytest.raises(ValueError):
        KernelQuery(t1=0.5, x1=0.0, t2=0.4, x2=0.0)
    with pytest.raises(ValueError):
        KernelQuery(t1=0.0, x1=0.0, t2=1.0, x2=0.0)
    KernelQuery(t1=0.2, x1=0.0, t2=0.3, x2=1.0)
    # a non-finite x1 or x2 had the oracle return nan, or -0.0 at x1 = inf
    for x1, x2 in ((math.inf, 0.0), (0.0, math.nan), (math.nan, 0.0),
                   (0.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            KernelQuery(t1=0.2, x1=x1, t2=0.3, x2=x2)


def test_kernel_indicator_saturation(std_params):
    p = std_params
    rng = np.random.default_rng(7)
    for _ in range(25):
        t1 = rng.uniform(0.0, 0.9)
        t2 = rng.uniform(t1 + 0.01, 0.99)
        x1 = rng.uniform(-2.0, 2.0)
        m = cond_mean(p, t1, x1, t2)
        v = cond_std(p, t1, t2)
        # indicator == 1: unconditional mean drift at the conditional mean
        full = drift_kernel(p, t1, x1, t2, m - 40.0 * v)
        assert full == pytest.approx(drift(p, t2, m), abs=1e-12)
        # indicator == 0
        assert drift_kernel(p, t1, x1, t2, m + 40.0 * v) == pytest.approx(
            0.0, abs=1e-12)


def test_kernel_spot_against_quadrature(std_params):
    q = KernelQuery(t1=0.0, x1=0.0, t2=0.5, x2=0.3)
    k = drift_kernel(std_params, q.t1, q.x1, q.t2, q.x2)
    assert k == pytest.approx(kernel_oracle(std_params, q), abs=1e-8)


def test_kernel_random_queries_against_quadrature():
    p = OUBParams(alpha=1.7, gamma=0.9, z=-1.0)
    rng = np.random.default_rng(13)
    for _ in range(25):
        t1 = rng.uniform(0.0, 0.95)
        t2 = rng.uniform(t1 + 1e-4, 0.99)
        x1 = p.z + rng.uniform(-3.0, 3.0)
        x2 = p.z + rng.uniform(-3.0, 3.0)
        q = KernelQuery(t1=t1, x1=x1, t2=t2, x2=x2)
        assert drift_kernel(p, t1, x1, t2, x2) == pytest.approx(
            kernel_oracle(p, q), abs=1e-8)


def test_kernel_alpha_parity():
    pp = OUBParams(alpha=2.0, gamma=1.0, z=1.0)
    pm = OUBParams(alpha=-2.0, gamma=1.0, z=1.0)
    rng = np.random.default_rng(19)
    for _ in range(50):
        t1 = rng.uniform(0.0, 0.9)
        t2 = rng.uniform(t1, 0.99)
        x1, x2 = rng.uniform(-3.0, 3.0, size=2)
        assert drift_kernel(pp, t1, x1, t2, x2) == drift_kernel(
            pm, t1, x1, t2, x2)


def test_kernel_rejects_terminal_time(std_params):
    with pytest.raises(ValueError):
        drift_kernel(std_params, 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        drift_kernel(std_params, 0.5, 0.0, 0.4, 0.0)
    # no continuity extension at t2 == t1: the equations never need it
    with pytest.raises(ValueError):
        drift_kernel(std_params, 0.3, 1.0, 0.3, 0.5)
    # drift_kernel is where times and params are checked (KernelTable,
    # built from gaps, checks neither): one bad pair in an array, or
    # general coordinates, raise
    with pytest.raises(ValueError, match="0 <= t1 < t2 < 1"):
        drift_kernel(std_params, np.array([0.1, 0.6]), 0.0, 0.5, 0.0)
    with pytest.raises(ValueError, match="canonical"):
        drift_kernel(OUBParams(alpha=1.0, gamma=1.0, z=0.0, horizon=2.0),
                     0.1, 0.0, 0.5, 0.0)


def test_kernel_monotone_tail_decay(std_params):
    p = std_params
    t1, x1, t2 = 0.1, 0.0, 0.6
    m = cond_mean(p, t1, x1, t2)
    v = cond_std(p, t1, t2)
    x2 = m + v * np.linspace(5.0, 12.0, 40)
    k = np.abs(drift_kernel(p, t1, x1, t2, x2))
    assert np.all(np.diff(k) < 0.0)
    assert k[-1] < 1e-20


def test_kernel_broadcasts(std_params):
    p = std_params
    t2 = np.array([0.3, 0.5, 0.8])
    x2 = np.array([0.1, 0.2, 0.3])
    out = drift_kernel(p, 0.0, 0.0, t2, x2)
    assert out.shape == (3,)
    for i in range(3):
        assert out[i] == drift_kernel(p, 0.0, 0.0, float(t2[i]), float(x2[i]))
    # x1 and x2 may have more entries than the time pairs
    wide = drift_kernel(p, 0.2, np.array([[-1.0], [0.0]]), 0.7, x2)
    assert wide.shape == (2, 3)
    assert wide[1, 2] == drift_kernel(p, 0.2, 0.0, 0.7, float(x2[2]))


def _reference_table(params, rem1, gap, rem2, w=1.0):
    """KernelTable's arrays as written before it computed them in place:
    one fresh array per operation, and the weights folded in last."""
    rem1, gap, rem2 = np.atleast_1d(np.asarray(rem1, dtype=float),
                                    np.asarray(gap, dtype=float),
                                    np.asarray(rem2, dtype=float))
    aa = abs(params.alpha)
    rem = aa * rem2
    sinh_rem = np.sinh(rem)
    sinh_gap = np.sinh(aa * gap)
    sinh_start = np.sinh(aa * rem1)
    slope = sinh_rem / sinh_start
    shift = params.z * sinh_gap / sinh_start
    v = np.sqrt(params.gamma ** 2 / aa * slope * sinh_gap)
    inv_v = 1.0 / math.sqrt(2.0) / v
    cz = 0.5 * aa * params.z / sinh_rem
    cm = 0.5 * aa * np.cosh(rem) / sinh_rem
    cv = 2.0 * (1.0 / math.sqrt(2.0 * math.pi)) * cm * v
    wcm = w * cm
    return dict(q=slope * inv_v, shift=shift, inv_v=inv_v,
                a=w * cz - wcm * shift, b=wcm * slope, c=w * cv)


def _assert_table_is_reference(p, rem1, gap, rem2, w):
    table = KernelTable(p, rem1, gap, rem2, w)
    for name, want in _reference_table(p, rem1, gap, rem2, w).items():
        got = getattr(table, name)
        assert np.array_equal(got, np.broadcast_to(want, got.shape))
    return table


def test_kernel_table_matches_reference_formula():
    # the in-place constructor keeps every operation and its order, so
    # every array is the formula's bit for bit, with and without weights;
    # direct == tabled checks cannot see this, both sides go through the
    # constructor
    rng = np.random.default_rng(23)
    t2 = np.concatenate([rng.uniform(0.0, 1.0, 400),
                         [np.nextafter(1.0, 0.0), 1.0 - 1e-12, 0.5, 0.999]])
    t1 = t2 * rng.uniform(0.0, 1.0, t2.size)
    t1[-2:] = t2[-2:] - 1e-12
    t1[-4] = 0.0
    w = rng.uniform(0.0, 0.01, t2.size)
    for alpha, gamma, z in itertools.product(
            (1e-4, 0.5, -2.0, 5.0, 700.0), (0.25, 2.0), (-10.0, 0.0, 5.0)):
        p = OUBParams(alpha=alpha, gamma=gamma, z=z)
        for s1, s2, sw in ((t1, t2, 1.0), (t1, t2, w), (0.0, t2[:-4], 1.0),
                           (t1[:3], 0.999, w[:3])):
            s1, s2 = np.asarray(s1), np.asarray(s2)
            _assert_table_is_reference(p, 1.0 - s1, s2 - s1, 1.0 - s2, sw)


def test_kernel_table_builds_at_collocation_gaps():
    # the pairs (t_k, u) of a collocation rule in xi = sqrt(1 - t): t_k =
    # 1 - xi_k^2 at Chebyshev xi_k, and u = 1 - (1 - t_k)(1 - sigma^2)^2 at
    # l = 16n Gauss-Legendre sigma on [0, 1], given as gaps. 1 - u is far
    # below the spacing of floats at 1 there, so a table built from the
    # times u would see u = 1; from the gaps every array is finite
    n = 128
    xi = (1.0 - np.cos(np.pi * np.arange(1, n + 1) / n)) / 2.0
    rem1 = (1.0 - (1.0 - xi * xi))[:, None]
    x, wx = roots_legendre(16 * n)
    sigma, w_sigma = (x + 1.0) / 2.0, wx / 2.0
    rem2 = rem1 * (1.0 - sigma * sigma) ** 2
    gap = rem1 - rem2
    assert np.any(1.0 - rem2 == 1.0)
    w = 4.0 * rem1 * (1.0 - sigma * sigma) * sigma * w_sigma
    for alpha, gamma, z in ((1e-4, 1.0, 0.0), (1.0, 1.0, 0.0),
                            (5.0, 0.25, -10.0), (200.0, 1.0, -5.0)):
        p = OUBParams(alpha=alpha, gamma=gamma, z=z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = _assert_table_is_reference(p, rem1, gap, rem2, w)
        for name in ("q", "shift", "inv_v", "a", "b", "c"):
            got = getattr(table, name)
            assert got.shape == (n, 16 * n)
            assert np.isfinite(got).all()


def test_kernel_table_residual_leaves_the_table_unchanged():
    # a table evaluates bit for bit as a fresh one after a residual was
    # taken and called on its rows
    p = OUBParams(alpha=1.0, gamma=0.5, z=-1.0)
    t2 = np.linspace(0.1, 0.9, 40)
    t1, w = 0.05 * t2, np.full(t2.size, 0.02)
    x2 = np.linspace(-1.0, 1.0, t2.size)
    used = KernelTable(p, 1.0 - t1, t2 - t1, 1.0 - t2, w)
    work = np.empty((3, t2.size))
    for rows in (slice(0, 40), slice(5, 12)):
        h = used.residual(rows, x2[rows], p.z, work)
        for x in (-0.5, 0.0, 0.7):
            h(x)
    fresh = KernelTable(p, 1.0 - t1, t2 - t1, 1.0 - t2, w)
    for name in ("q", "shift", "inv_v", "a", "b", "c"):
        assert np.array_equal(getattr(used, name), getattr(fresh, name))
    assert np.array_equal(used.evaluate(0.3, x2), fresh.evaluate(0.3, x2))


def test_transformed_integrand_threshold_limits():
    ctx = make_context(OUBParams(alpha=1.0, gamma=1.0, z=2.0))
    s, y, u = 0.5, 0.3, 2.0
    assert transformed_integrand(ctx, s, y, u, 1e6) == pytest.approx(0.0,
                                                                     abs=1e-300)
    f = math.sqrt((math.e + u) * (1.0 / math.e + u))
    expected = (ctx.c_z - (math.e + 1.0 / math.e + 2.0 * u)
                * (y + ctx.c_z * u) / (2.0 * f * f)) / f
    assert transformed_integrand(ctx, s, y, u, -1e6) == pytest.approx(
        expected, rel=1e-12)


def test_transformed_integrand_requires_later_time():
    ctx = make_context(OUBParams(alpha=1.0, gamma=1.0, z=0.0))
    with pytest.raises(ValueError):
        transformed_integrand(ctx, 1.0, 0.0, 1.0, 0.0)


def test_transformed_integrand_against_gain_t_quadrature():
    # E[gain_t(u, Y) 1(Y >= b)] with Y ~ N(y, u - s), by quadrature
    ctx = make_context(OUBParams(alpha=1.5, gamma=1.0, z=1.0))
    rng = np.random.default_rng(43)
    for _ in range(10):
        s = rng.uniform(0.0, 2.0)
        u = s + rng.uniform(0.05, 2.0)
        y = rng.uniform(-2.0, 2.0)
        b = rng.uniform(-2.0, 2.0)
        sd = math.sqrt(u - s)

        def f(w):
            return gain_t(ctx.c_z, ctx.alpha, u, w) \
                * density((w - y) / sd) / sd

        expected, _ = quad(f, b, y + 12.0 * sd, limit=200)
        assert transformed_integrand(ctx, s, y, u, b) == pytest.approx(
            expected, abs=1e-8)


def test_kernel_change_of_variables_identity():
    # K(t1,x1,t2,x2) dt == scale * integrand(s1,y1,s2,y2) ds, i.e. the
    # kernel equals the mapped integrand times scale * dupsilon/dt
    for z in (0.0, 2.0):
        p = OUBParams(alpha=1.0, gamma=1.0, z=z)
        ctx = make_context(p)
        rng = np.random.default_rng(47)
        h = 1e-7
        for _ in range(20):
            t1 = rng.uniform(0.0, 0.9)
            t2 = rng.uniform(t1 + 0.01, 0.95)
            x1 = z + rng.uniform(-2.0, 2.0)
            x2 = z + rng.uniform(-2.0, 2.0)
            s1, y1 = original_to_transformed(ctx, t1, x1)
            s2, y2 = original_to_transformed(ctx, t2, x2)
            dups = (upsilon(ctx.alpha, t2 + h)
                    - upsilon(ctx.alpha, t2 - h)) / (2.0 * h)
            lhs = drift_kernel(p, t1, x1, t2, x2)
            rhs = ctx.scale * transformed_integrand(ctx, s1, y1, s2, y2) * dups
            assert lhs == pytest.approx(rhs, abs=1e-6)
