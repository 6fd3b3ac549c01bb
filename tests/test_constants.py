import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mp
from numpy.polynomial.legendre import leggauss, legval, legvander

from ballgrad import constants
from ballgrad.constants import (
    ALPHA_GRID,
    T_GRID,
    ConstantQuery,
    _T_CHUNK,
    _graded_panels,
    _green_edges,
    _green_profile,
    _inner_smooth,
    _inv_power,
    certify_convexity,
    certify_radial_max,
    constant_direct,
    constant_radial,
    constant_series,
    curvature_density_grid,
    profile_curvature_kernel,
    profile_curvature_series,
    profile_parts,
)
from ballgrad.gegenbauer import (
    SERIES_MAX_TERMS,
    DimensionParams,
    SeriesConvergenceError,
    gamma_ratio,
    pair_series,
    pair_weights,
    series_cutoff,
)
from ballgrad.quadrature import gauss_legendre, map_panels

DIMS = (3, 4, 5, 8)


@pytest.fixture(scope="module")
def rule():
    return gauss_legendre(128)


# -- domain types -------------------------------------------------------------

def test_query_validation():
    dim = DimensionParams(4)
    q = ConstantQuery(dim, 0.5, math.pi / 3)
    assert q.delta == pytest.approx(0.25)
    assert q.t == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ConstantQuery(dim, 1.0, 0.0)
    with pytest.raises(ValueError):
        ConstantQuery(dim, -0.1, 0.0)
    with pytest.raises(ValueError):
        ConstantQuery(dim, 0.5, -0.2)
    with pytest.raises(ValueError):
        ConstantQuery(dim, 0.5, 4.0)


@pytest.mark.parametrize("call", [
    lambda cap: series_cutoff(0.5, 1.5, cap),
    lambda cap: series_cutoff(0.0, 1.5, cap),
    lambda cap: constant_series(ConstantQuery(DimensionParams(3), 0.0, 0.0), cap),
    lambda cap: profile_parts(0.3, DimensionParams(4), 0.5, cap),
    lambda cap: profile_curvature_series(0.3, DimensionParams(4), 0.5, cap),
    lambda cap: certify_convexity(3, 0.5, cap),
], ids=["cutoff", "cutoff-rho-zero", "constant-series-rho-zero", "profile-parts",
        "curvature-series", "certify-convexity"])
def test_series_cap_validation(call):
    # series_cutoff alone checks the term cap, and every series route reaches it
    for cap in (7, 4, 0, -1):
        with pytest.raises(ValueError, match=f"max_terms must be at least 8, got {cap}"):
            call(cap)
    try:  # 8 passes the check; at rho = 0.5 the series needs more terms
        call(8)
    except SeriesConvergenceError:
        pass
    assert SERIES_MAX_TERMS == 8192


def test_kernel_point_membership():
    # the density vanishes exactly off the positivity region disc > 0
    n, rho = 4, 0.5
    delta = (n - 2) / n * rho
    rng = np.random.default_rng(0)
    t, z = rng.uniform(-0.99, 0.99, size=(2, 50))
    disc = 1 - delta ** 2 * t ** 2 - t ** 2 - z ** 2 + 2 * delta * t ** 2 * z
    vals = curvature_density_grid(t, z, n, rho)
    assert np.array_equal(vals == 0.0, disc <= 0)
    assert 0 < np.count_nonzero(disc <= 0) < t.size
    for bad in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), ([0.2, 1.0], 0.0)):
        with pytest.raises(ValueError):
            curvature_density_grid(*bad, n, rho)


# -- inner integral -----------------------------------------------------------

def _inner_quadrature(q, x, rule):
    """The inner integral of constant_direct at abscissa x, by its own quadrature."""
    smooth = float(_inner_smooth(q.dim, q.rho, q.alpha, math.acos(x), rule)[0])
    return (1.0 - x * x) ** ((q.dim.n - 3) / 2.0) * smooth


def _inner_series(q, x):
    """Oracle: the ultraspherical expansion of the same inner integral,
    B_n (1-x^2)^((n-3)/2) sum_k (k!/(n-2)_k) rho^k C_k^lam(x) C_k^lam(t)
    with lam = (n-2)/2 and B_n = Gamma(1/2)Gamma((n-2)/2)/Gamma((n-1)/2)."""
    n = q.dim.n
    lam = q.dim.lambda_low
    pref = gamma_ratio((0.5, (n - 2) / 2.0), ((n - 1) / 2.0,)) \
        * (1.0 - x * x) ** ((n - 3) / 2.0)
    if q.rho == 0.0:
        return pref
    K = series_cutoff(q.rho, lam, SERIES_MAX_TERMS)
    return pref * float(pair_series([(lam, x, lam, q.t)], [pair_weights(lam, q.rho, K)])[0])


def test_inner_integral_rho_zero(rule):
    # at rho = 0 only the constant term survives:
    # B_n * (1-x^2)^{(n-3)/2} with B_n = Gamma(1/2)Gamma((n-2)/2)/Gamma((n-1)/2)
    for n in DIMS:
        dim = DimensionParams(n)
        q = ConstantQuery(dim, 0.0, 1.1)
        for x in (-0.5, 0.0, 0.7):
            want = gamma_ratio((0.5, (n - 2) / 2), ((n - 1) / 2,)) \
                * (1 - x * x) ** ((n - 3) / 2)
            assert _inner_quadrature(q, x, rule) == pytest.approx(want, rel=1e-12)
            assert _inner_series(q, x) == pytest.approx(want, rel=1e-14)


def test_inner_integral_cross_route(rule):
    q = ConstantQuery(DimensionParams(3), 0.5, math.pi / 3)
    a = _inner_quadrature(q, 0.2, rule)
    b = _inner_series(q, 0.2)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))
    for n in (3, 4, 5):
        dim = DimensionParams(n)
        for rho in (0.3, 0.7):
            for alpha in (0.4, 2.0):
                q = ConstantQuery(dim, rho, alpha)
                for x in (-0.6, 0.2, 0.8):
                    a = _inner_quadrature(q, x, rule)
                    b = _inner_series(q, x)
                    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def _inner_one_matrix(dim, rho, alpha, theta, rule):
    """Reference: _inner_smooth as one (theta, psi) matrix expression."""
    n = dim.n
    nodes, wts = _graded_panels(rho, rule)
    c0 = (1.0 - rho) ** 2 + 4.0 * rho * np.sin(0.5 * (theta - alpha)) ** 2
    c1 = 4.0 * rho * np.sin(theta) * math.sin(alpha)
    denom = c0[:, None] + c1[:, None] * np.sin(0.5 * nodes)[None, :] ** 2
    return _inv_power(denom, n / 2.0 - 1.0) @ (wts * np.sin(nodes) ** (n - 3))


@pytest.mark.parametrize("order", [7, 128])
@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_inner_integral_blocks_bit_identical(order, n):
    # _T_CHUNK + 1 leaves a lone last row, which numpy would take as a dot
    rule = gauss_legendre(order)
    dim = DimensionParams(n)
    for size in (1, _T_CHUNK - 1, _T_CHUNK, _T_CHUNK + 1, 3 * _T_CHUNK + 5):
        theta = np.linspace(0.0, math.pi, size)
        for rho in (0.0, 0.5, 0.9, 0.99):
            for alpha in (0.0, math.pi / 3, math.pi):
                want = _inner_one_matrix(dim, rho, alpha, theta, rule)
                assert np.array_equal(_inner_smooth(dim, rho, alpha, theta, rule), want)


@pytest.mark.parametrize("e", [0.5, 1, 1.5, 2.5, 3, 5, 9, 511])
def test_inv_power_matches_numpy(e):
    # the reciprocal's rounding grows e-fold and each squaring adds one; measured
    # worst: 1 eps at e = 0.5, 7 eps at e = 9, 355 eps at e = 511
    v = np.logspace(-6.0, math.log10(4.0), 2001)
    with np.errstate(over="ignore"):
        want = np.power(v, -e)
        got = v.copy()
        assert _inv_power(got, e) is got
    # inf exactly where the true value passes the double range (e = 511 only)
    assert np.array_equal(np.isinf(got), np.isinf(want)) and not np.all(np.isinf(want))
    fin = np.isfinite(want)
    assert np.max(np.abs(got[fin] / want[fin] - 1.0)) <= (e + 2) * np.finfo(float).eps


def _direct_longdouble(q, rule):
    """constant_direct's double integral on its own nodes, in np.longdouble and
    with the Poisson denominator as 1 - 2 rho z + rho^2."""
    L, n = np.longdouble, q.dim.n
    dt = q.delta * q.t
    th, wo = (a.astype(L) for a in _graded_panels(q.rho, rule, q.alpha, (math.acos(dt),)))
    ps, wi = (a.astype(L) for a in _graded_panels(q.rho, rule))
    rho, alpha = L(q.rho), L(q.alpha)
    inner = np.empty_like(th)
    for lo in range(0, th.size, 256):
        tr = th[lo:lo + 256, None]
        z = np.cos(tr) * np.cos(alpha) + np.sin(tr) * np.sin(alpha) * np.cos(ps)
        inner[lo:lo + 256] = (np.sin(ps) ** (n - 3) * (1 - 2 * rho * z + rho * rho)
                              ** (1 - L(n) / 2)) @ wi
    total = wo @ (np.abs(L(dt) - np.cos(th)) * np.sin(th) ** (n - 2) * inner)
    return L(n * (n - 2)) / (2 * L(math.pi)) / (1 - rho * rho) * total


def _kernel_longdouble(t, n, rho, rule):
    """profile_curvature_kernel on its own nodes, in np.longdouble and with the
    Poisson denominator as 1 - 2 rho z + rho^2, z = delta t^2 + w cos(theta)."""
    L = np.longdouble
    th, wts = (a.astype(L) for a in _graded_panels(rho, rule))
    tc, r = np.asarray(t, dtype=L)[:, None], L(rho)
    delta = L(n - 2) / n * r
    g = 1 - (delta * tc) ** 2
    w = np.sqrt(g * (1 - tc * tc))
    p = 1 - 2 * r * (delta * tc * tc + w * np.cos(th)) + r * r
    s = np.sin(th)
    vals = s ** (n - 3) * (p - L(n) / (n - 2) * g * s * s) ** 2 * p ** (-L(n + 2) / 2)
    scale = 2 * L(gamma_ratio(((n - 1) / 2.0,), ((n - 2) / 2.0, 0.5))) * delta * delta
    return scale * g[:, 0] ** (L(n - 3) / 2) * (vals @ wts)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="longdouble is double here")
@pytest.mark.parametrize("n, rho, parent", [
    (3, 0.99, 5.4e-16), (3, 0.999, 1.9e-14), (8, 0.99, 5.1e-15),
    (8, 0.999, 3.9e-14), (32, 0.99, 3.1e-14), (32, 0.999, 1.8e-13),
])
def test_direct_and_kernel_vs_longdouble(rule, n, rho, parent):
    # rounding error on the same nodes; `parent` is the direct route's error when
    # its denominators were 1 - 2 rho z + rho^2 and its prefactor 1/(1 - rho*rho)
    # (measured 1.3e-16 to 5.0e-16 since); the kernel's was 2.4e-14 to 3.6e-12 of
    # max |f''| then, 2.6e-16 to 4.5e-15 since
    dim = DimensionParams(n)
    for alpha in (0.0, math.pi / 3, math.pi / 2, 2.0):
        q = ConstantQuery(dim, rho, alpha)
        ref = _direct_longdouble(q, rule)
        assert float(abs((constant_direct(q, rule) - ref) / ref)) <= parent
    t = np.linspace(0.0, 0.999, 41)
    ref = _kernel_longdouble(t, n, rho, rule)
    got = profile_curvature_kernel(t, dim, rho, rule)
    assert float(np.max(np.abs(got - ref))) <= 1e-13 * float(np.max(np.abs(ref)))


def test_direct_route_memory(rule):
    # the inner matrix is built in row blocks: the one-matrix form peaked at 19.8 MB
    q = ConstantQuery(DimensionParams(3), 0.99, math.pi / 3)
    constant_direct(q, rule)
    tracemalloc.start()
    try:
        constant_direct(q, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


# -- constant routes ----------------------------------------------------------

def test_constant_at_origin(rule):
    # analytic integration at rho = 0: C(0) = c_n * 2/(n-1); equals 1.5 for n = 3
    for n in DIMS:
        dim = DimensionParams(n)
        want = dim.c_n * 2.0 / (n - 1)
        q = ConstantQuery(dim, 0.0, 0.9)
        assert constant_direct(q, rule) == pytest.approx(want, abs=1e-12)
        assert constant_series(q, rule=rule) == pytest.approx(want, abs=1e-12)
        assert constant_radial(n, 0.0, rule) == pytest.approx(want, abs=1e-12)
    assert constant_direct(ConstantQuery(DimensionParams(3), 0.0, 0.0), rule) \
        == pytest.approx(1.5, abs=1e-12)


def test_alpha_independence_at_origin(rule):
    dim = DimensionParams(5)
    vals = [constant_direct(ConstantQuery(dim, 0.0, a), rule) for a in (0.0, 1.0, math.pi)]
    assert max(vals) - min(vals) <= 1e-12


def test_cross_route_agreement(rule):
    for n, rho, alpha in ((5, 0.7, 0.9), (3, 0.5, 2.1), (4, 0.9, 0.3), (8, 0.5, 1.6)):
        q = ConstantQuery(DimensionParams(n), rho, alpha)
        a = constant_direct(q, rule)
        b = constant_series(q, rule=rule)
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


@pytest.mark.parametrize("n, rho, alpha", [
    (3, 0.99, math.pi / 3),
    (5, 0.99, 2 * math.pi / 3),
    (8, 0.99, math.pi / 3),
    (4, 0.999, math.pi / 2),
])
def test_direct_route_near_boundary(rule, n, rho, alpha):
    # off the radial direction the outer peak sits at theta = alpha; the series
    # route, with its term cap raised, referees the direct route there
    q = ConstantQuery(DimensionParams(n), rho, alpha)
    direct = constant_direct(q, rule)
    series = constant_series(q, 60000, rule)
    assert abs(direct - series) <= 1e-8 * abs(series)


def test_constant_series_query_sequence(rule):
    dim = DimensionParams(5)
    queries = [ConstantQuery(dim, 0.9, a) for a in np.linspace(0.0, math.pi, 13)]
    vec = constant_series(queries, rule=rule)
    assert vec.shape == (13,)
    for q, v in zip(queries, vec):
        assert v == pytest.approx(constant_series(q, rule=rule), rel=1e-14)
    with pytest.raises(ValueError):
        constant_series(queries + [ConstantQuery(dim, 0.5, 0.0)], rule=rule)
    with pytest.raises(ValueError):
        constant_series([], rule=rule)


def test_radial_specialization(rule):
    # the radial formula is the alpha = 0 slice of the direct route
    for n in DIMS:
        for rho in (0.1, 0.5, 0.9):
            q = ConstantQuery(DimensionParams(n), rho, 0.0)
            a = constant_direct(q, rule)
            b = constant_radial(n, rho, rule)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_endpoint_equality(rule):
    # C at alpha = 0 equals C at alpha = pi
    for n, rho in ((4, 0.6), (3, 0.9)):
        dim = DimensionParams(n)
        a = constant_series(ConstantQuery(dim, rho, 0.0), rule=rule)
        b = constant_series(ConstantQuery(dim, rho, math.pi), rule=rule)
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_radial_growth_toward_boundary(rule):
    for n in DIMS:
        assert constant_radial(n, 0.9, rule) > constant_radial(n, 0.5, rule)


def test_radial_domain(rule):
    with pytest.raises(ValueError):
        constant_radial(4, 1.0, rule)


def test_series_nonconvergence_signaled(rule):
    q = ConstantQuery(DimensionParams(4), 0.9, 0.5)
    with pytest.raises(SeriesConvergenceError):
        constant_series(q, 16, rule)


# -- profile parts ------------------------------------------------------------

def test_profile_even_in_t(rule):
    dim = DimensionParams(5)
    for t in (0.2, 0.7):
        f_pos = profile_parts(t, dim, 0.6, rule=rule)
        f_neg = profile_parts(-t, dim, 0.6, rule=rule)
        for a, b in zip(f_pos, f_neg):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_profile_weighted_part_vanishes_at_t_zero(rule):
    _, weighted, _ = profile_parts(0.0, DimensionParams(4), 0.7, rule=rule)
    assert weighted == 0.0


def test_profile_series_part_finite_at_endpoints(rule):
    for t in (-1.0, 1.0):
        parts = profile_parts(t, DimensionParams(3), 0.9, rule=rule)
        assert all(math.isfinite(p) for p in parts)


def test_profile_sum_reproduces_direct_route(rule):
    for n, rho, alpha in ((3, 0.5, 0.8), (4, 0.9, 2.4), (8, 0.5, 1.1)):
        dim = DimensionParams(n)
        q = ConstantQuery(dim, rho, alpha)
        parts = profile_parts(q.t, dim, rho, rule=rule)
        via_profile = dim.c_n / (1 - rho ** 2) * sum(parts)
        direct = constant_direct(q, rule)
        assert abs(via_profile - direct) <= 1e-8 * max(1.0, abs(direct))


def test_profile_parts_vectorized(rule):
    dim = DimensionParams(4)
    # the 181-point grid spans several row blocks of the kink integrals
    for rho, ts in ((0.5, np.array([-0.8, -0.1, 0.0, 0.6])),
                    (0.95, np.cos(np.linspace(0.0, math.pi, 181)))):
        plain, weighted, tail = profile_parts(ts, dim, rho, rule=rule)
        for i, t in enumerate(ts):
            p, w, h = profile_parts(float(t), dim, rho, rule=rule)
            assert plain[i] == pytest.approx(p, rel=1e-14)
            assert weighted[i] == pytest.approx(w, rel=1e-14, abs=1e-15)
            assert tail[i] == pytest.approx(h, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("rho", [0.5, 0.95])
def test_profile_kink_parts_closed_form(rule, rho):
    # at n = 3 (lam = 1/2) the kink integrals are int_{-1}^1 |x - s| dx = 1 + s^2 and
    # int_{-1}^1 |x - s| x dx = s^3/3 - s, with s = delta*t; the weighted part is rho*t times it
    t = np.cos(np.linspace(0.0, math.pi, 73))
    s = rho / 3.0 * t
    plain, weighted, _ = profile_parts(t, DimensionParams(3), rho, rule=rule)
    assert np.max(np.abs(plain - (1.0 + s * s))) <= 1e-14
    assert np.max(np.abs(weighted - rho * t * (s ** 3 / 3.0 - s))) <= 1e-14


def test_profile_parts_memory(rule):
    # the kink integrals run in _T_CHUNK-row blocks: one block for all rows peaked at 328 MB
    t = np.linspace(-1.0, 1.0, 20000)
    dim = DimensionParams(3)
    profile_parts(t[:10], dim, 0.5, rule=rule)
    tracemalloc.start()
    try:
        profile_parts(t, dim, 0.5, rule=rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("rho", [math.nan, -0.5, 5.0, 1.0, 1.5])
def test_series_routes_name_the_bad_rho(rho):
    # the rho check comes before any quadrature, whose own domain error would hide
    # it; the kernel curvature and its density check rho as the series routes do
    for call in (lambda: profile_parts(0.9, DimensionParams(3), rho),
                 lambda: profile_curvature_series(0.9, DimensionParams(3), rho),
                 lambda: certify_convexity(3, rho),
                 lambda: profile_curvature_kernel(0.3, DimensionParams(3), rho),
                 lambda: curvature_density_grid(0.3, 0.2, 3, rho)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"rho must lie in [0, 1), got {rho}"


@pytest.mark.parametrize("bad", [math.nan, 1.5])
@pytest.mark.parametrize("fn, interval", [(profile_parts, "[-1, 1]"),
                                          (profile_curvature_series, "(-1, 1)"),
                                          (profile_curvature_kernel, "(-1, 1)")])
def test_profile_functions_name_the_bad_t(fn, interval, bad):
    # NaN fails the domain check as an out-of-range value does, scalar or inside an array
    message = f"t must lie in {interval}, got {bad}"
    for t in (bad, np.array([0.2, bad, -0.3, 2.0])):
        with pytest.raises(ValueError) as info:
            fn(t, DimensionParams(3), 0.5)
        assert str(info.value) == message


# -- curvature routes ---------------------------------------------------------

def test_curvature_zero_at_origin():
    assert profile_curvature_series(0.3, DimensionParams(5), 0.0) == 0.0
    assert profile_curvature_kernel(0.3, DimensionParams(5), 0.0) == 0.0


def test_curvature_series_vs_kernel(rule):
    for n in (3, 5, 8):
        dim = DimensionParams(n)
        for rho in (0.3, 0.9):
            for t in np.linspace(-0.95, 0.95, 11):
                a = profile_curvature_series(float(t), dim, rho)
                b = profile_curvature_kernel(float(t), dim, rho, rule)
                assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_curvature_series_vs_profile_fd(rule):
    h = 1e-4
    for n, rho in ((4, 0.6), (3, 0.9)):
        dim = DimensionParams(n)
        for t in (-0.9, -0.3, 0.2, 0.7):
            f = [sum(profile_parts(t + s * h, dim, rho, rule=rule)) for s in (-1, 0, 1)]
            fd = (f[0] - 2 * f[1] + f[2]) / (h * h)
            assert abs(profile_curvature_series(t, dim, rho) - fd) <= 1e-5


def _curvature_series_longdouble(t, n, rho):
    """The truncated curvature series of profile_curvature_series, at the same
    orders, evaluated in np.longdouble (64-bit mantissa on x86)."""
    L = np.longdouble
    t = np.asarray(t, dtype=L)
    delta = L(n - 2) / L(n) * L(rho)
    x1 = delta * t
    sums = []
    for lam2 in (n - 2, n, n + 2):
        lam = L(lam2) / 2
        K = series_cutoff(rho, lam2 / 2.0, SERIES_MAX_TERMS)
        a_prev, b_prev = np.ones_like(t), np.ones_like(t)
        a, b = 2 * lam * x1, 2 * lam * t
        w = L(1)
        total = np.ones_like(t)
        for m in range(1, K + 1):
            if m >= 2:
                a_prev, a = a, (2 * (m + lam - 1) * x1 * a - (m + 2 * lam - 2) * a_prev) / m
                b_prev, b = b, (2 * (m + lam - 1) * t * b - (m + 2 * lam - 2) * b_prev) / m
            w *= L(m) / (2 * lam + m - 1) * L(rho)
            total += w * a * b
        sums.append(total)
    g, d2, nl = 1 - x1 * x1, delta * delta, L(n)
    return (2 * d2 * g ** (L(n - 3) / 2) * sums[0]
            - 4 * nl * d2 / (nl - 1) * g ** (L(n - 1) / 2) * sums[1]
            + 2 * nl ** 3 * d2 / ((nl + 1) * (nl - 1) * (nl - 2))
            * g ** (L(n + 1) / 2) * sums[2])


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="longdouble is double here")
@pytest.mark.parametrize("n, rho, bound", [
    (8, 0.95, 5e-12),    # measured 1.1e-12 relative to max |curvature|
    (16, 0.95, 2e-8),    # measured 6.3e-9: the pair sums cancel by ~1e6 at lam = 9
])
def test_curvature_series_vs_longdouble(n, rho, bound):
    grid = np.linspace(-0.999, 0.999, 41)
    ref = _curvature_series_longdouble(grid, n, rho)
    got = profile_curvature_series(grid, DimensionParams(n), rho)
    scale = float(np.max(np.abs(ref)))
    assert float(np.max(np.abs(got - ref))) <= bound * scale


def _symmetric(lo, hi, size):
    grid = np.linspace(lo, hi, size)
    return 0.5 * (grid - grid[::-1])


@pytest.mark.parametrize("rho", [0.3, 0.9, 0.99])
@pytest.mark.parametrize("n", [3, 8, 16])
def test_profile_and_curvature_even(rule, n, rho):
    # the certificates evaluate these once per |t|; the term cap fits lam = 9 at rho = 0.99
    dim = DimensionParams(n)
    t = _symmetric(-0.999, 0.999, 41)
    series = profile_curvature_series(t, dim, rho, 32768)
    assert np.array_equal(series, series[::-1])
    kernel = profile_curvature_kernel(t, dim, rho, rule)
    assert np.max(np.abs(kernel - kernel[::-1])) <= 1e-14 * np.max(np.abs(kernel))
    t = _symmetric(-1.0, 1.0, 41)
    f = sum(profile_parts(t, dim, rho, 32768, rule))
    assert np.max(np.abs(f - f[::-1])) <= 1e-14 * np.max(np.abs(f))


def test_curvature_vectorized(rule):
    dim = DimensionParams(4)
    ts = np.linspace(-0.9, 0.9, 7)
    vec = profile_curvature_series(ts, dim, 0.7)
    for i, t in enumerate(ts):
        assert vec[i] == pytest.approx(profile_curvature_series(float(t), dim, 0.7), rel=1e-13)


@pytest.mark.parametrize("rho", [0.5, 0.95])    # 0.95: graded panels
@pytest.mark.parametrize("size", [1, 201])       # 201: a partial last row block
def test_curvature_kernel_vectorized(rule, rho, size):
    dim = DimensionParams(5)
    ts = np.linspace(-0.999, 0.999, size)
    vec = profile_curvature_kernel(ts, dim, rho, rule)
    assert vec.shape == ts.shape
    for i, t in enumerate(ts):
        one = profile_curvature_kernel(float(t), dim, rho, rule)
        assert isinstance(one, float)
        assert vec[i] == pytest.approx(one, rel=1e-14)


def test_curvature_nonnegative(rule):
    for n in DIMS:
        dim = DimensionParams(n)
        for rho in (0.1, 0.5, 0.9):
            vals = profile_curvature_series(np.linspace(-0.999, 0.999, 41), dim, rho)
            assert np.min(vals) >= -1e-12


# -- kernel density -----------------------------------------------------------

def test_density_nonnegative_on_region():
    rng = np.random.default_rng(23)
    for n in DIMS:
        rho = 0.6
        t, z = rng.uniform(-0.99, 0.99, size=(2, 3000))
        vals = curvature_density_grid(t, z, n, rho)
        assert np.all(vals >= 0.0)


def test_density_zero_off_region():
    # (t, z) = (0.9, -0.9) lies outside the positivity region for small delta
    t, z, delta = 0.9, -0.9, (5 - 2) / 5 * 0.1
    assert 1 - delta ** 2 * t ** 2 - t ** 2 - z ** 2 + 2 * delta * t ** 2 * z <= 0
    assert curvature_density_grid(t, z, 5, 0.1) == 0.0


def test_density_bracket_is_perfect_square():
    # A^2 - (2n/(n-2)) A B + (n/(n-2))^2 B^2 == (A - n B/(n-2))^2,
    # relative to the term scale max(A^2, (eta B)^2)
    rng = np.random.default_rng(29)
    for n in DIMS:
        eta = n / (n - 2)
        a, b = rng.uniform(-10, 10, size=(2, 10000))
        lhs = a * a - 2 * eta * a * b + eta * eta * b * b
        rhs = (a - eta * b) ** 2
        scale = np.maximum(a * a, (eta * b) ** 2)
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-13


def test_density_integrates_to_curvature():
    # mpmath's tanh-sinh z-integration of the pointwise density against the
    # kernel route; it also handles the endpoint singularity at n = 3
    for n in (3, 4, 5):
        dim = DimensionParams(n)
        rho, t = 0.5, 0.3
        delta = (n - 2) / n * rho
        w = math.sqrt((1 - (delta * t) ** 2) * (1 - t * t))
        lo, hi = delta * t * t - w, delta * t * t + w
        val = delta ** 2 * float(mp.quad(
            lambda z: curvature_density_grid(t, float(z), n, rho), [lo, hi]))
        want = profile_curvature_kernel(t, dim, rho)
        assert abs(val - want) <= 1e-8 * max(1.0, abs(want))


# -- certification ------------------------------------------------------------

def test_certify_convexity_passes(rule):
    rep = certify_convexity(3, 0.5, rule=rule)
    assert rep.passed and rep.min_curvature >= -1e-12
    assert rep.max_route_gap <= 1e-8
    assert rep.grid_size == 201
    rep = certify_convexity(8, 0.95, rule=rule)
    assert rep.passed
    d = dataclasses.asdict(rep)
    assert d["n"] == 8 and len(d["series_terms"]) == 3


def test_certify_convexity_needs_route_agreement():
    # a 2-node rule puts the kernel curvature 0.0547 off the series, just under
    # the 0.0548 margin: the floor alone would pass, the route contract fails it
    rep = certify_convexity(3, 0.5, rule=gauss_legendre(2))
    assert rep.min_curvature > 0.05 and rep.max_route_gap > 0.05
    assert not rep.passed


def test_certificates_take_no_tolerance():
    # the contracts are constants, not parameters
    with pytest.raises(TypeError):
        certify_convexity(3, 0.5, threshold=-1.0)
    with pytest.raises(TypeError):
        certify_radial_max(3, 0.5, tie_tol=1.0)


def test_certify_convexity_route_gap(rule):
    for n, rho in ((3, 0.5), (8, 0.95)):
        dim = DimensionParams(n)
        rep = certify_convexity(n, rho, rule=rule)
        curv = profile_curvature_series(T_GRID, dim, rho)
        want = max(abs(curv[i] - profile_curvature_kernel(float(t), dim, rho, rule))
                   for i, t in enumerate(T_GRID))
        assert rep.max_route_gap == pytest.approx(want, abs=1e-14 * np.max(np.abs(curv)))


@pytest.mark.parametrize("n, rho", [(3, 0.5), (8, 0.95), (3, 0.99)])
def test_certificates_match_full_grid_evaluation(rule, n, rho):
    # the reports evaluate once per distinct |t|; here every grid point is evaluated
    dim = DimensionParams(n)
    conv = certify_convexity(n, rho, rule=rule)
    grid = _symmetric(-0.999, 0.999, 201)
    curv = profile_curvature_series(grid, dim, rho)
    kern = profile_curvature_kernel(grid, dim, rho, rule)
    scale = np.max(np.abs(curv))
    assert conv.passed == bool(curv.min() >= -1e-12)
    assert conv.series_terms == tuple(series_cutoff(rho, lam, SERIES_MAX_TERMS) for lam in
                                      (dim.lambda_low, dim.lambda_mid, dim.lambda_high))
    assert conv.min_curvature == pytest.approx(curv.min(), rel=1e-14)
    assert abs(conv.argmin_t) == abs(grid[np.argmin(curv)])
    assert abs(conv.max_route_gap - np.max(np.abs(curv - kern))) <= 1e-14 * scale

    rad = certify_radial_max(n, rho, rule=rule)
    alphas = np.arange(181) * math.pi / 180
    values = _green_values_inline(dim, rho, alphas, rule)
    assert rad.passed == bool(values[0] >= values.max() - 1e-12 * max(1.0, values.max()))
    assert rad.value_at_zero == pytest.approx(values[0], rel=1e-14)
    assert rad.max_value == pytest.approx(values.max(), rel=1e-14)
    series = dim.c_n / (1 - rho * rho) * sum(profile_parts(np.cos(alphas), dim, rho, rule=rule))
    assert rad.value_at_zero == pytest.approx(series[0], rel=1e-12)
    assert rad.max_value == pytest.approx(series.max(), rel=1e-12)
    assert rad.argmax_alphas == (0.0, math.pi)
    assert rad.value_at_zero == rad.max_value


def _green_values_inline(dim, rho, alphas, rule):
    """The radial certificate's values, written out at every alpha: the direct
    route at pi/2 plus int_0^u (u - s) p(s) ds, u = |cos(alpha)|, p the
    16-node Legendre interpolant of the kernel curvature on each Green panel,
    integrated panel by panel by a 16-node Gauss rule on the part below u."""
    x, w = leggauss(16)
    edges = _green_edges(rho)
    total = np.zeros(len(alphas))
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        curv = profile_curvature_kernel(mid + half * x, dim, rho, rule)
        coef = (np.arange(16) + 0.5) * ((legvander(x, 15).T * w) @ curv)
        for i, u in enumerate(np.abs(np.cos(alphas))):
            if u > a:
                top = min(u, b)
                s = 0.5 * (a + top) + 0.5 * (top - a) * x
                total[i] += 0.5 * (top - a) * w @ ((u - s) * legval((s - mid) / half, coef))
    anchor = constant_direct(ConstantQuery(dim, rho, math.pi / 2), rule)
    return anchor + dim.c_n / (1 - rho * rho) * total


def _series_profile(dim, rho, t, rule):
    return sum(profile_parts(t, dim, rho, rule=rule))


@pytest.mark.parametrize("n, rho", [(n, rho) for n in (3, 5, 8, 16) for rho in (0.1, 0.5, 0.9, 0.95)]
                         + [(3, 0.99), (4, 0.99)])
def test_green_profile_matches_series(rule, n, rho):
    # f(0) + int_0^|t| (|t| - s) f''(s) ds against the series profile, on the 181 radial-max angles
    dim = DimensionParams(n)
    t = np.cos(np.linspace(0.0, math.pi, 181))
    series = _series_profile(dim, rho, t, rule)
    green = _series_profile(dim, rho, 0.0, rule) + _green_profile(np.abs(t), dim, rho, rule)
    assert np.max(np.abs(green - series) / series) <= 1e-12


@pytest.mark.parametrize("rho, nodes", [(0.1, 32), (0.5, 64), (0.9, 112), (0.99, 192)])
def test_green_panels(rho, nodes):
    edges = _green_edges(rho)
    assert edges[0] == 0.0 and edges[-1] == 1.0 and np.all(np.diff(edges) > 0.0)
    assert 16 * (edges.size - 1) == nodes


@pytest.mark.parametrize("n, rho", [(3, 0.5), (8, 0.9), (3, 0.99), (16, 0.999)])
def test_green_profile_node_doubling(rule, monkeypatch, n, rho):
    dim = DimensionParams(n)
    u = np.abs(np.cos(np.linspace(0.0, math.pi, 181)))
    coarse = _green_profile(u, dim, rho, rule)
    monkeypatch.setattr(constants, "_GREEN_ORDER", 32)
    fine = _green_profile(u, dim, rho, rule)
    f0 = constant_direct(ConstantQuery(dim, rho, math.pi / 2), rule) * (1 - rho * rho) / dim.c_n
    assert np.max(np.abs(coarse - fine)) <= 1e-12 * (f0 + fine.max())


@pytest.mark.parametrize("rho", [0.995, 0.999])
@pytest.mark.parametrize("n", [3, 8, 16])
def test_certify_radial_max_near_boundary(rule, n, rho):
    # past the series term cap: the certificate needs no series
    rep = certify_radial_max(n, rho, rule=rule)
    assert rep.passed
    assert rep.radial_residual <= 1e-12
    assert set(rep.argmax_alphas) <= {0.0, math.pi}


def test_certify_convexity_rho_zero(rule):
    rep = certify_convexity(5, 0.0, rule=rule)
    assert rep.passed
    assert rep.min_curvature == 0.0
    assert rep.max_route_gap == 0.0


def test_certify_convexity_validation(rule):
    # the t-grid is a constant: 201 points in (-1, 1), exactly antisymmetric
    assert T_GRID.shape == (201,) and np.all(np.diff(T_GRID) > 0.0)
    assert T_GRID[0] == -0.999 and np.array_equal(T_GRID, -T_GRID[::-1])
    with pytest.raises(ValueError):
        T_GRID[0] = 0.0
    with pytest.raises(TypeError):
        certify_convexity(4, 0.5, grid_size=11, rule=rule)
    with pytest.raises(ValueError, match="dimension must be an integer, got 3.5"):
        certify_convexity(3.5, 0.5, rule=rule)


def test_certify_radial_max(rule):
    rep = certify_radial_max(4, 0.6, rule=rule)
    assert rep.passed
    assert 0.0 in rep.argmax_alphas
    assert set(rep.argmax_alphas) <= {0.0, math.pi}
    assert rep.interior_gap >= -1e-12
    assert abs(rep.value_at_zero - rep.radial_value) <= 1e-8 * rep.radial_value


def test_certify_radial_max_degenerate(rule):
    rep = certify_radial_max(4, 0.0, rule=rule)
    assert rep.passed
    # constant in alpha: every grid point ties for the maximum
    assert len(rep.argmax_alphas) == rep.grid_points


def test_certify_radial_max_grid_validation(rule):
    # the alpha grid is a constant covering [0, pi] in strictly increasing
    # order: i*pi/180, the 'step:pi/180' grid the CLI used to build
    assert ALPHA_GRID.tolist() == [i * math.pi / 180 for i in range(181)]
    assert ALPHA_GRID[0] == 0.0 and ALPHA_GRID[-1] == math.pi
    assert np.all(np.diff(ALPHA_GRID) > 0.0)
    with pytest.raises(ValueError):
        ALPHA_GRID[1] = 0.0
    with pytest.raises(TypeError):
        certify_radial_max(4, 0.5, alpha_grid=ALPHA_GRID, rule=rule)
    assert certify_radial_max(4, 0.5, rule=rule).grid_points == 181


@pytest.mark.parametrize("rho", [1 - 1e-7, 1 - 1e-8])
def test_certify_radial_max_at_the_edge_of_double(rule, rho):
    # the Green panels stop grading toward t = 1 before a node rounds to 1.0;
    # whatever the verdict, the call ends in a report or in a one-line error
    assert map_panels(_green_edges(rho), gauss_legendre(16))[0].max() < 1.0
    try:
        rep = certify_radial_max(3, rho, rule=rule)
    except (ValueError, ArithmeticError) as exc:
        assert "\n" not in str(exc) and len(str(exc)) < 200
    else:
        assert rep.rho == rho and rep.grid_points == 181


def test_curvature_kernel_names_the_first_bad_t():
    t = np.concatenate((np.linspace(0.0, 0.9, 500), [1.0, 1.5], np.linspace(0.0, 0.9, 500)))
    with pytest.raises(ValueError) as info:
        profile_curvature_kernel(t, DimensionParams(3), 0.5)
    assert str(info.value) == "t must lie in (-1, 1), got 1.0"


def test_routes_near_rho_one(rule):
    # every Poisson denominator is at least (1 - rho)^2 = 1e-24: none rounds to 0,
    # so no divide-by-zero warning and finite values; the certificate's verdict
    # is not asserted (its 128-node kernel is under-resolved this close to 1)
    rho = 1 - 1e-12
    dim = DimensionParams(3)
    direct = constant_direct(ConstantQuery(dim, rho, math.pi / 2), rule)
    radial = constant_radial(dim, rho, rule)
    assert math.isfinite(direct) and math.isfinite(radial) and 0.0 < direct < radial
    # the direct route at alpha = 0 reproduces the radial formula: measured 1.6e-16
    assert constant_direct(ConstantQuery(dim, rho, 0.0), rule) == pytest.approx(radial, rel=1e-12)
    rep = certify_radial_max(3, rho, rule=rule)
    assert rep.rho == rho and rep.value_at_zero > direct


@pytest.mark.parametrize("n, rho", [(1024, 0.7), (4096, 0.3)])
def test_constant_radial_overflow_raises(n, rho):
    # (1 - 2 rho c + rho^2)^((n-2)/2) passes the double range; no silent nan
    with pytest.raises(OverflowError, match=f"constant_radial overflows at n={n}, rho={rho}"):
        with np.errstate(all="ignore"):
            constant_radial(n, rho)


@pytest.mark.parametrize("n, rho", [(128, 0.999), (256, 0.99), (1024, 0.9), (4096, 0.3)])
def test_constant_direct_overflow_raises(n, rho):
    # the inner (1 - 2 rho z + rho^2)^(1 - n/2) passes the double range; no silent nan
    with pytest.raises(OverflowError, match=f"constant_direct overflows at n={n}, rho={rho}"):
        with np.errstate(all="ignore"):
            constant_direct(ConstantQuery(DimensionParams(n), rho, math.pi / 2))


def test_certify_radial_max_overflow_names_the_anchor():
    # the Green profile's anchor is the direct route at pi/2
    with pytest.raises(OverflowError, match="constant_direct overflows at n=1024, rho=0.7"):
        with np.errstate(all="ignore"):
            certify_radial_max(1024, 0.7)


@pytest.mark.parametrize("n, rho, t", [(128, 0.999, 0.0), (256, 0.99, 0.5),
                                       (256, 0.99, np.array([0.0, 0.5]))])
def test_profile_curvature_kernel_overflow_raises(n, rho, t):
    # p^(-(n+2)/2) with p >= (1 - rho)^2 passes the double range; no silent nan
    with pytest.raises(OverflowError,
                       match=f"profile_curvature_kernel overflows at n={n}, rho={rho}"):
        with np.errstate(all="ignore"):
            profile_curvature_kernel(t, DimensionParams(n), rho)
