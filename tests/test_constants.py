import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ballgrad.constants import (
    ConstantQuery,
    SeriesControl,
    _T_CHUNK,
    _graded_panels,
    _inner_smooth,
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
    DimensionParams,
    SeriesConvergenceError,
    gamma_ratio,
    pair_series,
    pair_weights,
    series_cutoff,
)
from ballgrad.quadrature import gauss_legendre, integrate_adaptive

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


def test_series_control_validation():
    with pytest.raises(ValueError):
        SeriesControl(max_terms=4)
    with pytest.raises(ValueError):
        SeriesControl(tail_tol=0.0)


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
    smooth = float(_inner_smooth(q.dim, q.rho, q.alpha, x, rule)[0])
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
    K = series_cutoff(q.rho, lam, SeriesControl())
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


def _inner_one_matrix(dim, rho, alpha, x, rule):
    """Reference: _inner_smooth as one (x, psi) matrix expression."""
    n = dim.n
    nodes, wts = _graded_panels(rho, rule)
    a = x * math.cos(alpha)
    b = np.sqrt(np.maximum(1.0 - x * x, 0.0)) * math.sin(alpha)
    denom = 1.0 - 2.0 * rho * (a[:, None] + b[:, None] * np.cos(nodes)[None, :]) + rho * rho
    vals = np.sin(nodes)[None, :] ** (n - 3) * denom ** (-(n / 2.0 - 1.0))
    return vals @ wts


@pytest.mark.parametrize("order", [7, 128])
@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_inner_integral_blocks_bit_identical(order, n):
    # _T_CHUNK + 1 leaves a lone last row, which numpy would take as a dot
    rule = gauss_legendre(order)
    dim = DimensionParams(n)
    for size in (1, _T_CHUNK - 1, _T_CHUNK, _T_CHUNK + 1, 3 * _T_CHUNK + 5):
        x = np.cos(np.linspace(0.0, math.pi, size))
        for rho in (0.0, 0.5, 0.9, 0.99):
            for alpha in (0.0, math.pi / 3, math.pi):
                want = _inner_one_matrix(dim, rho, alpha, x, rule)
                assert np.array_equal(_inner_smooth(dim, rho, alpha, x, rule), want)


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
    series = constant_series(q, SeriesControl(max_terms=60000), rule)
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
        constant_series(q, SeriesControl(max_terms=16), rule)


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
        K = series_cutoff(rho, lam2 / 2.0, SeriesControl())
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
    dim, ctl = DimensionParams(n), SeriesControl(max_terms=32768)
    t = _symmetric(-0.999, 0.999, 41)
    series = profile_curvature_series(t, dim, rho, ctl)
    assert np.array_equal(series, series[::-1])
    kernel = profile_curvature_kernel(t, dim, rho, rule)
    assert np.max(np.abs(kernel - kernel[::-1])) <= 1e-14 * np.max(np.abs(kernel))
    t = _symmetric(-1.0, 1.0, 41)
    f = sum(profile_parts(t, dim, rho, ctl, rule))
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
    # adaptive z-integration of the pointwise density against the kernel route
    for n in (4, 5):
        dim = DimensionParams(n)
        rho, t = 0.5, 0.3
        delta = (n - 2) / n * rho
        w = math.sqrt((1 - (delta * t) ** 2) * (1 - t * t))
        lo, hi = delta * t * t - w, delta * t * t + w
        val = delta ** 2 * integrate_adaptive(
            lambda z: curvature_density_grid(t, z, n, rho), lo, hi, 1e-10)
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


def test_certify_convexity_route_gap(rule):
    grid = np.linspace(-0.999, 0.999, 11)
    for n, rho in ((3, 0.5), (8, 0.95)):
        dim = DimensionParams(n)
        rep = certify_convexity(n, rho, grid_size=11, rule=rule)
        curv = profile_curvature_series(grid, dim, rho)
        want = max(abs(curv[i] - profile_curvature_kernel(float(t), dim, rho, rule))
                   for i, t in enumerate(grid))
        assert rep.max_route_gap == pytest.approx(want, abs=1e-14 * np.max(np.abs(curv)))


@pytest.mark.parametrize("n, rho", [(3, 0.5), (8, 0.95), (3, 0.99)])
def test_certificates_match_full_grid_evaluation(rule, n, rho):
    # the reports evaluate once per distinct |t|; here every grid point is evaluated
    dim, ctl = DimensionParams(n), SeriesControl()
    conv = certify_convexity(n, rho, rule=rule)
    grid = _symmetric(-0.999, 0.999, 201)
    curv = profile_curvature_series(grid, dim, rho, ctl)
    kern = profile_curvature_kernel(grid, dim, rho, rule)
    scale = np.max(np.abs(curv))
    assert conv.passed == bool(curv.min() >= -1e-12)
    assert conv.series_terms == tuple(series_cutoff(rho, lam, ctl) for lam in
                                      (dim.lambda_low, dim.lambda_mid, dim.lambda_high))
    assert conv.min_curvature == pytest.approx(curv.min(), rel=1e-14)
    assert abs(conv.argmin_t) == abs(grid[np.argmin(curv)])
    assert abs(conv.max_route_gap - np.max(np.abs(curv - kern))) <= 1e-14 * scale

    rad = certify_radial_max(n, rho, rule=rule)
    alphas = np.linspace(0.0, math.pi, 181)
    values = dim.c_n / (1 - rho * rho) * sum(profile_parts(np.cos(alphas), dim, rho, ctl, rule))
    assert rad.passed == bool(values[0] >= values.max() - 1e-12 * max(1.0, values.max()))
    assert rad.series_terms == series_cutoff(rho, dim.lambda_low, ctl)
    assert rad.value_at_zero == pytest.approx(values[0], rel=1e-14)
    assert rad.max_value == pytest.approx(values.max(), rel=1e-14)
    assert rad.argmax_alphas == (0.0, math.pi)
    assert rad.value_at_zero == rad.max_value


def test_certify_convexity_rho_zero(rule):
    rep = certify_convexity(5, 0.0, rule=rule)
    assert rep.passed
    assert rep.min_curvature == 0.0
    assert rep.max_route_gap == 0.0


def test_certify_convexity_validation(rule):
    with pytest.raises(ValueError):
        certify_convexity(4, 0.5, grid_size=2, rule=rule)


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
    with pytest.raises(ValueError):
        certify_radial_max(4, 0.5, alpha_grid=np.linspace(0.0, 1.0, 50), rule=rule)
