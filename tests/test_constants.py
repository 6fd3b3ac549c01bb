import dataclasses
import importlib
import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from mpmath import mp
from numpy.polynomial.legendre import leggauss, legval, legvander

from ballgrad import cli, constants, gegenbauer
from ballgrad.constants import (
    ALPHA_GRID,
    CONVEXITY_FLOOR,
    ROUTE_TOL,
    ConstantQuery,
    _CELLS,
    _far_ratio,
    _graded_edges,
    _green_edges,
    _green_map,
    _green_profile,
    _inner_smooth,
    _inv_power,
    _outer_bounds,
    _outer_rules,
    _panel_orders,
    _row_bounds,
    certify_convexity,
    certify_radial_max,
    constant_direct,
    constant_radial,
    constant_series,
    constant_transverse,
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
from ballgrad.identities import kink_integral_brute
from ballgrad.quadrature import composite_nodes, gauss_legendre, map_panels
from referees import T_GRID

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
], ids=["cutoff", "cutoff-rho-zero", "constant-series-rho-zero", "profile-parts",
        "curvature-series"])
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
    # the error names the first bad t, else the first bad z; NaN is out of range
    for t, z, bad in ((1.0, 0.0, 1.0), (-1.0, 0.0, -1.0), (0.0, 1.0, 1.0), ([0.2, 1.0], 0.0, 1.0),
                      ([0.2, math.nan, 1.5], 0.0, math.nan), (0.2, [0.1, -1.0, 2.0], -1.0),
                      ([0.3, -1.5], [2.0, 0.1], -1.5)):
        with pytest.raises(ValueError) as info:
            curvature_density_grid(t, z, n, rho)
        assert str(info.value) == f"t and z must lie in (-1, 1), got {bad}"


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


def _inner_rows(theta, rho, alpha):
    """(c0, c1) of _inner_smooth's rows at the outer angles theta, as it computes them."""
    c0 = (1.0 - rho) ** 2 + 4.0 * rho * np.sin(0.5 * (theta - alpha)) ** 2
    return c0, 4.0 * rho * np.sin(theta) * math.sin(alpha)


def _kernel_rows(t, n, rho):
    """(c0, c1, g) of profile_curvature_kernel's rows at t; its bracket takes a = n g / (n - 2)."""
    delta = (n - 2) / n * rho
    g = 1.0 - (delta * t) ** 2
    w = np.sqrt(g * (1.0 - t * t))
    c0 = (1.0 - rho) ** 2 + 2.0 * rho * (t * (1.0 - delta)) ** 2 / (1.0 - delta * t * t + w)
    return c0, 4.0 * rho * w, g


def _rule_groups(rho, rule, c0, c1, m, e):
    """Reference: _poisson_rows' rules, (rows, nodes, weights) in order: the plain panel [0, pi]
    of each ladder order N (rule.order // 8, // 4, // 2, none below 16), then of rule itself,
    for the rows whose first met pole test c0 >= tau_N c1 is N's (the last test is met by
    every row below rho = 0.8), then the graded panels for the rows that meet none."""
    ladder = [k for k, d in enumerate((8, 4, 2)) if rule.order // d >= 16]
    taus = _far_ratio(rule.order, m, e)[ladder + [3]]  # a copy
    if rho < 0.8:
        taus[-1] = 0.0
    with np.errstate(invalid="ignore"):
        met = c0 >= taus[:, None] * c1
    first = np.where(met.any(axis=0), met.argmax(axis=0), taus.size)
    rules = [gauss_legendre(rule.order // 2 ** (3 - k)) for k in ladder] + [rule]
    near = first == len(rules)
    return ([(first == k,) + composite_nodes(0.0, math.pi, r) for k, r in enumerate(rules)]
            + [(near,) + _graded_rule(rho, rule, c0[near], c1[near], m, e)])


def _ratio_grid(rho, order, c0, c1, m, e):
    """The ratios 2^k, k from the floor of log2 of the least of (1 - rho)^2 / (4 rho) and the
    rows' c0/c1 (at least 2^-60) to the ceiling of that of the rule's own tau_N (at most 2^14)."""
    with np.errstate(divide="ignore"):
        least = max(min(np.min(c0 / c1), (1 - rho) ** 2 / (4 * rho)), 2.0 ** -60)
    top = min(_far_ratio(order, m, e)[3], 2.0 ** 14)
    return 2.0 ** np.arange(math.floor(math.log2(least)), math.ceil(math.log2(top)) + 1)


def _graded_rule(rho, rule, c0, c1, m, e):
    """Reference: the near rows' graded panels (_graded_edges), each on the first ladder order
    whose bound meets 2^-52 of the integrand's maximum at every ratio of _ratio_grid."""
    edges = _graded_edges(rho)
    if c0.size == 0:
        return map_panels(edges, rule)
    bound, scale = _row_bounds(edges, _ratio_grid(rho, rule.order, c0, c1, m, e), m, e, rule.order)
    return _panels_mapped(edges, _panel_orders(bound, scale, rule.order, m + e))


def _panels_mapped(edges, orders):
    """Reference: one Gauss panel of order orders[j] on each [edges[j], edges[j + 1]]."""
    parts = [map_panels(edges[j:j + 2], gauss_legendre(int(k))) for j, k in enumerate(orders)]
    return tuple(np.concatenate(v) for v in zip(*parts))


def _outer_gauss(n, rho, alpha, rule):
    """Reference: constant_direct's outer nodes and Gauss weights: each panel of _outer_bounds
    on the order its bound allows."""
    (edges,), bound, scale, _ = _outer_bounds(n, rho, (alpha,), rule.order)
    return _panels_mapped(edges, _panel_orders(bound, scale, rule.order, 1.5 * n - 3))


def test_far_ratio_rungs():
    # tau_N of the ladder N = order // 8, // 4, // 2 and of order itself, from one sampling of
    # M: each as _far_ratio of that order alone gives it, falling with N, inf below N = 16
    for m, e in ((0, 0.5), (5, 5.0), (13, 7.5), (29, 15.5)):
        taus = _far_ratio(128, m, e)
        assert taus.size == 4 and np.all(np.diff(taus[np.isfinite(taus)]) <= 0.0)
        assert np.all(np.isfinite(taus[1:]) >= np.isfinite(taus[:-1]))
        for k, order in enumerate((16, 32, 64)):
            assert _far_ratio(order, m, e)[3] == taus[k]
        assert np.isinf(_far_ratio(16, m, e)[:3]).all() and np.isinf(_far_ratio(7, m, e)[:3]).all()
        assert np.isinf(_far_ratio(32, m, e)[:2]).all() and _far_ratio(32, m, e)[2] == taus[0]
        with pytest.raises(ValueError):
            taus[0] = 1.0


def test_panel_orders_keep_rounding_within_eight_eps():
    # a panel whose bound every order meets takes the first ladder order N >= 16 at which the
    # power m + e of its integrand is at most 8 sqrt(N), else the rule itself: at n > 32 the
    # direct route's panels keep the rule's order, and its rounding
    met = np.full((4, 1, 3), -np.inf)
    for order, power, want in ((128, 32.0, 16), (128, 32.5, 32), (128, 64.0, 64),
                               (128, 64.5, 128), (64, 32.5, 32), (64, 1e3, 64), (7, 1.0, 7)):
        assert np.array_equal(_panel_orders(met, 0.0, order, power), [want] * 3)
    assert np.array_equal(_panel_orders(np.full((4, 1, 3), np.inf), 0.0, 128, 1.0), [128] * 3)


def _node_rows(nodes, wts, m):
    """Reference: sin^2(t/2), sin^2 t and w sin^m t at the nodes t."""
    return np.sin(0.5 * nodes) ** 2, np.sin(nodes) ** 2, wts * np.sin(nodes) ** m


def _inner_one_matrix(dim, rho, alpha, theta, rule):
    """Reference: _inner_smooth as one (theta, psi) matrix expression per rule."""
    n = dim.n
    c0, c1 = _inner_rows(theta, rho, alpha)
    out = np.full(theta.size, np.nan)
    for rows, nodes, wts in _rule_groups(rho, rule, c0, c1, n - 3, n / 2.0 - 1.0):
        half_sq, _, weights = _node_rows(nodes, wts, n - 3)
        denom = c0[rows, None] + c1[rows, None] * half_sq[None, :]
        out[rows] = _inv_power(denom, n / 2.0 - 1.0) @ weights
    return out


def _reachable(order, m, e):
    """Which of _rule_groups' rules a row can take: those whose tau_N is finite, and graded."""
    taus = _far_ratio(order, m, e)
    kept = [np.isfinite(t) for t, d in zip(taus, (8, 4, 2, 1)) if order // d >= min(16, order)]
    return kept + [True]


def _block(order):
    """_poisson_rows' block of rows on a rule of this order: 128 rows on 128 nodes."""
    return 32 * max(1, _CELLS // (32 * order))


def _mixed_picks(groups, seed, many):
    """Shuffled index sets into a pool of rows split by _rule_groups, with these row counts
    per populated rule: a multiple of four rows (many) and a lone last row (BLAS sums rows four
    at a time and the rest apart); one row; a multiple of four and two rows; and that last for
    the first and for the last populated rule alone."""
    rng = np.random.default_rng(seed)
    pools = [np.flatnonzero(rows) for rows, *_ in groups]
    filled = [k for k, pool in enumerate(pools) if pool.size]
    counts = [lambda k: many + 1, lambda k: 1, lambda k: many + 2,
              lambda k: (many + 2) * (k == filled[0]), lambda k: (many + 2) * (k == filled[-1])]
    for count in counts:
        sizes = {k: count(k) for k in filled}
        picks = [rng.choice(pools[k], size) for k, size in sizes.items()]
        yield rng.permutation(np.concatenate(picks)), sizes


@pytest.mark.parametrize("order", [7, 64, 128])
@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_inner_integral_blocks_bit_identical(order, n):
    # one one-matrix reference per rule, rows gathered from anywhere in the call; at order 7
    # (and at rho = 1e-300) every pole test is infinite, and the rows keep the plain panel
    rule = gauss_legendre(order)
    dim = DimensionParams(n)
    block = _block(order)
    for size in (1, block - 1, block, block + 1, 3 * block + 5):
        theta = np.linspace(0.0, math.pi, size)
        for rho in (0.0, 1e-300, 0.5, 0.9, 0.99):
            for alpha in (0.0, math.pi / 3, math.pi):
                want = _inner_one_matrix(dim, rho, alpha, theta, rule)
                assert np.array_equal(_inner_smooth(dim, rho, alpha, theta, rule), want)
    # at rho = 0.99 the pool reaches every rule whose tau is finite, and the graded panels
    pool = np.linspace(0.0, math.pi, 4001)
    c0, c1 = _inner_rows(pool, 0.99, math.pi / 3)
    groups = _rule_groups(0.99, rule, c0, c1, n - 3, n / 2.0 - 1.0)
    assert [rows.any() for rows, *_ in groups] == _reachable(order, n - 3, n / 2.0 - 1.0)
    for picks, sizes in _mixed_picks(groups, n, block):
        theta = pool[picks]
        want = _inner_one_matrix(dim, 0.99, math.pi / 3, theta, rule)
        got = _inner_smooth(dim, 0.99, math.pi / 3, theta, rule)
        assert np.array_equal(got, want), sizes


def _kernel_one_matrix(t, dim, rho, rule):
    """Reference: profile_curvature_kernel as one (t, theta) matrix expression per rule."""
    n = dim.n
    delta = (n - 2) / n * rho
    c0, c1, g = _kernel_rows(t, n, rho)
    sums = np.full(t.size, np.nan)
    for rows, nodes, wts in _rule_groups(rho, rule, c0, c1, n + 1, (n + 2) / 2.0):
        half_sq, sin_sq, weights = _node_rows(nodes, wts, n - 3)
        p = c1[rows, None] * half_sq + c0[rows, None]
        bracket = (p - n / (n - 2.0) * g[rows, None] * sin_sq) ** 2
        vals = _inv_power(p, (n + 2) / 2.0) * bracket
        sums[rows] = vals @ weights
    scale = n * (n - 2.0) / (math.pi * dim.c_n) * delta * delta
    return scale * g ** ((n - 3) / 2.0) * sums


@pytest.mark.parametrize("order", [7, 64, 128])
@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_curvature_kernel_blocks_bit_identical(order, n):
    # the kernel shares the inner integral's rules and matrices, lone last rows included;
    # the bracket counts as sin^4 in the kernel's tau, so m = (n - 3) + 4
    rule = gauss_legendre(order)
    dim = DimensionParams(n)
    block = _block(order)
    for size in (1, block - 1, block, block + 1, 3 * block + 5):
        t = np.linspace(0.0, 0.999, size)
        for rho in (0.0, 1e-300, 0.5, 0.9, 0.99):
            want = _kernel_one_matrix(t, dim, rho, rule)
            assert np.array_equal(profile_curvature_kernel(t, dim, rho, rule), want), (size, rho)
    # at rho = 0.99 the t near 0 are graded and those near 1 reach the first finite tau
    pool = np.concatenate((np.linspace(0.0, 0.999, 2001), 1.0 - np.logspace(-3.0, -11.0, 40)))
    c0, c1, _ = _kernel_rows(pool, n, 0.99)
    groups = _rule_groups(0.99, rule, c0, c1, n + 1, (n + 2) / 2.0)
    assert [rows.any() for rows, *_ in groups] == _reachable(order, n + 1, (n + 2) / 2.0)
    for picks, sizes in _mixed_picks(groups, n, block):
        want = _kernel_one_matrix(pool[picks], dim, 0.99, rule)
        assert np.array_equal(profile_curvature_kernel(pool[picks], dim, 0.99, rule), want), sizes


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
    """constant_direct's double integral on its own nodes (each inner row on the rule
    _poisson_rows takes for it), in np.longdouble and with the Poisson denominator as
    1 - 2 rho z + rho^2."""
    L, n = np.longdouble, q.dim.n
    dt = q.delta * q.t
    outer = _outer_gauss(n, q.rho, q.alpha, rule)
    assert all(map(np.array_equal, outer, _outer_rules(n, q.rho, (q.alpha,), rule)[:2]))
    groups = _rule_groups(q.rho, rule, *_inner_rows(outer[0], q.rho, q.alpha), n - 3, n / 2 - 1)
    th, wo = (a.astype(L) for a in outer)
    rho, alpha = L(q.rho), L(q.alpha)
    inner = np.empty_like(th)
    for rows, ps, wi in groups:
        ps, wi, rows = ps.astype(L), wi.astype(L), np.flatnonzero(rows)
        for lo in range(0, rows.size, 256):
            tr = th[rows[lo:lo + 256], None]
            z = np.cos(tr) * np.cos(alpha) + np.sin(tr) * np.sin(alpha) * np.cos(ps)
            inner[rows[lo:lo + 256]] = (np.sin(ps) ** (n - 3) * (1 - 2 * rho * z + rho * rho)
                                        ** (1 - L(n) / 2)) @ wi
    total = wo @ (np.abs(L(dt) - np.cos(th)) * np.sin(th) ** (n - 2) * inner)
    return L(n * (n - 2)) / (2 * L(math.pi)) / (1 - rho * rho) * total


def _kernel_longdouble(t, n, rho, rule):
    """profile_curvature_kernel on its own nodes (each t on the rule _poisson_rows takes
    for it), in np.longdouble and with the Poisson denominator as 1 - 2 rho z + rho^2,
    z = delta t^2 + w cos(theta)."""
    L = np.longdouble
    r, sums = L(rho), np.empty(len(t), dtype=L)
    delta = L(n - 2) / n * r
    for rows, th, wts in _rule_groups(rho, rule, *_kernel_rows(t, n, rho)[:2], n + 1, (n + 2) / 2):
        th, wts, tc = th.astype(L), wts.astype(L), np.asarray(t, dtype=L)[rows, None]
        g = 1 - (delta * tc) ** 2
        w = np.sqrt(g * (1 - tc * tc))
        p = 1 - 2 * r * (delta * tc * tc + w * np.cos(th)) + r * r
        s = np.sin(th)
        vals = s ** (n - 3) * (p - L(n) / (n - 2) * g * s * s) ** 2 * p ** (-L(n + 2) / 2)
        sums[rows] = vals @ wts
    g = 1 - (delta * np.asarray(t, dtype=L)) ** 2
    scale = 2 * L(gamma_ratio(((n - 1) / 2.0,), ((n - 2) / 2.0, 0.5))) * delta * delta
    return scale * g ** (L(n - 3) / 2) * sums


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


@pytest.mark.parametrize("alpha", [math.pi / 2, 2.0, 2 * math.pi / 3, 11 * math.pi / 12, math.pi])
def test_constant_direct_is_even_in_t(rule, alpha):
    # the direct route integrates at min(alpha, pi - alpha); pi - alpha is exact here
    for n, rho in ((3, 0.5), (5, 0.99)):
        dim = DimensionParams(n)
        assert (constant_direct(ConstantQuery(dim, rho, alpha), rule)
                == constant_direct(ConstantQuery(dim, rho, math.pi - alpha), rule))


@pytest.mark.parametrize("rho", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("n", [3, 5])
def test_folded_direct_meets_series(rule, n, rho):
    for alpha in (2 * math.pi / 3, 11 * math.pi / 12):
        q = ConstantQuery(DimensionParams(n), rho, alpha)
        series = constant_series(q)
        assert abs(constant_direct(q, rule) - series) <= ROUTE_TOL * max(1.0, abs(series))


def _warm_peak(call):
    """The tracemalloc peak, in bytes, of call() after one untraced call has filled the caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rho", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("n", [3, 8, 64])
def test_stacked_direct_meets_one_angle_calls(rule, n, rho):
    # the seven folded angles of the default 13 are one stacked row set, each outer sum over
    # its own slice: only where BLAS groups a row's sum may move, within 1e-15 of one call per
    # angle; alpha and pi - alpha are one folded angle and still tie exactly
    dim = DimensionParams(n)
    table = [ConstantQuery(dim, rho, a) for a in cli._alphas("step:pi/12")]
    got = constant_direct(table, rule)
    one = np.array([constant_direct(q, rule) for q in table])
    assert np.all(np.abs(got - one) <= 1e-15 * np.abs(one))
    assert np.array_equal(got, got[::-1])


def test_direct_route_memory(rule):
    # the 240 outer nodes of one folded angle peak at 0.33 MB; the default 13 angles at
    # (128, 0.99), 5,504 stacked rows in blocks of about 2^14 cells, at 0.78 MB
    q = ConstantQuery(DimensionParams(3), 0.99, math.pi / 3)
    assert _warm_peak(lambda: constant_direct(q, rule)) < 2e6
    table = [ConstantQuery(DimensionParams(128), 0.99, a) for a in cli._alphas("step:pi/12")]
    assert _warm_peak(lambda: constant_direct(table, rule)) < 2e6


_ONE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def _kernel_block_mismatches():
    """How many kernel values at (16, 0.99) differ from one matrix per rule: on 10^4 t, and on
    rows of each rule two _poisson_rows blocks and one to four rows long (a last block of fewer
    than four rows joins the one before)."""
    dim, rule = DimensionParams(16), gauss_legendre(128)
    pool = np.concatenate((np.linspace(0.0, 0.999, 2001), 1.0 - np.logspace(-3.0, -11.0, 40)))
    groups = _rule_groups(0.99, rule, *_kernel_rows(pool, 16, 0.99)[:2], 17, 9.0)
    rng, sets = np.random.default_rng(16), [np.linspace(0.0, 0.999, 10 ** 4)]
    for extra in (1, 2, 3, 4):
        picks = [rng.choice(np.flatnonzero(rows),
                            64 * max(1, constants._CELLS // (32 * nodes.size)) + extra)
                 for rows, nodes, _ in groups if rows.any()]
        sets.append(pool[rng.permutation(np.concatenate(picks))])
    return sum(int(np.sum(profile_curvature_kernel(t, dim, 0.99, rule)
                          != _kernel_one_matrix(t, dim, 0.99, rule))) for t in sets)


def test_curvature_kernel_memory(rule):
    # 10^4 t at (16, 0.99) peak at 1.1 MB in blocks of about 2^14 cells, bit-identical to one
    # matrix per rule. A threaded BLAS splits the rows of a matrix that large (not of a block)
    # between its threads, so the two are compared in a child on one BLAS thread
    t, dim = np.linspace(0.0, 0.999, 10 ** 4), DimensionParams(16)
    assert _warm_peak(lambda: profile_curvature_kernel(t, dim, 0.99, rule)) < 2e6
    here = pathlib.Path(__file__).resolve().parent
    src = pathlib.Path(constants.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, (str(src), str(here), os.environ.get("PYTHONPATH"))))
    child = "from test_constants import _kernel_block_mismatches as f; print(f())"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=120, env={**os.environ, **_ONE_THREAD, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_curvature_series_memory():
    # the scaled recurrence keeps one step table per distinct lam (3 x 8,193 floats at
    # most), not one per row: this call peaked at 1.03 MB with the unscaled steps
    dim = DimensionParams(4)
    profile_curvature_series(T_GRID[100:], dim, 0.99)
    tracemalloc.start()
    try:
        profile_curvature_series(T_GRID[100:], dim, 0.99)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4e6


def test_series_tables_once_per_lambda(monkeypatch):
    # pair_series builds one scale table per distinct lam, not one per series and
    # side plus one per lam for the steps (9 for the three curvature series, 4 for
    # profile_parts), and sorts its lams without np.unique
    calls = []
    scales = gegenbauer._scales
    monkeypatch.setattr(gegenbauer, "_scales", lambda lam, K: calls.append(lam) or scales(lam, K))
    dim = DimensionParams(4)
    profile_curvature_series(T_GRID[100:], dim, 0.99)
    assert sorted(calls) == [dim.lambda_low, dim.lambda_mid, dim.lambda_high]
    calls.clear()
    profile_parts(T_GRID[100:], dim, 0.9)
    assert sorted(calls) == [dim.lambda_low, dim.lambda_high]

    def no_unique(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", no_unique)
    assert certify_convexity(3, 0.5).passed


# -- constant routes ----------------------------------------------------------

def test_constant_at_origin(rule):
    # analytic integration at rho = 0: C(0) = c_n * 2/(n-1); equals 1.5 for n = 3
    for n in DIMS:
        dim = DimensionParams(n)
        want = dim.c_n * 2.0 / (n - 1)
        q = ConstantQuery(dim, 0.0, 0.9)
        assert constant_direct(q, rule) == pytest.approx(want, abs=1e-12)
        assert constant_series(q) == pytest.approx(want, abs=1e-12)
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
        b = constant_series(q)
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
    series = constant_series(q, 60000)
    assert abs(direct - series) <= 1e-8 * abs(series)


def test_constant_series_query_sequence(rule):
    # both routes take the batch; the direct route integrates each query as a single call does
    dim = DimensionParams(5)
    queries = [ConstantQuery(dim, 0.9, a) for a in np.linspace(0.0, math.pi, 13)]
    for route, kw in ((constant_series, {}), (constant_direct, {"rule": rule})):
        vec = route(queries, **kw)
        assert vec.shape == (13,)
        single = [route(q, **kw) for q in queries]
        if route is constant_direct:
            assert np.array_equal(vec, single)
        else:
            assert vec == pytest.approx(single, rel=1e-14)
        with pytest.raises(ValueError, match="queries must share one dimension and rho"):
            route(queries + [ConstantQuery(dim, 0.5, 0.0)], **kw)
        with pytest.raises(ValueError, match="no queries given"):
            route([], **kw)


@pytest.mark.parametrize("n, rho", [(3, 0.5), (5, 0.9), (8, 0.0)])
def test_constant_series_single_query_is_the_batch(rule, n, rho):
    # one query runs as the batch [q], by either route: the same bits as the first entry of a
    # longer batch
    dim = DimensionParams(n)
    q, q2 = ConstantQuery(dim, rho, math.pi / 5), ConstantQuery(dim, rho, 2.0)
    for route, kw in ((constant_series, {}), (constant_direct, {"rule": rule})):
        got = route(q, **kw)
        assert type(got) is float and got == route([q, q2], **kw)[0]


def test_radial_specialization(rule):
    # the radial formula is the alpha = 0 slice of the direct route
    for n in DIMS:
        for rho in (0.1, 0.5, 0.9):
            q = ConstantQuery(DimensionParams(n), rho, 0.0)
            a = constant_direct(q, rule)
            b = constant_radial(n, rho, rule)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
    # at orders 1 and 7 the pole test is infinite: the kinked row keeps the plain panels below
    # rho = 0.8 and is graded from 0.8 on (values pinned bit for bit)
    for order, n, rho, want in (
            (1, 3, 1e-300, "0x1.2d97c7f3321d2p+1"), (1, 3, 0.5, "0x1.8f0fe8b626be7p+1"),
            (1, 3, 0.9, "0x1.3913f531212d0p+3"), (1, 8, 0.99, "0x1.ba8736e170737p+6"),
            (7, 3, 1e-300, "0x1.80000000017a0p+0"), (7, 3, 0.5, "0x1.01c0f9896adb0p+1"),
            (7, 3, 0.9, "0x1.021547ab1a452p+3"), (7, 8, 0.99, "0x1.6d4ad8272a376p+6")):
        assert constant_radial(n, rho, gauss_legendre(order)) == float.fromhex(want)


def test_endpoint_equality(rule):
    # C at alpha = 0 equals C at alpha = pi
    for n, rho in ((4, 0.6), (3, 0.9)):
        dim = DimensionParams(n)
        a = constant_series(ConstantQuery(dim, rho, 0.0))
        b = constant_series(ConstantQuery(dim, rho, math.pi))
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
        constant_series(q, 16)


# -- profile parts ------------------------------------------------------------

def test_profile_even_in_t():
    dim = DimensionParams(5)
    for t in (0.2, 0.7):
        f_pos = profile_parts(t, dim, 0.6)
        f_neg = profile_parts(-t, dim, 0.6)
        for a, b in zip(f_pos, f_neg):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_profile_kink_part_at_t_zero():
    # at t = 0 the kink is at s = 0 and the weighted integral drops out: int |x| (1-x^2)^((n-3)/2)
    for n in (3, 4, 7):
        kink, _ = profile_parts(0.0, DimensionParams(n), 0.7)
        assert kink == 2.0 / (n - 1)


def test_profile_series_part_finite_at_endpoints():
    for t in (-1.0, 1.0):
        parts = profile_parts(t, DimensionParams(3), 0.9)
        assert all(math.isfinite(p) for p in parts)


def test_profile_sum_reproduces_direct_route(rule):
    for n, rho, alpha in ((3, 0.5, 0.8), (4, 0.9, 2.4), (8, 0.5, 1.1)):
        dim = DimensionParams(n)
        q = ConstantQuery(dim, rho, alpha)
        parts = profile_parts(q.t, dim, rho)
        via_profile = dim.c_n / (1 - rho ** 2) * sum(parts)
        direct = constant_direct(q, rule)
        assert abs(via_profile - direct) <= 1e-8 * max(1.0, abs(direct))


def test_profile_parts_vectorized():
    dim = DimensionParams(4)
    for rho, ts in ((0.5, np.array([-0.8, -0.1, 0.0, 0.6])),
                    (0.95, np.cos(np.linspace(0.0, math.pi, 181)))):
        kink, tail = profile_parts(ts, dim, rho)
        for i, t in enumerate(ts):
            k, h = profile_parts(float(t), dim, rho)
            assert kink[i] == pytest.approx(k, rel=1e-14)
            assert tail[i] == pytest.approx(h, rel=1e-14, abs=1e-15)
    # a t of two or more dimensions runs as its flat copy: parts of t's shape, bit for bit
    for shape in ((2, 3), (1, 40), (40, 1), (2, 1, 40)):
        ts = np.full(shape, 0.3)
        ts.flat[-1] = 1.0
        flat = profile_parts(ts.ravel(), dim, 0.5)
        for got, want in zip(profile_parts(ts, dim, 0.5), flat):
            assert got.shape == shape and np.array_equal(got, want.reshape(shape))


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.95, 0.99])
def test_profile_kink_parts_closed_form(rule, rho):
    # the kink part is the two kink integrals, int |x - s| (1 + rho t (n-2) x) (1-x^2)^((n-3)/2)
    # dx over [-1, 1], s = delta t: 2 (1 - s^2)^((n+1)/2) / (n-1). At n = 3 (lam = 1/2) that is
    # 1 + s^2 + rho t (s^3/3 - s) = (1 - s^2)^2 (rho t = 3 s)
    eps = 2.0 ** -52
    t = np.cos(np.linspace(0.0, math.pi, 73))
    s = rho / 3.0 * t
    kink = profile_parts(t, DimensionParams(3), rho)[0]
    assert np.max(np.abs(kink - (1.0 - s * s) ** 2)) <= 1e-14
    t = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    for n in (3, 4, 5, 8, 12, 16, 33, 64):
        kink = profile_parts(t, n, rho, 2 ** 17)[0]
        s, lam = (n - 2) / n * rho * t, (n - 2) / 2.0
        # against mpmath, with s and rho t (n-2) exact and the digits the cancellation of the
        # two integrals takes: at most 4.2 eps (n = 64, rho = 0.1, t = -0.5) times the condition
        # 1 + (n+1) s^2 / (1 - s^2) of the power in s (146 eps at n = 64, rho = 0.99, t = +-1)
        for i, ti in enumerate(t.tolist()):
            with mp.workdps(25 + max(0, -math.floor(math.log10(kink[i])))):
                si = mp.mpf(n - 2) / n * rho * ti
                want = mp.quad(lambda x: abs(x - si) * (1 + mp.mpf(rho) * ti * (n - 2) * x)
                               * (1 - x * x) ** (mp.mpf(n - 3) / 2), [-1, si, 1])
                cond = 1.0 + (n + 1) * s[i] ** 2 / (1.0 - s[i] ** 2)
                assert abs(kink[i] - float(want)) <= 8.0 * eps * cond * float(want), (n, ti)
        # against the identity suite's quadrature at degrees 0 and 1, whose two parts cancel to
        # the kink part: at most 19 eps of their size (n = 64, rho = 0.9, t = -1)
        plain = kink_integral_brute(lam, 0, s, rule)
        weighted = rho * t * kink_integral_brute(lam, 1, s, rule)
        assert np.all(np.abs(plain + weighted - kink) <= 32.0 * eps * (plain + np.abs(weighted)))


def test_profile_parts_memory():
    # 20,000 t: the kink part is elementwise and the series runs in column chunks
    t = np.linspace(-1.0, 1.0, 20000)
    dim = DimensionParams(3)
    profile_parts(t[:10], dim, 0.5)
    tracemalloc.start()
    try:
        profile_parts(t, dim, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_profile_parts_series_memory(rule):
    # the longest default series (K = 8,043) on the 13 default angles, 26 entries a
    # degree: a stitched window holds its a_m x table and the unit-seeded pair, about
    # 3 x 2^14 entries. Measured 1.10 MB (0.65 MB stepping 32-degree blocks; windows of
    # 2^15 entries, whose pair took 2^16 more, peaked at 1.65 MB)
    t = np.cos(np.linspace(0.0, math.pi, 13))
    profile_parts(t, 3, 0.996)
    tracemalloc.start()
    try:
        profile_parts(t, 3, 0.996)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2e6


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
            f = [sum(profile_parts(t + s * h, dim, rho)) for s in (-1, 0, 1)]
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
    # measured relative to max |curvature|, with 32-degree blocks and with the windows of
    # gegenbauer.pair_series (66 degrees, stepped degree by degree: 246 entries a degree)
    (8, 0.95, 5e-12),    # 2.6e-12 and 1.8e-12
    (16, 0.95, 2e-8),    # 1.07e-8 and 9.6e-9: the pair sums cancel by ~1e6 at lam = 9
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
    f = sum(profile_parts(t, dim, rho, 32768))
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
    assert rep.grid_size == _green_kernel(DimensionParams(3), 0.5, rule)[0].size == 64
    rep = certify_convexity(8, 0.95, rule=rule)
    assert rep.passed
    d = dataclasses.asdict(rep)
    assert d["n"] == 8 and "series_terms" not in d


def test_certify_convexity_needs_route_agreement():
    # a 2-node rule leaves the kernel curvature nonnegative, so the floor passes,
    # but puts its Green profile 0.0245 off the direct route at pi/3: the route
    # contract fails it
    rep = certify_convexity(3, 0.5, rule=gauss_legendre(2))
    assert rep.min_curvature > 0.0 and rep.max_route_gap > 0.02
    assert not rep.passed


def test_certificates_take_no_tolerance():
    # the contracts are constants, not parameters
    with pytest.raises(TypeError):
        certify_convexity(3, 0.5, threshold=-1.0)
    with pytest.raises(TypeError):
        certify_radial_max(3, 0.5, tie_tol=1.0)


def test_certify_convexity_route_gap(rule):
    # |Green - direct| / max(1, |direct|) at ALPHA_GRID[60] = pi/3, the Green value
    # written out and anchored at constant_transverse; a 2-node rule gives a real gap
    assert ALPHA_GRID[60] == pytest.approx(math.pi / 3, abs=1e-15)
    for n, rho, r in ((3, 0.5, rule), (8, 0.95, rule), (3, 0.5, gauss_legendre(2))):
        dim = DimensionParams(n)
        rep = certify_convexity(n, rho, rule=r)
        green = (_green_values_inline(dim, rho, ALPHA_GRID[60:61], r)[0] + constant_transverse(dim, rho)
                 - constant_direct(ConstantQuery(dim, rho, math.pi / 2), r))
        direct = constant_direct(ConstantQuery(dim, rho, float(ALPHA_GRID[60])), r)
        want = abs(green - direct) / max(1.0, direct)
        assert rep.max_route_gap == pytest.approx(want, rel=1e-9, abs=1e-14)
        assert rep.min_curvature == _green_kernel(dim, rho, r)[1].min()


@pytest.mark.parametrize("n, rho", [(3, 0.5), (8, 0.95), (3, 0.99)])
def test_certificates_match_full_grid_evaluation(rule, n, rho):
    # the reports read one cached sweep; here every Green node and angle is evaluated
    dim = DimensionParams(n)
    conv = certify_convexity(n, rho, rule=rule)
    nodes, kern = _green_kernel(dim, rho, rule)
    alphas = np.arange(181) * math.pi / 180
    values = _green_values_inline(dim, rho, alphas, rule)
    direct = constant_direct(ConstantQuery(dim, rho, alphas[60]), rule)
    assert conv.passed == bool(kern.min() >= -1e-12 and conv.max_route_gap <= 1e-8)
    assert conv.grid_size == nodes.size
    assert conv.min_curvature == kern.min()
    assert conv.argmin_t == nodes[np.argmin(kern)] and 0.0 < conv.argmin_t < 1.0
    assert abs(conv.max_route_gap - abs(values[60] - direct) / max(1.0, direct)) <= 1e-14

    rad = certify_radial_max(n, rho, rule=rule)
    assert rad.passed == bool(values[0] >= values.max() - 1e-12 * max(1.0, values.max()))
    assert rad.value_at_zero == pytest.approx(values[0], rel=1e-14)
    assert rad.max_value == pytest.approx(values.max(), rel=1e-14)
    series = dim.c_n / (1 - rho * rho) * sum(profile_parts(np.cos(alphas), dim, rho))
    assert rad.value_at_zero == pytest.approx(series[0], rel=1e-12)
    assert rad.max_value == pytest.approx(series.max(), rel=1e-12)
    assert rad.argmax_alphas == (0.0, math.pi)
    assert rad.value_at_zero == rad.max_value


def _green_kernel(dim, rho, rule):
    """The Green nodes, 16 Gauss nodes on each _green_edges panel, and the kernel
    curvature at them: the convexity certificate's sample set, written out."""
    nodes = map_panels(_green_edges(rho), gauss_legendre(16))[0]
    return nodes, profile_curvature_kernel(nodes, dim, rho, rule)


def _green_values_inline(dim, rho, alphas, rule):
    """The radial certificate's values, written out at every alpha: the direct
    route at pi/2 plus _green_integral_inline."""
    anchor = constant_direct(ConstantQuery(dim, rho, math.pi / 2), rule)
    return anchor + _green_integral_inline(dim, rho, alphas, rule)


def _green_integral_inline(dim, rho, alphas, rule):
    """c_n / (1 - rho^2) int_0^u (u - s) p(s) ds, u = |cos(alpha)|, p the
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
    return dim.c_n / (1 - rho * rho) * total


def _series_profile(dim, rho, t, rule):
    return sum(profile_parts(t, dim, rho))


@pytest.mark.parametrize("n, rho", [(n, rho) for n in (3, 5, 8, 16) for rho in (0.1, 0.5, 0.9, 0.95)]
                         + [(3, 0.99), (4, 0.99)])
def test_green_profile_matches_series(rule, n, rho):
    # the constant at alpha = pi/2 plus c_n / (1 - rho^2) int_0^|t| (|t| - s) f''(s) ds
    # against the series constant, on the 181 radial-max angles
    dim = DimensionParams(n)
    series = dim.c_n / (1 - rho * rho) * _series_profile(dim, rho, np.cos(ALPHA_GRID), rule)
    green = _green_profile(dim, rho, rule)[0]
    assert np.max(np.abs(green - series) / series) <= 1e-12


def test_green_profile_is_read_only(rule):
    for part in _green_profile(DimensionParams(5), 0.5, rule):
        with pytest.raises(ValueError):
            part[0] = 0.0


@pytest.mark.parametrize("n, rho", [(n, rho) for n in (3, 8, 16) for rho in (0.1, 0.9, 0.99)])
def test_green_map_meets_the_inline_profile(rule, n, rho):
    # L @ f'' against int_0^u (u - s) p(s) ds written out panel by panel, relative to its
    # largest value (the integral is 0 at alpha = pi/2); both read 1e-15 or less
    dim = DimensionParams(n)
    nodes, lmap = _green_map(tuple(_green_edges(rho).tolist()), 16)
    inline = _green_integral_inline(dim, rho, ALPHA_GRID, rule)
    got = dim.c_n / (1 - rho * rho) * (lmap @ profile_curvature_kernel(nodes, dim, rho, rule))
    got = got[constants._GREEN_ROW]
    assert np.max(np.abs(got - inline)) <= 1e-13 * np.max(np.abs(inline))


def test_green_map_shares_the_row_of_alpha_zero_and_pi(rule):
    # one row a distinct |cos(alpha)|: alpha = 0 and alpha = pi read the same one, so
    # their tie is exact whatever order the matvec sums in
    row = constants._GREEN_ROW
    assert row[0] == row[180] and np.array_equal(constants._GREEN_U[row], np.abs(np.cos(ALPHA_GRID)))
    for n, rho in ((3, 0.5), (8, 0.99), (16, 0.9)):
        values = _green_profile(DimensionParams(n), rho, rule)[0]
        assert values[0] == values[180]


def test_green_map_is_read_only_and_bounded():
    # at most 8 entries; the most panels a rho takes, 40 (once 1 - rho <= 2^-37, when both
    # gradings stop at 2^-39 from their end), make 640 nodes and a 0.79 MB map
    assert 0 < _green_map.cache_info().maxsize <= 8
    edges = _green_edges(1 - 1e-13)
    nodes, lmap = _green_map(tuple(edges.tolist()), 16)
    assert edges.size - 1 == 40 and nodes.size == 640 and lmap.shape == (154, 640)
    assert lmap.nbytes <= 0.79e6
    for part in (nodes, lmap, constants._GREEN_U, constants._GREEN_ROW):
        with pytest.raises(ValueError):
            part[0] = 0.0


def test_certify_sweeps_the_kernel_once_per_radius(monkeypatch):
    # both certificates of a radius share one cached sweep, on the Green nodes alone;
    # the one cache slot holds 0.9 when 0.3 comes back, so the third radius sweeps again,
    # but it reads the Green map the first 0.3 built: two maps, not three
    calls = []
    kernel = constants.profile_curvature_kernel
    monkeypatch.setattr(constants, "profile_curvature_kernel",
                        lambda *args: calls.append((args[2], np.size(args[0]))) or kernel(*args))
    _green_profile.cache_clear()
    _green_map.cache_clear()
    assert cli.main(["certify", "--dim", "5", "--rho", "0.3,0.9,0.3"]) == 0
    assert calls == [(rho, 16 * (_green_edges(rho).size - 1)) for rho in (0.3, 0.9, 0.3)]
    assert calls == [(0.3, 48), (0.9, 112), (0.3, 48)]
    info = _green_map.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


def _kernel_scaled(monkeypatch):
    # the kernel curvature 1e-6 too large, as from a prefactor off by 1e-6 relative
    kernel = constants.profile_curvature_kernel
    monkeypatch.setattr(constants, "profile_curvature_kernel",
                        lambda *args: kernel(*args) * (1.0 + 1e-6))


def _bracket_power_raised(monkeypatch):
    # _poisson_rows with the kernel's bracket (p - a sin^2) raised to the power 5/2, not 2
    source = inspect.getsource(constants._poisson_rows)
    assert source.count("sq *= sq") == 1
    indent = re.search(r"^( *)sq \*= sq$", source, re.M).group(1)
    namespace = dict(vars(constants))
    exec(source.replace("sq *= sq", f"np.abs(sq, out=sq)\n{indent}sq **= 2.5"), namespace)
    monkeypatch.setattr(constants, "_poisson_rows", namespace["_poisson_rows"])


@pytest.mark.parametrize("mutate", [_kernel_scaled, _bracket_power_raised],
                         ids=["kernel-scaled", "bracket-power"])
@pytest.mark.parametrize("n, rho", [(n, rho) for n in (3, 8, 16) for rho in (0.5, 0.99)])
def test_certify_fails_on_a_mutated_kernel(capsys, monkeypatch, mutate, n, rho):
    # the referees have teeth: a wrong kernel still meets the floor, but its Green
    # profile misses the direct route at pi/3 or the closed radial formula at 0
    # (at (16, 0.5) the 1e-6 scale is caught by the radial-max certificate alone)
    mutate(monkeypatch)
    _green_profile.cache_clear()
    try:
        code = cli.main(["certify", "--dim", str(n), "--rho", str(rho)])
    finally:
        _green_profile.cache_clear()
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    (entry,) = json.loads(out)["results"]
    assert entry["convexity"]["min_curvature"] >= CONVEXITY_FLOOR
    assert not (entry["convexity"]["passed"] and entry["radial_max"]["passed"])


@pytest.mark.parametrize("rho, nodes", [(0.1, 32), (0.5, 64), (0.9, 112), (0.99, 192)])
def test_green_panels(rho, nodes):
    edges = _green_edges(rho)
    assert edges[0] == 0.0 and edges[-1] == 1.0 and np.all(np.diff(edges) > 0.0)
    assert 16 * (edges.size - 1) == nodes


def test_green_basis_is_a_read_only_constant():
    # Gauss values to Legendre coefficients, built once: exact on polynomials of degree 15
    with pytest.raises(ValueError):
        constants._GREEN_TO_COEF[0, 0] = 0.0
    coef = np.arange(16.0) / 7.0
    got = constants._GREEN_TO_COEF @ legval(gauss_legendre(16).nodes, coef)
    assert np.max(np.abs(got - coef)) <= 1e-14


@pytest.mark.parametrize("n, rho", [(3, 0.5), (8, 0.9), (3, 0.99), (16, 0.999)])
def test_green_profile_node_doubling(rule, monkeypatch, n, rho):
    # _green_map's key holds the order; _green_profile's does not: clear it around the fine profile
    dim = DimensionParams(n)
    coarse = _green_profile(dim, rho, rule)[0]
    gl = gauss_legendre(32)
    monkeypatch.setattr(constants, "_GREEN_ORDER", 32)
    monkeypatch.setattr(constants, "_GREEN_TO_COEF",
                        (np.arange(32) + 0.5)[:, None] * legvander(gl.nodes, 31).T * gl.weights)
    _green_profile.cache_clear()
    fine, nodes, _ = _green_profile(dim, rho, rule)
    _green_profile.cache_clear()
    assert nodes.size == 32 * (_green_edges(rho).size - 1)
    # both share the anchor constant_transverse: 1e-12 of the largest constant, as of max f
    assert np.max(np.abs(coarse - fine)) <= 1e-12 * fine.max()


@pytest.mark.parametrize("rho, panels", [(0.0, 1), (0.79, 1), (0.8, 2), (0.9, 3), (0.99, 4),
                                         (0.999, 4)])
def test_graded_panel_counts(rho, panels):
    # edges at +-(1 - rho) * (1, 16, 256, 4096) inside (0, pi): a denser grading fails here
    assert _graded_edges(rho).size - 1 == panels


@pytest.mark.parametrize("rho", [0.8, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("n", [3, 8, 32, 64])
def test_graded_routes_node_doubling(n, rho):
    # every Poisson route at 64 and 128 nodes per graded panel against 512 on the same panels
    dim = DimensionParams(n)
    fine = gauss_legendre(512)
    queries = [ConstantQuery(dim, rho, a) for a in (0.0, math.pi / 3, math.pi / 2)]
    direct = [constant_direct(q, fine) for q in queries]
    radial = constant_radial(dim, rho, fine)
    kernel = profile_curvature_kernel(T_GRID[100:], dim, rho, fine)
    for order in (64, 128):
        rule = gauss_legendre(order)
        for q, want in zip(queries, direct):
            assert abs(constant_direct(q, rule) - want) <= 1e-13 * want
        assert abs(constant_radial(dim, rho, rule) - radial) <= 1e-13 * radial
        got = profile_curvature_kernel(T_GRID[100:], dim, rho, rule)
        assert np.max(np.abs(got - kernel)) <= 1e-13 * np.max(np.abs(kernel))


def _panel_errors(edges, f, dtype=np.longdouble):
    """(|Q_N - Q_1024| of each order N = 16, 32, 64, 128 on each panel, sum |w f| at 1024 nodes)
    for f of the nodes as dtype."""
    errs, mass = np.empty((4, edges.size - 1), dtype=dtype), np.empty(edges.size - 1, dtype=dtype)
    for j in range(edges.size - 1):
        terms = [f(x.astype(dtype)) * w.astype(dtype) for x, w in
                 (map_panels(edges[j:j + 2], gauss_legendre(N)) for N in (16, 32, 64, 128, 1024))]
        mass[j] = np.sum(np.abs(terms[-1]))
        errs[:, j] = [abs(np.sum(t) - np.sum(terms[-1])) for t in terms[:-1]]
    return errs, mass


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="longdouble is double here")
@pytest.mark.parametrize("rho", [0.0, 0.5, 0.8, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("n", [3, 8, 16, 64, 128, 200])
def test_panel_bounds_cover_the_error(n, rho):
    # on every panel of the Poisson rows and of the outer integral, the bound of each order 16 to
    # 128 is at least the error against 1024 nodes, short of the rounding (the rules' nodes and
    # weights are doubles: some (m + e) eps of the panel's mass): in longdouble for the
    # rows (sin^m p^-e, for the direct route and for the kernel with its bracket as sin^4), at
    # the direct route's nearest ratio at pi/3 and three 16-fold larger ones; in double for the
    # outer integrand at three angles, its inner rows scaled by (1 - rho)^2 (no overflow), so its
    # rounding is that of the default rule
    L, eps = np.longdouble, np.finfo(float).eps
    near = (1 - rho) ** 2 / (3 * rho) if rho else math.inf
    ratios = sorted({min(near * 16.0 ** k, 2.0 ** 14) for k in range(4)})
    edges = _graded_edges(rho)
    for m, e in ((n - 3, n / 2 - 1), (n + 1, (n + 2) / 2)):
        bound, _ = _row_bounds(edges, ratios, m, e, 128)
        for i, ratio in enumerate(ratios):
            errs, mass = _panel_errors(edges, lambda x: np.sin(x) ** m * (
                L(ratio) + np.sin(x / 2) ** 2) ** -L(e))
            floor = (m + e + 4) * 8 * eps * mass  # the rules' nodes and weights are doubles
            with np.errstate(divide="ignore"):
                assert np.all(np.log(errs) <= np.maximum(bound[:, i], np.log(floor))), (m, ratio)
    e = n / 2 - 1
    log_w = 0.5 * math.log(math.pi) + math.lgamma((n - 2) / 2) - math.lgamma((n - 1) / 2)
    for alpha in (math.pi / 12, math.pi / 3, math.pi / 2):
        (edges,), bound, _, _ = _outer_bounds(n, rho, (alpha,), 128)
        dt, ref = (n - 2) / n * rho * math.cos(alpha), (1 - rho) ** 2

        def outer(x):
            c0, c1 = _inner_rows(x, rho, alpha)
            inner = constants._poisson_rows(rho, gauss_legendre(128), c0 / ref, c1 / ref, e, n - 3)
            return np.abs(dt - np.cos(x)) * np.sin(x) ** (n - 2) * inner

        errs, mass = _panel_errors(edges, outer, float)
        with np.errstate(divide="ignore"):
            assert np.all(np.log(errs) <= np.maximum(bound + log_w + e * math.log(ref),
                                                     np.log((n + 8) * 8 * eps * mass))), alpha


@pytest.mark.parametrize("n, rho", [(16, 0.99), (64, 0.7), (100, 0.5), (128, 0.5), (128, 0.7)])
def test_direct_meets_512_nodes(n, rho):
    # the default rule's outer and inner panels take the orders their bounds allow: within 1e-14
    # of 512 nodes on every outer panel and the order-512 inner rule, at the seven folded angles
    # of a constant table. Fixed orders (outer order // 4, graded inner // 2) missed it by 2.8e-14
    # to 5.9e-11 at large n; outer orders against the upper bound's maximum, not a lower bound's,
    # by 5.1e-9 at (16, 0.99)
    dim, fine = DimensionParams(n), gauss_legendre(512)
    for k in range(7):
        q = ConstantQuery(dim, rho, k * math.pi / 12)
        dt = q.delta * q.t
        nodes, wts = map_panels(_graded_edges(rho, q.alpha, (math.acos(dt),)), fine)
        inner = _inner_smooth(dim, rho, q.alpha, nodes, fine)
        want = n * (n - 2) / (2 * math.pi) / ((1 - rho) * (1 + rho)) * float(
            wts @ (np.abs(dt - np.cos(nodes)) * np.sin(nodes) ** (n - 2) * inner))
        assert abs(constant_direct(q) - want) <= 1e-14 * max(1.0, abs(want)), k


def _poisson_candidates(n, rho, bracket):
    """(c0, c1, a) of real rows: the direct route's inner rows at five angles, or the
    kernel's rows on 2,001 t in [0, 1) that reach the last Green nodes (a None if no bracket)."""
    if not bracket:
        theta = np.linspace(0.0, math.pi, 2001)
        rows = [_inner_rows(theta, rho, k * math.pi / 12) for k in (1, 2, 4, 5, 6)]
        return tuple(np.concatenate(v) for v in zip(*rows)) + (None,)
    t = np.concatenate((np.linspace(0.0, 0.999, 1961), 1.0 - np.logspace(-3.0, -11.0, 40)))
    c0, c1, g = _kernel_rows(t, n, rho)
    return c0, c1, n / (n - 2.0) * g


def _poisson_sum_ld(c0, c1, e, m, a, nodes, wts):
    """Reference: the rows on the given nodes, in np.longdouble."""
    L = np.longdouble
    nodes, wts, c0, c1 = (np.asarray(v, dtype=L) for v in (nodes, wts, c0, c1))
    p = c0[:, None] + c1[:, None] * np.sin(nodes / 2) ** 2
    vals = p ** -L(e) * (1 if a is None else (p - a.astype(L)[:, None] * np.sin(nodes) ** 2) ** 2)
    return vals @ (wts * np.sin(nodes) ** m)


def _nearest_rows(c0, c1, rows, count):
    """The rows of a mask with the smallest c0/c1: the nearest to their rule's pole test."""
    idx = np.flatnonzero(rows)
    with np.errstate(divide="ignore"):
        return idx[np.argsort(c0[idx] / c1[idx])[:count]]


@pytest.mark.parametrize("bracket", [False, True], ids=["direct", "kernel"])
@pytest.mark.parametrize("rho", [0.1, 0.5, 0.7, 0.8, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("n", [3, 8, 32, 64])
def test_far_rows_meet_the_graded_value(n, rho, bracket):
    # on each plain rule a pole test chose (every ladder order; the rule's own order once
    # rho >= 0.8), the rows nearest the test lose nothing: in longdouble on both rules, the
    # plain panel meets 512 nodes a graded panel to 1e-14; the double rows of _poisson_rows
    # add the rounding of p^-e (test_inv_power_matches_numpy)
    m, e = n - 3, ((n + 2) / 2.0 if bracket else n / 2.0 - 1.0)
    c0, c1, a = _poisson_candidates(n, rho, bracket)
    graded = map_panels(_graded_edges(rho), gauss_legendre(512))
    tested = 0
    for order in (16, 32, 64, 128):
        rule = gauss_legendre(order)
        groups = _rule_groups(rho, rule, c0, c1, m + 4 * bracket, e)
        for rows, nodes, wts in groups[:len(groups) - 1 - (rho < 0.8)]:
            rows = _nearest_rows(c0, c1, rows, 8)
            if rows.size == 0:  # no row takes this rule (tau_N = inf, or a smaller order's)
                continue
            sub = (c0[rows], c1[rows], e, m, None if a is None else a[rows])
            want = _poisson_sum_ld(*sub, *graded)
            quad = _poisson_sum_ld(*sub, nodes, wts)
            assert float(np.max(np.abs(quad / want - 1))) <= 1e-14, (order, nodes.size)
            got = constants._poisson_rows(rho, rule, *sub[:4], a=sub[4])
            assert float(np.max(np.abs(got / want - 1))) <= 1e-14 + (e + 2) * np.finfo(float).eps
            tested += 1
    assert tested  # in every case some row takes a rule a pole test chose


@pytest.mark.parametrize("n, rho, bracket, order", [
    (3, 0.99, False, 128), (8, 0.999, True, 128), (3, 0.5, False, 16), (4, 0.9, True, 16),
], ids=["direct", "kernel", "direct-rung-16", "kernel-rung-16"])
def test_far_rows_meet_mpmath(n, rho, bracket, order):
    # the row nearest the pole test of one plain rule of the default rule against mp.quad,
    # split across the peak width
    m, e = n - 3, ((n + 2) / 2.0 if bracket else n / 2.0 - 1.0)
    c0, c1, a = _poisson_candidates(n, rho, bracket)
    rule = gauss_legendre(128)
    groups = _rule_groups(rho, rule, c0, c1, m + 4 * bracket, e)
    (rows, nodes, _), = [g for g in groups[:-1] if g[1].size == order]
    (r,) = _nearest_rows(c0, c1, rows, 1)
    got = constants._poisson_rows(rho, rule, c0[r:r + 1], c1[r:r + 1], e, m,
                                  a=None if a is None else a[r:r + 1])
    with mp.workdps(30):
        def f(x):
            p = mp.mpf(c0[r]) + mp.mpf(c1[r]) * mp.sin(x / 2) ** 2
            bracket = 1 if a is None else (p - mp.mpf(a[r]) * mp.sin(x) ** 2) ** 2
            return mp.sin(x) ** m * p ** -mp.mpf(e) * bracket

        width = 2 * math.sqrt(c0[r] / c1[r])
        cuts = [k * width for k in (1, 4, 16) if k * width < math.pi]
        want = mp.quad(f, [0] + cuts + [mp.pi])
    assert abs(float(got[0] / want) - 1.0) <= 1e-14


@pytest.mark.parametrize("order", [7, 16, 32, 64, 128])
@pytest.mark.parametrize("n, rho", [(3, 0.5), (32, 0.5), (3, 0.9), (32, 0.99), (8, 0.999)])
def test_far_split_warns_nothing(order, n, rho):
    # c1 = 0 on every row at alpha = 0 and pi, where an infinite tau_N (no bound holds)
    # meets it as inf * 0; and the kernel at t = 0.999 (large c0/c1)
    rule = gauss_legendre(order)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.0, math.pi):
            q = ConstantQuery(DimensionParams(n), rho, alpha)
            assert math.isfinite(constant_direct(q, rule))
        assert math.isfinite(profile_curvature_kernel(0.999, DimensionParams(n), rho, rule))


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
    # the closed transverse anchor against the direct double integral at pi/3
    assert rep.max_route_gap <= 1e-15


def test_certify_convexity_validation(rule):
    # the sample set is fixed by rho: no grid size is taken
    with pytest.raises(TypeError):
        certify_convexity(4, 0.5, grid_size=11, rule=rule)
    with pytest.raises(ValueError, match="dimension must be an integer, got 3.5"):
        certify_convexity(3.5, 0.5, rule=rule)


# every public entry point that takes a dimension, as a function of it
_DIMENSION_CALLS = {
    "ConstantQuery": lambda n: ConstantQuery(n, 0.5, 0.3),
    "profile_parts": lambda n: profile_parts(0.3, n, 0.5),
    "profile_curvature_series": lambda n: profile_curvature_series(0.3, n, 0.5),
    "profile_curvature_kernel": lambda n: profile_curvature_kernel(0.3, n, 0.5),
    "certify_convexity": lambda n: certify_convexity(n, 0.5),
    "certify_radial_max": lambda n: certify_radial_max(n, 0.5),
    "constant_radial": lambda n: constant_radial(n, 0.5),
    "constant_transverse": lambda n: constant_transverse(n, 0.5),
    "curvature_density_grid": lambda n: curvature_density_grid(0.3, 0.2, n, 0.5),
}


@pytest.mark.parametrize("name", sorted(_DIMENSION_CALLS))
def test_every_entry_point_takes_int_or_dimension_params(name):
    # one dimension rule: an int and its DimensionParams give equal results, and
    # DimensionParams' own message names a bad value
    call = _DIMENSION_CALLS[name]
    assert call(4) == call(DimensionParams(4))
    for bad, message in [("x", "dimension must be an integer, got 'x'"),
                         (2, "dimension must be at least 3, got 2"),
                         (3.0, "dimension must be an integer, got 3.0")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)


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


@pytest.mark.parametrize("n", [3, 8, 16])
def test_certify_radial_max_near_the_endpoint(rule, n):
    # the 1e-8 radial contract holds at rho = 0.99999: measured 1.9e-16, 4.8e-16, 4.7e-16
    rep = certify_radial_max(n, 0.99999, rule=rule)
    assert rep.passed and rep.radial_residual <= ROUTE_TOL


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
    # the closed transverse anchor stays finite; the kernel curvature is what overflows
    assert math.isfinite(constant_transverse(1024, 0.7))
    with pytest.raises(OverflowError, match="profile_curvature_kernel overflows at n=1024, rho=0.7"):
        with np.errstate(all="ignore"):
            certify_radial_max(1024, 0.7)


# -- the closed transverse constant (alpha = pi/2) ------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 64, 256, 1024])
def test_constant_transverse_matches_hyp2f1(n):
    # 2 c_n F(rho^2) / ((n-1)(1-rho^2)), F = 2F1(-1/2, n/2-1; (n+1)/2; .), all in mpmath;
    # with the Gamma factors in closed form, only the Euler integral's rounding is left
    with mp.workdps(40):
        c_n = 2 * mp.gamma(mp.mpf(n + 2) / 2) / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(n - 1) / 2))
        for rho in (0.0, 0.3, 0.9, 0.99, 0.999):
            x = mp.mpf(rho) ** 2
            want = (2 * c_n * mp.hyp2f1(-0.5, mp.mpf(n) / 2 - 1, mp.mpf(n + 1) / 2, x)
                    / ((n - 1) * (1 - x)))
            assert constant_transverse(n, rho) == pytest.approx(float(want), rel=2e-14)


@pytest.mark.parametrize("n", [3, 4, 8, 16, 256])
def test_constant_transverse_at_the_center(n):
    # F(0) = 1: C(0, l) = 2 c_n / (n - 1), which is 3/2 at n = 3 (acceptance criterion 7)
    dim = DimensionParams(n)
    assert constant_transverse(dim, 0.0) == pytest.approx(2 * dim.c_n / (n - 1), rel=1e-14)
    if n == 3:
        assert constant_transverse(3, 0.0) == pytest.approx(1.5, rel=1e-15)


@pytest.mark.parametrize("rho", [0.99, 0.999, 0.9999])
@pytest.mark.parametrize("n", [3, 16])
def test_constant_transverse_near_the_boundary(n, rho):
    # F(1) = Gamma((n+1)/2) / (Gamma(n/2+1) Gamma(3/2)) gives (1 - rho) C -> 2/pi at every n
    assert abs((1 - rho) * constant_transverse(n, rho) * math.pi / 2 - 1) <= 10 * (1 - rho)


def test_constant_transverse_matches_direct_on_bench_cases(rule, monkeypatch):
    # the 38 certify operations of the benchmark (bench/ is only read)
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    cases = workloads.CERTIFY_INTERIOR + workloads.CERTIFY_BOUNDARY
    assert len(cases) == 38
    for n, rho in cases:
        direct = constant_direct(ConstantQuery(DimensionParams(n), rho, math.pi / 2), rule)
        assert constant_transverse(n, rho) == pytest.approx(direct, rel=1e-13), (n, rho)


def test_constant_transverse_domain():
    for rho in (-0.1, 1.0, math.nan):
        with pytest.raises(ValueError, match="rho must lie in"):
            constant_transverse(3, rho)


def test_certify_radial_max_runs_no_double_integral(rule, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("constant_direct called")

    monkeypatch.setattr(constants, "constant_direct", refuse)
    monkeypatch.setattr(cli, "constant_direct", refuse)
    for n, rho in ((3, 0.5), (8, 0.95), (16, 0.999)):
        assert certify_radial_max(n, rho, rule=rule).passed
    # the command runs one double integral a radius: the convexity referee at pi/3
    made = []
    monkeypatch.setattr(constants, "constant_direct",
                        lambda q, r: made.append(q.alpha) or constant_direct(q, r))
    assert cli.main(["certify", "--dim", "3", "--rho", "0.5,0.9"]) == 0
    assert made == [ALPHA_GRID[60]] * 2


@pytest.mark.parametrize("alpha", [0.0, math.pi])
def test_constant_direct_overflow_is_its_only_signal(alpha):
    # the inner integral is inf and a sin^(n-2) factor 0 at the outer nodes: inf * 0 in the outer
    # product is computed silently, and the route's own OverflowError is what the caller sees
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="constant_direct overflows at n=64, rho=0.9999999"):
            constant_direct(ConstantQuery(DimensionParams(64), 0.9999999, alpha))


@pytest.mark.parametrize("route, call", [
    ("constant_direct",
     lambda: constant_direct(ConstantQuery(DimensionParams(1024), 0.7, math.pi / 2))),
    ("constant_radial", lambda: constant_radial(1024, 0.7)),
    ("profile_curvature_kernel", lambda: profile_curvature_kernel(0.5, DimensionParams(1024), 0.7)),
    ("profile_curvature_kernel", lambda: certify_radial_max(1024, 0.7)),
])
def test_overflow_raises_before_any_numpy_warning(route, call):
    # no np.errstate: the route's own OverflowError, not a numpy RuntimeWarning, comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=f"{route} overflows at n=1024, rho=0.7"):
            call()


@pytest.mark.parametrize("n, rho, t", [(128, 0.999, 0.0), (256, 0.99, 0.5),
                                       (256, 0.99, np.array([0.0, 0.5]))])
def test_profile_curvature_kernel_overflow_raises(n, rho, t):
    # p^(-(n+2)/2) with p >= (1 - rho)^2 passes the double range; no silent nan
    with pytest.raises(OverflowError,
                       match=f"profile_curvature_kernel overflows at n={n}, rho={rho}"):
        with np.errstate(all="ignore"):
            profile_curvature_kernel(t, DimensionParams(n), rho)
