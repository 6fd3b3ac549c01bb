import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mp

from ballgrad.quadrature import (
    QuadratureRule,
    composite_nodes,
    gauss_legendre,
    integrate,
    integrate_split,
    map_panels,
)
from referees import eval_sequence_reference

ORDERS = (1, 2, 3, 5, 8, 16, 64, 128)


def test_midpoint_rule():
    r = gauss_legendre(1)
    assert r.nodes.tolist() == [0.0]
    assert r.weights.tolist() == [2.0]


def test_two_point_rule():
    r = gauss_legendre(2)
    assert r.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert r.weights == pytest.approx([1.0, 1.0], abs=1e-15)


@pytest.mark.parametrize("n", ORDERS)
def test_monomial_exactness(n):
    r = gauss_legendre(n)
    for p in range(2 * n):
        exact = 0.0 if p % 2 else 2.0 / (p + 1)
        got = float(np.dot(r.weights, r.nodes ** p))
        assert abs(got - exact) <= 1e-12


@pytest.mark.parametrize("n", ORDERS)
def test_rule_structure(n):
    r = gauss_legendre(n)
    assert abs(r.weights.sum() - 2.0) <= 1e-13
    assert np.all(np.diff(r.nodes) > 0)
    assert np.all(r.weights > 0)
    # symmetry about 0 is exact by construction
    assert np.all(r.nodes + r.nodes[::-1] == 0.0)
    assert np.all(r.weights == r.weights[::-1])


def test_rule_is_hashed_and_compared_by_identity():
    # a rule can key a cache; equal arrays in two objects do not make them equal
    r = gauss_legendre(8)
    twin = QuadratureRule(8, r.nodes.copy(), r.weights.copy())
    assert hash(r) == hash(gauss_legendre(8)) and r == r and r is gauss_legendre(8)
    assert {r: 1}[r] == 1
    assert r != twin and not r == twin


@pytest.mark.parametrize("n", (5, 32, 128))
def test_against_numpy_leggauss(n):
    r = gauss_legendre(n)
    x, w = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(r.nodes, x, atol=1e-13)
    np.testing.assert_allclose(r.weights, w, atol=1e-13)


def _two_row_rule(order):
    """Gauss-Legendre rule by a two-row degree loop for P_N, kept here as the
    reference that the engine-driven Newton step must reproduce bit for bit."""
    def legendre_pair(x):
        p_prev, p = np.ones_like(x), x.copy()
        for m in range(2, order + 1):
            p_prev, p = p, ((2.0 * m - 1.0) * x * p - (m - 1.0) * p_prev) / m
        return p, order * (x * p - p_prev) / (x * x - 1.0)

    return _newton_rule(order, legendre_pair)


def _table_rule(order):
    """Gauss-Legendre rule with P_N and P_(N-1) the last two rows of the whole
    (N+1) x N recurrence table at lambda = 1/2, one allocating expression per
    degree: the construction that the two rolling rows replace."""
    def legendre_pair(x):
        p_prev, p = eval_sequence_reference(0.5, order, x)[-2:]
        return p, order * (x * p - p_prev) / (x * x - 1.0)

    return _newton_rule(order, legendre_pair)


def _newton_rule(order, legendre_pair):
    i = np.arange(1, order + 1)
    x = np.cos(np.pi * (4.0 * i - 1.0) / (4.0 * order + 2.0))
    for _ in range(100):
        p, dp = legendre_pair(x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = legendre_pair(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    idx = np.argsort(x)
    x, w = x[idx], w[idx]
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    if order % 2 == 1:
        x[order // 2] = 0.0
    return x, w


# around the recurrence engine's 32-degree block edges, and MAX_ORDER
@pytest.mark.parametrize("n", (2, 3, 31, 32, 33, 34, 66, 128, 4096))
def test_matches_two_row_recurrence_bitwise(n):
    r = gauss_legendre(n)
    x, w = _two_row_rule(n)
    assert np.array_equal(r.nodes, x)
    assert np.array_equal(r.weights, w)


@pytest.mark.parametrize("n", (2, 3, 16, 128, 129, 1024))
def test_matches_table_construction_bitwise(n):
    r = gauss_legendre(n)
    x, w = _table_rule(n)
    assert np.array_equal(r.nodes, x)
    assert np.array_equal(r.weights, w)


def test_rule_memory_is_linear_in_order():
    # the whole (N+1) x N table peaked at 8.4 MB at order 1024; two rolling
    # rows and their scratch need a few arrays of N doubles
    tracemalloc.start()
    try:
        gauss_legendre.__wrapped__(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


def test_order_bounds():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(4097)
    assert gauss_legendre(1024).order == 1024


def test_x_power_eight_five_points():
    # degree 8 <= 2*5 - 1
    got = integrate(lambda x: x ** 8, -1.0, 1.0, gauss_legendre(5))
    assert abs(got - 2.0 / 9.0) <= 1e-12


def test_semicircle_slow_convergence():
    # sqrt weight at the endpoints: only ~1e-6 at N=200, by design
    got = integrate(lambda x: np.sqrt(1 - x * x), -1.0, 1.0, gauss_legendre(200))
    assert abs(got - math.pi / 2) <= 1e-6


def test_integrate_basic():
    r = gauss_legendre(16)
    assert integrate(lambda x: np.ones_like(x), 0.0, 1.0, r) == pytest.approx(1.0, abs=1e-15)
    assert integrate(lambda x: x ** 3, -1.0, 1.0, r) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0, r)


@pytest.mark.parametrize("n", (1, 7, 16))
def test_scalar_integrand_equals_array_integrand(n):
    # a constant integrand may return a scalar: it fills a contiguous array over the
    # nodes, which sums as the array form does (a zero-stride view sums differently)
    r = gauss_legendre(n)
    assert integrate(lambda x: 2.0, 0.0, 3.0, r) == integrate(
        lambda x: np.full_like(x, 2.0), 0.0, 3.0, r)
    assert integrate_split(lambda x: 2.0, 0.0, 3.0, [1.0], r) == integrate_split(
        lambda x: np.full_like(x, 2.0), 0.0, 3.0, [1.0], r)


def test_integrate_rejects_nonfinite():
    r = gauss_legendre(8)
    with pytest.raises(ValueError):
        integrate(lambda x: np.where(x > 0, np.inf, 1.0), -1.0, 1.0, r)


def test_split_absolute_value():
    r = gauss_legendre(10)
    got = integrate_split(lambda x: np.abs(x), -1.0, 1.0, [0.0], r)
    assert abs(got - 1.0) <= 1e-14


@pytest.mark.parametrize("s", (-0.7, 0.0, 0.3, 0.9))
def test_split_shifted_kink(s):
    # int_{-1}^{1} |x - s| dx = 1 + s^2 for |s| <= 1
    r = gauss_legendre(10)
    got = integrate_split(lambda x: np.abs(x - s), -1.0, 1.0, [s], r)
    assert abs(got - (1.0 + s * s)) <= 1e-13


def test_split_without_breakpoints_matches_integrate():
    r = gauss_legendre(32)
    f = lambda x: np.exp(x)
    assert integrate_split(f, -1.0, 2.0, [], r) == pytest.approx(
        integrate(f, -1.0, 2.0, r), abs=1e-15)
    # out-of-range breakpoints are ignored
    assert integrate_split(f, 0.0, 1.0, [-5.0, 7.0], r) == pytest.approx(
        integrate(f, 0.0, 1.0, r), abs=1e-15)


def test_composite_nodes_cover_interval():
    r = gauss_legendre(4)
    x, w = composite_nodes(-1.0, 1.0, r, (0.25,))
    assert len(x) == 8
    assert abs(w.sum() - 2.0) <= 1e-14
    assert np.all((x > -1.0) & (x < 1.0))
    # a batch of per-row edges maps each row as composite_nodes maps it alone
    edges = np.array([[-1.0, 0.25, 1.0], [0.0, 0.5, 3.0]])
    xb, wb = map_panels(edges, r)
    assert xb.shape == wb.shape == (2, 8)
    for row, (a, s, b) in enumerate(edges):
        x, w = composite_nodes(a, b, r, (s,))
        assert np.array_equal(xb[row], x) and np.array_equal(wb[row], w)


# the referee is mpmath's adaptive tanh-sinh rule, independent of the package;
# a kink enters it as an interval point

def _referee(f, points):
    return float(mp.quad(lambda x: f(float(x)), points))


def test_adaptive_smooth():
    f = lambda x: np.exp(-4.0 * x * x)
    got = integrate(f, -1.0, 1.0, gauss_legendre(128))
    assert abs(got - _referee(f, [-1, 1])) <= 1e-14


def test_adaptive_kink_matches_split():
    f = lambda x: np.abs(x - 0.3)
    got = integrate_split(f, -1.0, 1.0, [0.3], gauss_legendre(10))
    assert abs(got - _referee(f, [-1, 0.3, 1])) <= 1e-14


def test_adaptive_weighted_kink_matches_split():
    # polynomial-weighted kink, the shape of the production integrands
    f = lambda x: np.abs(x + 0.4) * (1 - x * x) * (2 * x * x - 0.5)
    got = integrate_split(f, -1.0, 1.0, [-0.4], gauss_legendre(32))
    assert abs(got - _referee(f, [-1, -0.4, 1])) <= 1e-14


def test_adaptive_zero():
    f = lambda x: 0.0 * x
    got = integrate(f, -1.0, 1.0, gauss_legendre(128))
    assert got == _referee(f, [-1, 1]) == 0.0
