import math

import numpy as np
import pytest
from mpmath import mp

from ballgrad import identities
from ballgrad.gegenbauer import eval_recurrence, eval_sequence, legendre, pochhammer
from ballgrad.identities import (
    DEFAULT_SUITE_LAMBDAS,
    SUITE_TOLERANCES,
    addition_coefficient,
    addition_theorem_rhs,
    kernel_product_check,
    kink_integral_brute,
    kink_integral_closed,
    legendre_addition_rhs,
    orthogonality_closed_form,
    orthogonality_integral,
    product_formula_check,
    run_suite,
    weighted_derivative_check,
)
from ballgrad.quadrature import gauss_legendre, map_panels
from referees import addition_rhs_reference, kernel_K, kernel_support, run_suite_reference

LAMBDAS = (0.5, 1.0, 1.5, 2.5)


@pytest.fixture(scope="module")
def rule():
    return gauss_legendre(128)


def _residual(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-3)


# -- orthogonality -----------------------------------------------------------

def test_orthogonality_offdiagonal(rule):
    for lam in LAMBDAS:
        for k, l in ((0, 2), (0, 5), (1, 3), (2, 8), (3, 7), (5, 6)):
            assert abs(orthogonality_integral(lam, k, l, rule)) <= 1e-12


def test_orthogonality_diagonal(rule):
    for lam in LAMBDAS:
        for k in range(9):
            got = orthogonality_integral(lam, k, k, rule)
            want = orthogonality_closed_form(lam, k)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_orthogonality_k0_analytic(rule):
    # int (1-x^2)^{1/2} dx = pi/2
    assert orthogonality_integral(1.0, 0, 0, rule) == pytest.approx(math.pi / 2, rel=1e-12)


def test_orthogonality_domain(rule):
    with pytest.raises(ValueError):
        orthogonality_integral(0.0, 1, 1, rule)
    # Gamma(-1/4) < 0, a sign that log|Gamma| drops: the norm of C_2^(-1/4) is
    # +0.0936449 (mpmath, closed form and quad), and the log-Gamma ratio read -0.0936449
    with pytest.raises(ValueError, match="must be positive, got -0.25"):
        orthogonality_closed_form(-0.25, 2)


# -- addition theorems -------------------------------------------------------

def test_addition_coefficient_j0():
    # the j=0 weight collapses to k!/(2 lam)_k
    for lam in (1.0, 1.5, 2.5):
        for k in (0, 1, 4, 9):
            want = math.factorial(k) / pochhammer(2 * lam, k)
            assert addition_coefficient(lam, k, 0) == pytest.approx(want, rel=1e-13)


def test_addition_coefficient_domain():
    with pytest.raises(ValueError):
        addition_coefficient(0.5, 3, 1)
    with pytest.raises(ValueError):
        addition_coefficient(1.5, 3, 4)


def test_addition_theorem_random():
    rng = np.random.default_rng(7)
    for lam in (1.0, 1.5, 2.5):
        for k in range(13):
            for theta, phi, psi in rng.uniform(0.05, math.pi - 0.05, size=(20, 3)):
                arg = math.cos(theta) * math.cos(phi) + math.sin(theta) * math.sin(phi) * math.cos(psi)
                lhs = eval_recurrence(lam, k, arg)
                rhs = addition_theorem_rhs(lam, k, theta, phi, psi)
                assert _residual(lhs, rhs) <= 1e-9


def test_addition_theorem_trivial_cases():
    assert addition_theorem_rhs(1.5, 0, 0.3, 1.2, 2.2) == pytest.approx(1.0, rel=1e-13)
    # theta = 0 collapses the argument to cos(phi)
    got = addition_theorem_rhs(2.5, 5, 0.0, 1.1, 0.7)
    want = eval_recurrence(2.5, 5, math.cos(1.1))
    assert got == pytest.approx(want, rel=1e-12)


def test_addition_theorem_domain():
    with pytest.raises(ValueError):
        addition_theorem_rhs(0.5, 3, 0.3, 0.4, 0.5)
    with pytest.raises(ValueError):
        addition_theorem_rhs(1.5, 3, -0.1, 0.4, 0.5)


def test_legendre_addition_k1():
    # P_1(x) = x makes the identity exact by hand
    theta, phi, psi = 0.8, 2.3, 1.7
    want = math.cos(theta) * math.cos(phi) + math.sin(theta) * math.sin(phi) * math.cos(psi)
    assert legendre_addition_rhs(1, theta, phi, psi) == pytest.approx(want, rel=1e-14)


def test_legendre_addition_psi_zero():
    for k in (2, 5):
        got = legendre_addition_rhs(k, 0.4, 2.3, 0.0)
        assert got == pytest.approx(legendre(k, math.cos(0.4 - 2.3)), rel=1e-12)


def test_legendre_addition_random():
    rng = np.random.default_rng(11)
    for k in range(13):
        for theta, phi, psi in rng.uniform(0.05, math.pi - 0.05, size=(20, 3)):
            arg = math.cos(theta) * math.cos(phi) + math.sin(theta) * math.sin(phi) * math.cos(psi)
            assert _residual(legendre(k, arg), legendre_addition_rhs(k, theta, phi, psi)) <= 1e-11


# -- product formulas --------------------------------------------------------

def test_product_formula_random(rule):
    rng = np.random.default_rng(3)
    for lam in LAMBDAS:
        for k in range(13):
            for phi, psi in rng.uniform(0.05, math.pi - 0.05, size=(10, 2)):
                lhs, rhs = product_formula_check(lam, k, phi, psi, rule)
                assert _residual(lhs, rhs) <= 1e-9


@pytest.mark.parametrize("phi, psi, named", [(np.nan, 0.4, "nan"), (0.4, 4.0, "4.0"),
                                             (np.array([0.3, np.nan]), 1.0, "nan")])
def test_product_formula_names_bad_angle(rule, phi, psi, named):
    with pytest.raises(ValueError, match=rf"^angles must lie in \[0, pi\], got {named}$"):
        product_formula_check(1.5, 3, phi, psi, rule)


def test_product_formula_trivial(rule):
    lhs, rhs = product_formula_check(2.0, 0, 0.9, 1.4, rule)
    assert lhs == pytest.approx(1.0, abs=1e-14)
    assert rhs == pytest.approx(1.0, rel=1e-12)
    lhs, rhs = product_formula_check(2.0, 6, 0.0, 1.4, rule)
    assert _residual(lhs, rhs) <= 1e-10


def test_kernel_value():
    # at lam=1, x=y=0 the density is Gamma(3/2)/(Gamma(1)Gamma(1/2)) = 1/2
    assert kernel_K(1.0, 0.0, 0.0, 0.5) == pytest.approx(0.5, rel=1e-13)


def test_kernel_outside_support():
    lo, hi = kernel_support(0.9, -0.9)
    assert kernel_K(1.5, 0.9, -0.9, hi + 1e-6) == 0.0
    assert kernel_K(1.5, 0.9, -0.9, lo - 1e-6) == 0.0
    z = np.linspace(-0.99, 0.99, 101)
    assert np.all(kernel_K(1.5, 0.9, -0.9, z) >= 0.0)


def test_kernel_product_domain(rule):
    # lam first, then x, then y; an array names its first bad element
    with pytest.raises(ValueError, match=r"^product formula needs lam > 0, got 0.0$"):
        kernel_product_check(0.0, 0, 1.0, 0.2, rule)
    with pytest.raises(ValueError, match=r"^x and y must lie in \(-1, 1\), got 1.0$"):
        kernel_product_check(1.0, 0, 1.0, np.nan, rule)
    with pytest.raises(ValueError, match=r"^x and y must lie in \(-1, 1\), got 1.0$"):
        kernel_product_check(1.0, 0, 0.1, np.array([0.1, 1.0, -1.5]), rule)


def test_kernel_support_interval():
    lo, hi = kernel_support(0.3, -0.6)
    # roots of the discriminant parabola in z
    for z in (lo, hi):
        assert 1 - 0.3 ** 2 - 0.6 ** 2 - z * z + 2 * 0.3 * (-0.6) * z == pytest.approx(0.0, abs=1e-15)


def test_kernel_unit_mass(rule):
    rng = np.random.default_rng(5)
    for lam in LAMBDAS:
        for x, y in rng.uniform(-0.9, 0.9, size=(5, 2)):
            _, mass = kernel_product_check(lam, 0, x, y, rule)
            assert abs(mass - 1.0) <= 1e-10


def test_kernel_product_formula(rule):
    lhs, rhs = kernel_product_check(1.5, 4, 0.3, -0.6, rule)
    assert _residual(lhs, rhs) <= 1e-9
    rng = np.random.default_rng(13)
    for lam in LAMBDAS:
        for k in range(13):
            x, y = rng.uniform(-0.9, 0.9, size=2)
            lhs, rhs = kernel_product_check(lam, k, x, y, rule)
            assert _residual(lhs, rhs) <= 1e-9


def test_kernel_product_parity(rule):
    # x = y = 0: even kernel, odd polynomial integrates to zero
    for k in (1, 3, 7):
        lhs, rhs = kernel_product_check(1.5, k, 0.0, 0.0, rule)
        assert lhs == 0.0
        assert abs(rhs) <= 1e-13


# -- weighted derivative and kink integral -----------------------------------

def test_weighted_derivative_examples():
    lhs, rhs = weighted_derivative_check(2.0, 0, 0.0)
    assert lhs == pytest.approx(0.0, abs=1e-10)
    assert rhs == pytest.approx(0.0, abs=1e-15)
    for lam, k, x in ((3.0, 2, 0.4), (0.5, 3, -0.2), (2.5, 7, 0.6)):
        lhs, rhs = weighted_derivative_check(lam, k, x)
        assert abs(lhs - rhs) <= 1e-6


def test_weighted_derivative_excludes_lam_one():
    with pytest.raises(ValueError):
        weighted_derivative_check(1.0, 3, 0.2)


def test_kink_integral_spot_value(rule):
    # direct substitution: 8*1*2/(2*1*4*5) * C_0^3(0) = 0.4
    assert kink_integral_closed(1.0, 2, 0.0) == pytest.approx(0.4, rel=1e-14)
    assert kink_integral_brute(1.0, 2, 0.0, rule) == pytest.approx(0.4, rel=1e-12)


def test_kink_integral_cross(rule):
    rng = np.random.default_rng(17)
    for lam in LAMBDAS:
        for k in range(2, 13):
            for s in rng.uniform(-0.9, 0.9, size=5):
                closed = kink_integral_closed(lam, k, s)
                brute = kink_integral_brute(lam, k, s, rule)
                assert _residual(closed, brute) <= 1e-9
    closed = kink_integral_closed(0.5, 5, 0.7)
    brute = kink_integral_brute(0.5, 5, 0.7, rule)
    assert abs(closed - brute) <= 1e-9


def test_kink_integral_parity(rule):
    # odd k at s=0: C_{k-2}^{lam+2}(0) = 0 for odd k
    assert kink_integral_closed(1.5, 5, 0.0) == 0.0
    assert abs(kink_integral_brute(1.5, 5, 0.0, rule)) <= 1e-14
    assert kink_integral_closed(1.5, 6, 0.0) != 0.0


def test_kink_integral_domain(rule):
    with pytest.raises(ValueError):
        kink_integral_closed(1.0, 1, 0.0)
    with pytest.raises(ValueError):
        kink_integral_closed(1.0, 4, 1.0)
    for k in (2.5, 3.0, -1):
        with pytest.raises(ValueError, match="k >= 2, got k="):
            kink_integral_closed(1.0, k, 0.1)
    with pytest.raises(ValueError):
        kink_integral_brute(1.0, 4, -1.0, rule)


def test_kink_integral_per_sample_degrees():
    # one degree per sample, broadcast with s, each sample bit for bit its scalar call; at
    # lam = 5 the degrees 0..12 take two rungs of the ladder (32 and 64 nodes), and on a rule of
    # order 32 the rung order // 4 = 8 falls below 16. The 104 samples of np.tile span several
    # _KINK_CELLS blocks of one order
    assert {identities._kink_order(5.0, k, 128) for k in range(13)} == {32, 64}
    assert {identities._kink_order(lam, k, 32) for lam in (0.5, 5.0) for k in range(13)} == {
        16, 32}
    rng = np.random.default_rng(8)
    for lam, order in ((0.5, 128), (2.5, 128), (5.0, 128), (0.5, 32), (5.0, 32)):
        grid = gauss_legendre(order)
        for ks in (np.arange(2), np.array([5, 0, 3, 3]), np.array([[1, 4], [2, 0]]),
                   np.arange(13)[::-1], np.tile(np.arange(13), 8)):
            s = rng.uniform(-0.9, 0.9, size=ks.shape)
            got = kink_integral_brute(lam, ks, s, grid)
            assert got.shape == ks.shape
            for idx, k in np.ndenumerate(ks):
                assert got[idx] == kink_integral_brute(lam, int(k), float(s[idx]), grid)
        # degrees along one axis, samples along the other
        s = np.array([[-0.7], [0.0], [0.35], [0.9]])
        got = kink_integral_brute(lam, np.arange(3), s, grid)
        assert got.shape == (4, 3)
        for (i, k), value in np.ndenumerate(got):
            assert value == kink_integral_brute(lam, k, float(s[i, 0]), grid)


@pytest.mark.parametrize("lam", [0.25, 0.75, 1.2, -0.25])
def test_kink_integral_brute_refuses_off_grid_lambda(rule, lam):
    # sin^(2 lam) branches at the panel ends unless 2 lam is a positive integer: the
    # brute form read 9.4e-6 relative off the closed one at lam = 0.25 (k = 4), 8-20%
    # at -0.25. The refusal comes first, before the degree and the sample are checked
    with pytest.raises(ValueError, match=rf"^2\*lambda must be a positive integer for kink, "
                                         rf"got {lam}$"):
        kink_integral_brute(lam, -1, np.array([-0.5, 0.3, 1.5]), rule)


def _kink_terms(lam, k, s, rule):
    """(the kink integrals at s on one rule panel each side of the kink, the sums of |w f|)."""
    theta, w = map_panels(np.stack(np.broadcast_arrays(0.0, np.arccos(s), math.pi), -1), rule)
    f = (np.abs(np.cos(theta) - s[:, None]) * np.sin(theta) ** (2.0 * lam)
         * eval_recurrence(lam, k, np.cos(theta)))
    return (w * f).sum(-1), (w * np.abs(f)).sum(-1)


def test_kink_orders_cover_the_error(rule):
    # the order of each degree meets its target, 2^-52 of 2 C_k^lam(1) (the integrand's
    # bound on the axis), against a 1024-node rule and, for a few cases, mpmath, up to
    # the rounding of the sums: twice eps times their sums of |w f|
    eps, fine = 2.0 ** -52, gauss_legendre(1024)
    s = np.array([-0.999, -0.9, -0.3, 0.0, 0.4, 0.9, 0.999])
    for lam in (0.5, 1.0, 1.5, 2.5, 3.0, 5.0, 7.0, 15.0, 31.0):
        target = 2.0 * eps * eval_sequence(lam, 12, 1.0)
        for k in range(13):
            got = kink_integral_brute(lam, k, s, rule)
            nodes = gauss_legendre(identities._kink_order(lam, k, rule.order))
            want, size = _kink_terms(lam, k, s, fine)
            slack = 2.0 * eps * (_kink_terms(lam, k, s, nodes)[1] + size)
            assert np.all(np.abs(got - want) <= target[k] + slack), (lam, k)
    for lam, k, x in ((0.5, 3, 0.999), (2.5, 12, -0.9), (7.0, 6, 0.4), (31.0, 0, -0.3)):
        with mp.workdps(30):
            want = float(mp.quad(lambda theta: abs(mp.cos(theta) - x) * mp.sin(theta) ** (2 * lam)
                                 * mp.gegenbauer(k, lam, mp.cos(theta)), [0, mp.acos(x), mp.pi]))
        nodes = gauss_legendre(identities._kink_order(lam, k, rule.order))
        size = _kink_terms(lam, k, np.array([x]), nodes)[1][0]
        assert abs(kink_integral_brute(lam, k, x, rule) - want) <= 2.0 * eps * (
            eval_sequence(lam, k, 1.0)[k] + size), (lam, k, x)


_NONE, _NO_X = np.array([], dtype=int), np.array([])


@pytest.mark.parametrize("call, shape", [
    (lambda rule: eval_recurrence(1.0, _NONE, _NO_X), (0,)),
    (lambda rule: kink_integral_closed(1.0, _NONE, _NO_X), (0,)),
    (lambda rule: weighted_derivative_check(1.5, _NONE, _NO_X)[0], (0,)),
    (lambda rule: weighted_derivative_check(1.5, _NONE, _NO_X)[1], (0,)),
    (lambda rule: orthogonality_integral(1.0, _NONE, 2, rule), (0,)),
    (lambda rule: orthogonality_integral(1.0, 2, _NONE, rule), (0,)),
    (lambda rule: kink_integral_brute(1.0, _NONE, np.array([0.3]), rule), (0,)),
    (lambda rule: kink_integral_brute(1.0, 2, _NO_X, rule), (0,)),
    (lambda rule: kink_integral_brute(1.0, np.arange(3)[:, None], _NO_X, rule), (3, 0)),
    (lambda rule: addition_theorem_rhs(1.5, _NONE, _NO_X, _NO_X, _NO_X), (0,)),
    (lambda rule: legendre_addition_rhs(_NONE, _NO_X, _NO_X, _NO_X), (0,)),
])
def test_empty_batch_gives_empty_result(rule, call, shape):
    # an array gives an array of its shape, an empty one too
    assert call(rule).shape == shape


@pytest.mark.parametrize("k", [-1, 2.0, 1.5, True, np.array([0, -1]), np.array([0.0, 1.0])])
def test_kink_integral_rejects_bad_degrees(rule, k):
    # a degree of -1 would otherwise index the recurrence's rows from the end
    with pytest.raises(ValueError, match="^k must be nonnegative integer degrees"):
        kink_integral_brute(1.5, k, np.array([0.2, -0.4]), rule)


# -- the bundled suite -------------------------------------------------------

def test_run_suite_passes(rule):
    report = run_suite(lambdas=(0.5, 1.5), max_degree=6, samples=5, rule=rule, seed=1)
    assert report
    for name, entry in report.items():
        assert entry["passed"], f"{name}: {entry}"


def test_run_suite_deterministic(rule):
    a = run_suite(lambdas=(1.5,), max_degree=4, samples=3, rule=rule, seed=2)
    b = run_suite(lambdas=(1.5,), max_degree=4, samples=3, rule=rule, seed=2)
    assert a == b


def test_run_suite_check_filter(rule):
    report = run_suite(lambdas=(1.5,), max_degree=4, samples=3, rule=rule,
                       checks={"kink"})
    assert set(report) == {"kink"}
    with pytest.raises(ValueError):
        run_suite(checks={"nonsense"}, rule=rule)


# -- array arguments ---------------------------------------------------------

def _each(fn, *arrays):
    """fn applied to every sample of the arrays in turn, as scalars."""
    return [fn(*(float(a[i]) for a in arrays)) for i in range(len(arrays[0]))]


def test_checks_on_arrays_equal_scalar_calls(rule):
    rng = np.random.default_rng(21)
    theta, phi, psi = rng.uniform(0.05, math.pi - 0.05, size=(3, 9))
    x, y = rng.uniform(-0.95, 0.95, size=(2, 9))
    s = rng.uniform(-0.9, 0.9, size=9)
    for lam, k in ((1.5, 7), (3.0, 12), (0.5, 0)):
        if lam > 0.5:
            assert addition_theorem_rhs(lam, k, theta, phi, psi).tolist() == _each(
                lambda a, b, c: addition_theorem_rhs(lam, k, a, b, c), theta, phi, psi)
        assert legendre_addition_rhs(k, theta, phi, psi).tolist() == _each(
            lambda a, b, c: legendre_addition_rhs(k, a, b, c), theta, phi, psi)
        lhs, rhs = product_formula_check(lam, k, phi, psi, rule)
        assert list(zip(lhs, rhs)) == _each(
            lambda a, b: product_formula_check(lam, k, a, b, rule), phi, psi)
        lhs, rhs = kernel_product_check(lam, k, x, y, rule)
        assert list(zip(lhs, rhs)) == _each(
            lambda a, b: kernel_product_check(lam, k, a, b, rule), x, y)
        lhs, rhs = weighted_derivative_check(lam, k, x)
        assert list(zip(lhs, rhs)) == _each(lambda a: weighted_derivative_check(lam, k, a), x)
        if k >= 2:
            assert kink_integral_closed(lam, k, s).tolist() == _each(
                lambda a: kink_integral_closed(lam, k, a), s)
        assert kink_integral_brute(lam, k, s, rule).tolist() == _each(
            lambda a: kink_integral_brute(lam, k, a, rule), s)
    z = np.linspace(-0.99, 0.99, 7)
    assert kernel_K(2.5, x[:, None], y[:, None], z).tolist() == [
        [kernel_K(2.5, float(a), float(b), float(c)) for c in z] for a, b in zip(x, y)]
    ks, ls = np.array([0, 2, 4, 5]), np.array([0, 5, 4, 11])
    assert orthogonality_integral(2.5, ks, ls, rule).tolist() == _each(
        lambda a, b: orthogonality_integral(2.5, int(a), int(b), rule), ks, ls)


def test_checks_on_scalars_return_floats(rule):
    values = [
        addition_theorem_rhs(1.5, 4, 0.3, 1.2, 2.2),
        legendre_addition_rhs(4, 0.3, 1.2, 2.2),
        *product_formula_check(1.5, 4, 1.2, 2.2, rule),
        *kernel_product_check(1.5, 4, 0.3, -0.6, rule),
        kernel_K(1.5, 0.3, -0.6, 0.1),
        *weighted_derivative_check(2.5, 4, 0.3),
        kink_integral_closed(1.5, 4, 0.3),
        kink_integral_brute(1.5, 4, 0.3, rule),
        orthogonality_integral(1.5, 2, 4, rule),
    ]
    assert all(type(v) is float for v in values)


def test_checks_on_arrays_reject_any_bad_element(rule):
    good = np.full(4, 0.5)
    bad = np.array([0.5, 0.5, -0.1, 0.5])
    with pytest.raises(ValueError):
        addition_theorem_rhs(1.5, 3, good, bad, good)
    with pytest.raises(ValueError):
        legendre_addition_rhs(3, good, good, bad + math.pi)
    with pytest.raises(ValueError):
        kernel_product_check(1.5, 3, good, np.array([0.1, 1.0, 0.2, 0.3]), rule)
    with pytest.raises(ValueError):
        weighted_derivative_check(2.5, 3, np.array([0.2, 1.0 - 1e-5]))
    with pytest.raises(ValueError):
        kink_integral_closed(1.5, 3, np.array([0.2, np.nan]))
    with pytest.raises(ValueError):
        kink_integral_brute(1.5, 3, np.array([-1.0, 0.2]), rule)


def test_run_suite_case_counts_and_float_residuals():
    report = run_suite(checks={"addition", "legendre-addition", "kink", "weighted-derivative",
                               "orthogonality-diag", "orthogonality-offdiag", "kernel-mass"})
    counts = {name: entry["cases"] for name, entry in report.items()}
    assert counts == {"addition": 1040, "legendre-addition": 260, "kink": 1100,
                      "weighted-derivative": 1040, "orthogonality-diag": 35,
                      "orthogonality-offdiag": 60, "kernel-mass": 100}
    assert all(type(entry["max_residual"]) is float for entry in report.values())
    # more samples than one block of a check call
    report = run_suite(lambdas=(1.5,), max_degree=2, samples=300, checks={"addition", "kink"})
    assert {name: entry["cases"] for name, entry in report.items()} == {"addition": 900, "kink": 300}
    assert all(entry["passed"] for entry in report.values())


def test_kernel_product_passes_every_seed():
    # the discriminant recomputed from z cancelled near the ends of the support
    # and missed the tolerance on 21 of these seeds
    for seed in range(150):
        assert run_suite(seed=seed, checks={"kernel-product"})["kernel-product"]["passed"], seed


def test_kernel_product_near_support_edge_converges():
    # seed 3, lam 1/2, k 7: missed by 1.6e-10 at N=64 growing to 1.6e-8 at
    # N=512 while the discriminant was recomputed from z
    for order in (64, 128, 256, 512):
        lhs, rhs = kernel_product_check(0.5, 7, -0.9471688413332112, 0.8995745220561842,
                                        gauss_legendre(order))
        assert _residual(lhs, rhs) < 1e-12


def test_run_suite_lambda_domains(rule):
    small = dict(max_degree=4, samples=3, rule=rule)
    report = run_suite(lambdas=(1.5,), **small)
    assert "legendre-addition" not in report and "addition" in report
    assert all(entry["passed"] for entry in report.values())
    assert "weighted-derivative" not in run_suite(lambdas=(1.0,), **small)
    # with no lambda above 1/2 the addition check runs its Legendre route
    assert set(run_suite(lambdas=(0.5,), checks={"addition"}, **small)) == {"legendre-addition"}
    with pytest.raises(ValueError, match="legendre-addition needs lambda = 1/2"):
        run_suite(lambdas=(1.5,), checks={"legendre-addition"}, **small)
    with pytest.raises(ValueError, match="weighted-derivative needs lambda outside"):
        run_suite(lambdas=(1.0, 1.05), checks={"weighted-derivative"}, **small)
    with pytest.raises(ValueError, match="exceed -1/2"):
        run_suite(lambdas=(1.5, -0.5), checks={"kink"}, **small)
    with pytest.raises(ValueError, match="lambda must be finite"):
        run_suite(lambdas=(math.inf,), checks={"kink"}, **small)
    # the quadrature checks integrate sin^(2 lam), analytic at the ends of
    # [0, pi] only where 2 lam is an integer: at lam = 0.25 the product check
    # reads residuals near 1e-1; the recurrence-only checks take any lambda
    with pytest.raises(ValueError) as info:
        run_suite(lambdas=(1.5, 0.25, 2.2), **small)
    assert str(info.value) == ("2*lambda must be a positive integer for kernel-mass, "
                               "kernel-product, kink, orthogonality-diag, orthogonality-offdiag, "
                               "product, got 0.25")
    with pytest.raises(ValueError, match="integer for product, got 2.2"):
        run_suite(lambdas=(2.2,), checks={"product"}, **small)
    report = run_suite(lambdas=(0.25, 1.5), checks={"addition"})
    assert set(report) == {"addition"} and report["addition"]["passed"]


def test_run_suite_refuses_lambda_zero_before_any_check(monkeypatch):
    # at lambda = 0 the orthogonality, product and kernel checks raise their own
    # errors; the suite refuses it first, before the checks at lambda = 1.5 run
    def unreached(*args):
        raise AssertionError("a check ran before the lambda rule")
    for name in ("orthogonality_integral", "product_formula_check", "kernel_product_check",
                 "kink_integral_brute", "_kink_sums", "addition_theorem_rhs",
                 "weighted_derivative_check"):
        monkeypatch.setattr(identities, name, unreached)
    with pytest.raises(ValueError, match=r"^2\*lambda must be a positive integer for "
                       r"kernel-mass, kernel-product, kink, orthogonality-diag, "
                       r"orthogonality-offdiag, product, got 0.0$"):
        run_suite(lambdas=(1.5, 0.0))


def test_run_suite_refuses_negative_seed_before_any_check(monkeypatch):
    monkeypatch.setattr(identities, "kink_integral_brute", None)
    with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1$"):
        run_suite(seed=-1, checks={"kink"}, samples=2)


def test_run_suite_legendre_route_runs_at_lambda_half_only(rule):
    small = dict(max_degree=4, samples=3, rule=rule)
    report = run_suite(lambdas=(0.5, 0.25, -0.25), checks={"legendre-addition"}, **small)
    assert report["legendre-addition"]["cases"] == 15
    assert report == run_suite(lambdas=(0.5,), checks={"legendre-addition"}, **small)
    with pytest.raises(ValueError, match=r"\(legendre-addition needs lambda = 1/2\)$"):
        run_suite(lambdas=(-0.25,), checks={"addition"}, **small)


def test_run_suite_nan_residual_fails():
    # lam = 1e300 overflows both sides of the weighted-derivative identity to nan
    with np.errstate(all="ignore"):
        lhs, rhs = weighted_derivative_check(1e300, 2, np.array([0.3]))
        report = run_suite(lambdas=(1e300,), max_degree=2, samples=1,
                           checks={"weighted-derivative"})
    assert np.isnan(lhs).all() and np.isnan(rhs).all()
    entry = report["weighted-derivative"]
    assert math.isnan(entry["max_residual"])
    assert entry["passed"] is False and entry["cases"] == 3


# -- degree-batched suite against the per-degree loop -------------------------

def _assert_suite_matches_reference(**grid):
    # the reference keeps a check with no case on the grid (0 cases, failed);
    # run_suite leaves it out, and raises when that leaves nothing
    want = {name: entry for name, entry in run_suite_reference(**grid).items()
            if entry["cases"] > 0}
    if not want:
        with pytest.raises(ValueError, match="no identity check applies"):
            run_suite(**grid)
    else:
        assert run_suite(**grid) == want


@pytest.mark.parametrize("seed", (0, 1, 54))
@pytest.mark.parametrize("lambdas", (DEFAULT_SUITE_LAMBDAS, (0.5,), (1.5, 2.5)))
def test_run_suite_matches_per_degree_loop(rule, seed, lambdas):
    _assert_suite_matches_reference(lambdas=lambdas, rule=rule, seed=seed)


@pytest.mark.parametrize("max_degree", (0, 1, 2, 12, 20))
@pytest.mark.parametrize("samples", (1, 20, 300))  # 300 crosses _SAMPLE_BLOCK
def test_run_suite_matches_per_degree_loop_on_every_grid(rule, max_degree, samples):
    _assert_suite_matches_reference(max_degree=max_degree, samples=samples, rule=rule, seed=1)


@pytest.mark.parametrize("check", sorted(SUITE_TOLERANCES))
@pytest.mark.parametrize("lambdas, max_degree, samples, seed", [
    (DEFAULT_SUITE_LAMBDAS, 12, 20, 54),
    ((0.5,), 2, 300, 0),
    ((1.5, 2.5), 20, 1, 1),
])
def test_each_check_matches_per_degree_loop(rule, check, lambdas, max_degree, samples, seed):
    _assert_suite_matches_reference(lambdas=lambdas, max_degree=max_degree, samples=samples,
                                    rule=rule, seed=seed, checks={check})


def test_run_suite_leaves_out_checks_below_their_degree(rule):
    small = dict(samples=2, rule=rule)
    assert set(run_suite(max_degree=0, **small)) == set(SUITE_TOLERANCES) - {
        "kernel-product", "kink", "orthogonality-offdiag"}
    report = run_suite(max_degree=2, **small)
    assert "orthogonality-offdiag" not in report and report["kink"]["cases"] == 5 * 2
    assert all(entry["passed"] for entry in report.values())
    with pytest.raises(ValueError, match=r"kink needs max degree >= 2"):
        run_suite(max_degree=1, checks={"kink"}, **small)
    with pytest.raises(ValueError, match=(r"kernel-product needs max degree >= 1; "
                                          r"orthogonality-offdiag needs max degree >= 3")):
        run_suite(max_degree=0, checks={"kernel-product", "orthogonality-offdiag"}, **small)


@pytest.mark.parametrize("grid, message", [
    (dict(samples=0), "samples must be at least 1, got 0"),
    (dict(samples=-1), "samples must be at least 1, got -1"),
    (dict(max_degree=-1), "max_degree must be at least 0, got -1"),
])
def test_run_suite_rejects_empty_grid(rule, grid, message):
    # samples=0 used to report every check failed on 0 cases, samples=-1 a numpy error
    with pytest.raises(ValueError, match=message):
        run_suite(rule=rule, **grid)


def test_addition_sums_equal_one_degree_form():
    rng = np.random.default_rng(8)
    theta, phi, psi = rng.uniform(0.05, math.pi - 0.05, size=(3, 11))
    for k in (0, 1, 2, 7, 12, 20):
        for lam in (0.75, 1.5, 3.0):
            assert np.array_equal(addition_theorem_rhs(lam, k, theta, phi, psi),
                                  addition_rhs_reference(lam, k, theta, phi, psi))
        assert np.array_equal(legendre_addition_rhs(k, theta, phi, psi),
                              addition_rhs_reference(0.5, k, theta, phi, psi, legendre_route=True))


def test_rows_of_mixed_degrees_equal_one_degree_calls(rule):
    # run_suite calls the checks with one degree per sample: each sample
    # equals the check called at its own degree, bit for bit
    rng = np.random.default_rng(9)
    k = np.repeat(np.arange(2, 15), 3)[::-1].copy()
    theta, phi, psi = rng.uniform(0.05, math.pi - 0.05, size=(3, k.size))
    x = rng.uniform(-0.95, 0.95, size=k.size)
    one = {d: k == d for d in np.unique(k).tolist()}

    def per_degree(fn):
        out = np.empty(k.size)
        for d, rows in one.items():
            out[rows] = fn(d, rows)
        return out

    for lam in (0.5, 1.5, 3.0):
        if lam > 0.5:
            assert np.array_equal(addition_theorem_rhs(lam, k, theta, phi, psi), per_degree(
                lambda d, r: addition_theorem_rhs(lam, d, theta[r], phi[r], psi[r])))
        assert np.array_equal(kink_integral_closed(lam, k, x), per_degree(
            lambda d, r: kink_integral_closed(lam, d, x[r])))
        lhs, rhs = weighted_derivative_check(lam, k, x)
        assert np.array_equal(lhs, per_degree(lambda d, r: weighted_derivative_check(lam, d, x[r])[0]))
        assert np.array_equal(rhs, per_degree(lambda d, r: weighted_derivative_check(lam, d, x[r])[1]))
    assert np.array_equal(legendre_addition_rhs(k, theta, phi, psi), per_degree(
        lambda d, r: legendre_addition_rhs(d, theta[r], phi[r], psi[r])))
