import dataclasses
import math
import time

import numpy as np
import pytest
from mpmath import mp

from ballgrad.gegenbauer import (
    _BLOCK,
    _COLUMNS,
    SERIES_MAX_TERMS,
    DimensionParams,
    SeriesConvergenceError,
    _scales,
    assoc_legendre,
    eval_recurrence,
    eval_sequence,
    gamma_ratio,
    legendre,
    pair_series,
    pair_weights,
    pochhammer,
    series_cutoff,
)
from referees import (derivative, eval_explicit, eval_sequence_longdouble, eval_sequence_reference,
                      pair_sum_longdouble)

LAMBDAS = (0.5, 1.0, 1.5, 2.0, 3.0)
XS = (-0.9, -0.5, 0.0, 0.3, 0.7, 0.99)


def test_pochhammer_values():
    assert pochhammer(2.0, 0) == 1.0
    assert pochhammer(2.0, 3) == 24.0
    assert pochhammer(0.5, 2) == 0.75


def test_pochhammer_overflow():
    with pytest.raises(OverflowError):
        pochhammer(300.0, 300)
    with pytest.raises(ValueError):
        pochhammer(1.0, -1)


def test_index_validation():
    with pytest.raises(ValueError):
        eval_recurrence(1.0, -1, 0.3)
    with pytest.raises(ValueError):
        eval_recurrence(1.0, 2, 1.5)


def test_degree_zero_and_one():
    assert eval_explicit(2.7, 0, 0.3) == 1.0
    # C_1 = 2*lam*x
    assert eval_explicit(1.5, 1, 0.4) == pytest.approx(1.2, abs=1e-15)
    assert eval_recurrence(2.0, 1, 0.25) == pytest.approx(1.0, abs=1e-15)


def test_degree_two_closed_form():
    # expanding the explicit sum at k=2 gives 2*lam*(lam+1)*x^2 - lam,
    # which vanishes for lam=1, x=0.5
    assert eval_explicit(1.0, 2, 0.5) == pytest.approx(0.0, abs=1e-15)
    for lam in LAMBDAS:
        for x in XS:
            want = 2 * lam * (lam + 1) * x * x - lam
            assert eval_recurrence(lam, 2, x) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_recurrence_matches_explicit(lam):
    for k in range(31):
        for x in XS:
            a = eval_recurrence(lam, k, x)
            b = eval_explicit(lam, k, x)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


@pytest.mark.parametrize("lam", (0.5, 1.5, 3.0))
@pytest.mark.parametrize("z", (-0.5, 0.25, 0.5))
def test_generating_function(lam, z):
    K = series_cutoff(abs(z), lam, 4096)
    for x in (-0.9, 0.3, 0.7):
        seq = eval_sequence(lam, K, x)
        partial = float(np.polynomial.polynomial.polyval(z, seq))
        closed = (1.0 - 2.0 * x * z + z * z) ** (-lam)
        assert abs(partial - closed) <= 1e-10


def test_parity():
    for lam in LAMBDAS:
        for k in (0, 1, 2, 5, 12, 25):
            for x in (0.3, 0.77):
                assert eval_recurrence(lam, k, -x) == pytest.approx(
                    (-1.0) ** k * eval_recurrence(lam, k, x), rel=1e-12, abs=1e-300)


def test_endpoint_value():
    # C_k^lam(1) = (2 lam)_k / k!
    for lam in LAMBDAS:
        for k in range(31):
            want = pochhammer(2 * lam, k) / math.factorial(k)
            got = eval_recurrence(lam, k, 1.0)
            assert abs(got - want) <= 1e-12 * abs(want)
    assert eval_recurrence(0.5, 5, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_eval_sequence():
    assert eval_sequence(1.0, 1, 0.5).tolist() == [1.0, 1.0]
    assert eval_sequence(0.5, 3, 1.0) == pytest.approx([1.0, 1.0, 1.0, 1.0], rel=1e-14)
    seq = eval_sequence(2.0, 10, 0.0)
    assert np.all(seq[1::2] == 0.0)
    # matches single evaluations
    for k in range(11):
        assert seq[k] == pytest.approx(eval_recurrence(2.0, k, 0.0), abs=1e-14)


def test_eval_sequence_array():
    xs = np.array([-0.7, 0.0, 0.4])
    seq = eval_sequence(1.5, 8, xs)
    assert seq.shape == (9, 3)
    for j, x in enumerate(xs):
        for k in range(9):
            assert seq[k, j] == pytest.approx(
                eval_recurrence(1.5, k, float(x)), abs=1e-13)


def _recurrence_loop(lam, k, x):
    # the single-degree recurrence as a plain loop: the reference for every
    # single-degree evaluator
    c_prev, c_cur = np.ones_like(x), 2.0 * lam * x
    if k == 0:
        return c_prev
    for m in range(2, k + 1):
        c_prev, c_cur = c_cur, (
            2.0 * (m + lam - 1.0) * x * c_cur - (m + 2.0 * lam - 2.0) * c_prev
        ) / m
    return c_cur


@pytest.mark.parametrize("lam", (0.5, 1.5, 9.0))
@pytest.mark.parametrize("k", (0, 1, 2, 12, 40))
def test_single_degree_evaluators_bit_identical(lam, k):
    xs = np.linspace(-1.0, 1.0, 11)
    want = _recurrence_loop(lam, k, xs)
    assert np.array_equal(eval_recurrence(lam, k, xs), want)
    assert [eval_recurrence(lam, k, float(x)) for x in xs] == want.tolist()
    if lam == 0.5:
        assert np.array_equal(legendre(k, xs), want)
        assert [legendre(k, float(x)) for x in xs] == want.tolist()
    if k >= 1:
        dwant = 2.0 * lam * _recurrence_loop(lam + 1.0, k - 1, xs)
        assert np.array_equal(derivative(lam, k, 1, xs), dwant)
        assert [derivative(lam, k, 1, float(x)) for x in xs] == dwant.tolist()
    assert type(eval_recurrence(lam, k, 0.3)) is float


@pytest.mark.parametrize("lam, k, x", [
    (1.5, np.array([0, 1, 2, 7, 30]), 0.3),
    (0.5, np.array([3, 0, 12, 1]), np.array([-1.0, -0.2, 0.6, 1.0])),
    (9.0, np.array([[0], [5], [17]]), np.linspace(-1.0, 1.0, 6)),
    (np.array([[0.5], [1.5], [-0.5]]), np.array([[4, 0, 9, 2]]), np.array([0.7, -0.4, 0.1, 0.99])),
    (np.array([0.25, 2.5]), 6, 0.45),
])
def test_eval_recurrence_degree_per_element_equals_scalar_calls(lam, k, x):
    got = eval_recurrence(lam, k, x)
    lams, ks, xs = np.broadcast_arrays(lam, k, x)
    assert got.shape == ks.shape
    want = [eval_recurrence(float(a), int(d), float(b)) for a, d, b in zip(lams.flat, ks.flat, xs.flat)]
    assert got.ravel().tolist() == want


@pytest.mark.parametrize("k, named", [
    (-1, "-1"), (np.array([3, -2, 0, -5]), "-5"), (1.5, "1.5"), (np.array([1.0, 2.0]), "1.0"),
    (np.array([]), "float64"),  # an empty array has no degree to name: its dtype
])
def test_eval_recurrence_names_bad_degree(k, named):
    with pytest.raises(ValueError, match=rf"^degree must be a nonnegative integer, got {named}$"):
        eval_recurrence(1.5, k, 0.3)


@pytest.mark.parametrize("x, named", [(1.5, "1.5"), (np.nan, "nan"), (np.array([0.2, -1.0, np.nan]), "nan"),
                                      (np.array([0.3, -1.0 - 1e-9]), "-1.000000001")])
def test_eval_sequence_names_bad_argument(x, named):
    with pytest.raises(ValueError, match=rf"^polynomial argument outside \[-1, 1\], got {named}$"):
        eval_sequence(1.0, 3, x)


def test_eval_sequence_clips_rounding_noise():
    assert np.array_equal(eval_sequence(1.5, 6, 1.0 + 1e-13), eval_sequence(1.5, 6, 1.0))
    assert np.array_equal(eval_sequence(1.5, 6, [-1.0 - 1e-13]), eval_sequence(1.5, 6, [-1.0]))


def test_eval_sequence_broadcasts_lam():
    lams = np.array([0.5, 1.5, 9.0])[:, None]
    xs = np.linspace(-1.0, 1.0, 7)
    seq = eval_sequence(lams, 12, xs)
    assert seq.shape == (13, 3, 7)
    for r, lam in enumerate(lams[:, 0]):
        assert np.array_equal(seq[:, r], eval_sequence(lam, 12, xs))


@pytest.mark.parametrize("K", (0, 1, 2, 17, 128))
def test_eval_sequence_in_place_equals_expression(K):
    xs = np.linspace(-1.0, 1.0, 9)
    lams = np.array([0.5, 1.5, 9.0, 0.25])
    for lam, x in ((1.5, 0.3), (0.5, -1.0), (2.5, xs), (lams[:, None], xs), (lams, 0.7),
                   (lams[:, None, None], np.stack([xs, -xs]))):
        got, want = eval_sequence(lam, K, x), eval_sequence_reference(lam, K, x)
        assert got.shape == want.shape and np.array_equal(got, want), (lam, x)


def test_derivative_trivial():
    assert derivative(1.0, 3, 0, 0.2) == pytest.approx(eval_recurrence(1.0, 3, 0.2), abs=1e-15)
    assert derivative(1.0, 1, 1, 0.77) == pytest.approx(2.0, abs=1e-15)
    assert derivative(1.5, 2, 3, 0.1) == 0.0
    with pytest.raises(ValueError):
        derivative(1.0, 3, -1, 0.0)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("k", (0, 1, 5))
def test_derivative_order_zero_is_the_polynomial(lam, k):
    # order 0 scales the recurrence by exactly 2^0 (lam)_0 = 1.0
    for x in XS:
        got = derivative(lam, k, 0, x)
        assert type(got) is float and got == eval_recurrence(lam, k, x)
    xs = np.array(XS)
    assert np.array_equal(derivative(lam, k, 0, xs), eval_recurrence(lam, k, xs))


def _fd_derivative(f, x, h):
    # 5-point central first derivative
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def test_derivative_first_order_vs_fd():
    h = 1e-5
    for lam in (0.5, 1.5, 2.0):
        for k in (1, 4, 9, 15):
            for x in (-0.6, 0.0, 0.45):
                fd = _fd_derivative(lambda u: eval_explicit(lam, k, u), x, h)
                assert abs(derivative(lam, k, 1, x) - fd) <= 1e-6


def test_derivative_second_order_vs_fd():
    h = 1e-4
    f = lambda u: eval_explicit(1.5, 4, u)
    fd = (f(0.3 + h) - 2 * f(0.3) + f(0.3 - h)) / (h * h)
    assert abs(derivative(1.5, 4, 2, 0.3) - fd) <= 1e-6


def test_legendre_values():
    # P_2(x) = (3x^2 - 1)/2
    assert legendre(2, 0.5) == pytest.approx(-0.125, abs=1e-15)
    for k in (0, 1, 4, 7):
        assert assoc_legendre(k, 0, 0.3) == pytest.approx(legendre(k, 0.3), abs=1e-15)
    # P_1^1(x) = -sqrt(1-x^2)
    assert assoc_legendre(1, 1, 0.6) == pytest.approx(-0.8, abs=1e-15)
    with pytest.raises(ValueError):
        assoc_legendre(2, 3, 0.1)


def test_assoc_legendre_takes_arrays():
    # one path for scalar and array x: P_k^0 = P_k bit for bit, the array
    # equals the per-element calls to rounding (numpy's array power against the
    # C library's pow), and P_2^1 = -3x sqrt(1-x^2), P_2^2 = 3(1-x^2)
    xs = np.linspace(-1.0, 1.0, 37)
    for k in range(8):
        assert np.array_equal(assoc_legendre(k, 0, xs), legendre(k, xs))
        for j in range(k + 1):
            got = assoc_legendre(k, j, xs)
            assert got.shape == xs.shape
            assert got == pytest.approx([assoc_legendre(k, j, float(x)) for x in xs],
                                        rel=1e-14, abs=1e-300)
    assert assoc_legendre(2, 1, xs) == pytest.approx(-3 * xs * np.sqrt(1 - xs * xs), abs=1e-14)
    assert assoc_legendre(2, 2, xs) == pytest.approx(3 * (1 - xs * xs), abs=1e-14)


def test_dimension_params():
    d = DimensionParams(3)
    assert d.c_n == pytest.approx(1.5, rel=1e-14)
    assert (d.lambda_low, d.lambda_mid, d.lambda_high) == (0.5, 1.5, 2.5)
    assert DimensionParams(8).c_n > 0
    with pytest.raises(ValueError):
        DimensionParams(2)
    for n in (3.5, 3.0, "3"):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            DimensionParams(n)
    assert DimensionParams(np.int64(4)).lambda_low == 1.0


def test_c_n_is_computed_once_per_instance(monkeypatch):
    # c_n is an exact big-integer ratio, slow at large n: the first access
    # computes it, later ones read the same float; the frozen fields, equality and hash stay
    calls = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda *args: calls.append(args) or comb(*args))
    for n in (7, 8):
        d = DimensionParams(n)
        first = d.c_n
        assert d.c_n is first and d.c_n == DimensionParams.c_n.func(DimensionParams(n))
        assert d == DimensionParams(n) and hash(d) == hash(DimensionParams(n))
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.n = 9
    assert len(calls) == 4  # one per first access: d.c_n, then the fresh instance of .func


@pytest.mark.parametrize("n", list(range(3, 40)) + [64, 128, 256, 1024, 4096])
def test_c_n_matches_mpmath(n):
    # c_n and the kernel prefactor 2 Gamma((n-1)/2) / (Gamma((n-2)/2) Gamma(1/2)), which
    # constants takes as n(n-2) / (pi c_n), each to a few rounding errors at every n
    c_n = DimensionParams(n).c_n
    with mp.workdps(40):
        want = 2 * mp.gamma(mp.mpf(n + 2) / 2) / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(n - 1) / 2))
        pref = 2 * mp.gamma(mp.mpf(n - 1) / 2) / (mp.gamma(mp.mpf(n - 2) / 2) * mp.sqrt(mp.pi))
        assert abs(c_n / want - 1) <= 3e-16
        assert abs(n * (n - 2.0) / (math.pi * c_n) / pref - 1) <= 3e-16


@pytest.mark.parametrize("n", [4097, 4098, 10001, 100001])
def test_c_n_past_4096_meets_the_exact_ratio(n):
    # past n = 4096 c_n comes in O(1) from the series of Gamma(x + 1/2) / Gamma(x):
    # within 4e-16 of the exact big-integer ratio (divided by pi at even n)
    m = n // 2
    with mp.workdps(40):
        if n % 2:
            want = mp.mpf(n * m * math.comb(2 * m, m)) / mp.mpf(4) ** m
        else:
            want = mp.mpf(2 * m * 4 ** (m - 1)) / math.comb(2 * m - 2, m - 1) / mp.pi
        assert abs(DimensionParams(n).c_n / want - 1) <= 4e-16


def test_c_n_takes_constant_time_at_large_n():
    # one first access at n = 1,000,001 (11 s as the exact ratio), best of three instances
    seconds = []
    for _ in range(3):
        d = DimensionParams(1_000_001)
        t0 = time.perf_counter()
        d.c_n
        seconds.append(time.perf_counter() - t0)
    assert min(seconds) < 1e-3


def test_gamma_ratio():
    # Gamma(5)/Gamma(3) = 24/2
    assert gamma_ratio((5.0,), (3.0,)) == pytest.approx(12.0, rel=1e-14)
    # the argument check adds no arithmetic: the log-Gamma sum, bit for bit
    for numer, denom in [((5.0,), (3.0,)), ((0.5, 2.0), (1.5,)), ((3.5,), (0.5, 3.0)),
                         ((1e-300,), (2.5,)), ((170.5,), (0.25, 100.5)), ((0.75, 1.25), (1e-3, 2.5))]:
        want = math.exp(sum(math.lgamma(a) for a in numer) - sum(math.lgamma(b) for b in denom))
        assert gamma_ratio(numer, denom) == want


@pytest.mark.parametrize("numer, denom, bad", [
    ((0.5, 0.25), (-0.25,), "-0.25"), ((0.0,), (1.0,), "0.0"),
    ((1.0,), (2.0, -1.5), "-1.5"), ((math.nan,), (1.0,), "nan"),
])
def test_gamma_ratio_rejects_nonpositive_arguments(numer, denom, bad):
    # lgamma is log|Gamma|: a negative argument would lose the sign of Gamma
    with pytest.raises(ValueError, match=f"must be positive, got {bad}$"):
        gamma_ratio(numer, denom)


def test_series_cutoff():
    assert series_cutoff(0.0, 1.5, 8192) == 0
    k_half = series_cutoff(0.5, 0.5, 8192)
    k_nine = series_cutoff(0.9, 0.5, 8192)
    assert 8 <= k_half < k_nine
    # the bound rho^K (K+1)^p < tol holds at the returned K
    assert 0.9 ** k_nine < 1e-14
    with pytest.raises(SeriesConvergenceError):
        series_cutoff(0.9, 2.5, 16)
    with pytest.raises(ValueError):
        series_cutoff(1.0, 1.0, 8192)


@pytest.mark.parametrize("rho, lam, K", [(0.99, 99.0, 36), (0.999, 63.0, 292), (0.3, 511.0, 8)])
def test_series_cutoff_overflow_is_convergence_error(rho, lam, K):
    # (K+1)^(2 lam - 1) passes the double range before the tail bound is met
    with pytest.raises(SeriesConvergenceError) as info:
        series_cutoff(rho, lam, 8192)
    assert info.value.terms == K and info.value.tail_estimate == math.inf
    assert f"K={K} " in str(info.value) and f"lam={lam}" in str(info.value)


def test_series_cutoff_cached_and_failure_repeats():
    assert series_cutoff(0.93, 2.5, 8192) == series_cutoff(0.93, 2.5, 8192)
    for _ in range(3):
        with pytest.raises(SeriesConvergenceError):
            series_cutoff(0.93, 2.5, 16)


def _collect_blocks(lams, xs, orders, group=256):
    """{(row, degree): s_k D_k} of every row and degree, read off pair_series.

    Degree d of row r is one pair (lam_r, xs[r], lam_r, 0) with a one-hot weight
    at degree k: lag 0 and k = d for even d, lag 1 and k = d + 1 for odd d. The
    scaled partner row at 0 is exactly D_k(0) = (-1)^(k/2) at even k and 0 at odd
    k, so S / (s_k (-1)^(k/2)) is s_d D_d(x) to within 2 ulps. Rows of different
    orders share a call, `group` pairs at a time.
    """
    got = {}
    for lag in (0, 1):
        cells = [(r, d) for r, K in enumerate(orders) for d in range(lag, K + 1, 2)]
        for lo in range(0, len(cells), group):
            part = cells[lo:lo + group]
            sums = pair_series([(lams[r], xs[r], lams[r], 0.0) for r, _ in part],
                               [np.eye(1, d + lag + 1, d + lag)[0] for _, d in part], lag)
            for (r, d), v in zip(part, sums):
                k = d + lag
                got[r, d] = v / (_scales(lams[r], k)[k] * (-1.0) ** (k // 2))
    return got


def _assert_near_longdouble(got, r, lam, K, x, bound):
    """s_k D_k of row r against the longdouble recurrence, relative to max_x |C_k^lam|."""
    ref = eval_sequence_longdouble(lam, K, x)
    for k in range(K + 1):
        err = np.max(np.abs(got[r, k] - ref[k]))
        assert err <= bound * np.max(np.abs(ref[k])), (k, float(err))


# measured at most 4.1e-14 on these grids (lam 1.5, K = 101), 4.8e-14 on the mixed orders
_BLOCKS_BOUND = 1e-13


@pytest.mark.parametrize("lam", (0.5, 1.5, 9.0))
@pytest.mark.parametrize("K", (0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5))
def test_recurrence_blocks_bit_identical(lam, K):
    # the rows are C_k / s_k, so they no longer equal eval_sequence bit for bit;
    # s_k D_k must meet a longdouble recurrence
    xs = np.linspace(-1.0, 1.0, 9)[None, :]
    got = _collect_blocks([lam], xs, [K])
    assert sorted(got) == [(0, k) for k in range(K + 1)]
    _assert_near_longdouble(got, 0, lam, K, xs[0], _BLOCKS_BOUND)


def test_recurrence_blocks_mixed_orders():
    # every pair of a call steps to the call's longest order, past its own. Then three
    # pairs a call on six columns, 36 entries a degree: from order 160 on, a call
    # steps windows of up to 15 segments of 30 degrees, so the degrees up to 1,400 are
    # read off segment interiors, segment starts, window ends and the plain tails. In
    # the last set the calls that straddle the two rows step pairs of order 0, 2 and 4
    # through 1,400 degrees of stitched windows and the closed form at x = +-1
    lams = (9.0, 0.5, 1.5, 1.5, 0.5)
    orders = (3 * _BLOCK + 5, _BLOCK + 1, _BLOCK, 2, 0)
    xs = np.random.default_rng(3).uniform(-1.0, 1.0, size=(len(lams), 6))
    ends = np.array([[-1.0, -0.6, 0.0, 0.35, 0.9, 1.0], [1.0, 0.2, -0.999, -1.0, 0.5, 0.75]])
    for lams, xs, orders, group in ((lams, xs, orders, 256), ((1.5, 0.5), xs[:2], (1400, 902), 3),
                                    ((1.5, 9.0), ends, (1400, 9), 3)):
        got = _collect_blocks(lams, xs, orders, group)
        for r, (lam, K) in enumerate(zip(lams, orders)):
            _assert_near_longdouble(got, r, lam, K, xs[r], _BLOCKS_BOUND)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="longdouble is double here")
@pytest.mark.parametrize("lam, bound", [
    (0.5, 5e-12),    # measured 1.3e-12; eval_sequence 4.7e-13
    (9.0, 2e-10),    # measured 6.7e-11; eval_sequence 1.8e-11
])
def test_recurrence_blocks_long(lam, bound):
    # the series' term cap: the error grows with the degree, most near |x| = 1.
    # Every degree is one pair, so the cost is quadratic in K: of 64 draws, the
    # 16 nearest +-1 hold the worst case of all 64
    K = SERIES_MAX_TERMS
    draws = np.random.default_rng(5).uniform(-1.0, 1.0, size=64)
    xs = draws[np.argsort(-np.abs(draws))[:16]][None, :]
    _assert_near_longdouble(_collect_blocks([lam], xs, [K]), 0, lam, K, xs[0], bound)


# argument sets with x = +-1, where the recurrence's two solutions stop separating: one
# column, seven up to +-0.9999, and 9 and 13 angles from 0 to pi, t = cos(alpha), as
# profile_parts gets `constant`'s default grid
_ENDS = {
    1: np.array([-1.0]),
    7: np.array([-1.0, 1.0, -0.9999, 0.9999, -0.999, 0.999, 0.3]),
    9: np.cos(np.linspace(0.0, math.pi, 9)),
    13: np.cos(np.linspace(0.0, math.pi, 13)),
}


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="longdouble is double here")
@pytest.mark.parametrize("lag", (0, 2))
@pytest.mark.parametrize("lam, columns, inside", [
    # inside (-1, 1): 2x the worst of 32-degree blocks stepped degree by degree, over
    # both lags; measured 1.03e-14, 9.7e-16, 1.29e-15, 2.60e-13, 2.70e-15 and 8.54e-15
    (0.5, 1, 0.0), (0.5, 7, 2 * 1.33e-14), (0.5, 9, 2 * 1.27e-15), (0.5, 13, 2 * 1.41e-15),
    (9.0, 1, 0.0), (9.0, 7, 2 * 2.35e-13), (9.0, 9, 2 * 1.86e-15), (9.0, 13, 2 * 7.32e-15),
])
def test_pair_series_long_at_the_ends(lam, columns, inside, lag):
    # the term cap up to |x| = 1 in one call of linear cost (windows of 17 to 64
    # segments), relative to the sum of |terms|. At x = +-1 the blocks erred by 1.14e-13
    # (lam 0.5) and 5.42e-12 (lam 9) on every set, the closed form by at most 6e-16 and
    # 7e-15. Values from pass 1's unit-seeded pair alone err by 2.1e-13 and 2.4e-12 at
    # +-0.9999, and by 3.0e-14 on the 13 angles at lam 9
    x = _ENDS[columns]
    w = pair_weights(lam, 0.996, SERIES_MAX_TERMS, lag)
    got = pair_series([(lam, x, lam, x)], [w], lag)[0]
    want, size = pair_sum_longdouble(lam, x, lam, x, w, lag)
    err, ends = np.abs(got - want) / size, np.abs(x) == 1.0
    assert np.max(err[ends]) <= 2 * {0.5: 1.14e-13, 9.0: 5.42e-12}[lam]
    assert np.max(err[~ends], initial=0.0) <= inside


@pytest.mark.parametrize("lam", (0.0, -0.5, math.nan))
def test_recurrence_blocks_rejects_nonpositive_lam(lam):
    # s_2 = lam: the scales vanish or flip sign
    with pytest.raises(ValueError, match="lam must be positive"):
        pair_series([(1.0, 0.2, lam, 0.3)], [pair_weights(1.0, 0.5, 10)])


def test_pair_series_needs_one_weight_row_per_pair():
    pair, w = (1.0, 0.2, 1.0, 0.3), pair_weights(1.0, 0.5, 10)
    for pairs, weights in (([], []), ([pair], []), ([pair], [w, w])):
        with pytest.raises(ValueError) as info:
            pair_series(pairs, weights)
        assert str(info.value) == (f"need one weight row per pair, got {len(pairs)} pairs "
                                   f"and {len(weights)} weight rows")


def test_pair_weights():
    lam, rho = 1.5, 0.7
    w = pair_weights(lam, rho, 10)
    for k in range(11):
        want = math.factorial(k) / pochhammer(2 * lam, k) * rho ** k
        assert w[k] == pytest.approx(want, rel=1e-14)
    lagged = pair_weights(lam, rho, 10, lag=2)
    assert lagged[:2].tolist() == [0.0, 0.0]
    # K = lag: a single weight, rho^lag
    assert pair_weights(lam, rho, 0).tolist() == [1.0]
    assert pair_weights(lam, rho, 2, lag=2).tolist() == [0.0, 0.0, rho * rho]
    for k in range(2, 11):
        want = math.factorial(k - 2) / pochhammer(2 * lam, k - 2) * rho ** k
        assert lagged[k] == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("lag", (0, 1, 2))
def test_pair_series_matches_explicit(lag):
    # more columns than one chunk, pairs of different lengths and lambdas, and
    # series as short as the lag allows, whose terms come from the seeded carry.
    # Then one column: four pairs are 8 entries a degree, so degrees 0..2,047 step
    # in 32 segments of 64 and the order 2,047 ends at that window's last degree;
    # 4,094 ends inside a segment of the next window (36 segments of 75), 5,000
    # inside one of the third (45 of 91), and 9,000 in a short tail stepped plainly
    t = np.linspace(-0.999, 0.999, _COLUMNS + 45)
    x1 = 0.6 * t
    short = {0: [0, 1], 1: [1], 2: [2]}[lag]
    pairs = [(0.5, x1, 0.5, t), (2.5, x1, 1.5, t), (4.0, t, 4.0, 0.3)]
    pairs += [(1.5, x1, 2.5, 0.3)] * len(short)
    orders = [120, 2 * _BLOCK + 3, 300] + short
    one = [(0.5, 0.3, 0.5, -0.7), (1.5, 0.6, 0.5, 0.2), (0.5, -0.95, 1.0, 0.9),
           (0.5, 0.1, 2.5, 0.5)]
    for pairs, orders, rho in ((pairs, orders, 0.9), (one, [9000, 5000, 4094, 2047], 0.999)):
        weights = [pair_weights(lam_a, rho, K, lag) for (lam_a, *_), K in zip(pairs, orders)]
        got = pair_series(pairs, weights, lag)
        assert got.shape == (len(pairs),) + np.shape(pairs[0][1])
        for p, ((lam_a, xa, lam_b, xb), w) in enumerate(zip(pairs, weights)):
            K = len(w) - 1
            xa, xb = np.broadcast_arrays(xa, xb)
            a, b = eval_sequence(lam_a, K, xa), eval_sequence(lam_b, K, xb)
            terms = w[lag:].reshape((-1,) + (1,) * xa.ndim) * a[:K + 1 - lag] * b[lag:]
            # relative to the sum of |terms|, the conditioning of the sum (at lag 1 every
            # term at t = 0 is 0)
            size = np.maximum(np.abs(terms).sum(axis=0), np.finfo(float).tiny)
            err = np.abs(got[p] - terms.sum(axis=0)) / size
            assert np.max(err) <= 1e-14, (K, float(np.max(err)))
    scalar = pair_series([(1.5, 0.2, 1.5, -0.4)], [pair_weights(1.5, 0.5, 40)])
    assert scalar.shape == (1,)


def test_pair_series_one_column_is_its_batch_column():
    # a lone column's window sums its segments in turn, as a batch's does: pairwise (numpy's
    # sum over a contiguous axis) moved the last bit at (n, rho) = (5, 0.9), K = 421, 14 segments.
    # Each call here steps one window of the same segments (K < _WINDOW / 6)
    t = np.array([math.cos(math.pi / 5), math.cos(2.0), 0.3])
    for lam_a, lam_b, K, lag in ((3.5, 1.5, 421, 2), (1.5, 1.5, 2000, 0), (4.0, 3.0, 200, 1)):
        weights = [pair_weights(lam_a, 0.9, K, lag)]
        batch = pair_series([(lam_a, 0.54 * t, lam_b, t)], weights, lag)[0]
        for i in range(t.size):
            one = pair_series([(lam_a, 0.54 * t[i:i + 1], lam_b, t[i:i + 1])], weights, lag)[0]
            assert one[0] == batch[i], (lam_a, K, i)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="longdouble is double here")
@pytest.mark.parametrize("n, rho", [(5, 0.99), (3, 0.995)])
def test_pair_series_lagged_mixed_lambdas(n, rho):
    # as profile_parts calls it: lam_high at s = delta t, lam_low at t, with t = +-1
    dim = DimensionParams(n)
    K = series_cutoff(rho, dim.lambda_low, SERIES_MAX_TERMS)
    assert K >= 3000
    t = np.concatenate(([-1.0, 1.0], np.linspace(-0.999, 0.999, 21)))
    s = (n - 2) / n * rho * t
    w = pair_weights(dim.lambda_high, rho, K, lag=2)
    got = pair_series([(dim.lambda_high, s, dim.lambda_low, t)], [w], lag=2)[0]
    want, size = pair_sum_longdouble(dim.lambda_high, s, dim.lambda_low, t, w, 2)
    assert np.max(np.abs(got - want) / size) <= 1e-14


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="longdouble is double here")
@pytest.mark.parametrize("n, rho", [(32, 0.05), (32, 0.7), (64, 0.3), (64, 0.7),
                                    (100, 0.5), (127, 0.05)])
def test_pair_series_large_lambda(n, rho):
    # the curvature pairs up to the largest n whose lam_high series_cutoff still
    # orders (100 at rho 0.5, 127 at 0.05): the weights w_k s_k^2 stay finite
    dim = DimensionParams(n)
    t = np.linspace(0.0, 0.999, 11)
    x1 = (n - 2) / n * rho * t
    for lam in (dim.lambda_low, dim.lambda_mid, dim.lambda_high):
        w = pair_weights(lam, rho, series_cutoff(rho, lam, SERIES_MAX_TERMS))
        got = pair_series([(lam, x1, lam, t)], [w])[0]
        want, size = pair_sum_longdouble(lam, x1, lam, t, w, 0)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want) / size) <= 1e-14
