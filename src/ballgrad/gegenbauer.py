"""Gegenbauer (ultraspherical), Legendre, and associated Legendre polynomials.

Evaluation is recurrence-based: eval_sequence runs the three-term recurrence
for scalar or array arguments (lam broadcasts too), stepping each degree in
place in its row of the result, and eval_recurrence, the public single-degree
evaluator, reads each element's degree off it; _own_degrees steps each row only
to its own degree, for the kink oracle's rows of mixed degree. Gamma-ratio
constants are computed through log-Gamma so they stay finite for large arguments.

Every rho-power series of the package runs through one engine,
`pair_series`: it steps the recurrence for a stack of (lam, argument) rows at
once from the seed D_(-2) = -1, D_(-1) = 0, scaled to D_k = C_k^lam / s_k so
that a step is one multiply and one subtract, W degrees in O(sqrt(W)) numpy calls
(stitched segments), and sums weighted products of two rows with einsum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionParams",
    "SeriesConvergenceError",
    "pochhammer",
    "gamma_ratio",
    "eval_recurrence",
    "eval_sequence",
    "legendre",
    "assoc_legendre",
    "SERIES_TAIL_TOL",
    "SERIES_MAX_TERMS",
    "series_cutoff",
    "pair_weights",
    "pair_series",
]

# slack for arguments that should lie in [-1, 1] but carry rounding noise
# (e.g. cos*cos + sin*sin*cos combinations)
_ARG_TOL = 1e-12
# windows of the stacked recurrence (see pair_series); argument columns per chunk
_BLOCK = 32
_WINDOW = 1 << 14
_SEGMENTED = 160
_COLUMNS = 256
# every rho-power series stops at the first K with rho^K (K+1)^max(2 lam - 1, 0) below this
SERIES_TAIL_TOL = 1e-14
# default term cap of every rho-power series (the --max-terms of `ballgrad constant`)
SERIES_MAX_TERMS = 8192


class SeriesConvergenceError(RuntimeError):
    """A power series failed to meet its tail tolerance within the term cap."""

    def __init__(self, message: str, terms: int, tail_estimate: float):
        super().__init__(message)
        self.terms = terms
        self.tail_estimate = tail_estimate


@dataclass(frozen=True)
class DimensionParams:
    """Ambient dimension n >= 3 with the polynomial orders and normalization it induces."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"dimension must be an integer, got {self.n!r}")
        if self.n < 3:
            raise ValueError(f"dimension must be at least 3, got {self.n}")

    @property
    def lambda_low(self) -> float:
        return (self.n - 2) / 2.0

    @property
    def lambda_mid(self) -> float:
        return self.n / 2.0

    @property
    def lambda_high(self) -> float:
        return (self.n + 2) / 2.0

    @functools.cached_property
    def c_n(self) -> float:
        """Normalization 2*Gamma((n+2)/2) / (Gamma(1/2)*Gamma((n-1)/2)), rounded once
        from (2m+1) m C(2m, m) / 4^m at n = 2m+1, then / pi from 2m 4^(m-1) / C(2m-2, m-1),
        on first access; cached_property keeps it on the frozen instance. Past n = 4096, in O(1):
        n Gamma(x + 1/2) / (sqrt(pi) Gamma(x)), x = (n-1)/2, by the ratio's series in 1/x
        (DLMF 5.11.13), whose next term is below 1e-19 there."""
        n, m = int(self.n), int(self.n) // 2
        if n > 4096:
            y = 2.0 / (n - 1)
            return math.sqrt(0.5 * (n - 1) * n * n / math.pi) * (
                1.0 + y * (-1 / 8 + y * (1 / 128 + y * (5 / 1024 - y * 21 / 32768))))
        if n % 2:
            return n * m * math.comb(2 * m, m) / 4 ** m
        return 2 * m * 4 ** (m - 1) / math.comb(2 * m - 2, m - 1) / math.pi


def _dimension(n) -> DimensionParams:
    """n as a DimensionParams: an int n is wrapped, and a bad n named, by DimensionParams."""
    return n if isinstance(n, DimensionParams) else DimensionParams(n)


def _checked_rho(rho: float) -> float:
    """rho; ValueError names it unless it lies in [0, 1) (NaN included)."""
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    return rho


def _inside(v, bound: float, message: str, closed: bool = False) -> np.ndarray:
    """v as a float array; ValueError appends its first element outside
    (-bound, bound), or [-bound, bound] if closed, to message (NaN included)."""
    v = np.asarray(v, dtype=float)
    bad = v[~(np.abs(v) <= bound if closed else np.abs(v) < bound)]
    if bad.size:
        raise ValueError(f"{message}, got {bad[0]}")
    return v


def pochhammer(lam: float, k: int) -> float:
    """Shifted factorial (lam)_k = lam*(lam+1)*...*(lam+k-1), with (lam)_0 = 1."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    out = 1.0
    for j in range(k):
        out *= lam + j
    if math.isinf(out):
        raise OverflowError(f"pochhammer({lam}, {k}) exceeds the double range")
    return out


def gamma_ratio(numer, denom) -> float:
    """prod Gamma(numer) / prod Gamma(denom) via log-Gamma, which drops the sign
    of Gamma: ValueError names the first argument that is not positive."""
    bad = [a for a in (*numer, *denom) if not a > 0.0]
    if bad:
        raise ValueError(f"gamma_ratio arguments must be positive, got {bad[0]}")
    s = sum(math.lgamma(a) for a in numer) - sum(math.lgamma(b) for b in denom)
    return math.exp(s)


def _clipped(x):
    """x clipped to [-1, 1]; _inside names one beyond it by more than _ARG_TOL, or NaN."""
    return np.clip(_inside(x, 1.0 + _ARG_TOL, "polynomial argument outside [-1, 1]", closed=True),
                   -1.0, 1.0)


def _value(v):
    """A 0-d result as a Python float; arrays pass through."""
    return float(v) if np.ndim(v) == 0 else v


def eval_recurrence(lam, k, x):
    """C_k^lam(x) off one eval_sequence table, k a degree or an integer array of one
    degree per element; k, lam and x broadcast. A 0-d result is a float."""
    k = np.asarray(k)
    if k.dtype.kind not in "iu" or k.min(initial=0) < 0:  # one reduction for a valid k
        raise ValueError("degree must be a nonnegative integer, got "
                         f"{k.min() if k.size else k.dtype}")  # an empty array: its dtype
    if not k.any():  # every degree 0: C_0 = 1, no table
        return _value(np.ones(np.broadcast_shapes(k.shape, np.shape(lam), _clipped(x).shape)))
    seq = eval_sequence(lam, int(k.max()), x)
    k = np.broadcast_to(k, np.broadcast_shapes(k.shape, seq.shape[1:]))
    seq = seq.reshape(seq.shape[:1] + (1,) * (k.ndim + 1 - seq.ndim) + seq.shape[1:])
    return _value(np.take_along_axis(seq, k[None], 0)[0])


def eval_sequence(lam, K: int, x) -> np.ndarray:
    """All of C_0^lam(x), ..., C_K^lam(x) in one recurrence pass.

    lam and x may be scalars or ndarrays that broadcast against each other,
    so rows with different lam run as one stack; the leading axis of the
    result indexes the degree. One multiply writes 2(m + lam - 1) x for every
    degree, then each degree steps in place in its own row (_step): four
    ufunc calls a degree, none of which allocates.
    """
    if K < 0:
        raise ValueError(f"K must be nonnegative, got {K}")
    xa = _clipped(x)
    lam = np.asarray(lam, dtype=float)
    shape = np.broadcast_shapes(lam.shape, xa.shape)
    out = np.empty((K + 1,) + shape)
    out[0] = 1.0
    out[1:2] = 2.0 * lam * xa
    deg = np.arange(2, K + 1).reshape((-1,) + (1,) * len(shape))
    np.multiply(2.0 * (deg + lam - 1.0), xa, out=out[2:])
    back, tmp = deg + 2.0 * lam - 2.0, np.empty(shape)
    for m in range(2, K + 1):
        _step(out[m, ...], out[m - 1], out[m - 2], back[m - 2], m, tmp)
    return out


def _step(cur, prev, prev2, back, m: int, tmp) -> None:
    """One degree of the three-term recurrence, in place: cur holds 2(m + lam - 1) x
    on entry and C_m^lam(x) on exit, from prev = C_(m-1) and prev2 = C_(m-2), with
    back = m + 2 lam - 2. The operations and their order are those of
    (2(m + lam - 1) x C_(m-1) - (m + 2 lam - 2) C_(m-2)) / m, so the rows are the
    same bit for bit; tmp is scratch of cur's shape."""
    cur *= prev
    cur -= np.multiply(back, prev2, out=tmp)
    cur /= m


def _own_degrees(lam: float, k, x) -> np.ndarray:
    """C_(k_i)^lam(x_i), k 1-D and x's leading axis its rows i: eval_sequence(lam, max(k),
    x)[k, arange] bit for bit, for the kink oracle's rows of mixed degree. Sorted by degree,
    step m runs over the suffix of rows of degree >= m alone, in three rolling rows (C_m in
    rows[m % 3]; a later step writes only rows of higher degree): a row of degree k takes k
    steps, not max(k), and 3 cells a point, not max(k) + 1."""
    order = np.argsort(k, kind="stable")
    k, x = k[order], _clipped(x)[order]
    rows, tmp = np.empty((3,) + x.shape), np.empty(x.shape)
    rows[0], rows[1] = 1.0, 2.0 * lam * x
    for m, lo in enumerate(np.searchsorted(k, np.arange(2, k.max(initial=0) + 1)).tolist(), 2):
        cur = np.multiply(2.0 * (m + lam - 1.0), x[lo:], out=rows[m % 3, lo:])
        _step(cur, rows[(m - 1) % 3, lo:], rows[(m - 2) % 3, lo:], m + 2.0 * lam - 2.0, m,
              tmp[lo:])
    out = np.empty(x.shape)
    out[order] = rows[k % 3, np.arange(k.size)]
    return out


def legendre(k, x):
    """Legendre polynomial P_k(x) = C_k^{1/2}(x); k and x as in eval_recurrence."""
    return eval_recurrence(0.5, k, x)


def assoc_legendre(k: int, j: int, x):
    """Associated Legendre function (-1)^j (1-x^2)^{j/2} d^j/dx^j P_k(x), the
    derivative being 2^j (1/2)_j C_{k-j}^{1/2+j}(x); x scalar or ndarray."""
    if not 0 <= j <= k:
        raise ValueError(f"need 0 <= j <= k, got j={j}, k={k}")
    xa = _clipped(x)
    dj = 2.0 ** j * pochhammer(0.5, j) * eval_sequence(0.5 + j, k - j, xa)[-1]
    return _value((-1.0) ** j * (1.0 - xa * xa) ** (j / 2.0) * dj)


@functools.lru_cache(maxsize=1024)
def series_cutoff(rho: float, lam: float, max_terms: int) -> int:
    """Truncation index for series with terms bounded by C_k^lam(1)-type growth.

    Since |C_k^lam| <= C_k^lam(1) ~ k^(2*lam-1), the tail of a rho-power series
    is controlled once rho^K (K+1)^max(2*lam-1, 0) drops below SERIES_TAIL_TOL;
    returns the first such K >= 8, or 0 at rho = 0. Past max_terms terms, or
    where the bound (K+1)^(2*lam-1) passes the double range (large lam,
    tail_estimate = inf), it raises SeriesConvergenceError. The one check of
    the cap: max_terms below 8 is a ValueError, for every caller. Orders are
    cached; a failure is not cached and raises on every call.
    """
    if max_terms < 8:
        raise ValueError(f"max_terms must be at least 8, got {max_terms}")
    if _checked_rho(rho) == 0.0:
        return 0
    p = max(2.0 * lam - 1.0, 0.0)
    K = 8
    power = rho ** K
    try:
        while power * (K + 1.0) ** p >= SERIES_TAIL_TOL:
            K += 1
            power *= rho
            if K > max_terms:
                raise SeriesConvergenceError(
                    f"series tail still above {SERIES_TAIL_TOL:g} after "
                    f"{max_terms} terms (rho={rho}, lam={lam})",
                    terms=K,
                    tail_estimate=power * (K + 1.0) ** p,
                )
    except OverflowError:
        raise SeriesConvergenceError(
            f"tail bound (K+1)^{p:g} exceeds the double range at K={K} "
            f"(rho={rho}, lam={lam})",
            terms=K,
            tail_estimate=math.inf,
        ) from None
    return K


def pair_weights(lam: float, rho: float, K: int, lag: int = 0) -> np.ndarray:
    """Weights w_k = (j!/(2 lam)_j) rho^k, j = k - lag, for k = 0..K (zero for k < lag).

    Both factors are running products in increasing k, j!/(2 lam)_j by the
    factors j/(2 lam + j - 1) and rho^k by rho.
    """
    f = np.ones(K + 1 - lag)
    f[1:2] = 1.0 / (2.0 * lam)
    j = np.arange(2.0, f.size)
    f[2:] = j / (2.0 * lam + j - 1.0)
    r = np.full(K + 1, rho)
    r[0] = 1.0
    w = np.zeros(K + 1)
    w[lag:] = np.cumprod(f) * np.cumprod(r)[lag:]
    return w


def _scales(lam: float, K: int) -> np.ndarray:
    """s_0, ..., s_K: s_0 = s_1 = 1 and s_m = s_(m-2) (m + 2 lam - 2)/m."""
    s = np.ones(K + 1)
    f = (np.arange(0.0, K - 1) + 2.0 * lam) / np.arange(2.0, K + 1)
    s[2::2], s[3::2] = np.cumprod(f[0::2]), np.cumprod(f[1::2])
    return s


def _steps(rows, ax) -> None:
    """rows[j + 2] = ax[j] rows[j + 1] - rows[j] in place, two ufunc calls a degree."""
    r = list(rows)
    for j, axj in enumerate(list(ax)):
        np.multiply(axj, r[j + 1], out=r[j + 2])
        np.subtract(r[j + 2], r[j], out=r[j + 2])


def _stitched(rows, carry) -> np.ndarray:
    """Steps a window in place; returns its carry out. rows[j + 2, s] holds a_m x,
    m = m_s + j, of segment s and takes D_m; rows[:2, s] take D_(m_s-2), D_(m_s-1).
    Pass 1's unit-seeded pair chains estimates c_s of the carries, pass 2 steps from
    them, and d_s = true carry - c_s times the pair corrects it: the pair cancels near
    |x| = 1, but d_s is small, so the error is the degree-by-degree loop's."""
    rows[:2, 0] = carry
    P = rows.shape[1]
    if P == 1:
        _steps(rows, rows[2:])
        return rows[-2:, 0]
    uv = np.zeros((len(rows), 2) + rows.shape[1:])  # (degree, seed, segment, row, column)
    uv[0, 0] = uv[1, 1] = 1.0
    _steps(uv, rows[2:, None])
    for s in range(1, P):  # uv[-2:, i, s]: the carry out of segment s from seed i
        np.einsum("i...,di...->d...", rows[:2, s - 1], uv[-2:, :, s - 1], out=rows[:2, s])
    c = np.concatenate([rows[:2], np.zeros_like(rows[:2, :1])], axis=1)  # c_P = 0
    _steps(rows, rows[2:])
    d = np.concatenate([np.zeros_like(c[:, :1]), rows[-2:] - c[:, 1:]], axis=1)
    for s in range(1, P + 1):  # d_s: the true carry into segment s less c_s; d_P: the carry out
        d[:, s] += np.einsum("di...,i...->d...", uv[-2:, :, s - 1], d[:, s - 1])
    uv *= d[:, :P]
    rows += uv[:, 0]
    rows += uv[:, 1]
    return d[:, P]


def pair_series(pairs, weights, lag: int = 0) -> np.ndarray:
    """Weighted sums of products of two Gegenbauer sequences, one per pair.

    pairs[p] = (lam_a, x_a, lam_b, x_b) and weights[p] = (w_0, ..., w_K):
    returns S[p] = sum_{k=lag}^{K} w_k C_{k-lag}^{lam_a}(x_a) C_k^{lam_b}(x_b),
    elementwise over the arguments, which broadcast to one common shape.
    Needs 0 <= lag <= 2 and positive lam.

    All rows run as one stacked three-term recurrence of max(K) steps, in chunks of
    _COLUMNS argument columns; every pair runs to the call's longest cutoff, with zero
    weights past its own K (a row overflowing before then, lam above about 170 at K = 8,192,
    70 at x = +-1, beyond any cutoff series_cutoff grants, makes its pair's sum nan). Rows
    D_k = C_k^lam / s_k make a step D_m = a_m x D_(m-1) - D_(m-2), a_m = 2(m + lam - 1)/m
    s_(m-1)/s_m, one multiply and one subtract; the weights take the scales. From the
    seed D_(-2) = -1, D_(-1) = 0 the degrees run in windows of W >= _BLOCK degrees, about
    _WINDOW entries; from _SEGMENTED degrees (measured no faster below 128-192) a window
    steps in P = isqrt(W/2) segments of L = W // P at once (_stitched: about 4L + 3P numpy
    calls, not 2W). At x = +-1 the rows are (+-1)^k C_k^lam(1) / s_k, C_k^lam(1) = (2 lam)_k / k!.
    """
    if not 0 <= lag <= 2:
        raise ValueError(f"lag must lie in [0, 2], got {lag}")
    if not 0 < len(pairs) == len(weights):
        raise ValueError(f"need one weight row per pair, got {len(pairs)} pairs "
                         f"and {len(weights)} weight rows")
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                 for lam_a, xa, lam_b, xb in pairs for v in (xa, xb)))
    lams = [float(lam) for pair in pairs for lam in (pair[0], pair[2])]
    if not all(lam > 0.0 for lam in lams):  # s_2 = lam
        raise ValueError(f"lam must be positive, got {lams}")
    x = np.stack([v.ravel() for v in args])
    top, distinct = max(len(wp) for wp in weights) - 1, sorted(set(lams))
    scales = {lam: _scales(lam, top) for lam in distinct}
    w = np.zeros((top + 1, len(pairs)))
    for p, wp in enumerate(weights):
        k, s_a, s_b = len(wp) - 1, scales[lams[2 * p]], scales[lams[2 * p + 1]]
        w[lag:k + 1, p] = wp[lag:] * s_a[:k + 1 - lag] * s_b[lag:k + 1]
    a, m = np.zeros((len(distinct), top + 1)), np.arange(1.0, top + 1)
    at_one = np.ones((len(distinct), top + 3))  # D_k(1) at k + 2; k < 0 meets zero weights
    for i, lam in enumerate(distinct):
        a[i, 1:] = 2.0 * ((m - 1.0) + lam) / m * (scales[lam][:-1] / scales[lam][1:])
        at_one[i, 3:] = np.cumprod((m + 2.0 * lam - 1.0) / m) / scales[lam][1:]
    del scales
    row_lam = np.array([distinct.index(lam) for lam in lams])
    out = np.zeros((len(pairs), x.shape[1]))
    for lo in range(0, x.shape[1], _COLUMNS):
        xc = x[:, lo:lo + _COLUMNS]
        carry, m0 = np.stack([-np.ones(xc.shape), np.zeros(xc.shape)]), 0  # D_(-2), D_(-1)
        while m0 <= top:
            n = min(max(_BLOCK, _WINDOW // xc.size), top + 1 - m0)
            seg = math.isqrt(n // 2) if n >= _SEGMENTED else 1
            n -= n % seg
            rows = np.empty((n // seg + 2, seg) + xc.shape)
            ax = a[row_lam, m0:m0 + n].T.reshape(seg, -1, len(lams)).swapaxes(0, 1)
            np.multiply(ax[..., None], xc, out=rows[2:])
            carry[:] = _stitched(rows, carry)
            r, c = np.nonzero(np.abs(xc) == 1.0)
            if r.size:
                j = np.add.outer(np.arange(len(rows)), n // seg * np.arange(seg))[..., None]
                rows[:, :, r, c] = at_one[row_lam[r], m0 + j] * xc[r, c] ** (m0 - 2 + j)
            wk = w[m0:m0 + n].reshape(seg, -1, len(pairs)).swapaxes(0, 1)
            ra, rb = rows[2 - lag:len(rows) - lag, :, 0::2], rows[2:, :, 1::2]
            # the segments in turn (cumsum), as sum(0) adds them for two or more columns: for
            # one it adds them pairwise, and a query's bits would depend on its batch
            out[:, lo:lo + _COLUMNS] += np.cumsum(np.einsum("ksp,kspt,kspt->spt", wk, ra, rb),
                                                  0)[-1]
            m0 += n
            del rows, ra, rb  # free this window before the next one is allocated
    return out.reshape((len(pairs),) + args[0].shape)
