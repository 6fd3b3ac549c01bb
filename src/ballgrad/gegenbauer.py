"""Gegenbauer (ultraspherical), Legendre, and associated Legendre polynomials.

Evaluation is recurrence-based: eval_sequence runs the three-term recurrence
for scalar or array arguments (lam broadcasts too), stepping each degree in
place in its row of the result, and eval_recurrence, the one single-degree
evaluator, reads each element's degree off it. Gamma-ratio constants are
computed through log-Gamma so they stay finite for large arguments.

Every rho-power series of the package runs through one engine,
`pair_series`: it steps the recurrence for a stack of (lam, argument) rows at
once from the seed D_(-2) = -1, D_(-1) = 0, in blocks of degrees, scaled to
D_k = C_k^lam / s_k so that a step is one multiply and one subtract, and sums
weighted products of two rows per block with one einsum, scales in the weights.
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
# degrees per block of the stacked recurrence, and argument columns per chunk:
# the block buffers stay near 1 MB for a handful of rows
_BLOCK = 32
_COLUMNS = 256
# every rho-power series stops at the first K with rho^K (K+1)^max(2 lam - 1, 0) below this
SERIES_TAIL_TOL = 1e-14
# default term cap of every rho-power series (the CLI's --max-terms)
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

    @property
    def c_n(self) -> float:
        """Normalization 2*Gamma((n+2)/2) / (Gamma(1/2)*Gamma((n-1)/2)), rounded once
        from (2m+1) m C(2m, m) / 4^m at n = 2m+1, then / pi from 2m 4^(m-1) / C(2m-2, m-1)."""
        n, m = int(self.n), int(self.n) // 2
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
    if k.dtype.kind not in "iu" or k.min() < 0:  # one reduction for a valid k
        raise ValueError(f"degree must be a nonnegative integer, got {k.min()}")
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


def pair_series(pairs, weights, lag: int = 0) -> np.ndarray:
    """Weighted sums of products of two Gegenbauer sequences, one per pair.

    pairs[p] = (lam_a, x_a, lam_b, x_b) and weights[p] = (w_0, ..., w_K):
    returns S[p] = sum_{k=lag}^{K} w_k C_{k-lag}^{lam_a}(x_a) C_k^{lam_b}(x_b),
    elementwise over the arguments, which broadcast to one common shape.
    Needs 0 <= lag <= 2 and positive lam.

    All rows run as one stacked three-term recurrence of max(K) steps, in
    chunks of _COLUMNS argument columns and blocks of _BLOCK degrees, longest
    series first so that the active rows are a prefix; a pair stops adding
    terms at its own K. The rows are D_k = C_k^lam / s_k (s_k from _scales),
    so a step D_m = a_m x D_(m-1) - D_(m-2), a_m = 2(m + lam - 1)/m s_(m-1)/s_m,
    is one multiply and one subtract, and the weights take the scales,
    w_k s_(k-lag)(lam_a) s_k(lam_b), as prefixes of one s table per distinct
    lam, which also gives that lam's a_m table. One einsum sums each block.
    Each block steps all its degrees from two carry rows, the first block from
    the seed D_(-2) = -1, D_(-1) = 0, whose step a_0 = 0 gives D_0 = 1 exactly.
    """
    if not 0 <= lag <= 2:
        raise ValueError(f"lag must lie in [0, 2], got {lag}")
    if not 0 < len(pairs) == len(weights):
        raise ValueError(f"need one weight row per pair, got {len(pairs)} pairs "
                         f"and {len(weights)} weight rows")
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                 for lam_a, xa, lam_b, xb in pairs for v in (xa, xb)))
    shape = args[0].shape
    order = sorted(range(len(pairs)), key=lambda p: -len(weights[p]))
    lams = [float(lam) for p in order for lam in (pairs[p][0], pairs[p][2])]
    if not all(lam > 0.0 for lam in lams):  # s_2 = lam
        raise ValueError(f"lam must be positive, got {lams}")
    x = np.stack([args[2 * p + i].ravel() for p in order for i in (0, 1)])
    K = np.array([len(weights[p]) - 1 for p in order])
    top, distinct = int(K[0]), sorted(set(lams))
    scales = {lam: _scales(lam, top) for lam in distinct}
    w = np.zeros((top + 1, len(order)))
    for col, p in enumerate(order):
        k, s_a, s_b = K[col], scales[lams[2 * col]], scales[lams[2 * col + 1]]
        w[lag:k + 1, col] = weights[p][lag:] * s_a[:k + 1 - lag] * s_b[lag:k + 1]
    a, m = np.zeros((len(distinct), top + 1)), np.arange(1.0, top + 1)
    for i, lam in enumerate(distinct):
        a[i, 1:] = 2.0 * ((m - 1.0) + lam) / m * (scales[lam][:-1] / scales[lam][1:])
    del scales
    row_lam = np.array([distinct.index(lam) for lam in lams])
    total = np.zeros((len(order), x.shape[1]))
    for lo in range(0, x.shape[1], _COLUMNS):
        xc = x[:, lo:lo + _COLUMNS]
        acc = total[:, lo:lo + _COLUMNS]
        buf = np.zeros((_BLOCK + 2,) + xc.shape)
        buf[_BLOCK] = -1.0  # the carry into degree 0: D_(-2) = -1, D_(-1) = 0
        ax = np.empty((_BLOCK,) + xc.shape)  # a_m x for every step of a block
        for m0 in range(0, top + 1, _BLOCK):
            nb = min(_BLOCK, top + 1 - m0)
            npair = int(np.count_nonzero(K >= m0))
            act = 2 * npair
            rows = buf[:nb + 2, :act]
            rows[:2] = buf[_BLOCK:, :act]
            np.multiply(a[row_lam[:act], m0:m0 + nb].T[:, :, None], xc[:act], out=ax[:nb, :act])
            c, axs = list(rows), list(ax[:nb, :act])
            for j in range(nb):
                cur = c[j + 2]
                np.multiply(axs[j], c[j + 1], out=cur)
                np.subtract(cur, c[j], out=cur)
            acc[:npair] += np.einsum("kp,kpt,kpt->pt", w[m0:m0 + nb, :npair],
                                     rows[2 - lag:2 - lag + nb, 0::2], rows[2:, 1::2])
    out = np.empty_like(total)
    out[order] = total
    return out.reshape((len(pairs),) + shape)
