"""Gegenbauer (ultraspherical), Legendre, and associated Legendre polynomials.

Evaluation is recurrence-based: eval_sequence runs the three-term recurrence
for scalar or array arguments (lam broadcasts too), stepping each degree in
place in its row of the result, and the single-degree evaluators take its
last row. Gamma-ratio constants are computed through
log-Gamma so they stay finite for large arguments.

Every rho-power series of the package runs through one engine:
`recurrence_blocks` steps the recurrence for a stack of (lam, argument) rows
at once, in blocks of degrees, scaled to D_k = C_k^lam / s_k so that a step
is one multiply and one subtract, and `pair_series` sums weighted products of
two rows per block with one einsum, the scales folded into its weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GegenbauerIndex",
    "DimensionParams",
    "SeriesConvergenceError",
    "pochhammer",
    "gamma_ratio",
    "eval_recurrence",
    "eval_sequence",
    "derivative",
    "legendre",
    "assoc_legendre",
    "SERIES_TAIL_TOL",
    "SERIES_MAX_TERMS",
    "series_cutoff",
    "pair_weights",
    "recurrence_blocks",
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
class GegenbauerIndex:
    """Index pair (lam, degree) of the ultraspherical polynomial C_degree^lam."""

    lam: float
    degree: int

    def __post_init__(self):
        if not self.lam > -0.5:
            raise ValueError(f"lam must exceed -1/2, got {self.lam}")
        if self.degree < 0:
            raise ValueError(f"degree must be nonnegative, got {self.degree}")


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


def _checked_rho(rho: float) -> float:
    """rho; ValueError names it unless it lies in [0, 1) (NaN included)."""
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    return rho


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
    """prod Gamma(numer) / prod Gamma(denom) via log-Gamma; arguments must be positive."""
    s = sum(math.lgamma(a) for a in numer) - sum(math.lgamma(b) for b in denom)
    return math.exp(s)


def _clipped(x):
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + _ARG_TOL):
        raise ValueError("polynomial argument outside [-1, 1]")
    return np.clip(x, -1.0, 1.0)


def _value(v):
    """A 0-d result as a Python float; arrays pass through."""
    return float(v) if np.ndim(v) == 0 else v


def eval_recurrence(idx: GegenbauerIndex, x):
    """C_k^lam(x) by the numerically stable three-term recurrence.

    x may be a scalar (float result) or an ndarray (array result).
    """
    return _value(eval_sequence(idx.lam, idx.degree, x)[-1])


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
    if K >= 1:
        out[1] = 2.0 * lam * xa
    if K >= 2:
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


def derivative(idx: GegenbauerIndex, order: int, x):
    """m-th derivative of C_k^lam at x: 2^m (lam)_m C_{k-m}^{lam+m}(x); 0 for m > k.

    x may be a scalar (float result) or an ndarray (array result).
    """
    if order < 0:
        raise ValueError(f"derivative order must be nonnegative, got {order}")
    if order > idx.degree:
        return _value(np.zeros(np.shape(x)))
    if order == 0:
        return eval_recurrence(idx, x)
    lam, k = idx.lam, idx.degree
    scale = (2.0 ** order) * pochhammer(lam, order)
    return _value(scale * eval_sequence(lam + order, k - order, x)[-1])


def legendre(k: int, x):
    """Legendre polynomial P_k(x) = C_k^{1/2}(x); x scalar or ndarray."""
    return eval_recurrence(GegenbauerIndex(0.5, k), x)


def assoc_legendre(k: int, j: int, x: float) -> float:
    """Associated Legendre function (-1)^j (1-x^2)^{j/2} d^j/dx^j P_k(x)."""
    if not 0 <= j <= k:
        raise ValueError(f"need 0 <= j <= k, got j={j}, k={k}")
    if j == 0:
        return legendre(k, x)
    xv = float(_clipped(x))
    dj = derivative(GegenbauerIndex(0.5, k), j, xv)
    return ((-1.0) ** j) * (1.0 - xv * xv) ** (j / 2.0) * dj


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
    if f.size > 1:
        f[1] = 1.0 / (2.0 * lam)
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


def recurrence_blocks(lams, xs, orders):
    """Run the scaled three-term recurrence for a stack of rows, _BLOCK degrees at a time.

    Row r is D_k = C_k^lam / s_k (s_k from _scales) at lam = lams[r] > 0 and the
    arguments xs[r, :]: D_m = a_m x D_(m-1) - D_(m-2) with a_m = 2(m + lam - 1)/m
    s_(m-1)/s_m, one multiply and one subtract per degree, a_m from one table per
    distinct lam. `orders` gives the last degree each row needs, in nonincreasing
    order. Yields (m0, act, buf) per block: buf[j, r] = D_(m0-2+j) for the rows
    r < act whose order reaches m0, where buf[0:2] repeats the last two degrees
    of the previous block (zeros below degree 0) and buf[2:] holds the block's
    degrees. The buffer is reused: consume each block before asking for the next.
    """
    lams = np.asarray(lams, dtype=float)
    orders = np.asarray(orders, dtype=int)
    x = np.asarray(xs, dtype=float)
    if np.any(np.diff(orders) > 0):
        raise ValueError("rows must come in nonincreasing order of their orders")
    if not np.all(lams > 0.0):  # s_2 = lam
        raise ValueError(f"lam must be positive, got {lams.tolist()}")
    top = int(orders[0])
    distinct, row_lam = np.unique(lams, return_inverse=True)
    a, m = np.zeros((distinct.size, top + 1)), np.arange(1.0, top + 1)
    for i, lam in enumerate(distinct):
        s = _scales(lam, top)
        a[i, 1:] = 2.0 * ((m - 1.0) + lam) / m * (s[:-1] / s[1:])
    buf = np.zeros((_BLOCK + 2,) + x.shape)
    ax = np.empty((_BLOCK,) + x.shape)  # a_m x for every step of a block
    for m0 in range(0, top + 1, _BLOCK):
        nb = min(_BLOCK, top + 1 - m0)
        act = int(np.count_nonzero(orders >= m0))
        rows = buf[:nb + 2, :act]
        if m0:
            rows[:2] = buf[_BLOCK:, :act]
        np.multiply(a[row_lam[:act], m0:m0 + nb].T[:, :, None], x[:act], out=ax[:nb, :act])
        if m0 == 0:
            rows[2] = 1.0  # D_0; D_1 = a_1 x D_0 - D_(-1) is a step, with D_(-1) = 0
        c, axs = list(rows), list(ax[:nb, :act])
        for j in range(1 if m0 == 0 else 0, nb):
            cur = c[j + 2]
            np.multiply(axs[j], c[j + 1], out=cur)
            np.subtract(cur, c[j], out=cur)
        yield m0, act, rows


def pair_series(pairs, weights, lag: int = 0) -> np.ndarray:
    """Weighted sums of products of two Gegenbauer sequences, one per pair.

    pairs[p] = (lam_a, x_a, lam_b, x_b) and weights[p] = (w_0, ..., w_K):
    returns S[p] = sum_{k=lag}^{K} w_k C_{k-lag}^{lam_a}(x_a) C_k^{lam_b}(x_b),
    elementwise over the arguments, which broadcast to one common shape.
    All rows run as one stacked recurrence (recurrence_blocks) of max(K)
    steps, in chunks of _COLUMNS argument columns; a pair stops adding terms
    at its own K. The recurrence yields the normalised rows C_k^lam / s_k, so
    the scales go into the weights: w_k s_(k-lag)(lam_a) s_k(lam_b). Needs
    0 <= lag <= 2 and positive lam.
    """
    if not 0 <= lag <= 2:
        raise ValueError(f"lag must lie in [0, 2], got {lag}")
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                 for lam_a, xa, lam_b, xb in pairs for v in (xa, xb)))
    shape = args[0].shape
    order = sorted(range(len(pairs)), key=lambda p: -len(weights[p]))
    lams = [lam for p in order for lam in (pairs[p][0], pairs[p][2])]
    x = np.stack([args[2 * p + i].ravel() for p in order for i in (0, 1)])
    K = np.array([len(weights[p]) - 1 for p in order])
    w = np.zeros((K[0] + 1, len(order)))
    for col, p in enumerate(order):
        k, (lam_a, lam_b) = K[col], lams[2 * col:2 * col + 2]
        w[lag:k + 1, col] = (weights[p][lag:] * _scales(lam_a, k)[:k + 1 - lag]
                             * _scales(lam_b, k)[lag:])
    total = np.zeros((len(order), x.shape[1]))
    for lo in range(0, x.shape[1], _COLUMNS):
        cols = slice(lo, lo + _COLUMNS)
        acc = total[:, cols]
        for m0, act, rows in recurrence_blocks(lams, x[:, cols], np.repeat(K, 2)):
            nb = len(rows) - 2
            npair = act // 2
            acc[:npair] += np.einsum("kp,kpt,kpt->pt", w[m0:m0 + nb, :npair],
                                     rows[2 - lag:2 - lag + nb, 0::2], rows[2:, 1::2])
    out = np.empty_like(total)
    out[order] = total
    return out.reshape((len(pairs),) + shape)
