"""Sharp directional-derivative constants for bounded harmonic functions on
the unit ball.

The directional constant C(rho*e1, l_alpha) is computed by three independent
routes that cross-validate each other, and in closed form at alpha = pi/2:

* constant_direct   -- the double-integral representation, by nested
                       Gauss-Legendre quadrature after trigonometric
                       substitution;
* constant_series   -- the ultraspherical-expansion representation: two kink
                       integrals plus a rho-power series;
* constant_radial   -- the closed one-dimensional formula for the radial
                       direction (alpha = 0);
* constant_transverse -- the closed form at alpha = pi/2, a 2F1 in rho^2
                       evaluated by Euler's integral.

On top of these sit the convexity profile in t = cos(alpha), its second
derivative by a series route and by an integral-kernel route, the pointwise
nonnegative kernel density behind the convexity proof, and the two
certification sweeps (convexity of the profile, maximality of the radial
direction).

Every integrand is integrated in angle variables (x = cos(theta)), which keeps all
weight factors analytic. Each (1 - 2*rho*z + rho^2) Poisson denominator is written
(1 - rho)^2 + 2 rho (1 - z), with 1 - z built from half-angle sines, so that no term
cancels as rho -> 1 and it is never below (1 - rho)^2. One function, _poisson_rows,
integrates every power of it (the inner integral of constant_direct, constant_radial
and the kernel curvature). Its pole psi = i arccosh(1 + 2 c0/c1) gives each row c0 + c1
sin^2(psi/2) the fewest Gauss nodes a Bernstein-ellipse bound allows (c0 >= tau_N c1,
_far_ratio): one plain panel of order N = order/8, /4 or /2 (rows without kinks, a cached
table), or of the full order per kink piece, or, once rho >= 0.8, panels graded around the
peak, edges +- m (1 - rho), m = 1, 16, 256, 4096 (_graded_panels); the rows of one rule in
blocks of about _CELLS entries in one buffer, raised by _inv_power in place.
The profile's kink integrals (the identity suite's kink_integral_brute,
degrees 0 and 1 stacked) also run in _T_CHUNK-row blocks. Every
rho-power series (the three curvature pair sums and the lagged series part of
the profile) is one call of gegenbauer.pair_series: a single blocked
recurrence over the stacked (lam, argument) rows, max(K) steps, not sum(K).

The profile f and its curvature are even in t: C(x, l) = C(x, -l), and the
reflection x2 -> -x2 fixes rho*e1 and maps l_alpha to -l_(pi - alpha). So
constant_direct integrates at min(alpha, pi - alpha), one float per mirror
pair, f'(0) = 0 and f(t) = f(0) + int_0^|t| (|t| - s) f''(s) ds. One cached kernel
curvature sweep per radius (_green_profile), on the Green nodes in (0, 1), is the only
curvature route of both certificates: the radial-max one reads this Green profile
(integrated twice in closed form, anchored at constant_transverse) on ALPHA_GRID, the
convexity one the curvature at the nodes themselves, refereed by constant_direct at
pi/3. The nodes depend on rho alone and ALPHA_GRID is a constant, as the accuracy
contracts are; the one setting of the series routes is their term cap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gegenbauer import (SERIES_MAX_TERMS, DimensionParams, _checked_rho, _dimension, _inside,
                         _value, eval_sequence, pair_series, pair_weights, series_cutoff)
from .identities import kink_integral_brute
from .quadrature import (DEFAULT_QUAD_ORDER, QuadratureRule, composite_nodes, gauss_legendre,
                         map_panels)

__all__ = [
    "ConstantQuery",
    "ConvexityReport",
    "RadialMaxReport",
    "DEFAULT_QUAD_ORDER",
    "ROUTE_TOL", "CONVEXITY_FLOOR", "TIE_TOLERANCE",
    "ALPHA_GRID",
    "constant_direct",
    "constant_series",
    "constant_radial",
    "constant_transverse",
    "profile_parts",
    "profile_curvature_series",
    "profile_curvature_kernel",
    "curvature_density_grid",
    "certify_convexity",
    "certify_radial_max",
]

# the accuracy contracts: route agreement and tie relative to max(1, |value|)
ROUTE_TOL = 1e-8
CONVEXITY_FLOOR = -1e-12
TIE_TOLERANCE = 1e-12
# the 181 angles i*pi/180 of the radial-max scan
ALPHA_GRID = np.array([i * math.pi / 180 for i in range(181)])
ALPHA_GRID.flags.writeable = False
_REFEREE = 60  # the convexity certificate's referee angle: ALPHA_GRID[60] = pi/3
# rows per block of the t-sweeps and the least of a _poisson_rows block; bounds temporaries
_T_CHUNK = 32
_CELLS = 2 ** 14  # about the entries (rows times nodes) of one _poisson_rows block
# Gauss nodes per panel of the Green profile (_green_profile), and its map from
# Gauss values to Legendre coefficients: c_k = (k + 1/2) sum_i w_i P_k(x_i) f_i
_GREEN_ORDER = 16
_GREEN_TO_COEF = ((np.arange(_GREEN_ORDER) + 0.5)[:, None]
                  * eval_sequence(0.5, _GREEN_ORDER - 1, gauss_legendre(_GREEN_ORDER).nodes)
                  * gauss_legendre(_GREEN_ORDER).weights)
_GREEN_TO_COEF.flags.writeable = False


def _inv_power(v: np.ndarray, e: float) -> np.ndarray:
    """v ** -e in place, for e a positive multiple of 1/2: one reciprocal, a
    square root if e is half an odd integer, then squarings and products.
    Every intermediate is (1/v)^a with 1/2 <= a <= e, so inf appears exactly
    where the result passes the double range."""
    np.reciprocal(v, out=v)
    m = int(e)
    if m == 0:
        return np.sqrt(v, out=v)
    root = np.sqrt(v) if e > m else None
    base = v.copy() if m & (m - 1) else None
    for bit in bin(m)[3:]:
        v *= v
        if bit == "1":
            v *= base
    if root is not None:
        v *= root
    return v


@dataclass(frozen=True)
class ConstantQuery:
    """Evaluation point: dimension (an int or a DimensionParams, held as the latter),
    radius rho in [0, 1), direction angle alpha."""

    dim: DimensionParams
    rho: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "dim", _dimension(self.dim))
        _checked_rho(self.rho)
        if not 0.0 <= self.alpha <= math.pi:
            raise ValueError(f"alpha must lie in [0, pi], got {self.alpha}")

    @property
    def delta(self) -> float:
        """Shrunk radius ((n-2)/n) * rho, the kink location of the outer integrals."""
        return (self.dim.n - 2) / self.dim.n * self.rho

    @property
    def t(self) -> float:
        return math.cos(self.alpha)


def _graded_panels(rho: float, rule: QuadratureRule, peak: float = 0.0, kinks=()):
    """Nodes and weights over [0, pi] (the outer rule of constant_direct and that of the near
    Poisson rows), split at the kinks and, once rho >= 0.8, graded around the peak at
    theta = peak of 1/(1 - 2*rho*cos(theta - peak) + rho^2), whose width is about 1 - rho.
    composite_nodes sorts the edges and drops those outside (0, pi).

    The edges are peak +- m (1 - rho), m = 1, 16, 256, 4096. The poles sit
    about 1 - rho off the real axis, so on [m h, 16 m h] (h = 1 - rho) the
    nearest one lies 1/15 of the panel's length beyond its end: the Bernstein
    ellipse of ratio about 1 + 2/sqrt(15) = 1.5, and N Gauss nodes err like
    1.5^(-2N) (Trefethen, Approximation Theory and Approximation Practice,
    Thm 19.3). For n <= 64 and rho in [0.8, 0.999], every route at orders 64
    to 256 stays within 1.6e-14 of 1024 nodes per panel on the edges
    m = 1, 4, 16, 64, and order 48 within 4.3e-15 (direct route) and 1.5e-12
    (kernel curvature, of max |f''|). Past n = 64 the sin^(n-3) weight, of
    width about 1/sqrt(n), needs more nodes on the long outer panels: at
    rho = 0.8 and n = 200, order 64 is off by 3.2e-9 (direct) and 1.0e-6
    (kernel)."""
    edges = list(kinks)
    if rho >= 0.8:
        h = 1.0 - rho
        for m in (1.0, 16.0, 256.0, 4096.0):
            edges += (peak - m * h, peak + m * h)
    return composite_nodes(0.0, math.pi, rule, edges)


# -- the Poisson-power quadrature of every route -----------------------------


@functools.lru_cache(maxsize=None)
def _far_ratio(order: int, m: int, e: float) -> np.ndarray:
    """tau_N, read-only, for N = order // 8, // 4, // 2 (inf below 16) and order: the least
    c0/c1 of a grid from 1e-6 to 1e4 (inf if none) from which one plain order-N panel
    integrates sin^m |p|^-e, p = c0 + c1 sin^2(psi/2), over [0, pi] to 2^-52 of its maximum, by
    the Gauss bound 64 h M / (15 (r^2 - 1) r^(2N)), h = pi/2 (Trefethen, ATAP, Thm 19.3). The
    pole i arccosh(1 + 2 c0/c1) sets r_pole; M, with the growth of |sin|^m and |p|^-e, is
    sampled on the upper halves (|f| is even in Im psi) of r = 1 + k (r_pole - 1), the best of
    k = 1/8..3/4 counting (k = 0: [0, pi] itself); only r^(2N) depends on N."""
    s = np.logspace(-6.0, 4.0, 41)[:, None, None]
    u = -1.0 + 2j / math.pi * np.arccosh(1.0 + 2.0 * s)  # the pole, [0, pi] mapped to [-1, 1]
    r = 1.0 + (abs(u + np.sqrt(u - 1.0) * np.sqrt(u + 1.0)) - 1.0) * np.c_[[0, 1, 2, 4, 6]] / 8
    th = (np.arange(128) + 0.5) * math.pi / 128  # z = x + iy = pi/2 (1 + cosh(log r + i th))
    x = 0.25 * math.pi * (2.0 + (r + 1.0 / r) * np.cos(th))
    y = 0.25 * math.pi * (r - 1.0 / r) * np.sin(th)
    sx, shy = np.sin(x), np.sinh(y)
    # |sin z|^2 = sx^2 + shy^2, and 2 sin^2(z/2) = 1 - cos z = 1 - cos x cosh y + i sx shy
    log_f = (0.5 * m * np.log(sx * sx + shy * shy) - 0.5 * e * np.log(
        (s + 0.5 - 0.5 * np.cos(x) * np.cosh(y)) ** 2 + (0.5 * sx * shy) ** 2)).max(-1)
    r, n = r[:, 1:, 0], order // np.c_[[8, 4, 2, 1]][:, :, None]
    bound = math.log(32 * math.pi / 15) + log_f[:, 1:] - np.log(r * r - 1) - 2 * n * np.log(r)
    # ok[N, j]: the j + 1 largest s all meet the bound
    ok = np.logical_and.accumulate((bound.min(2) <= log_f[:, 0] - 52 * math.log(2))[:, ::-1], 1)
    taus = np.where(ok[:, 0] & (n.ravel() >= min(16, order)), s.ravel()[-ok.sum(1)], math.inf)
    taus.flags.writeable = False
    return taus


@functools.lru_cache(maxsize=None)
def _plain_table(rule: QuadratureRule, m: int):
    """sin^2(t/2), sin^2 t and w sin^m t at the nodes t of one plain panel [0, pi], read-only."""
    t, w = composite_nodes(0.0, math.pi, rule)
    table = np.stack((np.sin(0.5 * t) ** 2, np.sin(t) ** 2, w * np.sin(t) ** m))
    table.flags.writeable = False
    return table


@np.errstate(over="ignore", invalid="ignore")  # callers raise; tau * c1 = inf * 0 is nan: not met
def _poisson_rows(rho: float, rule: QuadratureRule, c0, c1, e: float, m: int, kinks=(), a=None,
                  extra=None):
    """For every row r, sum_i w_i sin(t_i)^m extra(t_i) p_ri^-e (p_ri - a_r sin(t_i)^2)^2,
    extra and the bracket only if given, p_ri = c0_r + c1_r sin(t_i/2)^2, on the first rule
    whose pole test c0_r >= tau_N c1_r the row meets (tau_N = _far_ratio, the bracket as sin^4;
    c1_r = 0 meets a finite tau_N): without kinks and extra, one plain panel [0, pi] of order
    N = rule.order // 8, // 4, // 2 (its table cached, _plain_table); composite_nodes(0, pi,
    rule, kinks), tested once rho >= 0.8 and else taken; else _graded_panels(rho, rule, 0, kinks).

    The rows of one rule run in blocks of about _CELLS entries (a multiple of _T_CHUNK rows) in
    one reused buffer, by the one-matrix expression's operations in its order: bit-identical to
    it. Overflow gives inf or nan silently; each caller raises its own OverflowError."""
    plain = not kinks and extra is None
    tests = slice(3 * (not plain), 3 + (rho >= 0.8))  # rules 0-2 ladder, 3 plain, 4 graded
    group, out = np.full(c0.size, tests.stop), np.empty(c0.size)  # group: each row's rule
    if tests.start < tests.stop:  # tau_N falls with N: a row meets each test after its first
        group -= (c0 >= _far_ratio(rule.order, m + 4 * (a is not None), e)[tests, None] * c1).sum(0)
    for k, count in enumerate(np.bincount(group)):
        if count == 0:
            continue
        if k < 3 + plain:
            half_sq, sin_sq, wts = _plain_table(gauss_legendre(rule.order // 2 ** (3 - k))
                                                if k < 3 else rule, m)
        else:
            nodes, wts = (_graded_panels(rho, rule, kinks=kinks) if k > 3
                          else composite_nodes(0.0, math.pi, rule, kinks))
            half_sq, sin_sq = np.sin(0.5 * nodes) ** 2, None if a is None else np.sin(nodes) ** 2
            wts = wts * (np.sin(nodes) ** m * (1.0 if extra is None else extra(nodes)))
        rows = np.flatnonzero(group == k) if count < out.size else None
        block = _T_CHUNK * max(1, _CELLS // (_T_CHUNK * wts.size))
        buf = np.empty((1 if a is None else 2, min(block + 1, count), wts.size))
        # BLAS sums rows four at a time and the rest apart, so blocks of a multiple of four rows
        # sum as one matrix does; a lone last row, which numpy takes as a dot, joins the one before
        starts = list(range(0, count - 1, block)) or [0]
        for lo, hi in zip(starts, starts[1:] + [count]):
            r = slice(lo, hi) if count == out.size else rows[lo:hi]  # one rule: no gathers
            v = buf[0, :hi - lo]
            np.multiply(c1[r, None], half_sq, out=v)
            v += c0[r, None]
            if a is not None:  # the squared bracket, taken before v is raised in place
                sq = buf[1, :hi - lo]
                np.subtract(v, np.multiply(a[r, None], sin_sq, out=sq), out=sq)
                sq *= sq
            _inv_power(v, e)
            if a is not None:
                v *= sq
            out[r] = v @ wts
    return out


def _inner_smooth(dim: DimensionParams, rho: float, alpha: float, theta, rule: QuadratureRule):
    """Angular form of the inner integral with its (sin theta)^(n-3) factored out.

    Returns the integral over psi in [0, pi] of (sin psi)^(n-3) / D^(n/2-1),
    D = 1 - 2 rho (cos(theta) cos(alpha) + sin(theta) sin(alpha) cos(psi)) + rho^2
      = c0 + c1 sin^2(psi/2), c0 = (1-rho)^2 + 4 rho sin^2((theta-alpha)/2),
    c1 = 4 rho sin(theta) sin(alpha), for all outer angles theta at once (_poisson_rows).
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    c0 = (1.0 - rho) ** 2 + 4.0 * rho * np.sin(0.5 * (th - alpha)) ** 2
    c1 = 4.0 * rho * np.sin(th) * math.sin(alpha)
    return _poisson_rows(rho, rule, c0, c1, dim.n / 2.0 - 1.0, dim.n - 3)


# -- the three constant routes ----------------------------------------------


def constant_direct(q: ConstantQuery, rule: QuadratureRule | None = None) -> float:
    """Directional constant via the double-integral representation.

    Both integrals run in angle variables at a = min(alpha, pi - alpha), as the
    constant is even in t (pi - alpha is exact for alpha >= pi/2, so the pair
    gives one float); the outer one is split at the kink arccos(delta * cos(a))
    and graded around its peak at theta = a, the inner one graded around psi = 0.
    """
    rule = rule or gauss_legendre(DEFAULT_QUAD_ORDER)
    n, rho = q.dim.n, q.rho
    alpha = min(q.alpha, math.pi - q.alpha)
    dt = q.delta * math.cos(alpha)
    nodes, wts = _graded_panels(rho, rule, alpha, (math.acos(dt),))
    inner = _inner_smooth(q.dim, rho, alpha, nodes, rule)
    outer_vals = np.abs(dt - np.cos(nodes)) * np.sin(nodes) ** (n - 2) * inner
    total = float(wts @ outer_vals)
    value = n * (n - 2) / (2.0 * math.pi) / ((1.0 - rho) * (1.0 + rho)) * total
    if not math.isfinite(value):
        raise OverflowError(f"constant_direct overflows at n={n}, rho={rho}")
    return value


def profile_parts(t, dim: int | DimensionParams, rho: float, max_terms: int = SERIES_MAX_TERMS,
                  rule: QuadratureRule | None = None):
    """The three additive parts of the normalized constant profile at t = cos(alpha).

    Returns (plain kink integral, weighted kink integral, series part); each
    entry is a float for scalar t and an ndarray for vector t. The kink
    integrals are kink_integral_brute at lam = (n-2)/2, s = delta*t and degrees
    0 and 1, the second times rho*t (C_1^lam(x) = (n-2) x), _T_CHUNK rows a call.
    Term k of the series part couples degree k-2 at lam_high with degree k at
    lam_low, weighted by (k-2)!/(n+2)_(k-2) rho^k; (n+2)_m = (2 lam_high)_m.
    """
    dim = _dimension(dim)
    ta = _inside(t, 1.0, "t must lie in [-1, 1]", closed=True)
    K = series_cutoff(rho, dim.lambda_low, max_terms)  # checks rho and max_terms first
    rule = rule or gauss_legendre(DEFAULT_QUAD_ORDER)
    n, tv = dim.n, np.atleast_1d(ta)
    s = (n - 2) / n * rho * tv
    kink = np.empty((2, tv.size))
    for lo in range(0, tv.size, _T_CHUNK):
        rows = slice(lo, lo + _T_CHUNK)
        kink[:, rows] = kink_integral_brute(dim.lambda_low, np.arange(2), s[rows], rule)
    tail = np.zeros_like(tv)
    if K > 0:  # K = 0 at rho = 0
        pref = (2.0 / (n * n - 1.0)) * (1.0 - s ** 2) ** ((n + 1) / 2.0)
        tail = pref * pair_series([(dim.lambda_high, s, dim.lambda_low, tv)],
                                  [pair_weights(dim.lambda_high, rho, K, lag=2)], lag=2)[0]
    return tuple(_value(v.reshape(ta.shape)) for v in (kink[0], rho * tv * kink[1], tail))


def constant_series(q, max_terms: int = SERIES_MAX_TERMS, rule: QuadratureRule | None = None):
    """Directional constant via the ultraspherical-expansion representation.

    `q` is a sequence of queries at one dimension and rho, evaluated in one
    vector profile_parts call over their t = cos(alpha) (ndarray result), or
    one ConstantQuery, run as the batch [q] (float result, out[0]).
    """
    queries = [q] if isinstance(q, ConstantQuery) else list(q)
    if not queries:
        raise ValueError("no queries given")
    dim, rho = queries[0].dim, queries[0].rho
    if any(p.dim != dim or p.rho != rho for p in queries):
        raise ValueError("queries must share one dimension and rho")
    t = np.array([p.t for p in queries])
    plain, weighted, tail = profile_parts(t, dim, rho, max_terms, rule)
    out = dim.c_n / ((1.0 - rho) * (1.0 + rho)) * (plain + weighted + tail)
    return float(out[0]) if isinstance(q, ConstantQuery) else out


def constant_radial(n, rho: float, rule: QuadratureRule | None = None) -> float:
    """Sharp constant in the radial direction, by the closed 1-D formula."""
    dim = _dimension(n)
    rule = rule or gauss_legendre(DEFAULT_QUAD_ORDER)
    n, delta = dim.n, (dim.n - 2) / dim.n * _checked_rho(rho)
    total = _poisson_rows(rho, rule, np.array([(1.0 - rho) ** 2]), np.array([4.0 * rho]),
                          (n - 2) / 2.0, n - 2, kinks=(math.acos(delta),),
                          extra=lambda x: np.abs(np.cos(x) - delta))
    value = dim.c_n / ((1.0 - rho) * (1.0 + rho)) * float(total[0])
    if not math.isfinite(value):
        raise OverflowError(f"constant_radial overflows at n={dim.n}, rho={rho}")
    return value


def constant_transverse(n, rho: float) -> float:
    """Sharp constant at alpha = pi/2: 2 c_n F / ((n-1)(1-rho^2)), F = 2F1(-1/2,
    n/2-1; (n+1)/2; rho^2). By Euler's integral for F (DLMF 15.6.1, s = sin^2 phi),
    whose Gamma factors and 2 c_n/(n-1) cancel to n(n-2)/pi, it is n(n-2) E / (pi
    (1-rho^2)), E = int_0^(pi/2) 2 sin^(n-3) cos^2 sqrt(cos^2 + (1-rho^2) sin^2) dphi,
    by 64 Gauss nodes per panel graded into its layer at pi/2, of width sqrt(1-rho^2).
    Never overflows."""
    dim = _dimension(n)
    n = dim.n
    eps = math.sqrt((1.0 - _checked_rho(rho)) * (1.0 + rho))
    nodes, wts = composite_nodes(0.0, math.pi / 2, gauss_legendre(64),
                                 [math.pi / 2 - m * eps for m in (1.0, 4.0, 16.0, 64.0)])
    c, s = np.cos(nodes), np.sin(nodes)
    euler = float(wts @ (2.0 * s ** (n - 3) * c * c * np.sqrt(c * c + (eps * s) ** 2)))
    return n * (n - 2.0) * euler / (math.pi * (1.0 - rho) * (1.0 + rho))


# -- second derivative of the profile ---------------------------------------


def profile_curvature_series(t, dim: int | DimensionParams, rho: float,
                             max_terms: int = SERIES_MAX_TERMS):
    """Second derivative of the profile by its three-series representation (an oracle)."""
    dim = _dimension(dim)
    ta = _inside(t, 1.0, "t must lie in (-1, 1)")
    n = dim.n
    delta = (n - 2) / n * rho
    tv = np.atleast_1d(ta)
    x1 = delta * tv
    g = 1.0 - x1 * x1

    lams = (dim.lambda_low, dim.lambda_mid, dim.lambda_high)
    s_low, s_mid, s_high = pair_series(
        [(lam, x1, lam, tv) for lam in lams],
        [pair_weights(lam, rho, series_cutoff(rho, lam, max_terms)) for lam in lams])

    d2 = delta * delta
    out = (2.0 * d2 * g ** ((n - 3) / 2.0) * s_low
           - 4.0 * n * d2 / (n - 1.0) * g ** ((n - 1) / 2.0) * s_mid
           + 2.0 * n ** 3 * d2 / ((n + 1.0) * (n - 1.0) * (n - 2.0))
           * g ** ((n + 1) / 2.0) * s_high)
    return _value(out.reshape(ta.shape))


def profile_curvature_kernel(t, dim: int | DimensionParams, rho: float,
                             rule: QuadratureRule | None = None):
    """Second derivative of the profile as an integral of the kernel density.

    The integral over the kernel support is taken through the substitution
    z = delta*t^2 + w*cos(theta), w = sqrt((1 - delta^2 t^2)(1 - t^2)), under
    which all (1-t^2) denominator powers of the density cancel exactly and
    the integrand is analytic up to the (1 - 2 rho z + rho^2) peak at
    theta = 0. That denominator is c0 + 4 rho w sin^2(theta/2) with
    c0 = (1-rho)^2 + 2 rho t^2 (1-delta)^2 / (1 - delta t^2 + w), since
    1 - delta t^2 - w = t^2 (1-delta)^2 / (1 - delta t^2 + w). Accepts scalar
    or array t: a float for scalar t, an ndarray of the same shape otherwise.
    """
    dim = _dimension(dim)
    ta = _inside(t, 1.0, "t must lie in (-1, 1)")
    rule = rule or gauss_legendre(DEFAULT_QUAD_ORDER)
    n, delta = dim.n, (dim.n - 2) / dim.n * _checked_rho(rho)
    tv = ta.ravel()
    g = 1.0 - (delta * tv) ** 2
    w = np.sqrt(g * (1.0 - tv * tv))
    c0 = (1.0 - rho) ** 2 + 2.0 * rho * (tv * (1.0 - delta)) ** 2 / (1.0 - delta * tv * tv + w)
    sums = _poisson_rows(rho, rule, c0, 4.0 * rho * w, (n + 2) / 2.0, n - 3, a=n / (n - 2.0) * g)
    out = n * (n - 2.0) / (math.pi * dim.c_n) * delta * delta * g ** ((n - 3) / 2.0) * sums
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"profile_curvature_kernel overflows at n={n}, rho={rho}")
    return _value(out.reshape(ta.shape))


def curvature_density_grid(t, z, n, rho: float):
    """Pointwise kernel density behind the convexity certificate, vectorized.

    Zero off the positivity region; inside it the value is n(n-2)/(pi c_n)
    (= 2 Gamma((n-1)/2) / (Gamma((n-2)/2) Gamma(1/2))) times disc^((n-4)/2) *
    (A - n*B/(n-2))^2 over the denominator powers, with A = (1 - 2 rho z +
    rho^2)(1 - t^2) and B = disc. Raises ValueError, naming the first bad t, else
    the first bad z, unless every t and z lies in (-1, 1).
    """
    dim = _dimension(n)
    n = dim.n
    delta = (n - 2) / n * _checked_rho(rho)
    ta = _inside(t, 1.0, "t and z must lie in (-1, 1)")
    za = _inside(z, 1.0, "t and z must lie in (-1, 1)")
    disc = 1.0 - (delta * ta) ** 2 - ta * ta - za * za + 2.0 * delta * ta * ta * za
    p = 1.0 - 2.0 * rho * za + rho * rho
    a = p * (1.0 - ta * ta)
    quad = (a - n / (n - 2.0) * disc) ** 2
    safe = np.where(disc > 0.0, disc, 1.0)
    dens = n * (n - 2.0) / (math.pi * dim.c_n) * safe ** ((n - 4) / 2.0) * quad / (
        p ** ((n + 2) / 2.0) * (1.0 - ta * ta) ** ((n + 1) / 2.0)
    )
    out = np.where(disc > 0.0, dens, 0.0)
    return _value(out)


# -- certification sweeps ----------------------------------------------------


@dataclass(frozen=True)
class ConvexityReport:
    """Grid certificate that the constant profile has nonnegative curvature.

    The kernel curvature runs on the Green nodes of rho (grid_size of them, in (0, 1);
    f'' is even in t); argmin_t is the first node that attains the minimum.
    max_route_gap is |Green profile - direct| / max(1, |direct|) at pi/3, and
    passed needs min_curvature >= CONVEXITY_FLOOR and max_route_gap <= ROUTE_TOL.
    """

    n: int
    rho: float
    grid_size: int
    min_curvature: float
    argmin_t: float
    passed: bool
    max_route_gap: float
    quad_order: int


@dataclass(frozen=True)
class RadialMaxReport:
    """Grid certificate that the constant is maximized in the radial direction.

    The values are the Green profile at |cos(alpha)|, anchored at
    constant_transverse (alpha = pi/2), so alpha = 0 and alpha = pi share one
    value and their expected tie is exact. radial_residual compares the value
    at alpha = 0 with constant_radial: a check across three routes (closed
    transverse, kernel curvature integrated over [0, 1], closed radial).
    """

    n: int
    rho: float
    grid_points: int
    argmax_alphas: tuple
    value_at_zero: float
    max_value: float
    interior_gap: float
    radial_value: float
    radial_residual: float
    passed: bool
    quad_order: int


def certify_convexity(n, rho: float, rule: QuadratureRule | None = None) -> ConvexityReport:
    """Scan the kernel curvature on the Green nodes (_green_profile) and certify the profile.

    The kernel curvature sums nonnegative terms with positive Gauss weights, so the
    floor always holds; the check stays. What is checked is the route: the Green
    profile must meet constant_direct, the definition, at the referee angle pi/3.
    """
    dim = _dimension(n)
    rule = rule or gauss_legendre(DEFAULT_QUAD_ORDER)
    values, nodes, curv = _green_profile(dim, rho, rule)
    imin = int(np.argmin(curv))
    direct = constant_direct(ConstantQuery(dim, rho, float(ALPHA_GRID[_REFEREE])), rule)
    gap = abs(float(values[_REFEREE]) - direct) / max(1.0, abs(direct))
    return ConvexityReport(
        n=dim.n,
        rho=rho,
        grid_size=nodes.size,
        min_curvature=float(curv[imin]),
        argmin_t=float(nodes[imin]),
        passed=bool(curv[imin] >= CONVEXITY_FLOOR and gap <= ROUTE_TOL),
        max_route_gap=gap,
        quad_order=rule.order,
    )


def _green_edges(rho: float) -> np.ndarray:
    """Panel edges of the Green profile on [0, 1]: geometric, 0.5 * 4^-k, down to
    (1 - rho)/4 toward t = 0 (the curvature's layer there) and toward t = 1 down to
    (1 - rho)^2/4, but not below 2^-39, where the last nodes would round to 1.0."""
    edges, h = [0.0, 0.5, 1.0], 0.125
    while h >= max((1.0 - rho) ** 2 / 4.0, 2.0 ** -39):
        edges.append(1.0 - h)
        if h >= (1.0 - rho) / 4.0:
            edges.append(h)
        h /= 4.0
    return np.array(sorted(edges))


def _legendre_integral(c):
    """Legendre coefficients (last axis) of the integral from -1 to x, by
    int_{-1}^x P_k = (P_(k+1) - P_(k-1)) / (2k + 1) and int_{-1}^x P_0 = P_0 + P_1."""
    q = c / (2.0 * np.arange(c.shape[-1]) + 1.0)
    zero = np.zeros(c.shape[:-1] + (1,))
    return np.concatenate((q[..., :1], q), -1) - np.concatenate((q[..., 1:], zero, zero), -1)


@functools.lru_cache(maxsize=1)
def _green_profile(dim: DimensionParams, rho: float, rule: QuadratureRule):
    """(the constant on ALPHA_GRID, the Green nodes, f'' at them), read-only and cached:
    one kernel curvature sweep feeds both certificates. f'' at _GREEN_ORDER Gauss nodes
    per _green_edges panel is expanded in Legendre polynomials per panel, on which the
    constant, constant_transverse + c_n / (1 - rho^2) int_0^u (u - s) f''(s) ds at
    u = |cos(alpha)|, is closed-form (f the even normalized profile).
    """
    edges = _green_edges(rho)
    nodes, _ = map_panels(edges, gauss_legendre(_GREEN_ORDER))
    half = 0.5 * np.diff(edges)
    curv = profile_curvature_kernel(nodes, dim, rho, rule)
    # Legendre coefficients of f'(s) - f'(a_j) on panel j, and of its integral from a_j
    c1 = half[:, None] * _legendre_integral(curv.reshape(-1, _GREEN_ORDER) @ _GREEN_TO_COEF.T)
    c2 = half[:, None] * _legendre_integral(c1)
    # f' and f - f(0) at the left edges a_j; P_k(1) = 1 gives each panel's increments
    slope = np.concatenate(([0.0], np.cumsum(c1.sum(axis=1))))[:-1]
    level = np.concatenate(([0.0], np.cumsum(2.0 * half * slope + c2.sum(axis=1))))[:-1]
    u = np.abs(np.cos(ALPHA_GRID))
    j = np.clip(np.searchsorted(edges, u, side="right") - 1, 0, half.size - 1)
    x = (u - edges[j]) / half[j] - 1.0
    poly = (eval_sequence(0.5, _GREEN_ORDER + 1, x) * c2[j].T).sum(axis=0)
    profile = level[j] + slope[j] * (u - edges[j]) + poly
    values = constant_transverse(dim, rho) + dim.c_n / ((1.0 - rho) * (1.0 + rho)) * profile
    values.flags.writeable = nodes.flags.writeable = curv.flags.writeable = False
    return values, nodes, curv


def certify_radial_max(n, rho: float, rule: QuadratureRule | None = None) -> RadialMaxReport:
    """Scan the directional constant over ALPHA_GRID, from 0 to pi.

    The values are the Green profile (_green_profile); no double integral runs.
    Certifies that alpha = 0 attains the grid maximum within TIE_TOLERANCE (a tie
    at alpha = pi is exact, as both share |t| = 1) and that the maximum reproduces
    the closed radial formula to ROUTE_TOL.
    """
    dim = _dimension(n)
    rule = rule or gauss_legendre(DEFAULT_QUAD_ORDER)
    values = _green_profile(dim, rho, rule)[0]
    max_value = float(values.max())
    scale = max(1.0, abs(max_value))
    ties = np.nonzero(values >= max_value - TIE_TOLERANCE * scale)[0]
    value_at_zero = float(values[0])
    radial = constant_radial(dim, rho, rule)
    radial_residual = abs(value_at_zero - radial) / scale
    passed = bool(
        value_at_zero >= max_value - TIE_TOLERANCE * scale
        and radial_residual <= ROUTE_TOL
    )
    return RadialMaxReport(
        n=dim.n,
        rho=rho,
        grid_points=ALPHA_GRID.size,
        argmax_alphas=tuple(float(ALPHA_GRID[i]) for i in ties),
        value_at_zero=value_at_zero,
        max_value=max_value,
        interior_gap=value_at_zero - max_value,
        radial_value=radial,
        radial_residual=radial_residual,
        passed=passed,
        quad_order=rule.order,
    )
