"""Sharp directional-derivative constants for bounded harmonic functions on
the unit ball.

The directional constant C(rho*e1, l_alpha) is computed by three independent
routes that cross-validate each other:

* constant_direct   -- the double-integral representation, by nested
                       Gauss-Legendre quadrature after trigonometric
                       substitution;
* constant_series   -- the ultraspherical-expansion representation: two kink
                       integrals plus a rho-power series;
* constant_radial   -- the closed one-dimensional formula for the radial
                       direction (alpha = 0).

On top of these sit the convexity profile in t = cos(alpha), its second
derivative by a series route and by an integral-kernel route, the pointwise
nonnegative kernel density behind the convexity proof, and the two
certification sweeps (convexity of the profile, maximality of the radial
direction).

Every integrand is integrated in angle variables (x = cos(theta)), which
keeps all weight factors analytic; integrals with a (1 - 2*rho*z + rho^2)
denominator additionally get panels graded geometrically around the peak of
that Poisson denominator once rho >= 0.8, where the peak sharpens toward the
boundary.

The per-t quadratures run in blocks of _T_CHUNK t rows so that the
(rows, nodes) temporaries stay small: the kernel curvature, the profile's kink
integrals (the identity suite's kink_integral_brute, degrees 0 and 1 stacked)
and, in one reused buffer, the inner matrix of constant_direct. Every
rho-power series (the three curvature pair sums and the lagged series part of
the profile) is one call of gegenbauer.pair_series: a single blocked
recurrence over the stacked (lam, argument) rows, max(K) steps, not sum(K).

The profile f and its curvature are even in t: C(x, l) = C(x, -l), and the
reflection x2 -> -x2 fixes rho*e1 and maps l_alpha to -l_(pi - alpha). So
f'(0) = 0 and f(t) = f(0) + int_0^|t| (|t| - s) f''(s) ds. The radial-max
certificate takes this Green profile (_green_profile): the kernel curvature,
integrated twice in closed form, anchored at constant_direct(alpha = pi/2);
it runs no series. The convexity certificate runs both curvature routes on
the upper half of T_GRID, which is exactly antisymmetric. Both certificate
grids are constants, as the accuracy contracts are; the one setting of the
series routes is their term cap, a plain max_terms int.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gegenbauer import (SERIES_MAX_TERMS, DimensionParams, eval_sequence, gamma_ratio,
                         pair_series, pair_weights, series_cutoff)
from .identities import kink_integral_brute
from .quadrature import (DEFAULT_QUAD_ORDER, QuadratureRule, composite_nodes, gauss_legendre,
                         map_panels)

__all__ = [
    "ConstantQuery",
    "ConvexityReport",
    "RadialMaxReport",
    "DEFAULT_QUAD_ORDER",
    "ROUTE_TOL", "CONVEXITY_FLOOR", "TIE_TOLERANCE",
    "T_GRID", "ALPHA_GRID",
    "constant_direct",
    "constant_series",
    "constant_radial",
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
# the certificate grids: 201 t in [-0.999, 0.999], made exactly antisymmetric as
# in gauss_legendre, and the 181 angles i*pi/180 of the radial-max scan
T_GRID = np.linspace(-0.999, 0.999, 201)
T_GRID = 0.5 * (T_GRID - T_GRID[::-1])
ALPHA_GRID = np.array([i * math.pi / 180 for i in range(181)])
T_GRID.flags.writeable = ALPHA_GRID.flags.writeable = False
# rows per block of the t-sweeps and the direct route's inner matrix; bounds temporaries
_T_CHUNK = 32
# Gauss nodes per panel of the Green profile (_green_profile)
_GREEN_ORDER = 16


def _default_rule(rule: QuadratureRule | None) -> QuadratureRule:
    return rule if rule is not None else gauss_legendre(DEFAULT_QUAD_ORDER)


def _checked_t(t, closed: bool = False) -> np.ndarray:
    """t as a float array; ValueError names its first entry outside (-1, 1) ([-1, 1] if closed)."""
    ta = np.asarray(t, dtype=float)
    bad = ta[~(np.abs(ta) <= 1.0 if closed else np.abs(ta) < 1.0)]
    if bad.size:
        raise ValueError(f"t must lie in {'[-1, 1]' if closed else '(-1, 1)'}, got {bad[0]}")
    return ta


@dataclass(frozen=True)
class ConstantQuery:
    """Evaluation point: dimension, radius rho in [0, 1), direction angle alpha."""

    dim: DimensionParams
    rho: float
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
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
    """Nodes and weights over [0, pi], split at the kinks and, once rho >= 0.8,
    graded around the peak at theta = peak of
    1/(1 - 2*rho*cos(theta - peak) + rho^2), whose width is about 1 - rho.
    composite_nodes sorts the edges and drops those outside (0, pi)."""
    edges = list(kinks)
    if rho >= 0.8:
        h = 1.0 - rho
        for m in (1.0, 4.0, 16.0, 64.0):
            edges += (peak - m * h, peak + m * h)
    return composite_nodes(0.0, math.pi, rule, edges)


# -- inner integral of the double-integral route ----------------------------


def _inner_smooth(dim: DimensionParams, rho: float, alpha: float, x, rule: QuadratureRule):
    """Angular form of the inner integral with its (1-x^2) power factored out.

    Returns the integral over psi in [0, pi] of
    (sin psi)^(n-3) / (1 - 2 rho (x cos(alpha) + sqrt(1-x^2) sin(alpha) cos(psi)) + rho^2)^(n/2-1)
    for every entry of x at once, _T_CHUNK rows at a time in one reused buffer
    by the one-matrix expression's operations in its order: bit-identical to it.
    """
    n = dim.n
    nodes, wts = _graded_panels(rho, rule)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    a = xa * math.cos(alpha)
    b = np.sqrt(np.maximum(1.0 - xa * xa, 0.0)) * math.sin(alpha)
    cos_nodes = np.cos(nodes)
    s_pow = np.sin(nodes) ** (n - 3)
    out = np.empty_like(xa)
    # numpy takes a one-row product as a dot, whose sum order differs from the
    # matrix-vector product's, so a lone last row joins the block before it
    starts = list(range(0, xa.size, _T_CHUNK))
    if len(starts) > 1 and starts[-1] == xa.size - 1:
        del starts[-1]
    buf = np.empty((min(_T_CHUNK + 1, xa.size), nodes.size))
    for lo, hi in zip(starts, starts[1:] + [xa.size]):
        v = buf[:hi - lo]
        np.multiply(b[lo:hi, None], cos_nodes, out=v)
        v += a[lo:hi, None]
        v *= 2.0 * rho
        np.subtract(1.0, v, out=v)
        v += rho * rho
        v **= -(n / 2.0 - 1.0)
        np.multiply(s_pow, v, out=v)
        out[lo:hi] = v @ wts
    return out


# -- the three constant routes ----------------------------------------------


def constant_direct(q: ConstantQuery, rule: QuadratureRule | None = None) -> float:
    """Directional constant via the double-integral representation.

    Both integrals run in angle variables; the outer one is split at the kink
    located at arccos(delta * t) and graded around its peak at theta = alpha,
    the inner one graded around psi = 0.
    """
    rule = _default_rule(rule)
    n, rho = q.dim.n, q.rho
    dt = q.delta * q.t
    nodes, wts = _graded_panels(rho, rule, q.alpha, (math.acos(dt),))
    x = np.cos(nodes)
    inner = _inner_smooth(q.dim, rho, q.alpha, x, rule)
    outer_vals = np.abs(dt - x) * np.sin(nodes) ** (n - 2) * inner
    total = float(wts @ outer_vals)
    value = n * (n - 2) / (2.0 * math.pi) / (1.0 - rho * rho) * total
    if not math.isfinite(value):
        raise OverflowError(f"constant_direct overflows at n={n}, rho={rho}")
    return value


def profile_parts(t, dim: DimensionParams, rho: float, max_terms: int = SERIES_MAX_TERMS,
                  rule: QuadratureRule | None = None):
    """The three additive parts of the normalized constant profile at t = cos(alpha).

    Returns (plain kink integral, weighted kink integral, series part); each
    entry is a float for scalar t and an ndarray for vector t. The kink
    integrals are kink_integral_brute at lam = (n-2)/2, s = delta*t and degrees
    0 and 1, the second times rho*t (C_1^lam(x) = (n-2) x), _T_CHUNK rows a call.
    Term k of the series part couples degree k-2 at lam_high with degree k at
    lam_low, weighted by (k-2)!/(n+2)_(k-2) rho^k; (n+2)_m = (2 lam_high)_m.
    """
    ta = _checked_t(t, closed=True)
    K = series_cutoff(rho, dim.lambda_low, max_terms)  # checks rho and max_terms first
    rule = _default_rule(rule)
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
    plain, weighted = kink[0], rho * tv * kink[1]
    if ta.ndim == 0:
        return float(plain[0]), float(weighted[0]), float(tail[0])
    return plain, weighted, tail


def constant_series(q, max_terms: int = SERIES_MAX_TERMS, rule: QuadratureRule | None = None):
    """Directional constant via the ultraspherical-expansion representation.

    `q` is one ConstantQuery (float result) or a sequence of queries at one
    dimension and rho, evaluated in one vector profile_parts call over their
    t = cos(alpha) (ndarray result).
    """
    if isinstance(q, ConstantQuery):
        dim, rho, t = q.dim, q.rho, q.t
    else:
        queries = list(q)
        if not queries:
            raise ValueError("no queries given")
        dim, rho = queries[0].dim, queries[0].rho
        if any(p.dim != dim or p.rho != rho for p in queries):
            raise ValueError("queries must share one dimension and rho")
        t = np.array([p.t for p in queries])
    plain, weighted, tail = profile_parts(t, dim, rho, max_terms, rule)
    return dim.c_n / (1.0 - rho ** 2) * (plain + weighted + tail)


def constant_radial(n, rho: float, rule: QuadratureRule | None = None) -> float:
    """Sharp constant in the radial direction, by the closed 1-D formula."""
    dim = n if isinstance(n, DimensionParams) else DimensionParams(n)
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    rule = _default_rule(rule)
    delta = (dim.n - 2) / dim.n * rho
    nodes, wts = _graded_panels(rho, rule, kinks=(math.acos(delta),))
    c = np.cos(nodes)
    denom = (1.0 - 2.0 * rho * c + rho * rho) ** ((dim.n - 2) / 2.0)
    vals = np.abs(c - delta) * np.sin(nodes) ** (dim.n - 2) / denom
    value = dim.c_n / (1.0 - rho * rho) * float(wts @ vals)
    if not math.isfinite(value):
        raise OverflowError(f"constant_radial overflows at n={dim.n}, rho={rho}")
    return value


# -- second derivative of the profile ---------------------------------------


def profile_curvature_series(t, dim: DimensionParams, rho: float,
                             max_terms: int = SERIES_MAX_TERMS):
    """Second derivative of the profile by its three-series representation."""
    ta = _checked_t(t)
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
    return float(out[0]) if ta.ndim == 0 else out


def profile_curvature_kernel(t, dim: DimensionParams, rho: float,
                             rule: QuadratureRule | None = None):
    """Second derivative of the profile as an integral of the kernel density.

    The integral over the kernel support is taken through the substitution
    z = delta*t^2 + w*cos(theta), w = sqrt((1 - delta^2 t^2)(1 - t^2)), under
    which all (1-t^2) denominator powers of the density cancel exactly and
    the integrand is analytic up to the (1 - 2 rho z + rho^2) peak at
    theta = 0. Accepts scalar or array t: a float for scalar t, an ndarray of
    the same shape otherwise.
    """
    ta = _checked_t(t)
    rule = _default_rule(rule)
    n = dim.n
    delta = (n - 2) / n * rho
    eta = n / (n - 2.0)
    nodes, wts = _graded_panels(rho, rule)
    cos_nodes = np.cos(nodes)
    s = np.sin(nodes)
    s_pow = s ** (n - 3)
    s_sq = s * s
    scale = 2.0 * gamma_ratio(((n - 1) / 2.0,), ((n - 2) / 2.0, 0.5)) * delta * delta
    tv = ta.ravel()
    out = np.empty_like(tv)
    for lo in range(0, tv.size, _T_CHUNK):
        rows = slice(lo, lo + _T_CHUNK)
        tc = tv[rows, None]
        g = 1.0 - (delta * tc) ** 2
        w = np.sqrt(g * (1.0 - tc * tc))
        z = delta * tc * tc + w * cos_nodes
        p = 1.0 - 2.0 * rho * z + rho * rho
        vals = s_pow * (p - eta * g * s_sq) ** 2 * p ** (-(n + 2) / 2.0)
        out[rows] = scale * g[:, 0] ** ((n - 3) / 2.0) * (vals @ wts)
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"profile_curvature_kernel overflows at n={n}, rho={rho}")
    return float(out[0]) if ta.ndim == 0 else out.reshape(ta.shape)


def curvature_density_grid(t, z, n: int, rho: float):
    """Pointwise kernel density behind the convexity certificate, vectorized.

    Zero off the positivity region; inside it the value is a Gamma-ratio
    prefactor times disc^((n-4)/2) * (A - n*B/(n-2))^2 over the denominator
    powers, with A = (1 - 2 rho z + rho^2)(1 - t^2) and B = disc. Raises
    ValueError unless every t and z lies in (-1, 1).
    """
    dim = n if isinstance(n, DimensionParams) else DimensionParams(n)
    n = dim.n
    delta = (n - 2) / n * rho
    ta = np.asarray(t, dtype=float)
    za = np.asarray(z, dtype=float)
    if not (np.all(np.abs(ta) < 1.0) and np.all(np.abs(za) < 1.0)):
        raise ValueError("t and z must lie in (-1, 1)")
    disc = 1.0 - (delta * ta) ** 2 - ta * ta - za * za + 2.0 * delta * ta * ta * za
    p = 1.0 - 2.0 * rho * za + rho * rho
    a = p * (1.0 - ta * ta)
    quad = (a - n / (n - 2.0) * disc) ** 2
    pref = 2.0 * gamma_ratio(((n - 1) / 2.0,), ((n - 2) / 2.0, 0.5))
    safe = np.where(disc > 0.0, disc, 1.0)
    dens = pref * safe ** ((n - 4) / 2.0) * quad / (
        p ** ((n + 2) / 2.0) * (1.0 - ta * ta) ** ((n + 1) / 2.0)
    )
    out = np.where(disc > 0.0, dens, 0.0)
    return float(out) if out.ndim == 0 else out


# -- certification sweeps ----------------------------------------------------


@dataclass(frozen=True)
class ConvexityReport:
    """Grid certificate that the constant profile has nonnegative curvature.

    Both curvature routes run on the upper half T_GRID[100:], the |t| of the
    exactly antisymmetric grid; argmin_t is the lower point -|t| of the
    mirrored pair, the first grid point that attains the minimum. passed needs
    min_curvature >= CONVEXITY_FLOOR and max_route_gap <= ROUTE_TOL * max(1,
    max |curvature|).
    """

    n: int
    rho: float
    grid_size: int
    min_curvature: float
    argmin_t: float
    passed: bool
    max_route_gap: float
    series_terms: tuple
    quad_order: int


@dataclass(frozen=True)
class RadialMaxReport:
    """Grid certificate that the constant is maximized in the radial direction.

    The values are the Green profile at |cos(alpha)|, anchored at the direct
    route at alpha = pi/2, so alpha = 0 and alpha = pi share one value and
    their expected tie is exact. radial_residual compares the value at
    alpha = 0 with constant_radial: a check across three routes (direct at
    pi/2, kernel curvature integrated over [0, 1], closed radial formula).
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


def certify_convexity(n: int, rho: float, max_terms: int = SERIES_MAX_TERMS,
                      rule: QuadratureRule | None = None) -> ConvexityReport:
    """Scan the profile curvature on T_GRID and certify its sign.

    The series curvature is certified, and the kernel curvature must agree
    with it to ROUTE_TOL; max_route_gap reports their largest discrepancy.
    """
    dim = DimensionParams(n)
    rule = _default_rule(rule)
    # f is even and T_GRID antisymmetric: reversed, these are the values on T_GRID[:101]
    upper = T_GRID[T_GRID.size // 2:]
    curv = profile_curvature_series(upper, dim, rho, max_terms)[::-1]
    kern = profile_curvature_kernel(upper, dim, rho, rule)[::-1]
    gap = float(np.max(np.abs(curv - kern)))
    imin = int(np.argmin(curv))
    routes_agree = gap <= ROUTE_TOL * max(1.0, float(np.max(np.abs(curv))))
    return ConvexityReport(
        n=dim.n,
        rho=rho,
        grid_size=T_GRID.size,
        min_curvature=float(curv[imin]),
        argmin_t=float(T_GRID[imin]),
        passed=bool(curv[imin] >= CONVEXITY_FLOOR and routes_agree),
        max_route_gap=gap,
        series_terms=tuple(series_cutoff(rho, lam, max_terms)
                           for lam in (dim.lambda_low, dim.lambda_mid, dim.lambda_high)),
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


def _green_profile(u, dim: DimensionParams, rho: float, rule: QuadratureRule):
    """f(u) - f(0) = int_0^u (u - s) f''(s) ds for u in [0, 1], f the normalized profile.

    Exact for an even f (f'(0) = 0). f'' is the kernel curvature at
    _GREEN_ORDER Gauss nodes per _green_edges panel, expanded in Legendre
    polynomials per panel; both integrals are closed-form on that expansion.
    """
    gl = gauss_legendre(_GREEN_ORDER)
    edges = _green_edges(rho)
    nodes, _ = map_panels(edges, gl)
    half = 0.5 * np.diff(edges)
    # Legendre coefficients from Gauss values: c_k = (k + 1/2) sum_i w_i P_k(x_i) f_i
    basis = eval_sequence(0.5, _GREEN_ORDER - 1, gl.nodes)
    to_coef = (np.arange(_GREEN_ORDER) + 0.5)[:, None] * basis * gl.weights
    curv = profile_curvature_kernel(nodes, dim, rho, rule).reshape(-1, _GREEN_ORDER)
    c1 = half[:, None] * _legendre_integral(curv @ to_coef.T)  # f'(s) - f'(a_j) on panel j
    c2 = half[:, None] * _legendre_integral(c1)                # and its integral from a_j
    # f' and f - f(0) at the left edges a_j; P_k(1) = 1 gives each panel's increments
    slope = np.concatenate(([0.0], np.cumsum(c1.sum(axis=1))))[:-1]
    level = np.concatenate(([0.0], np.cumsum(2.0 * half * slope + c2.sum(axis=1))))[:-1]
    j = np.clip(np.searchsorted(edges, u, side="right") - 1, 0, half.size - 1)
    x = (u - edges[j]) / half[j] - 1.0
    poly = (eval_sequence(0.5, _GREEN_ORDER + 1, x) * c2[j].T).sum(axis=0)
    return level[j] + slope[j] * (u - edges[j]) + poly


def certify_radial_max(n: int, rho: float, rule: QuadratureRule | None = None) -> RadialMaxReport:
    """Scan the directional constant over ALPHA_GRID, from 0 to pi.

    The values are the Green profile (_green_profile) at |cos(alpha)|,
    anchored at constant_direct(alpha = pi/2). Certifies that alpha = 0
    attains the grid maximum within TIE_TOLERANCE (a tie at alpha = pi is
    exact, as both share |t| = 1) and that the maximum reproduces the closed
    radial formula to ROUTE_TOL.
    """
    dim = DimensionParams(n)
    rule = _default_rule(rule)
    anchor = constant_direct(ConstantQuery(dim, rho, math.pi / 2), rule)
    values = anchor + dim.c_n / (1.0 - rho * rho) * _green_profile(
        np.abs(np.cos(ALPHA_GRID)), dim, rho, rule)
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
