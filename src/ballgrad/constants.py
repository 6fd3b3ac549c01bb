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

The two per-t quadratures of the certificates (kernel curvature and kink
integrals) are array expressions over the whole t-grid, taken in blocks of
_T_CHUNK rows so that the (rows, nodes) temporaries stay small; so is the
inner matrix of constant_direct, in place in one reused buffer. Every
rho-power series (the three curvature pair sums and the lagged series part
of the profile) is one call of gegenbauer.pair_series: a single blocked
recurrence over the stacked (lam, argument) rows on the whole t-grid, max(K)
steps instead of sum(K).

The profile and its curvature are even in t (see _even_in_t), so both
certificate sweeps evaluate them once per distinct |t| of their grids and
mirror the values back; the convexity grid is made exactly antisymmetric, so
its 201 points take 101 columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gegenbauer import DimensionParams, gamma_ratio, pair_series, pair_weights, series_cutoff
from .quadrature import QuadratureRule, composite_nodes, gauss_legendre, map_panels

__all__ = [
    "SeriesControl",
    "ConstantQuery",
    "ConvexityReport",
    "RadialMaxReport",
    "DEFAULT_QUAD_ORDER",
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

DEFAULT_QUAD_ORDER = 128
CONVEXITY_FLOOR = -1e-12
TIE_TOLERANCE = 1e-12
RADIAL_MATCH_TOL = 1e-8
# rows per block of the t-sweeps and the direct route's inner matrix; bounds temporaries
_T_CHUNK = 32


def _default_rule(rule: QuadratureRule | None) -> QuadratureRule:
    return rule if rule is not None else gauss_legendre(DEFAULT_QUAD_ORDER)


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the rho-power series.

    At the default tail tolerance the default term cap covers rho = 0.99 only
    for lam <= 3 (7,657 terms at lam = 3): `certify` for n <= 4 and the series
    route of `constant` for n <= 8. Past that the series routes raise
    SeriesConvergenceError.
    """

    max_terms: int = 8192
    tail_tol: float = 1e-14

    def __post_init__(self):
        if self.max_terms < 8:
            raise ValueError(f"max_terms must be at least 8, got {self.max_terms}")
        if not self.tail_tol > 0:
            raise ValueError(f"tail_tol must be positive, got {self.tail_tol}")


_DEFAULT_CONTROL = SeriesControl()


def _default_control(ctl: SeriesControl | None) -> SeriesControl:
    return ctl if ctl is not None else _DEFAULT_CONTROL


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
    return n * (n - 2) / (2.0 * math.pi) / (1.0 - rho * rho) * total


def _kink_integrals(t, dim: DimensionParams, rho: float, rule: QuadratureRule):
    """The two kink integrals of the profile, for scalar or vector t.

    Row i integrates over the panels [0, arccos(delta t_i)] and
    [arccos(delta t_i), pi]; |delta t_i| <= delta < 1 keeps the kink inside.
    """
    n = dim.n
    delta = (n - 2) / n * rho
    ta = np.atleast_1d(np.asarray(t, dtype=float))
    dt = delta * ta
    edges = np.empty((ta.size, 3))
    edges[:, 0] = 0.0
    edges[:, 1] = np.arccos(dt)
    edges[:, 2] = math.pi
    plain = np.empty_like(ta)
    weighted = np.empty_like(ta)
    for lo in range(0, ta.size, _T_CHUNK):
        rows = slice(lo, lo + _T_CHUNK)
        nodes, wts = map_panels(edges[rows], rule)
        c = np.cos(nodes)
        base = np.abs(dt[rows, None] - c) * np.sin(nodes) ** (n - 2) * wts
        plain[rows] = base.sum(axis=1)
        weighted[rows] = (n - 2) * rho * ta[rows] * (base * c).sum(axis=1)
    return plain, weighted


def _tail_series(t, dim: DimensionParams, rho: float, ctl: SeriesControl):
    """Series part of the profile, for scalar or vector t.

    Term k couples degree k-2 at lam_high with degree k at lam_low, weighted
    by (k-2)!/(n+2)_(k-2) rho^k; (n+2)_m = (2 lam_high)_m.
    """
    n = dim.n
    delta = (n - 2) / n * rho
    ta = np.atleast_1d(np.asarray(t, dtype=float))
    if rho == 0.0:
        return np.zeros_like(ta)
    lam_h, lam_l = dim.lambda_high, dim.lambda_low
    K = series_cutoff(rho, lam_l, ctl)
    total = pair_series([(lam_h, delta * ta, lam_l, ta)],
                        [pair_weights(lam_h, rho, K, lag=2)], lag=2)[0]
    pref = (2.0 / (n * n - 1.0)) * (1.0 - (delta * ta) ** 2) ** ((n + 1) / 2.0)
    return pref * total


def profile_parts(t, dim: DimensionParams, rho: float,
                  ctl: SeriesControl | None = None,
                  rule: QuadratureRule | None = None):
    """The three additive parts of the normalized constant profile at t = cos(alpha).

    Returns (plain kink integral, weighted kink integral, series part); each
    entry is a float for scalar t and an ndarray for vector t.
    """
    ta = np.asarray(t, dtype=float)
    if np.any(np.abs(ta) > 1.0):
        raise ValueError("t must lie in [-1, 1]")
    rule = _default_rule(rule)
    ctl = _default_control(ctl)
    plain, weighted = _kink_integrals(ta, dim, rho, rule)
    tail = _tail_series(ta, dim, rho, ctl)
    if ta.ndim == 0:
        return float(plain[0]), float(weighted[0]), float(tail[0])
    return plain, weighted, tail


def constant_series(q, ctl: SeriesControl | None = None,
                    rule: QuadratureRule | None = None):
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
    plain, weighted, tail = profile_parts(t, dim, rho, ctl, rule)
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
    return dim.c_n / (1.0 - rho * rho) * float(wts @ vals)


# -- second derivative of the profile ---------------------------------------


def profile_curvature_series(t, dim: DimensionParams, rho: float,
                             ctl: SeriesControl | None = None):
    """Second derivative of the profile by its three-series representation."""
    ta = np.asarray(t, dtype=float)
    if np.any(np.abs(ta) >= 1.0):
        raise ValueError("t must lie in (-1, 1)")
    ctl = _default_control(ctl)
    n = dim.n
    delta = (n - 2) / n * rho
    tv = np.atleast_1d(ta)
    x1 = delta * tv
    g = 1.0 - x1 * x1

    lams = (dim.lambda_low, dim.lambda_mid, dim.lambda_high)
    s_low, s_mid, s_high = pair_series(
        [(lam, x1, lam, tv) for lam in lams],
        [pair_weights(lam, rho, series_cutoff(rho, lam, ctl)) for lam in lams])

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
    ta = np.asarray(t, dtype=float)
    if not np.all(np.abs(ta) < 1.0):
        raise ValueError(f"t must lie in (-1, 1), got {t}")
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


def _even_in_t(f, t):
    """f(t) for an f that is even in t = cos(alpha), evaluated once per distinct |t|.

    Exact for the profile and its curvature: C(x, l) = C(x, -l), since the
    constant integrates |grad P . l|, and the reflection x2 -> -x2 fixes
    rho*e1 and maps l_alpha to -l_(pi - alpha), so f(-t) = f(t). A grid that
    is not symmetric simply shares fewer values.
    """
    u, inv = np.unique(np.abs(t), return_inverse=True)
    return f(u)[inv]


@dataclass(frozen=True)
class ConvexityReport:
    """Grid certificate that the constant profile has nonnegative curvature.

    Both curvature routes run once per distinct |t| of the exactly
    antisymmetric grid, so min_curvature and max_route_gap are taken over
    those values, and argmin_t is the first (lower) point of the mirrored
    pair that attains the minimum.
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

    The profile runs once per distinct |cos(alpha)| of the grid, so alpha = 0
    and alpha = pi share one value and their expected tie is exact.
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
    series_terms: int
    quad_order: int


def certify_convexity(n: int, rho: float, grid_size: int = 201,
                      ctl: SeriesControl | None = None,
                      rule: QuadratureRule | None = None,
                      threshold: float = CONVEXITY_FLOOR) -> ConvexityReport:
    """Scan the profile curvature on a uniform open t-grid and certify its sign.

    Also reports the largest discrepancy between the series and kernel
    curvature routes over the grid.
    """
    if grid_size < 3:
        raise ValueError(f"grid_size must be at least 3, got {grid_size}")
    dim = DimensionParams(n)
    ctl = _default_control(ctl)
    rule = _default_rule(rule)
    grid = np.linspace(-0.999, 0.999, grid_size)
    grid = 0.5 * (grid - grid[::-1])  # exactly antisymmetric, as in gauss_legendre
    curv = _even_in_t(lambda u: profile_curvature_series(u, dim, rho, ctl), grid)
    kern = _even_in_t(lambda u: profile_curvature_kernel(u, dim, rho, rule), grid)
    gap = float(np.max(np.abs(curv - kern)))
    imin = int(np.argmin(curv))
    return ConvexityReport(
        n=dim.n,
        rho=rho,
        grid_size=grid_size,
        min_curvature=float(curv[imin]),
        argmin_t=float(grid[imin]),
        passed=bool(curv[imin] >= threshold),
        max_route_gap=gap,
        series_terms=tuple(series_cutoff(rho, lam, ctl)
                           for lam in (dim.lambda_low, dim.lambda_mid, dim.lambda_high)),
        quad_order=rule.order,
    )


def certify_radial_max(n: int, rho: float, alpha_grid=None,
                       ctl: SeriesControl | None = None,
                       rule: QuadratureRule | None = None,
                       tie_tol: float = TIE_TOLERANCE) -> RadialMaxReport:
    """Scan the directional constant over an alpha grid covering [0, pi].

    Certifies that alpha = 0 attains the grid maximum (a tie at alpha = pi is
    expected from the endpoint equality) and that the maximum reproduces the
    closed radial formula.
    """
    dim = DimensionParams(n)
    ctl = _default_control(ctl)
    rule = _default_rule(rule)
    alphas = np.linspace(0.0, math.pi, 181) if alpha_grid is None \
        else np.asarray(alpha_grid, dtype=float)
    if alphas[0] > 1e-12 or math.pi - alphas[-1] > 1e-12:
        raise ValueError("alpha grid must cover [0, pi]")
    profile = _even_in_t(lambda u: sum(profile_parts(u, dim, rho, ctl, rule)), np.cos(alphas))
    values = dim.c_n / (1.0 - rho * rho) * profile
    max_value = float(values.max())
    scale = max(1.0, abs(max_value))
    ties = np.nonzero(values >= max_value - tie_tol * scale)[0]
    value_at_zero = float(values[0])
    radial = constant_radial(dim, rho, rule)
    radial_residual = abs(value_at_zero - radial) / scale
    passed = bool(
        value_at_zero >= max_value - tie_tol * scale
        and radial_residual <= RADIAL_MATCH_TOL
    )
    return RadialMaxReport(
        n=dim.n,
        rho=rho,
        grid_points=len(alphas),
        argmax_alphas=tuple(float(alphas[i]) for i in ties),
        value_at_zero=value_at_zero,
        max_value=max_value,
        interior_gap=value_at_zero - max_value,
        radial_value=radial,
        radial_residual=radial_residual,
        passed=passed,
        series_terms=series_cutoff(rho, dim.lambda_low, ctl),
        quad_order=rule.order,
    )
