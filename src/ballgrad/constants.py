"""Sharp directional-derivative constants for bounded harmonic functions on
the unit ball.

The directional constant C(rho*e1, l_alpha) is computed by three independent
routes that cross-validate each other, and in closed form at alpha = pi/2:

* constant_direct   -- the double-integral representation, by nested
                       Gauss-Legendre quadrature after trigonometric
                       substitution;
* constant_series   -- the ultraspherical-expansion representation: the two
                       kink integrals, in closed form, plus a rho-power series;
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
cancels as rho -> 1 and it is never below (1 - rho)^2; _inv_power raises it in place. One
function, _poisson_rows, integrates the rows of the inner integral of constant_direct (those of
every folded angle of a chunk stacked into one row set) and of the kernel curvature, each rule's
rows in blocks of about _CELLS cells, bit-identical to one matrix per rule. Every panel, of these
rows and of constant_direct's outer integral, takes the fewest Gauss nodes of the ladder order/8,
/4, /2, order that the Bernstein-ellipse bound of its integrand allows (_panel_bounds): the
pole psi = i arccosh(1 + 2 c0/c1) of a row c0 + c1 sin^2(psi/2) sends it to one plain panel
(c0 >= tau_N c1, _far_ratio) or, once rho >= 0.8, to panels graded around the peak
(_graded_edges); the outer integrand's singular curve sets the orders of its panels
(_outer_bounds). A graded or outer panel also keeps enough nodes to average the rounding of a
large power (_panel_orders). constant_radial integrates its one kinked row itself, on the rule
itself on every panel, graded by the same full-order pole test.
The profile's kink integrals, at degrees 0 and 1, sum to 2 (1 - s^2)^((n+1)/2) / (n - 1),
s = delta t (profile_parts): no quadrature. Every rho-power series (the three curvature pair
sums and the lagged series part of the profile) is one call of gegenbauer.pair_series: a single
blocked recurrence over the stacked (lam, argument) rows, max(K) steps, not sum(K), in windows
whose segments step together: O(sqrt(K)) numpy calls a series of few t.

The profile f and its curvature are even in t: C(x, l) = C(x, -l), and the
reflection x2 -> -x2 fixes rho*e1 and maps l_alpha to -l_(pi - alpha). So constant_direct,
given one query or a batch at one (n, rho) as constant_series is, integrates once per distinct
min(alpha, pi - alpha), f'(0) = 0 and f(t) = f(0) + int_0^|t| (|t| - s) f''(s) ds. One cached kernel
curvature sweep per radius (_green_profile), on the Green nodes in (0, 1), is the only
curvature route of both certificates: the radial-max one reads this Green profile on
ALPHA_GRID, constant_transverse plus one matvec of f'' with the linear map that integrates it
twice in closed form, cached per panel set (_green_map); the convexity one the curvature at the
nodes themselves, refereed by constant_direct at pi/3. The panels depend on rho alone and
ALPHA_GRID is a constant, as the accuracy contracts are; the series routes' one setting is their
term cap.

Every rule a route integrates on is cached with the tables read off its nodes: the inner rows'
(_plain_table, _panel_table), the outer rules of constant_direct (_outer_rules), the radial
(_radial_table) and transverse (_transverse_table) rules and the Green map (_green_map). A cache
holds rules and tables read off their nodes, never a Poisson power p^-e and never a returned
value (the one Green profile of _green_profile aside), and each keyed by a radius has a maxsize.
Every expression keeps its operation order, so a cached table gives the bits a per-call one gave.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gegenbauer import (SERIES_MAX_TERMS, DimensionParams, _checked_rho, _dimension, _inside,
                         _value, eval_sequence, pair_series, pair_weights, series_cutoff)
from .quadrature import (DEFAULT_QUAD_ORDER, QuadratureRule, _first_rung, _ladder, composite_nodes,
                         gauss_legendre, map_panels, panel_edges)

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
_OUTER_CHUNK = 8  # folded angles bounded together and integrated as one row set (_outer_rules)
_CELLS = 2 ** 14  # about the cells (rows x nodes) of one _poisson_rows block: a few in L2
# Gauss nodes per panel of the Green profile (_green_profile), and its map from
# Gauss values to Legendre coefficients: c_k = (k + 1/2) sum_i w_i P_k(x_i) f_i
_GREEN_ORDER = 16
_GREEN_TO_COEF = ((np.arange(_GREEN_ORDER) + 0.5)[:, None]
                  * eval_sequence(0.5, _GREEN_ORDER - 1, gauss_legendre(_GREEN_ORDER).nodes)
                  * gauss_legendre(_GREEN_ORDER).weights)
_GREEN_TO_COEF.flags.writeable = False
# the distinct |cos(alpha)| of ALPHA_GRID, the rows of _green_map, and each angle's row
_GREEN_U, _GREEN_ROW = np.unique(np.abs(np.cos(ALPHA_GRID)), return_inverse=True)
_GREEN_U.flags.writeable = _GREEN_ROW.flags.writeable = False


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


def _graded_edges(rho: float, peak: float = 0.0, kinks=()) -> np.ndarray:
    """Panel edges over [0, pi]: the kinks and, once rho >= 0.8, peak +- m (1 - rho), m = 1, 16,
    256, 4096, around the peak of 1/(1 - 2 rho cos(theta - peak) + rho^2), whose poles lie about
    1 - rho off the axis (panel_edges drops the edges outside (0, pi))."""
    grading = [peak + s * m * (1.0 - rho) for m in (1, 16, 256, 4096) for s in (-1, 1)]
    return panel_edges(0.0, math.pi, list(kinks) + (grading if rho >= 0.8 else []))


# -- the Poisson-power quadrature of every route -----------------------------

_ELLIPSES = np.array([0, 1, 2, 4, 6, 7]) / 8.0  # k of r = 1 + k (r_pole - 1); 0: the panel
_PSI = np.linspace(0.0, math.pi, 33)  # where the outer integrand's singular curve is sampled
_ROUND_EPS = 8.0  # the rounding a panel may add, in eps (_panel_orders)


def _panel_bounds(lo, hi, poles, log_upper, order: int, log_lower=None, points: int = 128):
    """(bound, low): the log of the Gauss error bound 64 h M / (15 (r^2 - 1) r^(2N - 2)) of N nodes
    (Trefethen, ATAP, Thm 19.3) on each panel [lo_j, hi_j] (last axis) at N = order // 8, // 4, // 2
    and order (first axis), and the log of the largest exp(log_lower) (log_upper if not given) on
    it. The nearest of its poles (..., P or 1, Q; f is real on the axis) sets r_pole; log M, the
    largest log_upper(x, y) >= log |f(x + iy)| on the upper half of r = 1 + k (r_pole - 1), counts
    the growth of f off the axis: the best of k = 1/8, 1/4, 1/2, 3/4, 7/8."""
    h, c = 0.5 * (hi - lo), 0.5 * (hi + lo)
    # on the ellipse of [a, b] through z, r + 1/r = (|z - a| + |z - b|) / h
    q = (np.abs(poles - lo[:, None]) + np.abs(poles - hi[:, None])).min(-1) / (2.0 * h)
    r = 1.0 + (q + np.sqrt((q - 1.0) * (q + 1.0)) - 1.0)[..., None] * _ELLIPSES
    th = (np.arange(points) + 0.5) * math.pi / points
    x = c[:, None, None] + 0.5 * h[:, None, None] * (r + 1.0 / r)[..., None] * np.cos(th)
    y = 0.5 * h[:, None, None] * (r - 1.0 / r)[..., None] * np.sin(th)
    r, n = r[..., 1:], _ladder(order)[0].reshape((4,) + (1,) * r.ndim)
    with np.errstate(divide="ignore"):  # a pole on the panel (r = 1): an infinite bound
        log_f = log_upper(x, y)
        low = log_f[..., :1, :] if log_lower is None else log_lower(x[..., :1, :])
        bound = np.log(64.0 * h / 15.0)[:, None] + log_f[..., 1:, :].max(-1) - np.log(r * r - 1)
    return (bound - 2 * (n - 1) * np.log(r)).min(-1), low.max((-2, -1))


def _panel_orders(bound, scale, order: int, power: float) -> np.ndarray:
    """Each panel's (last axis) first order N of the ladder, none below 16 but order itself, whose
    bound is at most 2^-52 of the scale at every other index and whose rounding is at most
    _ROUND_EPS eps: an integrand sin^m p^-e of power m + e turns the rounding of each double (node,
    weight, p) into about (m + e) eps, and N nodes average it to power eps / sqrt(N)."""
    ok = (bound <= scale - 52 * math.log(2)).reshape(4, -1, bound.shape[-1]).all(1)
    return _first_rung(ok & (power <= _ROUND_EPS * np.sqrt(_ladder(order)[0]))[:, None], order)


def _mapped(edges, orders):
    """Nodes and weights of one Gauss panel of order orders[j] on [edges[j], edges[j + 1]]."""
    rules, j = [gauss_legendre(int(k)) for k in orders], np.repeat(np.arange(orders.size), orders)
    h, c = 0.5 * np.diff(edges)[j], 0.5 * (edges[1:] + edges[:-1])[j]
    return (c + h * np.concatenate([r.nodes for r in rules]),
            h * np.concatenate([r.weights for r in rules]))


def _row_bounds(edges, s, m: int, e: float, order: int):
    """_panel_bounds, the largest low taken over the panels (a column), of the rows sin^m (s +
    sin^2(z/2))^-e, one per c0/c1 = s (first axis), whose pole is i arccosh(1 + 2s) =
    2i arcsinh(sqrt(s))."""
    s = np.asarray(s, dtype=float)[:, None, None, None]

    def log_f(x, y):  # |sin z|^2 = sx^2 + shy^2, 2 sin^2(z/2) = 1 - cos x cosh y + i sx shy
        sx, shy = np.sin(x), np.sinh(y)
        return 0.5 * m * np.log(sx * sx + shy * shy) - 0.5 * e * np.log(
            (s + 0.5 - 0.5 * np.cos(x) * np.cosh(y)) ** 2 + (0.5 * sx * shy) ** 2)

    bound, low = _panel_bounds(edges[:-1], edges[1:], 2j * np.arcsinh(np.sqrt(s[..., 0])), log_f,
                               order)
    return bound, low.max(-1, keepdims=True)


@functools.lru_cache(maxsize=None)
def _far_ratio(order: int, m: int, e: float) -> np.ndarray:
    """tau_N, read-only, for N = order // 8, // 4, // 2 (inf below 16) and order: the least c0/c1
    of a grid from 1e-6 to 1e4 (inf if none) from which one order-N panel [0, pi] integrates sin^m
    |p|^-e, p = c0 + c1 sin^2(psi/2), to 2^-52 of its maximum (_row_bounds)."""
    s = np.logspace(-6.0, 4.0, 41)
    bound, low = _row_bounds(np.array([0.0, math.pi]), s, m, e, order)
    # ok[N, j]: the j + 1 largest s all meet the bound
    ok = np.logical_and.accumulate((bound[..., 0] <= low[:, 0] - 52 * math.log(2))[:, ::-1], 1)
    taus = np.where(ok[:, 0] & _ladder(order)[1], s[-ok.sum(1)], math.inf)
    taus.flags.writeable = False
    return taus


def _table(t, w, m: int):
    """sin^2(t/2), sin^2 t and w sin^m t, read-only."""
    table = np.stack((np.sin(0.5 * t) ** 2, np.sin(t) ** 2, w * np.sin(t) ** m))
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=256)
def _panel_table(rho: float, rule: QuadratureRule, m: int, e: float, bracket: bool):
    """_table on the graded panels (_graded_edges), each on the first order whose bound meets
    2^-52 of the maximum at every c0/c1 = 2^k from 2^lo to the rule's own tau_N, above which no
    row is near (_row_bounds, eight ratios at a time; the bracket as sin^4): the nearest pole sets
    the orders at the peak, the farthest, whose maximum is the least, often those of the other
    panels. lo is log2((1 - rho)^2 / (4 rho)), the least c0/c1 of every route's rows, rounded
    down (not below -60)."""
    edges, mb = _graded_edges(rho), m + 4 * bracket
    lo = math.floor(math.log2(max((1.0 - rho) ** 2 / (4.0 * rho), 2.0 ** -60)))
    hi = math.ceil(math.log2(min(_far_ratio(rule.order, mb, e)[3], 2.0 ** 14)))
    orders = np.max([_panel_orders(*_row_bounds(edges, 2.0 ** np.arange(k, min(k + 8, hi + 1)),
                                                mb, e, rule.order), rule.order, mb + e)
                     for k in range(lo, hi + 1, 8)], 0)
    return _table(*_mapped(edges, orders), m)


@functools.lru_cache(maxsize=256)
def _plain_table(rule: QuadratureRule, m: int):
    """_table on one plain panel [0, pi] of the rule."""
    return _table(*map_panels(panel_edges(0.0, math.pi), rule), m)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # callers raise; tau * c1 = inf * 0
def _poisson_rows(rho: float, rule: QuadratureRule, c0, c1, e: float, m: int, a=None):
    """For every row r, sum_i w_i sin(t_i)^m p_ri^-e (p_ri - a_r sin(t_i)^2)^2, the bracket only
    if a is given, p_ri = c0_r + c1_r sin(t_i/2)^2, on the first rule whose pole test c0_r >= tau_N
    c1_r the row meets (tau_N = _far_ratio, the bracket as sin^4; c1_r = 0 meets a finite tau_N):
    one plain panel [0, pi] of order N = rule.order // 8, // 4, // 2 or rule.order (the last also
    for the rows that meet no test below rho = 0.8), else the graded panels, their orders from the
    bound over every c0/c1 a near row can take (_panel_table).

    Each rule's rows run in blocks of max(1, _CELLS // (32 nodes)) times 32 rows, a last block of
    fewer than four rows joined to the one before, each block a (rows, nodes) matrix; a rule whose
    rows fit in one block is one matrix. This is bit-identical to one matrix per rule: BLAS's
    matrix-vector product sums rows four at a time and the rest apart, and numpy takes a lone row
    as a dot, so only where a block ends may move a row's sum. Overflow gives inf or nan silently;
    each caller raises its own OverflowError."""
    tau = _far_ratio(rule.order, m + 4 * (a is not None), e)[:3 + (rho >= 0.8), None]
    group = tau.size - (c0 >= tau * c1).sum(0)  # 0-2 ladder, 3 plain, 4 graded: tau_N falls with N
    out = np.empty(c0.size)
    for k, count in enumerate(np.bincount(group).tolist()):  # an np.int64 is a new cache key
        if count == 0:
            continue
        half_sq, sin_sq, wts = _panel_table(rho, rule, m, e, a is not None) if k == 4 else (
            _plain_table(rule if k == 3 else gauss_legendre(int(_ladder(rule.order)[0][k])), m))
        block = 32 * max(1, _CELLS // (32 * wts.size))
        rows = group == k
        for r in [rows] if count < block + 4 else np.split(np.flatnonzero(rows),
                                                             range(block, count - 3, block)):
            v = c1[r, None] * half_sq
            v += c0[r, None]
            if a is not None:  # the squared bracket, taken before v is raised in place
                sq = a[r, None] * sin_sq
                np.subtract(v, sq, out=sq)
                sq *= sq
            _inv_power(v, e)
            out[r] = (v if a is None else v * sq) @ wts
    return out


def _inner_smooth(dim: DimensionParams, rho: float, half_sq, sin_theta, sin_alpha,
                  rule: QuadratureRule):
    """Angular form of the inner integral with its (sin theta)^(n-3) factored out.

    Returns the integral over psi in [0, pi] of (sin psi)^(n-3) / D^(n/2-1),
    D = 1 - 2 rho (cos(theta) cos(alpha) + sin(theta) sin(alpha) cos(psi)) + rho^2
      = c0 + c1 sin^2(psi/2), c0 = (1-rho)^2 + 4 rho sin^2((theta-alpha)/2),
    c1 = 4 rho sin(theta) sin(alpha), for all outer angles theta at once (_poisson_rows), from
    their tables half_sq = sin^2((theta-alpha)/2) and sin_theta; sin_alpha is a scalar or one per
    theta. constant_direct passes the tables _outer_rules keeps for the folded angles of a chunk.
    """
    c0 = (1.0 - rho) ** 2 + 4.0 * rho * half_sq
    c1 = 4.0 * rho * sin_theta * sin_alpha
    return _poisson_rows(rho, rule, c0, c1, dim.n / 2.0 - 1.0, dim.n - 3)


def _outer_bounds(n: int, rho: float, alphas, order: int):
    """(edges, bound, scale, which): the edges _graded_edges(rho, alpha, (arccos(dt),)) of
    constant_direct's outer integral at each folded alpha, and the _panel_bounds (16 points an
    ellipse) and scale of each panel, of alphas[which]. Its integrand |dt - cos| sin^(n-2) I, I =
    int_0^pi sin^(n-3) p^-e (_inner_smooth), is singular only where p = 0: theta = phi(psi) +-
    i arccosh(kappa / R(psi)) + 2 pi k, kappa = (1 + rho^2)/(2 rho), R cos(theta - phi) =
    cos(alpha) cos(theta) + sin(alpha) cos(psi) sin(theta), psi in _PSI (depths past 3 count as
    3). Off it |I| <= W dist(0, [c0, c0 + c1])^-e; on [0, pi] I >= W (c0 + c1)^-e and I >= W/2
    (c0 + c1/2)^-e, whose largest value is the scale; W = int_0^pi sin^(n-3) cancels."""
    e, al = n / 2.0 - 1.0, np.array(alphas)[:, None]
    sa, ca = np.sin(al), np.cos(al)
    dt = (n - 2) / n * rho * ca
    edges = [_graded_edges(rho, a, (math.acos(d),)) for a, d in zip(alphas, dt[:, 0])]
    which = np.repeat(np.arange(len(edges)), [v.size - 1 for v in edges])
    big_r = np.hypot(ca, sa * np.cos(_PSI))
    # arccosh(kappa / R) = 2 arcsinh(sqrt((kappa - R) / 2R)), kappa - 1 = (1 - rho)^2 / (2 rho)
    gap = ((1.0 - rho) ** 2 / (2.0 * rho) if rho > 0.0 else math.inf) + (sa * np.sin(_PSI)) ** 2 / (
        1.0 + big_r)
    with np.errstate(over="ignore"):  # gap / R passes the double range as rho -> 0: depth 3
        depth = np.minimum(2.0 * np.arcsinh(np.sqrt(0.5 * gap / big_r)), 3.0)
    poles = np.arctan2(sa * np.cos(_PSI), ca) + 1j * depth
    al, sa, ca, dt = (v[which][:, :, None] for v in (al, sa, ca, dt))

    def upper(x, y):  # c0(z) = a, c1(z) = b, by cos(z - alpha) and sin z in real parts
        sx, cx, ey = np.sin(x), np.cos(x), np.exp(y)
        chy, shy = 0.5 * (ey + 1.0 / ey), 0.5 * (ey - 1.0 / ey)
        a_re = (1.0 - rho) ** 2 + 2.0 * rho * (1.0 - (cx * ca + sx * sa) * chy)
        a_im = 2.0 * rho * (sx * ca - cx * sa) * shy
        b_re, b_im = 4.0 * rho * sa * sx * chy, 4.0 * rho * sa * cx * shy
        t = np.clip(-(a_re * b_re + a_im * b_im) / (b_re * b_re + b_im * b_im + 1e-300), 0.0, 1.0)
        return 0.5 * (np.log((dt - cx * chy) ** 2 + (sx * shy) ** 2) + (n - 2) * np.log(
            sx * sx + shy * shy) - e * np.log((a_re + t * b_re) ** 2 + (a_im + t * b_im) ** 2))

    def lower(x):  # p <= c0 + c1, and p <= c0 + c1/2 for psi <= pi/2, where sin^(n-3) holds W/2
        c0 = (1.0 - rho) ** 2 + 4.0 * rho * np.sin(0.5 * (x - al)) ** 2
        c1 = 4.0 * rho * sa * np.sin(x)
        return (np.log(np.abs(dt - np.cos(x))) + (n - 2) * np.log(np.abs(np.sin(x))) - e * np.log(
            np.minimum(c0 + c1, 2.0 ** (1.0 / e) * (c0 + 0.5 * c1))))

    bound, low = _panel_bounds(np.concatenate([v[:-1] for v in edges]), np.concatenate(
        [v[1:] for v in edges]), np.concatenate((poles, poles + 2.0 * math.pi), 1)[which], upper,
        order, lower, 16)
    first = np.flatnonzero(np.diff(which, prepend=-1))
    return edges, bound, np.maximum.reduceat(low, first)[which], which


@functools.lru_cache(maxsize=256 // _OUTER_CHUNK)  # at most 256 rules
def _outer_rules(n: int, rho: float, alphas: tuple, rule: QuadratureRule) -> tuple:
    """(nodes, weights, ends, tables) of constant_direct's outer integral at every folded alpha,
    all bounded together and stacked as read-only arrays: alphas[k]'s nodes, weights and table
    columns are [ends[k]:ends[k + 1]] (ends a tuple of ints). Each panel of _outer_bounds takes
    the first order of the rule's ladder whose bound meets 2^-52 of the scale (_panel_orders,
    power n - 2 + e). The tables, read off each node theta and its alpha, are the rows of
    sin^2((theta - alpha)/2), sin(theta), sin(alpha) and the fixed outer factor
    |delta cos(alpha) - cos(theta)| sin^(n-2)(theta) (_inner_smooth and constant_direct). An
    entry holds six doubles a node: at most about 0.37 MB (eight angles at rho = 0.999, n = 64),
    so about 12 MB for the 32 entries. constant_direct passes at most _OUTER_CHUNK alphas, so a
    long grid keeps its temporaries to a few MB; the cache holds rules and their tables only,
    never a Poisson power or an integrand value."""
    edges, bound, scale, which = _outer_bounds(n, rho, alphas, rule.order)
    orders = _panel_orders(bound, scale, rule.order, 1.5 * n - 3.0)
    rules = [_mapped(edges[k], orders[which == k]) for k in range(len(alphas))]
    sizes = [nodes.size for nodes, _ in rules]
    nodes, weights = map(np.concatenate, zip(*rules))
    # each node's alpha, sin(alpha) and delta cos(alpha), by math once per folded angle
    delta = (n - 2) / n * rho
    at, sin_a, dt = (np.repeat(v, sizes) for v in zip(*[(a, math.sin(a), delta * math.cos(a))
                                                          for a in alphas]))
    sin_th = np.sin(nodes)
    tables = np.stack((np.sin(0.5 * (nodes - at)) ** 2, sin_th, sin_a,
                       np.abs(dt - np.cos(nodes)) * sin_th ** (n - 2)))
    for v in (nodes, weights, tables):
        v.flags.writeable = False
    return nodes, weights, tuple(itertools.accumulate(sizes, initial=0)), tables


# -- the three constant routes ----------------------------------------------


def _batch(q):
    """(queries, dim, rho) of one ConstantQuery or a nonempty sequence at one dimension and rho."""
    queries = [q] if isinstance(q, ConstantQuery) else list(q)
    if not queries:
        raise ValueError("no queries given")
    dim, rho = queries[0].dim, queries[0].rho
    if any(p.dim != dim or p.rho != rho for p in queries):
        raise ValueError("queries must share one dimension and rho")
    return queries, dim, rho


def constant_direct(q, rule: QuadratureRule | None = None):
    """Directional constant via the double-integral representation.

    Both integrals run in angle variables at a = min(alpha, pi - alpha), as the
    constant is even in t (pi - alpha is exact for alpha >= pi/2, so the pair
    gives one float); the outer one is split at the kink arccos(delta * cos(a))
    and graded around its peak at theta = a, the inner one graded around psi = 0,
    each panel on the fewest nodes its bound allows (_outer_rules, _poisson_rows).
    `q` is one ConstantQuery (float result) or a sequence at one dimension and rho
    (ndarray result), as for constant_series: each distinct a is integrated once.
    The folded angles of each _OUTER_CHUNK are one stacked row set: one _inner_smooth
    call over the outer nodes of them all, from the node tables _outer_rules keeps, and
    one outer integrand, each angle's outer sum over its own slice.
    """
    queries, dim, rho = _batch(q)
    rule = rule or gauss_legendre(DEFAULT_QUAD_ORDER)
    n = dim.n
    folds = list(dict.fromkeys(min(p.alpha, math.pi - p.alpha) for p in queries))
    scale = n * (n - 2) / (2.0 * math.pi) / ((1.0 - rho) * (1.0 + rho))
    values = {}  # by folded angle
    for lo in range(0, len(folds), _OUTER_CHUNK):
        chunk = tuple(folds[lo:lo + _OUTER_CHUNK])
        _, wts, ends, (half_sq, sin_th, sin_a, outer) = _outer_rules(n, rho, chunk, rule)
        inner = _inner_smooth(dim, rho, half_sq, sin_th, sin_a, rule)
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0: raised below
            vals = outer * inner
        for alpha, i, j in zip(chunk, ends, ends[1:]):
            values[alpha] = scale * float(wts[i:j] @ vals[i:j])
    out = [values[min(p.alpha, math.pi - p.alpha)] for p in queries]
    if not all(map(math.isfinite, values.values())):
        raise OverflowError(f"constant_direct overflows at n={n}, rho={rho}")
    return out[0] if isinstance(q, ConstantQuery) else np.array(out)


def profile_parts(t, dim: int | DimensionParams, rho: float, max_terms: int = SERIES_MAX_TERMS):
    """The two additive parts of the normalized constant profile at t = cos(alpha).

    Returns (kink part, series part); each entry is a float for scalar t and an
    ndarray of t's shape otherwise. The kink part is the kink integrals at lam =
    (n-2)/2, s = delta*t and degrees 0 and 1, the second times rho*t (C_1^lam(x) =
    (n-2) x): with W = int_0^arcsin(s) cos^(n-2), they are 2 g/(n-1) + 2 s W and
    -2 s W - 2 s^2 g/(n-1), g = (1 - s^2)^((n-1)/2), as rho t = n s/(n-2), so
    their sum is 2 (1 - s^2)^((n+1)/2) / (n-1). Term k of the series part
    couples degree k-2 at lam_high with degree k at lam_low, weighted by
    (k-2)!/(n+2)_(k-2) rho^k; (n+2)_m = (2 lam_high)_m.
    """
    dim = _dimension(dim)
    ta = _inside(t, 1.0, "t must lie in [-1, 1]", closed=True)
    K = series_cutoff(rho, dim.lambda_low, max_terms)  # checks rho and max_terms first
    n, tv = dim.n, ta.ravel()
    s = (n - 2) / n * rho * tv
    power = (1.0 - s ** 2) ** ((n + 1) / 2.0)
    tail = np.zeros_like(tv)
    if K > 0:  # K = 0 at rho = 0
        tail = (2.0 / (n * n - 1.0)) * power * pair_series(
            [(dim.lambda_high, s, dim.lambda_low, tv)],
            [pair_weights(dim.lambda_high, rho, K, lag=2)], lag=2)[0]
    return tuple(_value(v.reshape(ta.shape)) for v in (2.0 / (n - 1.0) * power, tail))


def constant_series(q, max_terms: int = SERIES_MAX_TERMS):
    """Directional constant via the ultraspherical-expansion representation.

    `q` is a sequence of queries at one dimension and rho, evaluated in one
    vector profile_parts call over their t = cos(alpha) (ndarray result), or
    one ConstantQuery, run as the batch [q] (float result, out[0]).
    """
    queries, dim, rho = _batch(q)
    t = np.array([p.t for p in queries])
    kink, tail = profile_parts(t, dim, rho, max_terms)
    out = dim.c_n / ((1.0 - rho) * (1.0 + rho)) * (kink + tail)
    return float(out[0]) if isinstance(q, ConstantQuery) else out


@functools.lru_cache(maxsize=64)  # 64 radii: at most 12 kB each (6 panels of 128 nodes)
def _radial_table(n: int, rho: float, rule: QuadratureRule):
    """sin^2(t/2) and the fixed weight w sin^(n-2) t |cos t - delta| of constant_radial's nodes,
    read-only: the rule on each panel, split at arccos(delta), graded from rho = 0.8 on where the
    rule's pole test fails."""
    delta = (n - 2) / n * rho
    near = rho >= 0.8 and (1.0 - rho) ** 2 < _far_ratio(rule.order, n - 2, n / 2 - 1)[3] * (4 * rho)
    t, w = map_panels(_graded_edges(rho if near else 0.0, 0.0, (math.acos(delta),)), rule)
    table = np.stack((np.sin(0.5 * t) ** 2, w * (np.sin(t) ** (n - 2) * np.abs(np.cos(t) - delta))))
    table.flags.writeable = False
    return table


def constant_radial(n, rho: float, rule: QuadratureRule | None = None) -> float:
    """Sharp constant in the radial direction, by the closed 1-D formula c_n / (1 - rho^2) int_0^pi
    sin^(n-2) |cos - delta| p^-(n-2)/2, p = (1 - rho)^2 + 4 rho sin^2(theta/2), on the nodes and
    fixed weights of _radial_table."""
    dim = _dimension(n)
    rule = rule or gauss_legendre(DEFAULT_QUAD_ORDER)
    n = dim.n
    half_sq, weights = _radial_table(n, _checked_rho(rho), rule)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        p = _inv_power(4.0 * rho * half_sq + (1.0 - rho) ** 2, (n - 2) / 2.0)
        total = p @ weights
    value = dim.c_n / ((1.0 - rho) * (1.0 + rho)) * float(total)
    if not math.isfinite(value):
        raise OverflowError(f"constant_radial overflows at n={dim.n}, rho={rho}")
    return value


@functools.lru_cache(maxsize=64)  # 64 radii: at most 10 kB each (5 panels of 64 nodes)
def _transverse_table(rho: float):
    """(weights, cos, sin, sqrt(cos^2 + (eps sin)^2)) of constant_transverse's nodes, read-only:
    64 Gauss nodes per panel of [0, pi/2], graded into its layer at pi/2, of width eps =
    sqrt(1-rho^2)."""
    eps = math.sqrt((1.0 - rho) * (1.0 + rho))
    nodes, wts = composite_nodes(0.0, math.pi / 2, gauss_legendre(64),
                                 [math.pi / 2 - m * eps for m in (1.0, 4.0, 16.0, 64.0)])
    c, s = np.cos(nodes), np.sin(nodes)
    table = np.stack((wts, c, s, np.sqrt(c * c + (eps * s) ** 2)))
    table.flags.writeable = False
    return table


def constant_transverse(n, rho: float) -> float:
    """Sharp constant at alpha = pi/2: 2 c_n F / ((n-1)(1-rho^2)), F = 2F1(-1/2,
    n/2-1; (n+1)/2; rho^2). By Euler's integral for F (DLMF 15.6.1, s = sin^2 phi),
    whose Gamma factors and 2 c_n/(n-1) cancel to n(n-2)/pi, it is n(n-2) E / (pi
    (1-rho^2)), E = int_0^(pi/2) 2 sin^(n-3) cos^2 sqrt(cos^2 + (1-rho^2) sin^2) dphi,
    on the nodes of _transverse_table. Never overflows."""
    n = _dimension(n).n
    wts, c, s, root = _transverse_table(_checked_rho(rho))
    euler = float(wts @ (2.0 * s ** (n - 3) * c * c * root))
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


@functools.lru_cache(maxsize=8)  # 8 panel sets; the most panels, 40, take 0.79 MB
def _green_map(edges: tuple, order: int):
    """(the Green nodes of these panel edges, L), read-only: L @ f'' is int_0^u (u - s) p(s) ds
    at each u of _GREEN_U, p the Legendre interpolant of f'' per panel (_GREEN_TO_COEF, this order).
    With h a panel's half-width, a panel below u adds h w_k (u - s_k), exact as (u - s) p has degree
    order; the one that holds u, h^2 P_k(x(u)) times the basis integrated twice; those above, none.
    The edges depend on rho only through how far they grade toward t = 0 and toward t = 1."""
    edges, u = np.array(edges), _GREEN_U[:, None]
    nodes, weights = map_panels(edges, gauss_legendre(order))
    half = 0.5 * np.diff(edges)
    j = np.clip(np.searchsorted(edges, u, side="right") - 1, 0, half.size - 1)
    lmap = np.where(np.arange(nodes.size) < order * j, weights * (u - nodes), 0.0)
    held = (_legendre_integral(_legendre_integral(_GREEN_TO_COEF.T))
            @ eval_sequence(0.5, order + 1, ((u - edges[j]) / half[j]).ravel() - 1.0))
    np.put_along_axis(lmap, order * j + np.arange(order), half[j] ** 2 * held.T, 1)
    lmap.flags.writeable = nodes.flags.writeable = False
    return nodes, lmap


@functools.lru_cache(maxsize=1)
def _green_profile(dim: DimensionParams, rho: float, rule: QuadratureRule):
    """(the constant on ALPHA_GRID, the Green nodes, f'' at them), read-only and cached:
    one kernel curvature sweep feeds both certificates. The constant is constant_transverse
    + c_n / (1 - rho^2) int_0^u (u - s) f''(s) ds at u = |cos(alpha)| (f the even normalized
    profile), one matvec of the panel set's cached linear map (_green_map) with f''.
    """
    nodes, lmap = _green_map(tuple(_green_edges(rho).tolist()), _GREEN_ORDER)
    curv = profile_curvature_kernel(nodes, dim, rho, rule)
    profile = (lmap @ curv)[_GREEN_ROW]
    values = constant_transverse(dim, rho) + dim.c_n / ((1.0 - rho) * (1.0 + rho)) * profile
    values.flags.writeable = curv.flags.writeable = False
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
