"""Numerical checks of the classical ultraspherical identities: orthogonality,
the addition and product theorems, the product-formula kernel, the weighted
derivative identity, and the kink integral with its closed form.

Every check takes plain arguments, checks its domain before any work, and takes
its sampled ones (angles, points, degrees of an inner product) as scalars or
ndarrays: a scalar gives a float, an array an array of its shape. Polynomial
values are read off one recurrence table by gegenbauer.eval_recurrence
(legendre on run_suite's lam = 1/2 route), integrals run as one batch of
quadrature rows with the scalar path's non-finite check. The addition
theorems, the weighted derivative and both kink forms also take one degree per
sample; run_suite calls them with every degree of one lam at once, the brute
kink form once per Gauss order: each degree takes the fewest nodes of the
rule's ladder (order // 8, // 4, // 2, order) that a closed-form
Bernstein-ellipse bound allows, a function of (lam, degree, order) alone.
Either way a sample's value equals the scalar call bit for bit, so fractional
powers of sampled values are taken with np.power: `**` on a numpy scalar calls
the C library's pow, which can round differently from numpy's array loop.

All weighted integrals on [-1, 1] run in x = cos(theta), where the weight
(1-x^2)^(lam-1/2) is (sin theta)^(2 lam): analytic on [0, pi] only where 2 lam
is an integer; at lam = 0, C_k^0 vanishes for k >= 1 in this normalisation.
So run_suite refuses the quadrature checks unless 2 lam is a positive integer,
and kink_integral_brute refuses such a lam itself.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# assoc_legendre, integrate and integrate_split are not called here: bench/spans.py
# traces calls through these names in this module.
from .gegenbauer import (  # noqa: F401
    _inside,
    _value,
    assoc_legendre,
    eval_recurrence,
    eval_sequence,
    gamma_ratio,
    legendre,
    pochhammer,
)
from .quadrature import (  # noqa: F401
    DEFAULT_QUAD_ORDER,
    QuadratureRule,
    _first_rung,
    _ladder,
    composite_nodes,
    gauss_legendre,
    integrate,
    integrate_split,
    integrate_values,
    map_panels,
)

__all__ = [
    "addition_coefficient",
    "orthogonality_integral",
    "orthogonality_closed_form",
    "addition_theorem_rhs",
    "legendre_addition_rhs",
    "product_formula_check",
    "kernel_product_check",
    "weighted_derivative_check",
    "kink_integral_closed",
    "kink_integral_brute",
    "run_suite",
    "SUITE_TOLERANCES",
]

_FD_STEP = 1e-5  # central-difference step for all derivative oracles


def _angles(*angles):
    """The angles as float arrays of one broadcast shape, each in [0, pi]."""
    out = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in angles))
    for a in out:
        bad = a[~((a >= 0.0) & (a <= math.pi))]
        if bad.size:
            raise ValueError(f"angles must lie in [0, pi], got {bad[0]}")
    return out


def _addition_sum(lam: float, k, theta, phi, coefficient, last):
    """The right side of both addition theorems: the sum over j = 0..k of
    coefficient(k, j) (sin theta sin phi)^j C_{k-j}^{lam+j}(cos theta)
    C_{k-j}^{lam+j}(cos phi) L_j, where last(j) returns the rows L_j for the
    column j = 0..max(k).

    k is a degree or one degree per sample. The sum runs in sequence over j
    and each sample takes the partial sum at its own degree, so the terms
    past it (j > k) never enter its value.
    """
    k = np.broadcast_to(k, theta.shape)
    j = np.arange(k.max(initial=0) + 1).reshape((-1,) + (1,) * theta.ndim)
    table = np.zeros((j.size, j.size))
    for d in set(k.ravel().tolist()):
        table[d, :d + 1] = [coefficient(d, i) for i in range(d + 1)]
    # row j is C_{k-j}^{lam+j} (C_0 = 1 for j > k): up to 2^j (lam)_j, the j-th derivative of C_k^lam
    family = eval_recurrence(lam + j[:, None], np.maximum(k - j, 0)[:, None], np.cos((theta, phi)))
    fam_theta, fam_phi = np.moveaxis(family, 1, 0)
    terms = (np.moveaxis(table[k], -1, 0) * (np.sin(theta) * np.sin(phi)) ** j
             * fam_theta * fam_phi * last(j))
    return np.take_along_axis(np.cumsum(terms, axis=0), k[None], axis=0)[0]


def _legendre_coefficient(k: int, j: int) -> float:
    return ((1.0 if j == 0 else 2.0)
            * math.exp(math.lgamma(k - j + 1.0) - math.lgamma(k + j + 1.0))
            * ((2.0 ** j) * pochhammer(0.5, j)) ** 2)


def addition_coefficient(lam: float, k: int, j: int) -> float:
    """Weight of the j-th term in the ultraspherical addition theorem (lam > 1/2)."""
    if not lam > 0.5:
        raise ValueError(f"addition coefficients need lam > 1/2, got {lam}")
    if not 0 <= j <= k:
        raise ValueError(f"need 0 <= j <= k, got j={j}, k={k}")
    log_val = (
        math.lgamma(2.0 * lam - 1.0)
        - 2.0 * math.lgamma(lam)
        + 2.0 * j * math.log(2.0)
        + math.lgamma(k - j + 1.0)
        + 2.0 * math.lgamma(lam + j)
        - math.lgamma(k + 2.0 * lam + j)
    )
    return (2.0 * lam + 2.0 * j - 1.0) * math.exp(log_val)


def orthogonality_closed_form(lam: float, k: int) -> float:
    """Diagonal value of the weighted L2 inner product of C_k^lam with itself."""
    return gamma_ratio((0.5, lam + 0.5), (lam,)) * pochhammer(2.0 * lam, k) / (
        (k + lam) * math.factorial(k)
    )


def orthogonality_integral(lam: float, k, l, rule: QuadratureRule):
    """Weighted inner product of C_k^lam and C_l^lam on [-1, 1] by quadrature.

    Vanishes for k != l; equals orthogonality_closed_form(lam, k) on the
    diagonal. k and l may be integer arrays that broadcast: every pair is a
    row of one batch over a single recurrence up to the largest degree.
    """
    if not lam > -0.5 or lam == 0.0:
        raise ValueError(f"lam must exceed -1/2 and be nonzero, got {lam}")
    k, l = np.broadcast_arrays(np.asarray(k), np.asarray(l))
    theta, w = composite_nodes(0.0, math.pi, rule)
    seq = eval_sequence(lam, int(max(k.max(initial=0), l.max(initial=0))), np.cos(theta))
    vals = (np.sin(theta) ** (2.0 * lam)) * seq[k] * seq[l]
    return _value(integrate_values(vals, w))


def addition_theorem_rhs(lam: float, k, theta, phi, psi):
    """Right side of the addition theorem; equals C_k^lam applied to the
    combined argument cos(theta)cos(phi) + sin(theta)sin(phi)cos(psi).

    Only valid for lam > 1/2; use legendre_addition_rhs at lam = 1/2. The
    angles may be arrays that broadcast against each other; k is a degree or
    an integer array of one degree per sample, of the angles' shape.
    """
    if not lam > 0.5:
        raise ValueError(
            f"addition theorem needs lam > 1/2 (got {lam}); "
            "use legendre_addition_rhs for the lam = 1/2 case"
        )
    theta, phi, psi = _angles(theta, phi, psi)
    return _value(_addition_sum(lam, k, theta, phi, lambda d, i: addition_coefficient(lam, d, i),
                                lambda j: eval_sequence(lam - 0.5, len(j) - 1, np.cos(psi))))


def legendre_addition_rhs(k, theta, phi, psi):
    """Right side of the Legendre addition theorem (the lam = 1/2 route).

    P_k(cos g) = sum_j e_j (k-j)!/(k+j)! P_k^j(cos theta) P_k^j(cos phi) cos(j psi),
    e_0 = 1 and e_j = 2 otherwise. With P_k^j(cos t) = (-1)^j sin(t)^j
    2^j (1/2)_j C_{k-j}^{1/2+j}(cos t) it runs on the same stacked family as
    addition_theorem_rhs. The angles may be arrays that broadcast; k is a
    degree or one degree per sample, as there.
    """
    theta, phi, psi = _angles(theta, phi, psi)
    return _value(_addition_sum(0.5, k, theta, phi, _legendre_coefficient,
                                lambda j: np.cos(j * psi)))


def product_formula_check(lam: float, k: int, phi, psi, rule: QuadratureRule):
    """(LHS, RHS) of the classical product formula for C_k^lam (lam > 0).

    phi and psi are angles in [0, pi] that broadcast; each sample is one quadrature row.
    """
    if not lam > 0:
        raise ValueError(f"product formula needs lam > 0, got {lam}")
    phi, psi = _angles(phi, psi)
    lhs = eval_recurrence(lam, k, np.cos(phi)) * eval_recurrence(lam, k, np.cos(psi))
    theta, w = composite_nodes(0.0, math.pi, rule)
    a = (np.cos(phi) * np.cos(psi))[..., None]
    b = (np.sin(phi) * np.sin(psi))[..., None]
    vals = eval_recurrence(lam, k, a + b * np.cos(theta)) * np.sin(theta) ** (2.0 * lam - 1.0)
    pref = gamma_ratio((lam + 0.5,), (0.5, lam)) * pochhammer(2.0 * lam, k) / math.factorial(k)
    return _value(lhs), _value(pref * integrate_values(vals, w))


def _kernel_density(lam: float, x, y, disc):
    """Kernel density at discriminant disc = 1 - x^2 - y^2 - z^2 + 2xyz; zero where disc <= 0."""
    pref = gamma_ratio((lam + 0.5,), (lam, 0.5))
    denom = np.power((1.0 - x * x) * (1.0 - y * y), lam - 0.5)
    safe = np.where(disc > 0.0, disc, 1.0)
    return np.where(disc > 0.0, pref * np.power(safe, lam - 1.0) / denom, 0.0)


def kernel_product_check(lam: float, k: int, x, y, rule: QuadratureRule):
    """(C_k(x)C_k(y), ((2 lam)_k/k!) * integral of C_k(z) K(x,y,z) dz), lam > 0.

    The z-integral runs over the analytic support interval through the
    substitution z = xy + w cos(theta), w = sqrt((1-x^2)(1-y^2)), whose
    Jacobian tames the (lam-1)-power endpoint behavior of the kernel for
    every lam. On it the discriminant is exactly (w sin(theta))^2; computing
    it from z instead cancels near the ends of the support. x and y may be
    arrays of points in (-1, 1) that broadcast, one quadrature row each.
    """
    if not lam > 0:
        raise ValueError(f"product formula needs lam > 0, got {lam}")
    x, y = np.broadcast_arrays(_inside(x, 1.0, "x and y must lie in (-1, 1)"),
                               _inside(y, 1.0, "x and y must lie in (-1, 1)"))
    lhs = eval_recurrence(lam, k, x) * eval_recurrence(lam, k, y)
    theta, wq = composite_nodes(0.0, math.pi, rule)
    xs, ys = x[..., None], y[..., None]
    w = np.sqrt((1.0 - xs * xs) * (1.0 - ys * ys))
    jac = w * np.sin(theta)
    z = xs * ys + w * np.cos(theta)
    vals = eval_recurrence(lam, k, z) * _kernel_density(lam, xs, ys, jac * jac) * jac
    rhs = pochhammer(2.0 * lam, k) / math.factorial(k) * integrate_values(vals, wq)
    return _value(lhs), _value(rhs)


def weighted_derivative_check(lam: float, k, x):
    """(finite-difference derivative of (1-x^2)^(lam-1/2) C_k^lam, closed form).

    The closed form is -((k+1)(k+2 lam-1)/(2(lam-1))) (1-x^2)^(lam-3/2)
    C_{k+1}^{lam-1}(x); lam = 1 is excluded by the identity itself. The
    difference stencil is 5-point central so truncation stays below the
    1e-6 agreement contract even at the largest sampled degrees. x may be an
    array; its four stencil points run as one batch. k is a degree or an
    integer array of one degree per element of x.
    """
    if lam == 1.0:
        raise ValueError("the weighted derivative identity excludes lam = 1")
    x = _inside(x, 1.0 - 3.0 * _FD_STEP, "x must lie safely inside (-1, 1)")
    h = _FD_STEP
    u = x + np.array([2 * h, h, -h, -2 * h]).reshape((4,) + (1,) * x.ndim)
    wu = np.power(1.0 - u * u, lam - 0.5) * eval_recurrence(lam, k, u)
    lhs = (-wu[0] + 8.0 * wu[1] - 8.0 * wu[2] + wu[3]) / (12.0 * h)
    rhs = (
        -((k + 1.0) * (k + 2.0 * lam - 1.0) / (2.0 * (lam - 1.0)))
        * np.power(1.0 - x * x, lam - 1.5)
        * eval_recurrence(lam - 1.0, k + 1, x)
    )
    return _value(lhs), _value(rhs)


def kink_integral_closed(lam: float, k, s):
    """Closed form of the kink integral of |x-s| against the C_k^lam weight.

    k is a degree >= 2 or an integer array of one such degree per element of s.
    """
    k = np.asarray(k)
    if k.dtype.kind not in "iu" or np.any(k < 2):
        raise ValueError(f"closed form holds for integer k >= 2, got k={k.tolist()!r}")
    s = _inside(s, 1.0, "s must lie in (-1, 1)")
    pref = 8.0 * lam * (lam + 1.0) / (k * (k - 1.0) * (k + 2.0 * lam) * (k + 2.0 * lam + 1.0))
    return _value(pref * np.power(1.0 - s * s, lam + 1.5) * eval_recurrence(lam + 2.0, k - 2, s))


@functools.lru_cache(maxsize=None)
def _kink_order(lam: float, k: int, order: int) -> int:
    """The Gauss order of both kink panels of degree k: the first rung of the rule's ladder whose
    bound 64 h M / (15 (r^2 - 1) r^(2N - 2)) (Trefethen, ATAP, Thm 19.3) on the worst panel, half-width
    h = pi/2 (|s| -> 1), meets 2^-52 of M's value on the axis, 2 C_k^lam(1), on one ellipse of a
    grid of r. For 2 lam a positive integer the integrand |cos z - s| sin^(2 lam) z C_k^lam(cos z)
    is entire; on the ellipse |Im z| <= y = h (r - 1/r) / 2, |cos z| and |sin z| are at most
    cosh y, and |C_k^lam(cos z)| is at most C_k^lam(1) e^(k y), as the cosine expansion of
    C_k^lam(cos theta) has positive coefficients: M = (cosh y + 1) cosh^(2 lam) y C_k^lam(1) e^(k y).
    A shorter panel has a smaller bound, and the two panels' sum at most this one's."""
    u = np.geomspace(1e-2, 12.0, 128)  # log r
    h = 0.5 * math.pi
    y = h * np.sinh(u)

    def log_cosh(v):
        return np.logaddexp(v, -v) - math.log(2.0)

    # log(M / (2 C_k^lam(1))), by cosh y + 1 = 2 cosh^2(y/2)
    log_m = 2.0 * log_cosh(0.5 * y) + 2.0 * lam * log_cosh(y) + k * y
    n = _ladder(order)[0][:, None]
    bound = math.log(64.0 * h / 15.0) + log_m - np.log(np.expm1(2.0 * u)) - (2 * n - 2) * u
    return int(_first_rung(bound.min(1) <= -52 * math.log(2.0), order))


def _kink_groups(lam: float, k, rule: QuadratureRule):
    """(rule, rows) for each Gauss order _kink_order gives the degrees k (1-D): the rule itself or
    gauss_legendre of a smaller rung, and the rows of k it takes. One lookup a distinct degree."""
    degrees = sorted(set(k.tolist()))
    table = np.zeros(max(degrees, default=-1) + 1, dtype=int)
    table[degrees] = [_kink_order(lam, d, rule.order) for d in degrees]
    for n in sorted(set(table[degrees].tolist())):
        yield (rule if n == rule.order else gauss_legendre(n)), table[k] == n


def _kink_sums(lam: float, k, s, rule: QuadratureRule):
    """The kink integrals on the panels [0, arccos s_i] and [arccos s_i, pi] of the rule, s 1-D:
    k broadcasts against the index of s, so k[:, None] stacks a row a degree and a k of s's
    shape gives each sample its own degree, all read off one eval_sequence table."""
    edges = np.stack(np.broadcast_arrays(0.0, np.arccos(s), math.pi), axis=-1)
    theta, w = map_panels(edges, rule)
    c = np.cos(theta)
    seq = eval_sequence(lam, int(k.max(initial=0)), c)[k, np.arange(s.size)]
    vals = np.abs(c - s[:, None]) * np.sin(theta) ** (2.0 * lam) * seq
    return integrate_values(vals, w)


def kink_integral_brute(lam: float, k, s, rule: QuadratureRule):
    """Quadrature value of the kink integral, split at the kink x = s.

    s may be an array: sample i integrates over its own panels
    [0, arccos s_i] and [arccos s_i, pi], all mapped in one map_panels call.
    Both panels of degree k take _kink_order(lam, k, rule.order) nodes, the
    fewest of the rule's ladder its closed-form bound allows; as no sample sets
    it, a batch equals the per-sample calls bit for bit. k may be an integer
    array of degrees: the result stacks one row per degree along a new leading
    axis, the degrees of one order from one eval_sequence pass. Raises
    ValueError unless 2 lam is a positive integer: elsewhere the weight
    sin^(2 lam) branches at the panel ends, and the rule misses its target.
    """
    if not lam > 0 or (2.0 * lam) % 1.0:
        raise ValueError(f"2*lambda must be a positive integer for kink, got {lam}")
    k = np.asarray(k)
    if k.dtype.kind not in "iu" or np.any(k < 0):
        raise ValueError(f"k must be nonnegative integer degrees, got {k.tolist()}")
    s = _inside(s, 1.0, "s must lie in (-1, 1)")
    degrees, samples = k.ravel(), s.ravel()
    out = np.empty((degrees.size, samples.size))
    for order_rule, rows in _kink_groups(lam, degrees, rule):
        out[rows] = _kink_sums(lam, degrees[rows, None], samples, order_rule)
    return _value(out.reshape(k.shape + s.shape))


# -- residual suite ---------------------------------------------------------

SUITE_TOLERANCES = {
    "orthogonality-offdiag": 1e-12,
    "orthogonality-diag": 1e-10,
    "addition": 1e-9,
    "legendre-addition": 1e-9,
    "product": 1e-9,
    "kernel-product": 1e-9,
    "kernel-mass": 1e-10,
    "kink": 1e-9,
    "weighted-derivative": 1e-6,
}

DEFAULT_SUITE_LAMBDAS = (0.5, 1.0, 1.5, 2.5, 3.0)
# rows per check call, a row being one sample, or one (degree, sample) pair
# where a call takes every degree: keeps the (samples, nodes, degrees)
# temporaries of one call near 7 MB however many samples are asked for
_SAMPLE_BLOCK = 256
# cells of the addition family's (degree, j, angle, row) table per call (2 MB),
# which holds a call to fewer than _SAMPLE_BLOCK rows from max_degree 22 on
_FAMILY_CELLS = 2 ** 18
# entries of the kink check's (degree, row, node) table per quadrature call (0.5 MB)
_KINK_CELLS = 2 ** 16
# the lambdas a check applies to, as (rule, test); other checks take every lambda.
# Near lambda = 1 the weighted derivative's finite-difference oracle is ill-conditioned.
_LAMBDA_DOMAINS = {
    "addition": ("lambda > 1/2", lambda lam: lam > 0.5),
    "legendre-addition": ("lambda = 1/2", lambda lam: lam == 0.5),
    "weighted-derivative": ("lambda outside (0.9, 1.1)", lambda lam: not 0.9 < lam < 1.1),
}
# the least max_degree at which a check has a case, where above 0: the kink
# identity starts at degree 2, kernel-product samples degrees 1, 4, 7, ...,
# and the first off-diagonal orthogonality pair is (0, 3)
_DEGREE_MINIMA = {"kernel-product": 1, "kink": 2, "orthogonality-offdiag": 3}
# the checks that integrate sin^(2 lam) or sin^(2 lam - 1): they need 2 lam a positive integer
_QUADRATURE_CHECKS = set(SUITE_TOLERANCES) - {"addition", "legendre-addition", "weighted-derivative"}


def _applies(name: str, lam: float) -> bool:
    return name not in _LAMBDA_DOMAINS or _LAMBDA_DOMAINS[name][1](lam)


def _residual(a, b):
    # relative residual with a 1e-12 absolute floor at the 1e-9 scale
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)


def _blocks(size: int, *columns):
    """The rows of the columns (arrays of one length) in blocks of `size`,
    as one list of column slices per block."""
    return ([c[i:i + size] for c in columns] for i in range(0, len(columns[0]), size))


def run_suite(lambdas=DEFAULT_SUITE_LAMBDAS, max_degree: int = 12, samples: int = 20,
              rule: QuadratureRule | None = None, seed: int = 0,
              checks=None) -> dict[str, dict]:
    """Max residual of every identity over a sampled (lam, degree, point) grid.

    Returns {check name: {"max_residual", "tolerance", "passed", "cases"}}.
    A check runs at the lambdas of its _LAMBDA_DOMAINS entry and is left out
    when none qualifies, or when max_degree is below its _DEGREE_MINIMA entry
    (0 for the others); "addition" runs the Legendre route, at lam = 1/2 only,
    when no lam > 1/2. Raises ValueError for an unknown check, max_degree < 0,
    samples < 1, seed < 0, a lam <= -1/2 or not finite, when no wanted check
    applies, or when one of _QUADRATURE_CHECKS would run at a lam with 2 lam
    not a positive integer, all before any check runs. "addition",
    "legendre-addition", "weighted-derivative" and "kink" run every degree of
    one lam at once: the samples of all degrees are drawn in one call, in the
    order of one draw per degree, and each (degree, sample) row reads its own
    degree from one recurrence table, in blocks of _SAMPLE_BLOCK rows (fewer
    for the addition family, by _FAMILY_CELLS). The quadrature side of "kink"
    makes one call per Gauss order its degrees take (_kink_order), in blocks
    whose (degree, row, node) table holds at most _KINK_CELLS entries. The
    other checks run one call per (lam, degree) per block of _SAMPLE_BLOCK
    samples. Every
    residual equals that of a call of the public check function at its one
    degree, bit for bit. A non-finite residual records max_residual nan and
    fails its check.
    """
    rule = rule or gauss_legendre(DEFAULT_QUAD_ORDER)
    wanted = set(checks) if checks is not None else set(SUITE_TOLERANCES)
    unknown = wanted - set(SUITE_TOLERANCES)
    if unknown:
        raise ValueError(f"unknown identity checks: {sorted(unknown)}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be at least 0, got {max_degree}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    low = [lam for lam in lambdas if not -0.5 < lam < math.inf]
    if low:
        raise ValueError(f"lambda must be finite and exceed -1/2, got {low[0]}")
    if "addition" in wanted and not any(_applies("addition", lam) for lam in lambdas):
        wanted = wanted - {"addition"} | {"legendre-addition"}
    short = {name for name in wanted if max_degree < _DEGREE_MINIMA.get(name, 0)}
    left_out = short | {name for name in wanted
                        if not any(_applies(name, lam) for lam in lambdas)}
    if left_out == wanted:
        rules = "; ".join(
            f"{name} needs max degree >= {_DEGREE_MINIMA.get(name, 0)}" if name in short
            else f"{name} needs {_LAMBDA_DOMAINS[name][0]}"
            for name in sorted(left_out) if name in short or name in _LAMBDA_DOMAINS)
        raise ValueError(f"no identity check applies to lambdas {list(lambdas)} "
                         f"at max degree {max_degree}" + (f" ({rules})" if rules else ""))
    wanted -= left_out
    off_grid = [lam for lam in lambdas if not lam > 0 or (2.0 * lam) % 1.0]
    if off_grid and wanted & _QUADRATURE_CHECKS:
        raise ValueError(f"2*lambda must be a positive integer for "
                         f"{', '.join(sorted(wanted & _QUADRATURE_CHECKS))}, got {off_grid[0]}")
    worst = {name: (0.0, 0) for name in wanted}
    rng = np.random.default_rng(seed)

    def record(name, res):
        res = np.asarray(res)
        cur, cnt = worst[name]
        top = float(res.max(initial=0.0))
        # max() would drop a nan (max(0.0, nan) is 0.0): a non-finite residual
        # records nan, which stays the maximum and fails the check
        worst[name] = (max(cur, top) if math.isfinite(top) else math.nan, cnt + res.size)

    degrees = range(max_degree + 1)
    # the degree of every (degree, sample) row, degree-major like the draws
    rows = np.repeat(np.arange(max_degree + 1), samples)

    if {"orthogonality-offdiag", "orthogonality-diag"} & wanted:
        pairs = np.array([(k, l) for k in range(0, max_degree + 1, 2)
                          for l in range(k, max_degree + 1, 3)])
        diag = pairs[:, 0] == pairs[:, 1]
        for lam in lambdas:
            vals = orthogonality_integral(lam, pairs[:, 0], pairs[:, 1], rule)
            if "orthogonality-diag" in wanted:
                closed = [orthogonality_closed_form(lam, k) for k in pairs[diag, 0].tolist()]
                record("orthogonality-diag", _residual(vals[diag], np.array(closed)))
            if "orthogonality-offdiag" in wanted:
                record("orthogonality-offdiag", np.abs(vals[~diag]))

    if {"addition", "legendre-addition"} & wanted:
        size = min(_SAMPLE_BLOCK, max(1, _FAMILY_CELLS // (2 * (max_degree + 1) ** 2)))
        for lam in lambdas:
            name = "addition" if _applies("addition", lam) else "legendre-addition"
            if name not in wanted or not _applies(name, lam):
                continue
            angles = rng.uniform(0.05, math.pi - 0.05, size=(rows.size, 3))
            for k, theta, phi, psi in _blocks(size, rows, *angles.T):
                arg = np.cos(theta) * np.cos(phi) + np.sin(theta) * np.sin(phi) * np.cos(psi)
                if name == "addition":
                    lhs = eval_recurrence(lam, k, arg)
                    rhs = addition_theorem_rhs(lam, k, theta, phi, psi)
                else:
                    lhs, rhs = legendre(k, arg), legendre_addition_rhs(k, theta, phi, psi)
                record(name, _residual(lhs, rhs))

    if "product" in wanted:
        for lam in lambdas:
            for k in degrees:
                angles = rng.uniform(0.05, math.pi - 0.05, size=(samples, 2))
                for phi, psi in _blocks(_SAMPLE_BLOCK, *angles.T):
                    record("product", _residual(*product_formula_check(lam, k, phi, psi, rule)))

    if {"kernel-product", "kernel-mass"} & wanted:
        for lam in lambdas:
            points = rng.uniform(-0.95, 0.95, size=(samples, 2))
            for x, y in _blocks(_SAMPLE_BLOCK, *points.T):
                if "kernel-mass" in wanted:
                    _, mass = kernel_product_check(lam, 0, x, y, rule)
                    record("kernel-mass", np.abs(mass - 1.0))
                if "kernel-product" in wanted:
                    for k in range(1, max_degree + 1, 3):
                        record("kernel-product", _residual(*kernel_product_check(lam, k, x, y, rule)))

    if "kink" in wanted:
        kinks = rows[2 * samples:]
        for lam in lambdas:
            s = rng.uniform(-0.9, 0.9, size=kinks.size)
            for order_rule, group in _kink_groups(lam, kinks, rule):
                # each row reads its own degree off one (degree, row, node) table
                # of at most _KINK_CELLS entries a call
                size = max(1, _KINK_CELLS // (2 * order_rule.order * (max_degree + 1)))
                for k, sb in _blocks(size, kinks[group], s[group]):
                    record("kink", _residual(kink_integral_closed(lam, k, sb),
                                             _kink_sums(lam, k, sb, order_rule)))

    if "weighted-derivative" in wanted:
        for lam in lambdas:
            if not _applies("weighted-derivative", lam):
                continue
            x = rng.uniform(-0.95, 0.95, size=rows.size)
            for k, xb in _blocks(_SAMPLE_BLOCK, rows, x):
                lhs, rhs = weighted_derivative_check(lam, k, xb)
                record("weighted-derivative", np.abs(lhs - rhs))

    report = {}
    for name, (res, cases) in sorted(worst.items()):
        tol = SUITE_TOLERANCES[name]
        report[name] = {
            "max_residual": res,
            "tolerance": tol,
            "passed": bool(res <= tol and cases > 0),
            "cases": cases,
        }
    return report
