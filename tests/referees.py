"""Independent referees that the tests compare the package against.

Not collected by pytest (no test_ prefix); test modules import from it.
"""

import math
from fractions import Fraction

import numpy as np

from ballgrad.gegenbauer import _clipped, _value, eval_recurrence, eval_sequence, legendre, pochhammer
from ballgrad.identities import (
    _LAMBDA_DOMAINS,
    DEFAULT_SUITE_LAMBDAS,
    SUITE_TOLERANCES,
    _kernel_density,
    addition_coefficient,
    addition_theorem_rhs,
    kernel_product_check,
    kink_integral_brute,
    kink_integral_closed,
    legendre_addition_rhs,
    orthogonality_closed_form,
    orthogonality_integral,
    product_formula_check,
    weighted_derivative_check,
)
from ballgrad.quadrature import DEFAULT_QUAD_ORDER, gauss_legendre

# a fixed t-grid on which tests sample the curvature routes: 201 t in [-0.999, 0.999],
# made exactly antisymmetric as in gauss_legendre
T_GRID = np.linspace(-0.999, 0.999, 201)
T_GRID = 0.5 * (T_GRID - T_GRID[::-1])
T_GRID.flags.writeable = False

# samples per call of run_suite_reference: its own size, as any block size gives the
# same bits (each sample is its own row of every table and quadrature sum)
REFERENCE_BLOCK = 100


def eval_explicit(lam: float, k: int, x: float) -> float:
    """Finite-sum form of C_k^lam(x), as an independent oracle for the recurrence.

    The alternating sum cancels catastrophically in floating point for large
    degree near |x| = 1, so it is accumulated in exact rational arithmetic and
    rounded once at the end.
    """
    xv = float(_clipped(x))
    lam_q = Fraction(lam)
    two_x = 2 * Fraction(xv)
    total = Fraction(0)
    for j in range(k // 2 + 1):
        poch = Fraction(1)
        for i in range(k - j):
            poch *= lam_q + i
        term = poch * two_x ** (k - 2 * j) / (math.factorial(j) * math.factorial(k - 2 * j))
        total += -term if j % 2 else term
    return float(total)


def derivative(lam: float, k: int, order: int, x):
    """order-th derivative of C_k^lam at x, 2^m (lam)_m C_{k-m}^{lam+m}(x) for
    m = order, 0 for m > k: the identity behind the family rows of
    identities._addition_sum, read off eval_sequence. A scalar x gives a float,
    an ndarray an array."""
    if order < 0:
        raise ValueError(f"derivative order must be nonnegative, got {order}")
    if order > k:
        return _value(np.zeros(np.shape(x)))
    scale = (2.0 ** order) * pochhammer(lam, order)
    return _value(scale * eval_sequence(lam + order, k - order, x)[-1])


def kernel_support(x: float, y: float) -> tuple[float, float]:
    """Interval of z where 1 - x^2 - y^2 - z^2 + 2xyz > 0.

    The discriminant is a downward parabola in z with roots
    x*y -/+ sqrt((1-x^2)(1-y^2)).
    """
    w = math.sqrt((1.0 - x * x) * (1.0 - y * y))
    return x * y - w, x * y + w


def kernel_K(lam: float, x, y, z):
    """Product-formula kernel density at z, zero outside its support: the
    density that kernel_product_check integrates (identities._kernel_density)
    at the discriminant 1 - x^2 - y^2 - z^2 + 2xyz. A scalar z gives a float,
    an ndarray an array."""
    za = np.asarray(z, dtype=float)
    return _value(_kernel_density(lam, x, y, 1.0 - x * x - y * y - za * za + 2.0 * x * y * za))


def eval_sequence_longdouble(lam: float, K: int, x) -> np.ndarray:
    """C_0^lam(x), ..., C_K^lam(x) by the plain three-term recurrence in
    np.longdouble (a 64-bit mantissa on x86), one row per degree."""
    L = np.longdouble
    xl = np.asarray(x, dtype=L)
    lam = L(lam)
    out = np.empty((K + 1,) + xl.shape, dtype=L)
    out[0] = 1
    if K >= 1:
        out[1] = 2 * lam * xl
    for m in range(2, K + 1):
        out[m] = (2 * (m + lam - 1) * xl * out[m - 1] - (m + 2 * lam - 2) * out[m - 2]) / m
    return out


def pair_sum_longdouble(lam_a, xa, lam_b, xb, w, lag):
    """(sum, sum of |terms|) of sum_k w_k C_(k-lag)^lam_a(xa) C_k^lam_b(xb), k = lag..K,
    K = len(w) - 1: the truncated sum of pair_series, in np.longdouble."""
    K = len(w) - 1
    a = eval_sequence_longdouble(lam_a, K - lag, xa)
    b = eval_sequence_longdouble(lam_b, K, xb)
    terms = np.asarray(w[lag:], dtype=np.longdouble)[:, None] * a * b[lag:]
    return terms.sum(axis=0), np.abs(terms).sum(axis=0)


def eval_sequence_reference(lam, K: int, x) -> np.ndarray:
    """eval_sequence as one allocating expression per degree, the form the
    in-place step must reproduce bit for bit."""
    xa = _clipped(x)
    lam = np.asarray(lam, dtype=float)
    out = np.empty((K + 1,) + np.broadcast_shapes(lam.shape, xa.shape))
    out[0] = 1.0
    if K >= 1:
        out[1] = 2.0 * lam * xa
    for m in range(2, K + 1):
        out[m] = (2.0 * (m + lam - 1.0) * xa * out[m - 1]
                  - (m + 2.0 * lam - 2.0) * out[m - 2]) / m
    return out


def addition_rhs_reference(lam: float, k: int, theta, phi, psi, legendre_route=False):
    """Right side of the addition theorem at one degree k, or with
    legendre_route of the Legendre addition theorem, as the sum over
    j = 0..k in sequence: the one-degree form that the per-sample-degree
    sums must reproduce bit for bit. The angles are float arrays."""
    j = np.arange(k + 1).reshape((-1,) + (1,) * np.ndim(theta))
    if legendre_route:
        lam = 0.5
        coef = [(1.0 if i == 0 else 2.0)
                * math.exp(math.lgamma(k - i + 1.0) - math.lgamma(k + i + 1.0))
                * ((2.0 ** i) * math.prod(0.5 + t for t in range(i))) ** 2
                for i in range(k + 1)]
        last = np.cos(j * psi)
    else:
        coef = [addition_coefficient(lam, k, i) for i in range(k + 1)]
        last = eval_sequence_reference(lam - 0.5, k, np.cos(psi))
    lams = (lam + j).reshape((-1,) + (1,) * (np.ndim(theta) + 1))
    fam = eval_sequence_reference(lams, k, np.cos((theta, phi)))[k - j.ravel(), j.ravel()]
    fam_theta, fam_phi = np.moveaxis(fam, 1, 0)
    terms = (np.array(coef).reshape(j.shape) * (np.sin(theta) * np.sin(phi)) ** j
             * fam_theta * fam_phi * last)
    return np.cumsum(terms, axis=0)[-1]


def run_suite_reference(lambdas=DEFAULT_SUITE_LAMBDAS, max_degree: int = 12,
                        samples: int = 20, rule=None, seed: int = 0,
                        checks=None) -> dict:
    """run_suite as one public check call per (lam, degree) per block of
    samples, the loop that the degree-batched suite must reproduce bit for bit.

    A check with no case on the grid reports 0 cases here (and fails) where
    run_suite leaves it out.
    """
    def applies(name, lam):
        return name not in _LAMBDA_DOMAINS or _LAMBDA_DOMAINS[name][1](lam)

    def residual(a, b):
        return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)

    def blocks(rows):
        return (rows[i:i + REFERENCE_BLOCK].T for i in range(0, len(rows), REFERENCE_BLOCK))

    rule = rule or gauss_legendre(DEFAULT_QUAD_ORDER)
    rng = np.random.default_rng(seed)
    wanted = set(checks) if checks is not None else set(SUITE_TOLERANCES)
    if "addition" in wanted and not any(applies("addition", lam) for lam in lambdas):
        wanted = wanted - {"addition"} | {"legendre-addition"}
    wanted = {name for name in wanted if any(applies(name, lam) for lam in lambdas)}
    worst = {name: (0.0, 0) for name in wanted}

    def record(name, res):
        res = np.asarray(res)
        cur, cnt = worst[name]
        top = float(res.max(initial=0.0))
        worst[name] = (max(cur, top) if math.isfinite(top) else math.nan, cnt + res.size)

    degrees = range(max_degree + 1)

    if {"orthogonality-offdiag", "orthogonality-diag"} & wanted and max_degree >= 0:
        pairs = np.array([(k, l) for k in range(0, max_degree + 1, 2)
                          for l in range(k, max_degree + 1, 3)])
        diag = pairs[:, 0] == pairs[:, 1]
        for lam in lambdas:
            vals = orthogonality_integral(lam, pairs[:, 0], pairs[:, 1], rule)
            if "orthogonality-diag" in wanted:
                closed = [orthogonality_closed_form(lam, k) for k in pairs[diag, 0].tolist()]
                record("orthogonality-diag", residual(vals[diag], np.array(closed)))
            if "orthogonality-offdiag" in wanted:
                record("orthogonality-offdiag", np.abs(vals[~diag]))

    if {"addition", "legendre-addition"} & wanted:
        for lam in lambdas:
            legendre_route = not applies("addition", lam)
            name = "legendre-addition" if legendre_route else "addition"
            if name not in wanted or not applies(name, lam):
                continue
            for k in degrees:
                angles = rng.uniform(0.05, math.pi - 0.05, size=(samples, 3))
                for theta, phi, psi in blocks(angles):
                    arg = np.cos(theta) * np.cos(phi) + np.sin(theta) * np.sin(phi) * np.cos(psi)
                    if legendre_route:
                        lhs = legendre(k, arg)
                        rhs = legendre_addition_rhs(k, theta, phi, psi)
                    else:
                        lhs = eval_recurrence(lam, k, arg)
                        rhs = addition_theorem_rhs(lam, k, theta, phi, psi)
                    record(name, residual(lhs, rhs))

    if "product" in wanted:
        for lam in lambdas:
            for k in degrees:
                angles = rng.uniform(0.05, math.pi - 0.05, size=(samples, 2))
                for phi, psi in blocks(angles):
                    record("product", residual(*product_formula_check(lam, k, phi, psi, rule)))

    if {"kernel-product", "kernel-mass"} & wanted:
        for lam in lambdas:
            points = rng.uniform(-0.95, 0.95, size=(samples, 2))
            for x, y in blocks(points):
                if "kernel-mass" in wanted:
                    _, mass = kernel_product_check(lam, 0, x, y, rule)
                    record("kernel-mass", np.abs(mass - 1.0))
                if "kernel-product" in wanted:
                    for k in range(1, max_degree + 1, 3):
                        record("kernel-product", residual(*kernel_product_check(lam, k, x, y, rule)))

    if "kink" in wanted:
        for lam in lambdas:
            for k in range(2, max_degree + 1):
                for s in blocks(rng.uniform(-0.9, 0.9, size=samples)):
                    record("kink", residual(kink_integral_closed(lam, k, s),
                                            kink_integral_brute(lam, k, s, rule)))

    if "weighted-derivative" in wanted:
        for lam in lambdas:
            if not applies("weighted-derivative", lam):
                continue
            for k in degrees:
                for x in blocks(rng.uniform(-0.95, 0.95, size=samples)):
                    lhs, rhs = weighted_derivative_check(lam, k, x)
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
