"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion; each test also prints a summary line with the observed margins.
"""

import math
import time

import numpy as np
import pytest

from ballgrad.constants import (
    ConstantQuery,
    certify_convexity,
    certify_radial_max,
    constant_direct,
    constant_radial,
    constant_series,
    curvature_density_grid,
    profile_curvature_kernel,
    profile_curvature_series,
    profile_parts,
)
from ballgrad.gegenbauer import DimensionParams
from ballgrad.identities import run_suite
from ballgrad.quadrature import gauss_legendre, integrate_split

GRID_N = (3, 4, 5, 8)
GRID_RHO = (0.1, 0.5, 0.9)
GRID_ALPHA = tuple(k * math.pi / 12.0 for k in range(13))


@pytest.fixture(scope="module")
def rule():
    return gauss_legendre(128)


def _report(label: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_cross_route_agreement(rule):
    """Both constant routes agree to 1e-8 relative over the full grid, under 60 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in GRID_N:
        dim = DimensionParams(n)
        for rho in GRID_RHO:
            for alpha in GRID_ALPHA:
                q = ConstantQuery(dim, rho, alpha)
                a = constant_series(q)
                b = constant_direct(q, rule)
                worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    elapsed = time.perf_counter() - t0
    _report(
        "1 cross-route",
        worst <= 1e-8 and elapsed < 60.0,
        f"max relative gap {worst:.3e} (tol 1e-8), {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_radial_maximality(rule):
    """The alpha-grid maximum sits at alpha = 0 (tie with pi allowed)."""
    worst_gap = 0.0
    ok = True
    for n in GRID_N:
        for rho in GRID_RHO:
            rep = certify_radial_max(n, rho, rule=rule)
            argmax = set(rep.argmax_alphas)
            ok &= argmax in ({0.0}, {0.0, math.pi})
            ok &= rep.interior_gap >= -1e-12
            worst_gap = min(worst_gap, rep.interior_gap)
    _report(
        "2 radial-max",
        ok,
        f"argmax always within {{0, pi}}, worst interior gap {worst_gap:.3e} (floor -1e-12)",
    )


def test_criterion_3_convexity(rule):
    """Profile curvature is nonnegative on the 201-point t-grid, incl. rho=0.99."""
    cases = [(n, rho) for n in GRID_N for rho in GRID_RHO] + [(3, 0.99)]
    worst = math.inf
    ok = True
    for n, rho in cases:
        rep = certify_convexity(n, rho, rule=rule)
        ok &= rep.passed
        worst = min(worst, rep.min_curvature)
    _report(
        "3 convexity",
        ok and worst >= -1e-12,
        f"min curvature over all grids {worst:.3e} (floor -1e-12), "
        f"stress case (n=3, rho=0.99) included",
    )


def test_criterion_4_second_derivative_consistency(rule):
    """Series vs kernel curvature <= 1e-8 and series vs profile differences <= 1e-5."""
    worst_kernel = 0.0
    worst_fd = 0.0
    h = 1e-4
    ts_route = np.linspace(-0.95, 0.95, 39)
    ts_fd = np.linspace(-0.95, 0.95, 9)
    for n in GRID_N:
        dim = DimensionParams(n)
        for rho in GRID_RHO:
            series = profile_curvature_series(ts_route, dim, rho)
            for t, s_val in zip(ts_route, series):
                k_val = profile_curvature_kernel(float(t), dim, rho, rule)
                worst_kernel = max(worst_kernel, abs(s_val - k_val))
            for t in ts_fd:
                f = [sum(profile_parts(float(t) + s * h, dim, rho))
                     for s in (-1, 0, 1)]
                fd = (f[0] - 2.0 * f[1] + f[2]) / (h * h)
                s_val = profile_curvature_series(float(t), dim, rho)
                worst_fd = max(worst_fd, abs(s_val - fd))
    _report(
        "4 curvature-consistency",
        worst_kernel <= 1e-8 and worst_fd <= 1e-5,
        f"series-vs-kernel {worst_kernel:.3e} (tol 1e-8), "
        f"series-vs-differences {worst_fd:.3e} (tol 1e-5)",
    )


def test_criterion_5_kernel_nonnegativity():
    """Density >= 0 at 1e5 region points per (n, rho); bracket is a perfect square."""
    rng = np.random.default_rng(2024)
    ok = True
    checked = 0
    for n in GRID_N:
        for rho in GRID_RHO:
            delta = (n - 2) / n * rho
            kept = 0
            while kept < 100_000:
                t, z = rng.uniform(-1.0, 1.0, size=(2, 250_000))
                disc = 1 - (delta * t) ** 2 - t * t - z * z + 2 * delta * t * t * z
                inside = (disc > 0) & (np.abs(t) < 1) & (np.abs(z) < 1)
                t, z = t[inside][: 100_000 - kept], z[inside][: 100_000 - kept]
                vals = curvature_density_grid(t, z, n, rho)
                ok &= bool(np.all(vals >= 0.0))
                kept += len(t)
                checked += len(t)
    eta_err = 0.0
    rng2 = np.random.default_rng(7)
    a, b = rng2.uniform(-5, 5, size=(2, 10_000))
    for n in GRID_N:
        eta = n / (n - 2)
        lhs = a * a - 2 * eta * a * b + eta * eta * b * b
        rhs = (a - eta * b) ** 2
        eta_err = max(eta_err, float(np.max(np.abs(lhs - rhs)
                                            / np.maximum(a * a, (eta * b) ** 2))))
    _report(
        "5 kernel-nonnegativity",
        ok and eta_err <= 1e-13,
        f"{checked} region samples all nonnegative; "
        f"perfect-square residual {eta_err:.3e} (tol 1e-13)",
    )


def test_criterion_6_identity_suite(rule):
    """Every polynomial identity holds at its stated tolerance on the sample grid."""
    report = run_suite(lambdas=(0.5, 1.0, 1.5, 2.5, 3.0), max_degree=12,
                       samples=20, rule=rule, seed=0)
    ok = all(entry["passed"] for entry in report.values())
    detail = ", ".join(
        f"{name} {entry['max_residual']:.1e}<={entry['tolerance']:.0e}"
        for name, entry in report.items()
    )
    _report("6 identity-suite", ok, detail)


def test_criterion_7_analytic_spot_values(rule):
    """C(0) = 1.5 in dimension 3; the radial formula matches the direct route."""
    origin = constant_radial(3, 0.0, rule)
    ok = abs(origin - 1.5) <= 1e-12
    worst = 0.0
    for n in GRID_N:
        dim = DimensionParams(n)
        for rho in GRID_RHO:
            a = constant_radial(n, rho, rule)
            b = constant_direct(ConstantQuery(dim, rho, 0.0), rule)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    _report(
        "7 analytic-spot-values",
        ok and worst <= 1e-9,
        f"C(0)|n=3 = {origin!r} (tol 1e-12 about 1.5); "
        f"radial-vs-direct max gap {worst:.3e} (tol 1e-9)",
    )


def test_criterion_8_quadrature_self_tests():
    """Monomial exactness to degree 2N-1 and the shifted-kink integral identity."""
    worst_mono = 0.0
    for order in (1, 2, 3, 5, 8, 16, 32, 64, 128):
        r = gauss_legendre(order)
        for p in range(2 * order):
            exact = 0.0 if p % 2 else 2.0 / (p + 1)
            worst_mono = max(worst_mono, abs(float(np.dot(r.weights, r.nodes ** p)) - exact))
    worst_kink = 0.0
    r10 = gauss_legendre(10)
    for s in (-0.7, 0.0, 0.3, 0.9):
        got = integrate_split(lambda x: np.abs(x - s), -1.0, 1.0, [s], r10)
        worst_kink = max(worst_kink, abs(got - (1.0 + s * s)))
    _report(
        "8 quadrature-self-tests",
        worst_mono <= 1e-12 and worst_kink <= 1e-13,
        f"monomial exactness {worst_mono:.3e} (tol 1e-12), "
        f"kink integral {worst_kink:.3e} (tol 1e-13)",
    )
