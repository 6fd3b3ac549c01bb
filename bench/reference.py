"""Reference values of the sharp directional constant, from its definition.

    python3 bench/reference.py        # rewrites bench/reference.json

For x = rho*e1 in the unit ball of R^n and the unit vector
l = (cos alpha, sin alpha, 0, ...), the sharp constant is

    C(x, l) = integral over the unit sphere of |grad_x P(x, zeta) . l| dsigma(zeta),

with P(x, zeta) = (1 - |x|^2) / |x - zeta|^n and sigma the normalized
surface measure. Writing zeta = (cos theta, sin theta * u, ...), the
integrand is (a(theta) + b(theta) u) / D^(n/2+1) with D = |x - zeta|^2, and u
is distributed on [-1, 1] with density proportional to (1-u^2)^((n-4)/2).
The u-integral of |a + b u| is taken in closed form (a regularized
incomplete beta function), and the remaining theta-integral by adaptive
quadrature (scipy.integrate.quad) on panels split where |a| = |b|, where the
integrand has its kinks, and graded toward theta = 0, where the Poisson
kernel peaks as rho -> 1.

This file does not import ballgrad: it is the independent referee the
benchmark's checkers compare against.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import numpy as np
from scipy import integrate, optimize, special

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from workloads import reference_cases  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parent / "reference.json"
EPSREL = 2e-14
SCAN_POINTS = 20001
DEFINITION = ("integral over the unit sphere of |grad_x P(rho*e1, zeta) . l_alpha| dsigma(zeta), "
              "P(x, zeta) = (1-|x|^2)/|x-zeta|^n, sigma normalized")


def sharp_constant(n: int, rho: float, alpha: float):
    """(C(rho*e1, l_alpha), quadrature error estimate)."""
    m = (n - 4) / 2.0
    z_u = special.beta(0.5, m + 1.0)            # mass of (1-u^2)^m on [-1, 1]
    z_theta = special.beta(0.5, (n - 1) / 2.0)  # mass of sin^(n-2) on [0, pi]
    ca, sa = math.cos(alpha), math.sin(alpha)
    if abs(sa) < 1e-15:
        sa = 0.0
    q = n * (1.0 - rho * rho)

    def a_of(theta):
        c = math.cos(theta)
        d = 1.0 - 2.0 * rho * c + rho * rho
        return -2.0 * rho * ca * d - q * (rho - c) * ca

    def b_of(theta):
        return q * math.sin(theta) * sa

    def integrand(theta):
        a, b = a_of(theta), b_of(theta)
        if abs(a) >= abs(b):
            mean_abs = abs(a)
        else:
            # E|u - u0| for the kink u0 inside (-1, 1)
            u0 = -a / b
            below = special.betainc(m + 1.0, m + 1.0, 0.5 * (1.0 + u0))
            mean_abs = abs(b) * (-u0 + 2.0 * u0 * below
                                 + (1.0 - u0 * u0) ** (m + 1.0) / ((m + 1.0) * z_u))
        d = 1.0 - 2.0 * rho * math.cos(theta) + rho * rho
        return math.sin(theta) ** (n - 2) * d ** (-(n / 2.0 + 1.0)) * mean_abs

    # kinks of the theta-integrand: |a| = |b| (a = 0 when b vanishes)
    if sa == 0.0:
        switches = [a_of]
    else:
        switches = [lambda th: a_of(th) - b_of(th), lambda th: a_of(th) + b_of(th)]
    scan = np.linspace(0.0, math.pi, SCAN_POINTS)
    edges = {0.0, math.pi}
    for g in switches:
        vals = np.array([g(th) for th in scan])
        for i in np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]:
            edges.add(optimize.brentq(g, scan[i], scan[i + 1], xtol=1e-15, rtol=1e-15))
    h = 1.0 - rho
    s = 0.25 * h
    while s < math.pi:
        edges.add(s)
        s *= 2.0
    edges = sorted(edges)
    total = err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < 1e-15:
            continue
        val, est = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=EPSREL, limit=400)
        total += val
        err += est
    return total / z_theta, err / z_theta


def main() -> int:
    rows = []
    for n, rho, alpha in reference_cases():
        value, err = sharp_constant(n, rho, alpha)
        rows.append({"n": n, "rho": rho, "alpha": alpha, "value": value,
                     "quad_error": err})
    # one reference value per line keeps the file reviewable as a diff
    lines = ",\n  ".join(json.dumps(r) for r in rows)
    OUT.write_text(
        "{\n"
        f' "definition": {json.dumps(DEFINITION)},\n'
        ' "regenerate": "python3 bench/reference.py",\n'
        f' "constants": [\n  {lines}\n ]\n'
        "}\n",
        encoding="utf-8",
    )
    worst = max(r["quad_error"] / r["value"] for r in rows)
    print(f"wrote {len(rows)} reference values to {OUT.name}; "
          f"largest relative quadrature error estimate {worst:.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
