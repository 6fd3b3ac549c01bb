"""Output checkers for the benchmark operations.

Every checker takes an operation, the exit code of `ballgrad.cli.main` and
the text it wrote, and returns None when the output is right or a one-line
reason when it is not. Constants are compared with the definition-level
values of reference.json, never with a saved copy of ballgrad's output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import pathlib

from workloads import (
    IDENTITY_DEGREE_MAX,
    IDENTITY_LAMBDAS,
    IDENTITY_SAMPLES,
)

REFERENCE_FILE = pathlib.Path(__file__).resolve().parent / "reference.json"

REFERENCE_RTOL = 1e-8     # the route-agreement contract of `constant`
CURVATURE_FLOOR = -1e-12  # the certificate noise floor
TIE_RTOL = 1e-12          # the tie tolerance of the radial-max certificate

# the contracted tolerances of the identity checks the benchmark runs
# (identities.SUITE_TOLERANCES)
IDENTITY_TOLERANCES = {
    "orthogonality-offdiag": 1e-12,
    "orthogonality-diag": 1e-10,
    "addition": 1e-9,
    "legendre-addition": 1e-9,
    "kernel-mass": 1e-10,
    "kink": 1e-9,
    "weighted-derivative": 1e-6,
}


class Reference:
    """Sharp-constant values keyed by (n, rho), looked up by alpha."""

    def __init__(self, path=REFERENCE_FILE):
        self._table = {}
        for row in json.loads(pathlib.Path(path).read_text(encoding="utf-8"))["constants"]:
            self._table.setdefault((row["n"], row["rho"]), []).append((row["alpha"], row["value"]))

    def value(self, n: int, rho: float, alpha: float) -> float:
        for a, v in self._table.get((n, rho), ()):
            if abs(a - alpha) <= 1e-12:
                return v
        raise KeyError(f"no reference value for n={n}, rho={rho}, alpha={alpha}")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_certify(op, rc, text, ref: Reference):
    if rc != 0:
        return f"exit code {rc}"
    payload = json.loads(text)
    results = payload["results"]
    if payload["dim"] != op.n or len(results) != 1 or results[0]["rho"] != op.rho:
        return "report is for another query"
    conv, rad = results[0]["convexity"], results[0]["radial_max"]
    if not conv["min_curvature"] >= CURVATURE_FLOOR:
        return f"min_curvature {conv['min_curvature']!r} below {CURVATURE_FLOOR}"
    for a in rad["argmax_alphas"]:
        if min(abs(a), abs(a - math.pi)) > 1e-12:
            return f"argmax at alpha={a!r}, not 0 or pi"
    expected = ref.value(op.n, op.rho, 0.0)
    if not _rel(rad["value_at_zero"], expected) <= REFERENCE_RTOL:
        return (f"value_at_zero {rad['value_at_zero']!r} off the reference {expected!r} "
                f"by {_rel(rad['value_at_zero'], expected):.2e} relative")
    return None


def _constant_rows(op, text):
    if op.fmt == "json":
        rows = json.loads(text)["rows"]
        return [(r["n"], r["rho"], r["alpha"], r["c_series"], r["c_direct"]) for r in rows]
    reader = csv.reader(io.StringIO(text))
    if next(reader) != ["n", "rho", "alpha", "c_series", "c_direct", "abs_diff"]:
        raise ValueError("unexpected CSV header")
    return [(int(r[0]), float(r[1]), float(r[2]), float(r[3]), float(r[4])) for r in reader]


def check_constant(op, rc, text, ref: Reference):
    if rc != 0:
        return f"exit code {rc}"
    rows = _constant_rows(op, text)
    if len(rows) != len(op.alphas):
        return f"{len(rows)} rows, expected {len(op.alphas)}"
    for (n, rho, alpha, c_ser, c_dir), want_alpha in zip(rows, op.alphas):
        if n != op.n or rho != op.rho or abs(alpha - want_alpha) > 1e-12:
            return f"row ({n}, {rho}, {alpha}) is not the requested query"
        expected = ref.value(n, rho, alpha)
        for route, got in (("c_series", c_ser), ("c_direct", c_dir)):
            if not _rel(got, expected) <= REFERENCE_RTOL:
                return (f"{route} at alpha={alpha!r} off the reference by "
                        f"{_rel(got, expected):.2e} relative")
    if len(rows) > 1:
        for col in (3, 4):
            values = [r[col] for r in rows]
            top = max(values)
            # rows run over the angles in increasing order, 0 first and pi last
            if values[0] < top - TIE_RTOL * top:
                return "the alpha = 0 row is not the row maximum"
            if abs(values[0] - values[-1]) > TIE_RTOL * top:
                return "the alpha = 0 and alpha = pi rows do not tie"
    return None


def identity_cases(check, lambdas=IDENTITY_LAMBDAS, degree_max=IDENTITY_DEGREE_MAX,
                   samples=IDENTITY_SAMPLES) -> int:
    """Number of sampled cases `run_suite` records for one check, from its loop bounds."""
    degrees = degree_max + 1
    if check == "weighted-derivative":
        lambdas = [lam for lam in lambdas if not 0.9 < lam < 1.1]
    elif check == "addition":
        lambdas = [lam for lam in lambdas if lam > 0.5]
    elif check == "legendre-addition":
        lambdas = [lam for lam in lambdas if lam <= 0.5]
    even = range(0, degree_max + 1, 2)
    per_lambda = {
        "orthogonality-diag": len(even),
        "orthogonality-offdiag": sum(len(range(k, degree_max + 1, 3)) - 1 for k in even),
        "addition": degrees * samples,
        "legendre-addition": degrees * samples,
        "kernel-mass": samples,
        "kink": (degree_max - 1) * samples,
        "weighted-derivative": degrees * samples,
    }[check]
    return len(lambdas) * per_lambda


def check_identities(op, rc, text, ref: Reference = None):
    if rc != 0:
        return f"exit code {rc}"
    reader = csv.reader(io.StringIO(text))
    if next(reader) != ["check", "max_residual", "tolerance", "cases", "status"]:
        return "unexpected CSV header"
    rows = list(reader)
    if [r[0] for r in rows] != [op.check]:
        return f"table lists {[r[0] for r in rows]}, expected [{op.check!r}]"
    _, residual, tol, cases, status = rows[0]
    if float(tol) != IDENTITY_TOLERANCES[op.check]:
        return f"tolerance {tol} is not the contracted {IDENTITY_TOLERANCES[op.check]:g}"
    if not float(residual) <= float(tol):
        return f"residual {residual} above tolerance {tol}"
    if int(cases) != identity_cases(op.check):
        return f"{cases} cases, expected {identity_cases(op.check)}"
    if status != "pass":
        return f"status {status!r}"
    return None


CHECKERS = {
    "certify": check_certify,
    "constant": check_constant,
    "identities": check_identities,
}


def check(op, rc, text, ref: Reference):
    """None when the output of `op` is right, else the reason it is not."""
    try:
        return CHECKERS[op.kind](op, rc, text, ref)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
