"""Command-line front end.

Subcommands:
    constant    -- table of the directional constant by both routes, one batch a radius each
    certify     -- convexity and radial-maximality certification sweeps
    identities  -- residual suite for the polynomial identities

Exit codes: 0 all checks passed, 1 a certificate or tolerance failed,
2 usage error (one line). The command line is the only input: the
environment sets no flag, so the output depends on the arguments alone.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys

import numpy as np

from .constants import (
    ALPHA_GRID,
    DEFAULT_QUAD_ORDER,
    ROUTE_TOL,
    ConstantQuery,
    certify_convexity,
    certify_radial_max,
    constant_direct,
    constant_series,
)
from .gegenbauer import (SERIES_MAX_TERMS, SERIES_TAIL_TOL, DimensionParams,
                         SeriesConvergenceError, _checked_rho, series_cutoff)
from .identities import DEFAULT_SUITE_LAMBDAS, SUITE_TOLERANCES, run_suite
from .quadrature import gauss_legendre

__all__ = ["main", "console_entry"]

# most angles a 'step:<angle>' grid may ask for
MAX_ANGLES = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors raise UsageError, printed by main as one line."""

    def error(self, message):
        raise UsageError(message)


def _parse_angle(text: str) -> float:
    """Angle literal: a float, or 'pi', 'pi/6', '3*pi/4'-style multiples."""
    s = text.strip().lower()
    m = re.fullmatch(r"(?:([0-9.]+)\*)?pi(?:/([0-9.]+))?", s)
    try:
        if m:
            return float(m.group(1) or 1.0) * math.pi / float(m.group(2) or 1.0)
        return float(s)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse angle {text!r}") from None


def _alphas(spec: str):
    """Comma list of angles in [0, pi], or 'step:<angle>' for the grid of count = pi/step
    steps on [0, pi] (refused unless pi/step is an integer to within rounding), exactly
    symmetric about pi/2: upper half (i/count)*pi, lower half pi - its mirror."""
    if spec.startswith("step:"):
        step = _parse_angle(spec[len("step:"):])
        if not 0.0 < step <= math.pi:
            raise UsageError(f"alpha step must lie in (0, pi], got {spec!r}")
        if math.pi / step > MAX_ANGLES - 1:  # before round(), which has no int for inf
            raise UsageError(f"alpha step {spec!r} gives more than {MAX_ANGLES} angles")
        count = int(round(math.pi / step))
        if abs(math.pi / step - count) > 1e-9 * count:
            raise UsageError(f"alpha step {spec!r} does not divide pi")
        upper = [i / count * math.pi for i in range((count + 1) // 2, count + 1)]
        return [math.pi - a for a in upper[::-1][:(count + 1) // 2]] + upper
    alphas = [_parse_angle(tok) for tok in spec.split(",") if tok.strip()]
    if not alphas:
        raise UsageError("--alpha list is empty")
    for a in alphas:
        if not 0.0 <= a <= math.pi:
            raise UsageError(f"alpha must lie in [0, pi], got {a}")
    return alphas


def _numbers(spec: str, flag: str):
    try:
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"cannot parse number list {spec!r}") from None
    if not values:
        raise UsageError(f"{flag} list is empty")
    return values


def _rhos(spec: str):
    """Comma list of radii in [0, 1)."""
    try:
        return [_checked_rho(r) for r in _numbers(spec, "--rho")]
    except ValueError as exc:
        raise UsageError(str(exc)) from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ballgrad",
                     description="Sharp gradient-estimate constants on the unit ball")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt):
        p.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER,
                       help="largest Gauss order per panel")
        p.add_argument("--format", default=fmt, choices=("csv", "json"), help="output format")
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")

    def query_common(p, fmt, series):
        p.add_argument("--dim", type=int, required=True, help="ambient dimension n >= 3")
        if series:  # certify runs no series
            p.add_argument("--max-terms", type=int, default=SERIES_MAX_TERMS, help="series term cap")
        common(p, fmt)
        p.add_argument("--rho", type=_rhos, required=True, help="comma-separated radii in [0, 1)")

    p_const = sub.add_parser("constant", help="directional constant by both routes")
    p_const.set_defaults(run=cmd_constant)
    query_common(p_const, "csv", True)
    p_const.add_argument("--alpha", type=_alphas, default="step:pi/12",
                         help="comma list of angles, or 'step:<angle>' (default step:pi/12)")

    p_cert = sub.add_parser("certify", help="convexity and radial-max certificates")
    p_cert.set_defaults(run=cmd_certify)
    query_common(p_cert, "json", False)

    p_ident = sub.add_parser("identities", help="polynomial identity residual suite")
    p_ident.set_defaults(run=cmd_identities)
    common(p_ident, "csv")
    p_ident.add_argument("--lambda", type=lambda spec: _numbers(spec, "--lambda"), dest="lambdas",
                         default=DEFAULT_SUITE_LAMBDAS, help="comma-separated lambda values")
    p_ident.add_argument("--check", choices=sorted(SUITE_TOLERANCES),
                         help="run a single identity check")
    p_ident.add_argument("--degree-max", type=int, default=12,
                         help="largest polynomial degree sampled")
    p_ident.add_argument("--samples", type=int, default=20, help="random samples per case")
    p_ident.add_argument("--seed", type=int, default=0, help="sampling seed")
    return parser


def _emit(args, header, rows, payload):
    """Write rows under header as CSV, or payload as JSON, to --out ('-' for stdout)."""
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
        text = buf.getvalue()
    if args.out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out!r}: {exc.strerror or exc}") from None


def _common_config(args, max_terms=None):
    try:
        dim = DimensionParams(args.dim)
        if max_terms is not None:
            series_cutoff(0.0, dim.lambda_low, max_terms)  # rejects a cap below 8
        rule = gauss_legendre(args.quad_order)
    except ValueError as exc:
        raise UsageError(str(exc))
    return dim, rule


def cmd_constant(args) -> int:
    dim, rule = _common_config(args, args.max_terms)
    rows = []
    all_ok = True
    for rho in args.rho:
        queries = [ConstantQuery(dim, rho, alpha) for alpha in args.alpha]
        series = constant_series(queries, args.max_terms)
        direct = constant_direct(queries, rule)
        for alpha, c_ser, c_dir in zip(args.alpha, series.tolist(), direct.tolist()):
            diff = abs(c_ser - c_dir)
            all_ok &= diff <= ROUTE_TOL * max(1.0, abs(c_ser))
            rows.append((dim.n, rho, alpha, c_ser, c_dir, diff))

    header = ("n", "rho", "alpha", "c_series", "c_direct", "abs_diff")
    _emit(args, header, rows, {
        "command": "constant",
        "dim": dim.n,
        "quad_order": rule.order,
        "max_terms": args.max_terms,
        "tail_tol": SERIES_TAIL_TOL,
        "tolerance": ROUTE_TOL,
        "rows": [dict(zip(header, row)) for row in rows],
        "passed": all_ok,
    })
    return 0 if all_ok else 1


def cmd_certify(args) -> int:
    dim, rule = _common_config(args)
    results, rows = [], []
    all_ok = True
    for rho in args.rho:
        conv = certify_convexity(dim, rho, rule)
        rad = certify_radial_max(dim, rho, rule)
        all_ok &= conv.passed and rad.passed
        results.append({"rho": rho, "convexity": dict(vars(conv)), "radial_max": dict(vars(rad))})
        rows += [(dim.n, rho, "convexity", conv.min_curvature, conv.max_route_gap,
                  "pass" if conv.passed else "fail"),
                 (dim.n, rho, "radial-max", rad.interior_gap, rad.radial_residual,
                  "pass" if rad.passed else "fail")]
    _emit(args, ("n", "rho", "certificate", "margin", "residual", "status"), rows, {
        "command": "certify",
        "dim": dim.n,
        "quad_order": rule.order,
        "alpha_points": ALPHA_GRID.size,
        "results": results,
        "passed": all_ok,
    })
    return 0 if all_ok else 1


def cmd_identities(args) -> int:
    try:
        rule = gauss_legendre(args.quad_order)
        with np.errstate(all="ignore"):  # a non-finite residual fails its row, the one report
            report = run_suite(lambdas=args.lambdas, max_degree=args.degree_max,
                               samples=args.samples, rule=rule, seed=args.seed,
                               checks=None if args.check is None else {args.check})
    except ValueError as exc:
        raise UsageError(str(exc))
    except OverflowError as exc:  # Gegenbauer normalisations pass the double range
        raise UsageError(f"--degree-max {args.degree_max} is too large: {exc.args[-1]}") from None
    all_ok = all(entry["passed"] for entry in report.values())

    rows = [(name, entry["max_residual"], entry["tolerance"], entry["cases"],
             "pass" if entry["passed"] else "fail") for name, entry in report.items()]
    _emit(args, ("check", "max_residual", "tolerance", "cases", "status"), rows, {
        "command": "identities",
        "lambdas": args.lambdas,
        "degree_max": args.degree_max,
        "samples": args.samples,
        "seed": args.seed,
        "quad_order": rule.order,
        # JSON has no NaN: a non-finite residual is null
        "results": {name: dict(entry, max_residual=entry["max_residual"]
                               if math.isfinite(entry["max_residual"]) else None)
                    for name, entry in report.items()},
        "passed": all_ok,
    })
    return 0 if all_ok else 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code else 0
    except UsageError as exc:
        print(f"ballgrad: error: {exc}", file=sys.stderr)
        return 2
    except SeriesConvergenceError as exc:
        print(f"ballgrad: series did not converge: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:  # a value past the double range, such as the kernel at large n
        print(f"ballgrad: {exc}", file=sys.stderr)
        return 1


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
