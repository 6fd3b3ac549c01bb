"""Command-line front end.

Subcommands:
    constant    -- table of the directional constant by both routes
    certify     -- convexity and radial-maximality certification sweeps
    identities  -- residual suite for the polynomial identities

Exit codes: 0 all checks passed, 1 a certificate or tolerance failed,
2 usage error (one line). Each flag is declared once, by _flag; when it is
absent, its BALLGRAD_<FLAG> variable (upper-cased, dashes to underscores:
--lambda reads BALLGRAD_LAMBDA) is parsed by the flag's own type.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
from dataclasses import asdict

from .constants import (
    ALPHA_GRID,
    DEFAULT_QUAD_ORDER,
    ROUTE_TOL,
    T_GRID,
    ConstantQuery,
    certify_convexity,
    certify_radial_max,
    constant_direct,
    constant_series,
)
from .gegenbauer import (SERIES_MAX_TERMS, SERIES_TAIL_TOL, DimensionParams,
                         SeriesConvergenceError, series_cutoff)
from .identities import DEFAULT_SUITE_LAMBDAS, SUITE_TOLERANCES, run_suite
from .quadrature import gauss_legendre

__all__ = ["main", "console_entry"]

ENV_PREFIX = "BALLGRAD_"
# most angles a 'step:<angle>' grid may ask for
MAX_ANGLES = 100_000


class UsageError(Exception):
    pass


class _EnvText(str):
    """The text of a flag's BALLGRAD_<FLAG> variable (named by .name), used as its default."""


class _Parser(argparse.ArgumentParser):
    """argparse with one-line usage errors; a BALLGRAD_<FLAG> default that fails
    its flag's type or choices (checked only when the flag is absent) names it."""

    def error(self, message):
        raise UsageError(message)

    def _get_value(self, action, text):
        try:
            value = super()._get_value(action, text)
            if isinstance(text, _EnvText):  # argparse checks choices only on the command line
                self._check_value(action, value)
            return value
        except (argparse.ArgumentError, UsageError) as exc:
            if not isinstance(text, _EnvText):
                raise
            raise UsageError(f"bad environment value {text.name}={str(text)!r}: {exc}") from None


def _flag(parser, flag: str, help: str, type=str, default=None, **kwargs):
    """Add --flag; BALLGRAD_<FLAG> (upper-cased, dashes to underscores), when
    set, replaces its default and makes it optional."""
    name = ENV_PREFIX + flag[2:].replace("-", "_").upper()
    if name in os.environ:
        default, kwargs["required"] = _EnvText(os.environ[name]), False
        default.name = name
    parser.add_argument(flag, type=type, help=help, default=default, **kwargs)


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
    """Comma list of angles in [0, pi], or 'step:<angle>' for a uniform grid on [0, pi]."""
    if spec.startswith("step:"):
        step = _parse_angle(spec[len("step:"):])
        if not 0.0 < step <= math.pi:
            raise UsageError(f"alpha step must lie in (0, pi], got {spec!r}")
        if math.pi / step > MAX_ANGLES - 1:  # before round(), which has no int for inf
            raise UsageError(f"alpha step {spec!r} gives more than {MAX_ANGLES} angles")
        count = int(round(math.pi / step))
        return [i * math.pi / count for i in range(count + 1)]
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
    rhos = _numbers(spec, "--rho")
    for r in rhos:
        if not 0.0 <= r < 1.0:
            raise UsageError(f"rho must lie in [0, 1), got {r}")
    return rhos


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ballgrad",
                     description="Sharp gradient-estimate constants on the unit ball")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt):
        _flag(p, "--quad-order", "Gauss-Legendre order", int, DEFAULT_QUAD_ORDER)
        _flag(p, "--format", "output format", default=fmt, choices=("csv", "json"))
        _flag(p, "--out", "output path ('-' for stdout)", default="-")

    def series_common(p, fmt):
        _flag(p, "--dim", "ambient dimension n >= 3", int, required=True)
        _flag(p, "--max-terms", "series term cap", int, SERIES_MAX_TERMS)
        common(p, fmt)
        _flag(p, "--rho", "comma-separated radii in [0, 1)", _rhos, required=True)

    p_const = sub.add_parser("constant", help="directional constant by both routes")
    p_const.set_defaults(run=cmd_constant)
    series_common(p_const, "csv")
    _flag(p_const, "--alpha", "comma list of angles, or 'step:<angle>' (default step:pi/12)",
          _alphas, "step:pi/12")

    p_cert = sub.add_parser("certify", help="convexity and radial-max certificates")
    p_cert.set_defaults(run=cmd_certify)
    series_common(p_cert, "json")

    p_ident = sub.add_parser("identities", help="polynomial identity residual suite")
    p_ident.set_defaults(run=cmd_identities)
    common(p_ident, "csv")
    _flag(p_ident, "--lambda", "comma-separated lambda values",
          lambda spec: _numbers(spec, "--lambda"), DEFAULT_SUITE_LAMBDAS, dest="lambdas")
    _flag(p_ident, "--check", "run a single identity check", choices=sorted(SUITE_TOLERANCES))
    _flag(p_ident, "--degree-max", "largest polynomial degree sampled", int, 12)
    _flag(p_ident, "--samples", "random samples per case", int, 20)
    _flag(p_ident, "--seed", "sampling seed", int, 0)
    return parser


@functools.lru_cache(maxsize=8)
def _parser_for(env: tuple) -> argparse.ArgumentParser:
    """_build_parser's parser per set of BALLGRAD_* items (env), which it holds as defaults."""
    return _build_parser()


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


def _common_config(args):
    try:
        dim = DimensionParams(args.dim)
        series_cutoff(0.0, dim.lambda_low, args.max_terms)  # rejects a cap below 8
        rule = gauss_legendre(args.quad_order)
    except ValueError as exc:
        raise UsageError(str(exc))
    return dim, rule


def cmd_constant(args) -> int:
    dim, rule = _common_config(args)
    rows = []
    all_ok = True
    for rho in args.rho:
        queries = [ConstantQuery(dim, rho, alpha) for alpha in args.alpha]
        series = constant_series(queries, args.max_terms, rule)
        for alpha, q, c_ser in zip(args.alpha, queries, series.tolist()):
            c_dir = constant_direct(q, rule)
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
        conv = certify_convexity(dim.n, rho, args.max_terms, rule)
        rad = certify_radial_max(dim.n, rho, rule)
        all_ok &= conv.passed and rad.passed
        results.append({"rho": rho, "convexity": asdict(conv), "radial_max": asdict(rad)})
        rows += [(dim.n, rho, "convexity", conv.min_curvature, conv.max_route_gap,
                  "pass" if conv.passed else "fail"),
                 (dim.n, rho, "radial-max", rad.interior_gap, rad.radial_residual,
                  "pass" if rad.passed else "fail")]
    _emit(args, ("n", "rho", "certificate", "margin", "residual", "status"), rows, {
        "command": "certify",
        "dim": dim.n,
        "quad_order": rule.order,
        "max_terms": args.max_terms,
        "tail_tol": SERIES_TAIL_TOL,
        "t_grid": T_GRID.size,
        "alpha_points": ALPHA_GRID.size,
        "results": results,
        "passed": all_ok,
    })
    return 0 if all_ok else 1


def cmd_identities(args) -> int:
    if args.degree_max < 0:
        raise UsageError(f"--degree-max must be at least 0, got {args.degree_max}")
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    try:
        rule = gauss_legendre(args.quad_order)
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
        "results": report,
        "passed": all_ok,
    })
    return 0 if all_ok else 1


def main(argv=None) -> int:
    try:
        env = tuple(sorted(item for item in os.environ.items() if item[0].startswith(ENV_PREFIX)))
        args = _parser_for(env).parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code else 0
    except UsageError as exc:
        print(f"ballgrad: error: {exc}", file=sys.stderr)
        return 2
    except SeriesConvergenceError as exc:
        print(f"ballgrad: series did not converge: {exc}", file=sys.stderr)
        return 1


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
