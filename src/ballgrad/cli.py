"""Command-line front end.

Subcommands:
    constant    -- table of the directional constant by both routes
    certify     -- convexity and radial-maximality certification sweeps
    identities  -- residual suite for the polynomial identities

Exit codes: 0 all checks passed, 1 a certificate or tolerance failed,
2 usage error. Every flag can also be supplied through an environment
variable named BALLGRAD_<FLAG> (flag upper-cased, dashes to underscores);
command-line values win over the environment.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import asdict

from .constants import (
    ConstantQuery,
    DEFAULT_QUAD_ORDER,
    SeriesControl,
    certify_convexity,
    certify_radial_max,
    constant_direct,
    constant_series,
)
from .gegenbauer import DimensionParams, SeriesConvergenceError
from .identities import DEFAULT_SUITE_LAMBDAS, SUITE_TOLERANCES, run_suite
from .quadrature import gauss_legendre

__all__ = ["main", "console_entry"]

ENV_PREFIX = "BALLGRAD_"

_DEFAULTS = {
    "t_grid": 201,
    "max_terms": SeriesControl().max_terms,
    "tail_tol": SeriesControl().tail_tol,
    "quad_order": DEFAULT_QUAD_ORDER,
    "seed": 0,
    "samples": 20,
    "degree_max": 12,
}
_CONSTANT_TOL = 1e-8


class UsageError(Exception):
    pass


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


def _parse_alpha_spec(spec: str):
    """Comma list of angles, or 'step:<angle>' for a uniform grid on [0, pi]."""
    if spec.startswith("step:"):
        step = _parse_angle(spec[len("step:"):])
        if not 0.0 < step <= math.pi:
            raise UsageError(f"alpha step must lie in (0, pi], got {spec!r}")
        count = int(round(math.pi / step))
        return [i * math.pi / count for i in range(count + 1)]
    return [_parse_angle(tok) for tok in spec.split(",") if tok.strip()]


def _parse_float_list(spec: str):
    try:
        return [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"cannot parse number list {spec!r}") from None


def _env_value(flag: str):
    return os.environ.get(ENV_PREFIX + flag.replace("-", "_").upper())


def _resolve(args, name: str, cast, default):
    """CLI value if given, else environment, else the built-in default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    env = _env_value(name)
    if env is not None:
        try:
            return cast(env)
        except (ValueError, UsageError) as exc:
            raise UsageError(f"bad environment value {ENV_PREFIX}{name.upper()}={env!r}: {exc}")
    return default


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballgrad",
        description="Sharp gradient-estimate constants on the unit ball",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--quad-order", dest="quad_order", type=int,
                       help="Gauss-Legendre order")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--out", help="output path ('-' for stdout)")

    def series_common(p):
        p.add_argument("--dim", type=int, help="ambient dimension n >= 3")
        p.add_argument("--max-terms", dest="max_terms", type=int,
                       help="series term cap")
        p.add_argument("--tail-tol", dest="tail_tol", type=float,
                       help="series tail tolerance")
        common(p)

    p_const = sub.add_parser("constant", help="directional constant by both routes")
    series_common(p_const)
    p_const.add_argument("--rho", help="comma-separated radii in [0, 1)")
    p_const.add_argument("--alpha", help="comma list of angles or 'step:<angle>'")
    p_const.add_argument("--tol", type=float,
                         help="relative route-agreement tolerance (default 1e-8)")

    p_cert = sub.add_parser("certify", help="convexity and radial-max certificates")
    series_common(p_cert)
    p_cert.add_argument("--rho", help="comma-separated radii in [0, 1)")
    p_cert.add_argument("--alpha", help="alpha grid spec (default step:pi/180)")
    p_cert.add_argument("--t-grid", dest="t_grid", type=int,
                        help="number of t-grid points")
    p_cert.add_argument("--tol", type=float,
                        help="certificate noise floor (default 1e-12)")

    p_ident = sub.add_parser("identities", help="polynomial identity residual suite")
    common(p_ident)
    p_ident.add_argument("--lambda", dest="lambdas",
                         help="comma-separated lambda values")
    p_ident.add_argument("--check", choices=sorted(SUITE_TOLERANCES),
                         help="run a single identity check")
    p_ident.add_argument("--degree-max", dest="degree_max", type=int,
                         help="largest polynomial degree sampled")
    p_ident.add_argument("--samples", type=int, help="random samples per case")
    p_ident.add_argument("--seed", type=int, help="sampling seed")
    return parser


def _format(text: str) -> str:
    if text not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {text!r}")
    return text


def _emit(args, fmt: str, header, rows, payload):
    """Write rows under header as CSV, or payload as JSON, to --out ('-' for stdout)."""
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
        text = buf.getvalue()
    out = _resolve(args, "out", str, "-")
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _common_config(args):
    dim_n = _resolve(args, "dim", int, None)
    if dim_n is None:
        raise UsageError("--dim is required")
    if dim_n < 3:
        raise UsageError(f"--dim must be at least 3, got {dim_n}")
    quad_order = _resolve(args, "quad_order", int, _DEFAULTS["quad_order"])
    max_terms = _resolve(args, "max_terms", int, _DEFAULTS["max_terms"])
    tail_tol = _resolve(args, "tail_tol", float, _DEFAULTS["tail_tol"])
    try:
        dim = DimensionParams(dim_n)
        ctl = SeriesControl(max_terms=max_terms, tail_tol=tail_tol)
        rule = gauss_legendre(quad_order)
    except ValueError as exc:
        raise UsageError(str(exc))
    return dim, ctl, rule


def _rho_list(args):
    spec = _resolve(args, "rho", str, None)
    if spec is None:
        raise UsageError("--rho is required")
    rhos = _parse_float_list(str(spec))
    if not rhos:
        raise UsageError("--rho list is empty")
    for r in rhos:
        if not 0.0 <= r < 1.0:
            raise UsageError(f"rho must lie in [0, 1), got {r}")
    return rhos


def cmd_constant(args) -> int:
    dim, ctl, rule = _common_config(args)
    rhos = _rho_list(args)
    alphas = _parse_alpha_spec(str(_resolve(args, "alpha", str, "step:pi/12")))
    if not alphas:
        raise UsageError("--alpha list is empty")
    for a in alphas:
        if not 0.0 <= a <= math.pi:
            raise UsageError(f"alpha must lie in [0, pi], got {a}")
    tol = _resolve(args, "tol", float, _CONSTANT_TOL)
    fmt = _resolve(args, "format", _format, "csv")

    rows = []
    all_ok = True
    for rho in rhos:
        queries = [ConstantQuery(dim, rho, alpha) for alpha in alphas]
        series = constant_series(queries, ctl, rule)
        for alpha, q, c_ser in zip(alphas, queries, series.tolist()):
            c_dir = constant_direct(q, rule)
            diff = abs(c_ser - c_dir)
            all_ok &= diff <= tol * max(1.0, abs(c_ser))
            rows.append((dim.n, rho, alpha, c_ser, c_dir, diff))

    header = ("n", "rho", "alpha", "c_series", "c_direct", "abs_diff")
    _emit(args, fmt, header, rows, {
        "command": "constant",
        "dim": dim.n,
        "quad_order": rule.order,
        "max_terms": ctl.max_terms,
        "tail_tol": ctl.tail_tol,
        "tolerance": tol,
        "rows": [dict(zip(header, row)) for row in rows],
        "passed": all_ok,
    })
    return 0 if all_ok else 1


def cmd_certify(args) -> int:
    dim, ctl, rule = _common_config(args)
    rhos = _rho_list(args)
    t_grid = _resolve(args, "t_grid", int, _DEFAULTS["t_grid"])
    if t_grid < 3:
        raise UsageError(f"--t-grid must be at least 3, got {t_grid}")
    noise_floor = _resolve(args, "tol", float, 1e-12)
    alpha_spec = _resolve(args, "alpha", str, "step:pi/180")
    alphas = _parse_alpha_spec(str(alpha_spec))
    if not alphas or alphas[0] > 1e-12 or math.pi - alphas[-1] > 1e-12:
        raise UsageError("--alpha grid must cover [0, pi] in increasing order")
    fmt = _resolve(args, "format", _format, "json")

    results = []
    all_ok = True
    for rho in rhos:
        conv = certify_convexity(dim.n, rho, grid_size=t_grid, ctl=ctl, rule=rule,
                                 threshold=-noise_floor)
        rad = certify_radial_max(dim.n, rho, alpha_grid=alphas, ctl=ctl, rule=rule,
                                 tie_tol=noise_floor)
        all_ok &= conv.passed and rad.passed
        results.append({"rho": rho, "convexity": asdict(conv),
                        "radial_max": asdict(rad)})

    rows = []
    for entry in results:
        conv, rad = entry["convexity"], entry["radial_max"]
        rows.append((dim.n, entry["rho"], "convexity",
                     conv["min_curvature"], conv["max_route_gap"],
                     "pass" if conv["passed"] else "fail"))
        rows.append((dim.n, entry["rho"], "radial-max",
                     rad["interior_gap"], rad["radial_residual"],
                     "pass" if rad["passed"] else "fail"))
    _emit(args, fmt, ("n", "rho", "certificate", "margin", "residual", "status"), rows, {
        "command": "certify",
        "dim": dim.n,
        "quad_order": rule.order,
        "max_terms": ctl.max_terms,
        "tail_tol": ctl.tail_tol,
        "t_grid": t_grid,
        "alpha_points": len(alphas),
        "results": results,
        "passed": all_ok,
    })
    return 0 if all_ok else 1


def cmd_identities(args) -> int:
    quad_order = _resolve(args, "quad_order", int, _DEFAULTS["quad_order"])
    try:
        rule = gauss_legendre(quad_order)
    except ValueError as exc:
        raise UsageError(str(exc))
    lam_spec = _resolve(args, "lambdas", str, None)
    lambdas = list(DEFAULT_SUITE_LAMBDAS) if lam_spec is None \
        else _parse_float_list(str(lam_spec))
    if not lambdas:
        raise UsageError("--lambda list is empty")
    check = _resolve(args, "check", str, None)
    degree_max = _resolve(args, "degree_max", int, _DEFAULTS["degree_max"])
    samples = _resolve(args, "samples", int, _DEFAULTS["samples"])
    seed = _resolve(args, "seed", int, _DEFAULTS["seed"])
    fmt = _resolve(args, "format", _format, "csv")
    if degree_max < 0:
        raise UsageError(f"--degree-max must be at least 0, got {degree_max}")
    if samples < 1:
        raise UsageError(f"--samples must be at least 1, got {samples}")

    checks = None
    if check is not None:
        checks = {check}
        if check == "addition" and all(lam <= 0.5 for lam in lambdas):
            # the addition theorem itself needs lam > 1/2; such requests run
            # the Legendre route instead
            checks = {"legendre-addition"}
        if check == "weighted-derivative":
            usable = [lam for lam in lambdas if not 0.9 < lam < 1.1]
            if not usable:
                raise UsageError(
                    "the weighted-derivative identity excludes lambda = 1 "
                    "(and its 0.1-neighborhood, where the finite-difference "
                    "oracle is ill-conditioned)"
                )
            lambdas = usable
    for lam in lambdas:
        if not lam > -0.5:
            raise UsageError(f"lambda must exceed -1/2, got {lam}")

    try:
        report = run_suite(lambdas=lambdas, max_degree=degree_max, samples=samples,
                           rule=rule, seed=seed, checks=checks)
    except ValueError as exc:
        raise UsageError(str(exc))
    all_ok = all(entry["passed"] for entry in report.values())

    rows = [(name, entry["max_residual"], entry["tolerance"], entry["cases"],
             "pass" if entry["passed"] else "fail") for name, entry in report.items()]
    _emit(args, fmt, ("check", "max_residual", "tolerance", "cases", "status"), rows, {
        "command": "identities",
        "lambdas": lambdas,
        "degree_max": degree_max,
        "samples": samples,
        "seed": seed,
        "quad_order": rule.order,
        "results": report,
        "passed": all_ok,
    })
    return 0 if all_ok else 1


_COMMANDS = {
    "constant": cmd_constant,
    "certify": cmd_certify,
    "identities": cmd_identities,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
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
