"""Self-test of the benchmark's output checkers.

    python3 bench/selftest.py

Runs one real operation of each kind through `ballgrad.cli.main`, confirms
that its checker accepts the genuine output, then confirms that it rejects
the same output with one value perturbed by 1e-6 relative (and, for the
identity table, with one case dropped). Exits 0 when every checker behaves.
"""

from __future__ import annotations

import csv
import io
import json
import math
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import _call, _import_cli  # noqa: E402

BUMP = 1.0 + 1e-6


def _bump_json(text, edit):
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload)


def _bump_csv(text, row, col, change):
    rows = list(csv.reader(io.StringIO(text)))
    rows[row][col] = change(rows[row][col])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _scaled(v):
    return repr(float(v) * BUMP)


def _find(workload, name):
    return next(op for op in workloads.operations(workload, seed=0) if op.name == name)


def _radial(payload):
    return payload["results"][0]["radial_max"]


def _certify_cases(op):
    return op, [
        ("value_at_zero x (1+1e-6)",
         lambda t: _bump_json(t, lambda p: _radial(p).update(
             value_at_zero=_radial(p)["value_at_zero"] * BUMP))),
        ("an interior argmax angle",
         lambda t: _bump_json(t, lambda p: _radial(p)["argmax_alphas"].append(math.pi / 2))),
        ("min_curvature below the floor",
         lambda t: _bump_json(t, lambda p: p["results"][0]["convexity"].update(
             min_curvature=-1e-9))),
    ]


def main() -> int:
    cli = _import_cli()
    reference = checks.Reference()
    csv_op = _find("constant-table", "constant --dim 3 --rho 0.5")
    json_op = _find("constant-table", "constant --dim 3 --rho 0.9")
    json_row = lambda i, key: (lambda t: _bump_json(  # noqa: E731
        t, lambda p: p["rows"][i].update({key: p["rows"][i][key] * BUMP})))
    cases = [
        _certify_cases(_find("certify-interior", "certify --dim 3 --rho 0.5")),
        _certify_cases(_find("certify-boundary", "certify --dim 4 --rho 0.99")),
        (csv_op, [
            ("c_series of the alpha = pi/4 row x (1+1e-6)",
             lambda t: _bump_csv(t, 4, 3, _scaled)),
            ("c_direct of the alpha = pi row x (1+1e-6)",
             lambda t: _bump_csv(t, 13, 4, _scaled)),
        ]),
        (json_op, [
            ("c_series of the alpha = pi/2 row x (1+1e-6)", json_row(6, "c_series")),
            ("c_direct of the alpha = 0 row x (1+1e-6)", json_row(0, "c_direct")),
        ]),
    ]
    for check in workloads.IDENTITY_CHECKS:
        cases.append((_find("identity-suite", f"identities --check {check}"), [
            ("tolerance x (1+1e-6)", lambda t: _bump_csv(t, 1, 2, _scaled)),
            ("one case dropped", lambda t: _bump_csv(t, 1, 3, lambda c: str(int(c) - 1))),
            ("residual above the tolerance",
             lambda t, tol=checks.IDENTITY_TOLERANCES[check]:
                 _bump_csv(t, 1, 1, lambda r: repr(tol * 1.01))),
        ]))

    bad = 0
    for op, mutations in cases:
        rc, text, _ = _call(cli, op.argv)
        problem = checks.check(op, rc, text, reference)
        print(f"{'ok  ' if problem is None else 'FAIL'} accepts genuine  {op.name}"
              + ("" if problem is None else f": {problem}"))
        bad += problem is not None
        for label, mutate in mutations:
            problem = checks.check(op, rc, mutate(text), reference)
            print(f"{'ok  ' if problem else 'FAIL'} rejects {label}: {problem}")
            bad += problem is None
    print(f"{'all checkers behave' if bad == 0 else f'{bad} checker failures'}")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
