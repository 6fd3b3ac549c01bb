import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import asdict

import pytest

import ballgrad
from ballgrad import certify_convexity, certify_radial_max, cli
from ballgrad.cli import main
from ballgrad.constants import DEFAULT_QUAD_ORDER, ConstantQuery, constant_direct
from ballgrad.gegenbauer import DimensionParams
from ballgrad.quadrature import gauss_legendre


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constant_at_origin(capsys):
    code, out, _ = _run(capsys, ["constant", "--dim", "3", "--rho", "0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,rho,alpha,c_series,c_direct,abs_diff"
    assert len(lines) == 14  # header + 13 default alphas
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[3]) == pytest.approx(1.5, abs=1e-12)
        assert float(fields[4]) == pytest.approx(1.5, abs=1e-12)


def test_constant_csv_roundtrip(capsys):
    code, out, _ = _run(capsys, ["constant", "--dim", "4", "--rho", "0.5", "--alpha", "0"])
    assert code == 0
    header, row = out.strip().splitlines()
    fields = row.split(",")
    # 17 significant digits round-trip through text
    val = float(fields[3])
    assert f"{val:.17g}" == fields[3]
    # alpha = 0 row: both routes agree
    assert abs(float(fields[3]) - float(fields[4])) <= 1e-8


def test_constant_alpha_literals(capsys):
    code, out, _ = _run(capsys, ["constant", "--dim", "3", "--rho", "0.3",
                                 "--alpha", "0,pi/2,pi"])
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_constant_near_boundary_off_radial(capsys):
    # both routes meet the 1e-8 agreement contract at rho = 0.99, alpha = pi/3
    code, out, _ = _run(capsys, ["constant", "--dim", "3", "--rho", "0.99",
                                 "--alpha", "pi/3"])
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    assert float(fields[5]) <= 1e-8 * float(fields[3])


def test_constant_rejects_bad_rho(capsys):
    code, _, err = _run(capsys, ["constant", "--dim", "3", "--rho", "1.0"])
    assert code == 2
    assert "rho" in err
    code, _, _ = _run(capsys, ["constant", "--dim", "3", "--rho", ""])
    assert code == 2
    code, _, _ = _run(capsys, ["constant", "--dim", "2", "--rho", "0.5"])
    assert code == 2


def test_constant_json_format(capsys):
    code, out, _ = _run(capsys, ["constant", "--dim", "5", "--rho", "0.4",
                                 "--alpha", "0.7", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["quad_order"] == 128
    # the fixed contracts are echoed
    assert (payload["tolerance"], payload["tail_tol"], payload["max_terms"]) == (1e-8, 1e-14, 8192)
    assert len(payload["rows"]) == 1
    row = payload["rows"][0]
    assert abs(row["c_series"] - row["c_direct"]) <= 1e-8


def test_certify_passes(capsys):
    code, out, _ = _run(capsys, ["certify", "--dim", "5", "--rho", "0.3,0.6,0.9"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["results"]) == 3
    entry = payload["results"][0]
    assert entry["convexity"]["passed"] and entry["radial_max"]["passed"]
    # reproducibility metadata
    assert payload["quad_order"] == 128
    assert entry["convexity"]["series_terms"]
    assert entry["radial_max"]["quad_order"] == 128


def test_certify_near_boundary_reports_longer_series(capsys):
    code, out, _ = _run(capsys, ["certify", "--dim", "3", "--rho", "0.99"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert max(payload["results"][0]["convexity"]["series_terms"]) > 1000


@pytest.mark.parametrize("argv", [
    ["constant", "--dim", "200", "--rho", "0.99"],
    ["certify", "--dim", "128", "--rho", "0.999"],
    ["constant", "--dim", "1024", "--rho", "0.3", "--alpha", "0"],
], ids=["constant-200", "certify-128", "constant-1024"])
def test_series_order_overflow_is_one_line(capsys, argv):
    # the cutoff's (K+1)^(2 lam - 1) passes the double range before its bound is met
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("ballgrad: series did not converge: ")
    assert "Traceback" not in err


def test_certify_empty_rho(capsys):
    code, _, _ = _run(capsys, ["certify", "--dim", "5", "--rho", ""])
    assert code == 2


def test_identities_default(capsys):
    code, out, _ = _run(capsys, ["identities", "--samples", "3", "--degree-max", "6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,max_residual,tolerance,cases,status"
    assert all(line.endswith("pass") for line in lines[1:])


def test_identities_lambda_one_weighted_derivative(capsys):
    code, _, err = _run(capsys, ["identities", "--lambda", "1",
                                 "--check", "weighted-derivative"])
    assert code == 2
    assert "lambda" in err


def test_identities_lambda_half_addition_routed(capsys):
    code, out, _ = _run(capsys, ["identities", "--lambda", "0.5", "--check",
                                 "addition", "--samples", "3", "--degree-max", "6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("legendre-addition,")
    assert lines[1].endswith("pass")


@pytest.mark.parametrize("flags", [
    ["--degree-max", "-1"],
    ["--samples", "0"],
    ["--samples", "-1"],
    ["--lambda", "0", "--samples", "2", "--degree-max", "4"],
    ["--lambda", "1.5,0"],
    ["--lambda", "-0.3", "--samples", "2", "--degree-max", "4"],
    ["--lambda", "inf", "--samples", "2", "--degree-max", "4"],
    ["--lambda", "0.25"],
], ids=["degree-max-negative", "samples-zero", "samples-negative",
        "lambda-zero", "lambda-zero-after-valid", "lambda-negative", "lambda-inf", "lambda-off-grid"])
def test_identities_rejects_empty_or_out_of_domain_grid(capsys, flags):
    code, out, err = _run(capsys, ["identities", *flags])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("ballgrad: error: ")


def test_identities_lambda_zero_kink(capsys):
    # C_k^0 vanishes for k >= 1 and so does the closed form's 8 lam (lam + 1):
    # the kink check would compare zeros, so lambda = 0 is refused as for the
    # other quadrature checks
    code, out, err = _run(capsys, ["identities", "--lambda", "0", "--check", "kink"])
    assert code == 2
    assert out == ""
    assert err == "ballgrad: error: 2*lambda must be a positive integer for kink, got 0.0\n"


def test_identities_json(capsys):
    code, out, _ = _run(capsys, ["identities", "--check", "kink", "--samples", "2",
                                 "--degree-max", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert set(payload["results"]) == {"kink"}
    assert payload["seed"] == 0


def test_deterministic_output(capsys):
    argv = ["identities", "--samples", "3", "--degree-max", "5", "--seed", "42"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = _run(capsys, ["constant", "--dim", "3", "--rho", "0.2",
                                 "--alpha", "0", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("n,rho,alpha,")


def test_env_override(capsys, monkeypatch):
    # no BALLGRAD_* variable overrides anything: every command prints the same bytes
    # and exits the same with them set, good values and bad alike
    argvs = [["constant", "--dim", "3", "--rho", "0.2", "--alpha", "0"],
             ["certify", "--dim", "3", "--rho", "0.5"],
             ["identities", "--check", "kink", "--samples", "2", "--degree-max", "3"]]
    bare = [_run(capsys, argv) for argv in argvs]
    assert [code for code, _, _ in bare] == [0, 0, 0]
    for name, value in [("QUAD_ORDER", "64"), ("DIM", "abc"), ("FORMAT", "xml"),
                        ("CHECK", "bogus"), ("LAMBDA", "2.5")]:
        monkeypatch.setenv("BALLGRAD_" + name, value)
    assert [_run(capsys, argv) for argv in argvs] == bare


def test_env_dim(capsys, monkeypatch):
    # BALLGRAD_DIM does not stand in for --dim: the flag stays required, and it alone
    # sets the dimension
    monkeypatch.setenv("BALLGRAD_DIM", "4")
    code, out, err = _run(capsys, ["constant", "--rho", "0", "--alpha", "0",
                                   "--format", "json"])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "--dim" in err
    code, out, _ = _run(capsys, ["constant", "--dim", "3", "--rho", "0", "--alpha", "0",
                                 "--format", "json"])
    assert code == 0
    assert json.loads(out)["dim"] == 3


def test_env_lambda_reaches_identities(capsys, monkeypatch):
    # BALLGRAD_LAMBDA does not reach the identities: they run at the default lambdas
    monkeypatch.setenv("BALLGRAD_LAMBDA", "2.5")
    code, out, _ = _run(capsys, ["identities", "--check", "kink", "--samples", "2",
                                 "--degree-max", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["lambdas"] == list(cli.DEFAULT_SUITE_LAMBDAS) != [2.5]


def test_env_change_reaches_next_call(capsys, monkeypatch):
    # a BALLGRAD_* variable set or changed between calls changes nothing in the next call
    argv = ["constant", "--dim", "3", "--rho", "0", "--alpha", "0"]
    bare = _run(capsys, argv)
    assert bare[0] == 0
    assert bare[1].splitlines()[1].startswith("3,0,0,")
    monkeypatch.setenv("BALLGRAD_FORMAT", "json")
    assert _run(capsys, argv) == bare
    monkeypatch.setenv("BALLGRAD_FORMAT", "csv")
    monkeypatch.setenv("BALLGRAD_DIM", "5")
    assert _run(capsys, argv) == bare


def test_missing_dim(capsys):
    code, _, err = _run(capsys, ["constant", "--rho", "0.5"])
    assert code == 2
    assert "--dim" in err


def test_module_entry_point():
    # the child imports the same ballgrad as this process, installed or not
    src = str(pathlib.Path(ballgrad.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "ballgrad.cli", "constant", "--dim", "3",
         "--rho", "0", "--alpha", "0"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,rho,alpha,")


@pytest.mark.parametrize("argv", [
    ["constant", "--dim", "3", "--rho", "0.5", "--alpha", "1.2.3*pi"],
    ["constant", "--dim", "3", "--rho", "0.5", "--alpha", "pi/0"],
    ["constant", "--dim", "3", "--rho", "0.5", "--alpha", "pi/."],
    ["constant", "--dim", "3", "--rho", "0.5", "--alpha", "step:1.2.3*pi"],
    ["constant", "--dim", "3", "--rho", "0.5", "--alpha", "step:pi/0"],
    ["constant", "--dim", "3", "--rho", "0.5", "--alpha", "step:pi/."],
], ids=["constant-two-dots", "constant-zero-den", "constant-dot-den",
        "step-two-dots", "step-zero-den", "step-dot-den"])
def test_malformed_angle_is_usage_error(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("ballgrad: error: cannot parse angle ")


@pytest.mark.parametrize("flags", [
    ["--dim", "3"], ["--max-terms", "1"], ["--tail-tol", "-5"],
], ids=["dim", "max-terms", "tail-tol"])
def test_identities_rejects_series_flags(capsys, flags):
    # identities has no dimension and no rho-power series
    code, out, _ = _run(capsys, ["identities", *flags])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("step", ["1e-9", "5e-324", "pi/100000"])
def test_alpha_step_grid_is_bounded(capsys, step):
    # the count is checked before any angle is built: 3e9 floats for 1e-9
    code, out, err = _run(capsys, ["constant", "--dim", "3", "--rho", "0", "--alpha",
                                   "step:" + step])
    assert code == 2
    assert out == ""
    assert err == (f"ballgrad: error: alpha step 'step:{step}' gives more than "
                   f"{cli.MAX_ANGLES} angles\n")


@pytest.mark.parametrize("step", ["1.0", "pi/2.5"])
def test_alpha_step_must_divide_pi(capsys, step):
    # round(pi / step) made 1.0 the pi/3 grid and pi/2.5 the pi/2 grid
    code, out, err = _run(capsys, ["constant", "--dim", "3", "--rho", "0", "--alpha",
                                   "step:" + step])
    assert code == 2
    assert out == ""
    assert err == f"ballgrad: error: alpha step 'step:{step}' does not divide pi\n"


def test_alpha_step_divides_pi_to_within_rounding():
    assert cli._alphas("step:0.2617993877991494") == cli._alphas("step:pi/12")


def test_alpha_step_grid_at_the_bound():
    alphas = cli._alphas(f"step:pi/{cli.MAX_ANGLES - 1}")
    assert len(alphas) == cli.MAX_ANGLES and alphas[-1] == math.pi


@pytest.mark.parametrize("k", [1, 2, 11, 12, 13, 22, 180, cli.MAX_ANGLES - 1])
def test_alpha_step_grid_is_symmetric(k):
    # 11 * pi / 11 < pi, 13 * pi / 13 > pi and 11 * pi / 22 < pi / 2 in floating point
    a = cli._alphas(f"step:pi/{k}")
    assert len(a) == k + 1 and a[0] == 0.0 and a[-1] == math.pi
    assert all(math.pi - a[k - i] == a[i] for i in range(k + 1))
    assert max(abs(x - i * math.pi / k) for i, x in enumerate(a)) <= 1e-15


def test_alpha_step_grid_ends_at_pi(capsys):
    # the last angle was 13 * pi / 13, one ulp above pi, which ConstantQuery rejects
    code, out, _ = _run(capsys, ["constant", "--dim", "3", "--rho", "0.5", "--alpha", "step:pi/13"])
    assert code == 0
    assert [float(line.split(",")[2]) for line in out.splitlines()[1::13]] == [0.0, math.pi]


@pytest.mark.parametrize("alpha, calls", [(None, 7), ("0,pi", 1), ("pi/3,2*pi/3", 2)])
def test_constant_runs_direct_once_per_mirror_pair(capsys, monkeypatch, alpha, calls):
    # pi - fl(2 pi/3) != fl(pi/3): only exact mirrors share the direct route
    made = []

    def counted(q, rule):
        made.append(q.alpha)
        return constant_direct(q, rule)

    monkeypatch.setattr(cli, "constant_direct", counted)
    argv = ["constant", "--dim", "5", "--rho", "0.9", "--format", "json"]
    code, out, _ = _run(capsys, argv + ([] if alpha is None else ["--alpha", alpha]))
    assert code == 0 and len(made) == calls
    rule = gauss_legendre(DEFAULT_QUAD_ORDER)
    for row in json.loads(out)["rows"]:
        q = ConstantQuery(DimensionParams(5), 0.9, row["alpha"])
        assert row["c_direct"] == constant_direct(q, rule)


@pytest.mark.parametrize("command", ["constant", "certify"])
@pytest.mark.parametrize("cap", ["7", "0"])
def test_max_terms_below_8_is_usage_error(capsys, command, cap):
    # series_cutoff checks the cap, also at rho = 0 where no series term runs
    code, out, err = _run(capsys, [command, "--dim", "3", "--rho", "0", "--max-terms", cap])
    assert code == 2
    assert out == ""
    assert err == f"ballgrad: error: max_terms must be at least 8, got {cap}\n"


def _typed(field):
    for cast in (int, float):
        try:
            return cast(field)
        except ValueError:
            pass
    return field


def _csv_json_rows(capsys, argv):
    """(CSV rows, JSON payload) of one command run in both formats."""
    code_csv, text, _ = _run(capsys, [*argv, "--format", "csv"])
    code_json, payload, _ = _run(capsys, [*argv, "--format", "json"])
    assert code_csv == code_json == 0
    lines = text.strip().splitlines()
    rows = [tuple(_typed(v) for v in line.split(",")) for line in lines[1:]]
    return lines[0].split(","), rows, json.loads(payload)


def test_constant_csv_and_json_agree(capsys):
    header, rows, payload = _csv_json_rows(
        capsys, ["constant", "--dim", "4", "--rho", "0,0.5", "--alpha", "0,pi/3"])
    assert [list(row) for row in payload["rows"]] == [header] * 4
    assert rows == [tuple(row.values()) for row in payload["rows"]]


def test_certify_csv_and_json_agree(capsys):
    header, rows, payload = _csv_json_rows(
        capsys, ["certify", "--dim", "3", "--rho", "0,0.5"])
    assert header == ["n", "rho", "certificate", "margin", "residual", "status"]
    expected = []
    for entry in payload["results"]:
        conv, rad = entry["convexity"], entry["radial_max"]
        expected += [
            (payload["dim"], entry["rho"], "convexity", conv["min_curvature"],
             conv["max_route_gap"], "pass" if conv["passed"] else "fail"),
            (payload["dim"], entry["rho"], "radial-max", rad["interior_gap"],
             rad["radial_residual"], "pass" if rad["passed"] else "fail"),
        ]
    assert rows == expected


def test_identities_csv_and_json_agree(capsys):
    header, rows, payload = _csv_json_rows(
        capsys, ["identities", "--samples", "2", "--degree-max", "4"])
    assert header == ["check", "max_residual", "tolerance", "cases", "status"]
    assert rows == [
        (name, entry["max_residual"], entry["tolerance"], entry["cases"],
         "pass" if entry["passed"] else "fail")
        for name, entry in payload["results"].items()
    ]


@pytest.mark.parametrize("case", ["missing-directory", "empty-env"])
def test_out_write_failure_is_usage_error(tmp_path, capsys, case):
    # empty-env: the empty path, once set through BALLGRAD_OUT, now only by the flag
    target = str(tmp_path / "missing" / "table.csv") if case == "missing-directory" else ""
    code, out, err = _run(capsys, ["constant", "--dim", "3", "--rho", "0", "--alpha", "0",
                                   "--out", target])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"ballgrad: error: cannot write {target!r}")


def _subcommands():
    """{command: its subparser}, from the CLI's own parser."""
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _options(parser):
    return [a for a in parser._actions if a.option_strings and a.dest != "help"]


# (environment text, command-line text) for a flag, each unlike its default: two
# other choices, else by dest where the type needs a particular form, else by type
_FLAG_TEXTS = {"rho": ("0.5", "0.25"), "alpha": ("pi/4", "0,pi"), "lambdas": ("2.5", "1.5,3"),
               "out": ("a.csv", "b.csv")}
_TYPE_TEXTS = {int: ("7", "9")}


def _texts(action):
    if action.choices:
        others = [c for c in action.choices if c != action.default]
        return others[0], others[-1]
    return _FLAG_TEXTS.get(action.dest) or _TYPE_TEXTS[action.type]


@pytest.mark.parametrize("command, flag", [
    (command, action.option_strings[0])
    for command, parser in _subcommands().items() for action in _options(parser)
])
def test_env_sets_every_flag(monkeypatch, command, flag):
    # with BALLGRAD_<FLAG> set, every option of every subcommand keeps its default
    # (a required one stays required), and the flag's text is parsed by its own type
    options = _options(_subcommands()[command])
    action = next(a for a in options if flag in a.option_strings)
    others = [tok for a in options if a.required and a is not action
              for tok in (a.option_strings[0], _texts(a)[0])]
    env_text, cli_text = _texts(action)
    monkeypatch.setenv("BALLGRAD_" + flag[2:].replace("-", "_").upper(), env_text)
    parse, convert = cli._build_parser().parse_args, action.type or str
    if action.required:
        with pytest.raises(cli.UsageError, match=f"required: {flag}$"):
            parse([command, *others])
    else:
        default = action.default
        expected = convert(default) if isinstance(default, str) else default
        assert getattr(parse([command, *others]), action.dest) == expected
        assert expected != convert(env_text)
    assert getattr(parse([command, *others, flag, cli_text]), action.dest) == convert(cli_text)


@pytest.mark.parametrize("argv", [
    ["constant", "--dim", "abc", "--rho", "0"],
    ["identities", "--dim", "3"],
    [],
    ["certify", "--dim", "3", "--rho", "0.5", "--alpha", "0"],
    ["certify", "--dim", "3", "--rho", "0.5", "--t-grid", "5"],
    ["constant", "--dim", "3", "--rho", "0", "--format", "xml"],
], ids=["bad-int", "unknown-flag", "no-command", "certify-alpha", "certify-t-grid",
        "format-xml"])
def test_argparse_errors_are_one_line(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("ballgrad: error: ")


def test_certify_json_is_the_library_reports(capsys):
    # the certify command adds no computation of its own: its JSON is asdict of both reports
    code, out, _ = _run(capsys, ["certify", "--dim", "5", "--rho", "0.9"])
    assert code == 0
    (entry,) = json.loads(out)["results"]
    expected = {"rho": 0.9, "convexity": asdict(certify_convexity(5, 0.9)),
                "radial_max": asdict(certify_radial_max(5, 0.9))}
    assert entry == json.loads(json.dumps(expected))


@pytest.mark.parametrize("command", ["constant", "certify"])
@pytest.mark.parametrize("flag", ["--tol", "--tail-tol"])
def test_contract_flags_are_gone(capsys, command, flag):
    # the accuracy contracts are constants: no flag loosens them
    code, out, err = _run(capsys, [command, "--dim", "3", "--rho", "0.5", "--alpha", "0,pi",
                                   flag, "1"])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("ballgrad: error: ")
    assert flag in err


@pytest.mark.parametrize("check", ["orthogonality-diag", "product", "kernel-product",
                                   "legendre-addition"])
def test_identities_degree_overflow_is_usage_error(capsys, check):
    # Gegenbauer normalisations such as (1)_k = k! pass the double range near k = 171;
    # a numpy overflow warning would put a second line on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["identities", "--check", check, "--degree-max", "200",
                                       "--samples", "1"])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("ballgrad: error: --degree-max 200 is too large: ")


def test_help_exits_zero(capsys):
    code, out, _ = _run(capsys, ["constant", "--help"])
    assert code == 0
    assert "--rho" in out


def test_identities_leaves_out_checks_outside_their_lambdas(capsys):
    code, out, _ = _run(capsys, ["identities", "--lambda", "1.5"])
    assert code == 0
    assert "legendre-addition" not in out
    code, out, err = _run(capsys, ["identities", "--lambda", "1.5", "--check",
                                   "legendre-addition"])
    assert code == 2
    assert out == ""
    assert "legendre-addition needs lambda = 1/2" in err


def test_identities_negative_seed_is_usage_error(capsys):
    code, out, err = _run(capsys, ["identities", "--seed", "-1", "--check", "kink",
                                   "--samples", "2"])
    assert code == 2
    assert out == ""
    assert err == "ballgrad: error: seed must be at least 0, got -1\n"


def test_identities_legendre_addition_runs_at_lambda_half_only(capsys):
    code, out, err = _run(capsys, ["identities", "--lambda", "-0.25", "--check", "addition"])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "legendre-addition needs lambda = 1/2" in err
    code, out, _ = _run(capsys, ["identities", "--lambda", "0.5,0.25,-0.25", "--check",
                                 "legendre-addition"])
    assert code == 0
    assert out.splitlines()[1].split(",")[3] == "260"


def test_identities_small_degree_max_leaves_out_checks(capsys):
    # kink starts at degree 2 and the first off-diagonal pair is (0, 3): with
    # no case on the grid they are left out instead of failing on 0 cases
    code, out, _ = _run(capsys, ["identities", "--degree-max", "1"])
    assert code == 0
    names = {line.split(",")[0] for line in out.strip().splitlines()[1:]}
    assert names and not names & {"kink", "orthogonality-offdiag"}
    assert all(line.endswith("pass") for line in out.strip().splitlines()[1:])


def test_identities_check_below_its_degree_is_usage_error(capsys):
    code, out, err = _run(capsys, ["identities", "--degree-max", "1", "--check", "kink"])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("ballgrad: error: ")
    assert "kink needs max degree >= 2" in err


def test_identities_json_echoes_requested_lambdas(capsys):
    code, out, _ = _run(capsys, ["identities", "--lambda", "1,2", "--check",
                                 "weighted-derivative", "--samples", "2", "--degree-max", "3",
                                 "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lambdas"] == [1.0, 2.0]
    assert payload["results"]["weighted-derivative"]["cases"] == 4 * 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_identities_nan_residual_is_the_only_report(capsys, fmt):
    # lambda 1e300 overflows the recurrence: the failing row reports it, numpy
    # prints no warning, and JSON (which has no NaN) writes the residual as null
    def refuse(text):
        raise ValueError(f"not JSON: {text}")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["identities", "--lambda", "1e300", "--check",
                                       "weighted-derivative", "--degree-max", "2",
                                       "--samples", "1", "--format", fmt])
    assert code == 1 and err == ""
    if fmt == "json":
        entry = json.loads(out, parse_constant=refuse)["results"]["weighted-derivative"]
        assert entry == {"max_residual": None, "tolerance": 1e-6, "passed": False, "cases": 3}
    else:
        assert out.splitlines()[1] == "weighted-derivative,nan,9.9999999999999995e-07,3,fail"
