import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import ballgrad
from ballgrad.cli import main


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
    code, out, _ = _run(capsys, ["certify", "--dim", "3", "--rho", "0.99",
                                 "--alpha", "step:pi/36"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert max(payload["results"][0]["convexity"]["series_terms"]) > 1000


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
    ["--lambda", "-0.3", "--samples", "2", "--degree-max", "4"],
], ids=["degree-max-negative", "samples-zero", "samples-negative",
        "lambda-zero", "lambda-negative"])
def test_identities_rejects_empty_or_out_of_domain_grid(capsys, flags):
    code, out, err = _run(capsys, ["identities", *flags])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("ballgrad: error: ")


def test_identities_lambda_zero_kink(capsys):
    # the kink integral is defined at lambda = 0, unlike the suite's other checks
    code, out, _ = _run(capsys, ["identities", "--lambda", "0", "--check", "kink"])
    assert code == 0
    assert out.strip().splitlines()[1].endswith("pass")


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
    monkeypatch.setenv("BALLGRAD_QUAD_ORDER", "64")
    code, out, _ = _run(capsys, ["constant", "--dim", "3", "--rho", "0.2",
                                 "--alpha", "0", "--format", "json"])
    assert code == 0
    assert json.loads(out)["quad_order"] == 64
    # the command line wins over the environment
    code, out, _ = _run(capsys, ["constant", "--dim", "3", "--rho", "0.2",
                                 "--alpha", "0", "--format", "json",
                                 "--quad-order", "32"])
    assert json.loads(out)["quad_order"] == 32


def test_env_dim(capsys, monkeypatch):
    monkeypatch.setenv("BALLGRAD_DIM", "4")
    code, out, _ = _run(capsys, ["constant", "--rho", "0", "--alpha", "0",
                                 "--format", "json"])
    assert code == 0
    assert json.loads(out)["dim"] == 4


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
