"""The benchmark's output checkers must accept the CLI's genuine output:
bench/selftest.py runs one operation of each kind through `ballgrad.cli.main`
and exits 0 only when every checker accepts it and rejects its perturbed
copies. bench/ is only read here."""

import os
import pathlib
import subprocess
import sys

SELFTEST = pathlib.Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


def test_bench_checkers_accept_cli_output():
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
