"""One digest of (stdout, stderr, exit code) per `ballgrad` command line.

    python3 tests/cli_digest.py <checkout>

runs every command line below through `cli.main` of <checkout>/src, each in
a fresh PYTHONDONTWRITEBYTECODE=1 process, and prints one line per run: a
digest and the command line. Diffing the output for two checkouts shows
which runs a change moves:

    diff <(python3 tests/cli_digest.py ../parent) <(python3 tests/cli_digest.py .)

The command lines are the benchmark's operations at seed 0 (read from this
repository's bench/workloads.py), then usage errors and edge runs. Not
collected by pytest (no test_ prefix).
"""

import hashlib
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
from workloads import WORKLOADS, operations  # noqa: E402

EXTRAS = """
--help
constant --help
certify --help
identities --help
identities
identities --seed 1
identities --seed 3 --format json
identities --seed 54
identities --seed 7 --quad-order 64
identities --degree-max 0
identities --degree-max 1
identities --degree-max 20 --samples 300 --check addition
identities --check product
identities --check kernel-product
identities --lambda 0.5 --check addition --samples 3 --degree-max 6
identities --lambda 0.5 --check legendre-addition
identities --lambda 0.25,1.5 --check addition
identities --lambda 1 --check weighted-derivative
identities --lambda 1.5 --check legendre-addition
identities --lambda 0
identities --lambda 0 --check kink
identities --lambda 1.5,0
identities --lambda 0 --check product
identities --lambda 0 --check kernel-mass
identities --lambda 0.25
identities --lambda -0.3
identities --lambda 2.2 --check product
identities --check product --degree-max 200 --samples 1
identities --check kink --degree-max 1
identities --check bogus
identities --dim 3
identities --quad-order abc
constant --dim 3 --rho 0.5 --alpha step:pi/12
constant --dim 3 --rho 0.5 --alpha step:0.2617993877991494
constant --dim 3 --rho 0.5 --alpha step:1e-9
constant --dim 3 --rho 0.5 --alpha step:1.0
constant --dim 3 --rho 0.5 --alpha step:pi/2.5
constant --dim 3 --rho 0.5 --alpha pi/0
constant --dim abc --rho 0.5
constant --dim 3 --rho 0.5 --format xml
constant --rho 0.5
constant --dim 3 --rho 1.5
constant --dim 2 --rho 0.5
certify --dim 3 --rho 0.5 --max-terms 7
constant --dim 3 --rho 0.5 --max-terms 7
certify --dim 16 --rho 0.999
certify --dim 128 --rho 0.999
certify --dim 3 --rho 0.999
identities --seed -1 --check kink --samples 2
identities --lambda 0.5,0.25,-0.25 --check legendre-addition
identities --lambda -0.25 --check addition
identities --lambda 0.25 --check addition
certify --dim 5 --rho 0.3,0.9,0.3
certify --dim 8 --rho 0.5 --quad-order 64 --format csv
certify --dim 21 --rho 0.95
constant --dim 4 --rho 0.3,0.9 --alpha 0,pi/2,pi
certify --dim 5 --rho 0
certify --dim 100001 --rho 0
constant --dim 64 --rho 0.7
certify --dim 64 --rho 0.7
certify --dim 100 --rho 0.5
certify --dim 128 --rho 0.5
certify --dim 128 --rho 0.7
certify --dim 96 --rho 0.8 --quad-order 48
certify --dim 96 --rho 0.8 --quad-order 64
certify --dim 128 --rho 0.8 --quad-order 48
certify --dim 128 --rho 0.8 --quad-order 64
"""

CHILD = ("import sys, ballgrad.cli\n"
         "assert ballgrad.cli.__file__.startswith(sys.argv[1]), ballgrad.cli.__file__\n"
         "sys.exit(ballgrad.cli.main(sys.argv[2:]))\n")


def command_lines() -> list:
    lines = [list(op.argv) for workload in WORKLOADS for op in operations(workload, 0)]
    return lines + [[]] + [shlex.split(line) for line in EXTRAS.strip().splitlines()]


def main(checkout: str) -> None:
    src = str(pathlib.Path(checkout).resolve() / "src")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": src}
    with tempfile.TemporaryDirectory() as cwd:
        for argv in command_lines():
            run = subprocess.run([sys.executable, "-c", CHILD, src, *argv], env=env, cwd=cwd,
                                 capture_output=True, timeout=600)
            digest = hashlib.sha256(repr((run.stdout, run.stderr, run.returncode)).encode())
            print(digest.hexdigest()[:16], shlex.join(["ballgrad", *argv]), flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tests/cli_digest.py <checkout>")
    main(sys.argv[1])
