"""Benchmark of the ballgrad CLI: one workload, one seed, one run.

    python3 bench/run.py --workload certify-interior --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
./src). The workload runs in a child process (worker.py) that sends one
closed-loop client's operations through `ballgrad.cli.main`, one after
another, and checks every output against reference.json and the
certificate properties. With --trace 0 the last line of standard output is
the end-to-end metrics; with --trace 1 it is the per-layer metrics of a
traced run, whose spans are written to bench/out/. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROCESSES = 9     # fresh processes timed per run; setup_s is their median
DEADLINE_S = 170.0      # the whole run, set-up included

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _worker(args, deadline: float) -> dict:
    """Run worker.py with `args`; its last stdout line, parsed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=_child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def setup_seconds(deadline: float):
    """(rescaled, wall-clock) median set-up seconds over fresh processes,
    after one untimed process that compiles the bytecode and warms the
    file cache."""
    _worker(["setup"], deadline)
    probes = [_worker(["setup"], deadline) for _ in range(SETUP_PROCESSES)]
    return (statistics.median(p["setup_s"] for p in probes),
            statistics.median(p["wall_s"] for p in probes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_s, setup_wall_s = (None, None) if args.trace else setup_seconds(deadline)
        run = _worker(["run", "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)],
                      deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = run["layers"]
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": run["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": run["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": run["op_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    print(f"bench: {args.workload} seed {args.seed}: {run['passes']} passes; as measured "
          f"(wall clock): {json.dumps(run['wall'] | {'setup_s': setup_wall_s})}", file=sys.stderr)
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
