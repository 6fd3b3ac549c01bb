"""One benchmark process: runs a workload's operations through
`ballgrad.cli.main` in-process, or times the set-up of a fresh process.

    python3 bench/worker.py setup
    python3 bench/worker.py run --workload W --seed N --seconds S --trace 0|1

Started by run.py with every numeric library pinned to one thread. The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import resource
import statistics
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

WARMUP_PASSES = 1
MIN_OPERATIONS = 100     # p90 needs ten samples above it
COLD_RULE_REPEATS = 5
CALIBRATION_REPEATS = 5
KERNEL_WINDOW = 6        # kernel calls (half before, half after) that rescale one operation


def _import_cli():
    import ballgrad.cli

    if pathlib.Path(ballgrad.cli.__file__).resolve().parents[2] != ROOT:
        raise SystemExit(f"imported ballgrad from {ballgrad.cli.__file__}, not from {SRC}")
    return ballgrad.cli


def setup() -> int:
    """Import the CLI and build its rules, as every CLI invocation does."""
    t0 = time.perf_counter()
    _import_cli()
    from ballgrad.quadrature import gauss_legendre

    for order in workloads.RULE_ORDERS:
        gauss_legendre(order)
    wall_s = time.perf_counter() - t0
    import calibrate  # only now: it loads numpy, which the timed import must pay for

    calibrate.kernel()  # first call pays one-time numpy dispatch costs
    kernel_s = statistics.median(calibrate.seconds() for _ in range(CALIBRATION_REPEATS))
    print(json.dumps({"setup_s": wall_s * calibrate.REFERENCE_S / kernel_s, "wall_s": wall_s}))
    return 0


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _call(cli, argv):
    """(exit code, stdout text, seconds) of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # an operation that crashes counts as failed
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return rc, out.getvalue(), seconds


def _cold_rule_seconds(cli) -> float:
    """Median time to build the workload's rules from an empty cache."""
    import ballgrad.quadrature

    times = []
    for _ in range(COLD_RULE_REPEATS):
        ballgrad.quadrature.gauss_legendre.cache_clear()
        t0 = time.perf_counter()
        for order in workloads.RULE_ORDERS:
            cli.gauss_legendre(order)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(workload: str, seed: int, seconds: float, traced: bool) -> int:
    cli = _import_cli()
    import calibrate
    import checks
    import spans

    reference = checks.Reference()
    ops = workloads.operations(workload, seed)
    passes = workloads.passes(ops, seed)
    for _ in range(WARMUP_PASSES):
        for op in next(passes):
            _call(cli, op.argv)
            calibrate.kernel()

    tracer = None
    cold_rule_s = 0.0
    main = cli.main
    if traced:
        tracer = spans.Tracer()
        tracer.install()
        cold_rule_s = _cold_rule_seconds(cli)
        tracer.clear()

        def traced_main(argv):
            return tracer.span("cli.main", main, argv)

        cli.main = traced_main

    records = []
    kernel = [calibrate.seconds()]   # kernel[i] and kernel[i+1] are timed around operation i
    n_passes = 0
    t_start = time.perf_counter()
    try:
        while True:
            for op in next(passes):
                if tracer is not None:
                    tracer.op_id = len(records)
                rc, text, secs = _call(cli, op.argv)
                records.append((op, rc, text, secs))
                kernel.append(calibrate.seconds())
            n_passes += 1
            elapsed = time.perf_counter() - t_start
            if elapsed >= seconds and len(records) >= MIN_OPERATIONS:
                break
    finally:
        cli.main = main
        if tracer is not None:
            tracer.uninstall()

    failed = 0
    correct = True
    for op, rc, text, _ in records:
        problem = checks.check(op, rc, text, reference)
        if problem is None:
            continue
        failed += 1
        if op.name not in workloads.KNOWN_FAULTS:
            correct = False
            print(f"bench: {op.name}: {problem}", file=sys.stderr)

    raw = [secs for *_, secs in records]
    # each latency rescaled to the reference host speed, measured by the
    # median of the KERNEL_WINDOW kernel calls around the operation
    half = KERNEL_WINDOW // 2
    latencies = [secs * calibrate.REFERENCE_S
                 / statistics.median(kernel[max(0, i + 1 - half):i + 1 + half])
                 for i, secs in enumerate(raw)]
    summary = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "passes": n_passes,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": _p90(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "wall": {"ops_per_s": len(raw) / elapsed,
                 "op_p50_ms": statistics.median(raw) * 1e3,
                 "op_p90_ms": _p90(raw) * 1e3,
                 "kernel_ms": statistics.median(kernel) * 1e3},
    }
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload}.tsv")
        summary["layers"] = tracer.layer_metrics(n_passes, cold_rule_s)
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--seconds", type=float, required=True)
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        return setup()
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
