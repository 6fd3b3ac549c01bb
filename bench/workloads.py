"""Operation lists of the benchmark workloads.

Each workload is a fixed list of `ballgrad` command lines, run as whole
passes; the seed only shuffles the order within a pass and, for the
identity suite, becomes the sampling seed. This module imports nothing from
`ballgrad`, so the reference generator can share it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Gauss-Legendre orders every workload builds (the CLI default --quad-order).
RULE_ORDERS = (128,)

CERTIFY_INTERIOR = [(n, rho) for n in (3, 4, 5, 8, 12, 16) for rho in (0.1, 0.3, 0.5, 0.7)]
# every rho >= 0.9 case that certifies today; the others stop in
# SeriesConvergenceError (see CHANGES.md)
CERTIFY_BOUNDARY = ([(n, rho) for n in (3, 4) for rho in (0.9, 0.95, 0.99)]
                    + [(n, rho) for n in (5, 8, 12, 16) for rho in (0.9, 0.95)])
CONSTANT_TABLE = [(n, rho) for n in (3, 5, 8, 12) for rho in (0.5, 0.9)]
# the CLI's default angle grid for `constant`
TABLE_ALPHAS = [k * math.pi / 12.0 for k in range(13)]

# Fails every time: the direct route misses the reference by 8.3e-7 relative
# against the 1e-8 route-agreement contract (the graded panels of
# constants._graded_breakpoints sit near theta = 0, pi instead of around the
# outer kink and psi = 0).
REPRODUCER = (3, 0.99, math.pi / 3)
KNOWN_FAULTS = frozenset({"constant --dim 3 --rho 0.99 --alpha pi/3"})

# Seven of the nine suite checks. "kernel-product" and "product" are left
# out: their residuals depend on the sampling seed and exceed the 1e-9
# tolerance on some seeds (kernel-product on 21 of seeds 0-149, product on
# seed 54), so a run's failure count would depend on --seed.
IDENTITY_CHECKS = (
    "addition",
    "kernel-mass",
    "kink",
    "legendre-addition",
    "orthogonality-diag",
    "orthogonality-offdiag",
    "weighted-derivative",
)
# identity sampling grid, passed explicitly (equal to the CLI defaults)
IDENTITY_LAMBDAS = (0.5, 1.0, 1.5, 2.5, 3.0)
IDENTITY_DEGREE_MAX = 12
IDENTITY_SAMPLES = 20


@dataclass(frozen=True)
class Operation:
    """One CLI invocation and what its checker needs to know about it."""

    name: str
    argv: tuple
    kind: str            # "certify", "constant" or "identities"
    n: int = 0
    rho: float = 0.0
    alphas: tuple = ()
    fmt: str = ""
    check: str = ""


def _certify(n, rho):
    argv = ("certify", "--dim", str(n), "--rho", repr(rho))
    return Operation(" ".join(argv), argv, "certify", n=n, rho=rho, fmt="json")


def _constant(n, rho, fmt, alpha_spec=None, alphas=TABLE_ALPHAS):
    argv = ["constant", "--dim", str(n), "--rho", repr(rho)]
    if alpha_spec is not None:
        argv += ["--alpha", alpha_spec]
    name = " ".join(argv)
    argv += ["--format", fmt]
    return Operation(name, tuple(argv), "constant", n=n, rho=rho,
                     alphas=tuple(alphas), fmt=fmt)


def _identities(check, seed):
    argv = ("identities", "--check", check, "--seed", str(seed),
            "--lambda", ",".join(repr(lam) for lam in IDENTITY_LAMBDAS),
            "--degree-max", str(IDENTITY_DEGREE_MAX),
            "--samples", str(IDENTITY_SAMPLES))
    return Operation(f"identities --check {check}", argv, "identities",
                     fmt="csv", check=check)


def operations(workload: str, seed: int) -> list:
    """The operations of one pass of `workload`, in canonical order."""
    if workload == "certify-interior":
        return [_certify(n, rho) for n, rho in CERTIFY_INTERIOR]
    if workload == "certify-boundary":
        return [_certify(n, rho) for n, rho in CERTIFY_BOUNDARY]
    if workload == "constant-table":
        ops = []
        for i, (n, rho) in enumerate(CONSTANT_TABLE):
            # alternate formats so that every n is written both ways
            fmt = "csv" if (i // 2 + i % 2) % 2 == 0 else "json"
            ops.append(_constant(n, rho, fmt))
        n, rho, alpha = REPRODUCER
        ops.append(_constant(n, rho, "csv", alpha_spec="pi/3", alphas=(alpha,)))
        return ops
    if workload == "identity-suite":
        return [_identities(check, seed) for check in IDENTITY_CHECKS]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("certify-interior", "certify-boundary", "constant-table", "identity-suite")


def passes(ops: list, seed: int):
    """Endless sequence of passes over `ops`, each in a seeded shuffled order."""
    rng = random.Random(seed)
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order


def reference_cases() -> list:
    """Every (n, rho, alpha) whose sharp constant a checker compares against."""
    cases = {(n, rho, 0.0) for n, rho in CERTIFY_INTERIOR + CERTIFY_BOUNDARY}
    cases |= {(n, rho, alpha) for n, rho in CONSTANT_TABLE for alpha in TABLE_ALPHAS}
    cases.add(REPRODUCER)
    return sorted(cases)
