"""A fixed calibration kernel that measures the host's current speed.

It mixes the three kinds of work ballgrad does: an interpreted float
recurrence, ufuncs on mid-size arrays and many small-array numpy calls.
It imports nothing from ballgrad, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

# Host speed that reported times are rescaled to: the speed at which one
# kernel() call takes this long.
REFERENCE_S = 1e-3

_X = np.linspace(-1.0, 1.0, 1152)
_M = np.linspace(0.0, 1.0, 128 * 96).reshape(128, 96)
_V = np.linspace(1.0, 2.0, 96)


def kernel() -> float:
    """The fixed work; the return value only keeps it from being skipped."""
    c_prev, c = 1.0, 0.6
    for m in range(2, 1200):
        c_prev, c = c, (1.7 * (m + 0.5) * 0.3 * c - (m + 0.2) * c_prev) / (m + 1.0)
    a = _X
    for _ in range(12):
        a = np.sqrt(np.abs(np.sin(a) * 1.01 + 0.1))
    acc = 0.0
    for i in range(60):
        acc += float(np.concatenate((_V[:8] * i, _V[8:16])) @ _V[:16])
    return c + float(a.sum()) + acc + float((_M @ _V).sum())


def seconds() -> float:
    """Wall time of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
