"""Independent referees that the tests compare the package against.

Not collected by pytest (no test_ prefix); test modules import from it.
"""

import math
from fractions import Fraction

import numpy as np

from ballgrad.gegenbauer import GegenbauerIndex, _clipped


def eval_explicit(idx: GegenbauerIndex, x: float) -> float:
    """Finite-sum form of C_k^lam(x), as an independent oracle for the recurrence.

    The alternating sum cancels catastrophically in floating point for large
    degree near |x| = 1, so it is accumulated in exact rational arithmetic and
    rounded once at the end.
    """
    lam, k = idx.lam, idx.degree
    xv = float(_clipped(x))
    lam_q = Fraction(lam)
    two_x = 2 * Fraction(xv)
    total = Fraction(0)
    for j in range(k // 2 + 1):
        poch = Fraction(1)
        for i in range(k - j):
            poch *= lam_q + i
        term = poch * two_x ** (k - 2 * j) / (math.factorial(j) * math.factorial(k - 2 * j))
        total += -term if j % 2 else term
    return float(total)


def eval_sequence_longdouble(lam: float, K: int, x) -> np.ndarray:
    """C_0^lam(x), ..., C_K^lam(x) by the plain three-term recurrence in
    np.longdouble (a 64-bit mantissa on x86), one row per degree."""
    L = np.longdouble
    xl = np.asarray(x, dtype=L)
    lam = L(lam)
    out = np.empty((K + 1,) + xl.shape, dtype=L)
    out[0] = 1
    if K >= 1:
        out[1] = 2 * lam * xl
    for m in range(2, K + 1):
        out[m] = (2 * (m + lam - 1) * xl * out[m - 1] - (m + 2 * lam - 2) * out[m - 2]) / m
    return out
