"""Independent referees that the tests compare the package against.

Not collected by pytest (no test_ prefix); test modules import from it.
"""

import math
from fractions import Fraction

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
