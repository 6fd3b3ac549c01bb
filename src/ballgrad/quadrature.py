"""Gauss-Legendre quadrature on [-1, 1] with affine mapping and kink-aware
splitting.

The rules come from Newton iteration on the Legendre polynomial P_N, whose
values come from the plain three-term recurrence of the single-degree
evaluators: the in-place step of gegenbauer.eval_sequence at lam = 1/2, on
two rolling rows, so a rule of order N needs O(N) memory, not the (N+1) x N
table."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gegenbauer import _step

__all__ = [
    "DEFAULT_QUAD_ORDER",
    "QuadratureRule",
    "gauss_legendre",
    "composite_nodes",
    "panel_edges",
    "map_panels",
    "integrate",
    "integrate_split",
    "integrate_values",
]

MAX_ORDER = 4096
# Gauss-Legendre order of every route, certificate and identity check by default
DEFAULT_QUAD_ORDER = 128
_LADDER = np.array([8, 4, 2, 1])  # a panel of a rule of order N takes N // 8, // 4, // 2 or N nodes


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights on [-1, 1]; immutable, and hashed and compared by identity."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.nodes) != self.order or len(self.weights) != self.order:
            raise ValueError("nodes/weights length must match order")
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False


def _legendre_pair(order: int, x: np.ndarray):
    """(P_order(x), P'_order(x)); P_order and P_order-1 step in two rolling rows
    by eval_sequence's recurrence step at lam = 1/2 (P_k = C_k^(1/2)), so they
    equal its last two rows bit for bit in O(order) memory. At lam = 1/2 the
    step's factors 2(m + lam - 1) and m + 2 lam - 2 are the exact 2m - 1 and
    m - 1, and C_1 = 2 lam x is x."""
    p_prev, p = np.ones_like(x), x.copy()
    cur, tmp = np.empty_like(x), np.empty_like(x)
    for m in range(2, order + 1):
        np.multiply(2.0 * m - 1.0, x, out=cur)
        _step(cur, p, p_prev, m - 1.0, m, tmp)
        p_prev, p, cur = p, cur, p_prev
    dp = order * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@functools.lru_cache(maxsize=None)
def gauss_legendre(order: int) -> QuadratureRule:
    """N-point Gauss-Legendre rule (cached): Newton iteration on Chebyshev-type seeds."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in [1, {MAX_ORDER}], got {order}")
    i = np.arange(1, order + 1)
    x = np.cos(np.pi * (4.0 * i - 1.0) / (4.0 * order + 2.0))
    for _ in range(100):
        p, dp = _legendre_pair(order, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise RuntimeError(f"Newton iteration failed to converge for order {order}")

    _, dp = _legendre_pair(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    idx = np.argsort(x)
    x, w = x[idx], w[idx]
    # enforce exact symmetry about 0
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return QuadratureRule(order, x, w)


def composite_nodes(a: float, b: float, rule: QuadratureRule, breakpoints=()):
    """Mapped nodes and weights covering [a, b], one rule panel per subinterval.

    Breakpoints outside (a, b) are dropped; near-duplicate edges are merged.
    """
    return map_panels(panel_edges(a, b, breakpoints), rule)


def panel_edges(a: float, b: float, breakpoints=()) -> np.ndarray:
    """The panel edges of composite_nodes: a, the sorted breakpoints inside (a, b) less
    those within 1e-12 of the edge before, and b."""
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    edges = [a]
    for s in sorted(breakpoints):
        if a < s < b and s - edges[-1] > 1e-12:
            edges.append(float(s))
    edges.append(b)
    return np.array(edges)


def map_panels(edges: np.ndarray, rule: QuadratureRule):
    """Mapped nodes and weights of one rule panel per pair of consecutive edges.

    `edges` has shape (..., P+1) and increases along its last axis; each row
    gets its own panels, so the result has shape (..., P * rule.order).
    """
    lo = edges[..., :-1, None]
    hi = edges[..., 1:, None]
    half = 0.5 * (hi - lo)
    shape = edges.shape[:-1] + ((edges.shape[-1] - 1) * rule.order,)
    nodes = 0.5 * (lo + hi) + half * rule.nodes
    return nodes.reshape(shape), (half * rule.weights).reshape(shape)


def integrate_values(vals, w: np.ndarray) -> np.ndarray:
    """Quadrature sums along the last axis of integrand values taken at mapped nodes.

    `vals` has shape (..., N) and `w` is one weight row (N,) for all rows or
    one per row, as composite_nodes and map_panels return them: a batch of
    integrals in one call. Raises ValueError on a non-finite value.
    """
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned a non-finite value")
    # a stack of (1, N) @ (N, 1) products: each row is the dot product of a
    # single integral, so a batch sums in the same order as one integral
    return (vals[..., None, :] @ w[..., :, None])[..., 0, 0]


@functools.lru_cache(maxsize=None)
def _ladder(order: int):
    """(rungs, allowed), read-only: the Gauss orders order // 8, // 4, // 2 and order that a panel
    of a rule of this order may take, and which of them it may: none below 16 but order itself."""
    rungs = order // _LADDER
    allowed = (rungs >= 16) | (rungs == order)
    rungs.flags.writeable = allowed.flags.writeable = False
    return rungs, allowed


def _first_rung(ok, order: int):
    """The first allowed rung of _ladder(order) that ok admits (its first axis: the four rungs),
    else order itself, for every column of ok."""
    rungs, allowed = _ladder(order)
    ok = ok & allowed.reshape((4,) + (1,) * (np.ndim(ok) - 1))
    ok[-1] = True
    return rungs[ok.argmax(0)]


def integrate(f, a: float, b: float, rule: QuadratureRule) -> float:
    """Integral of f over [a, b]; f takes an ndarray of points (a scalar value fills them all)."""
    return integrate_split(f, a, b, (), rule)


def integrate_split(f, a: float, b: float, breakpoints, rule: QuadratureRule) -> float:
    """Integral of f over [a, b] with the rule applied per smooth piece.

    Splitting at known kinks (e.g. of |x - s|) restores exact-degree behavior
    on each subinterval.
    """
    x, w = composite_nodes(a, b, rule, breakpoints)
    return float(integrate_values(np.full(x.shape, f(x), dtype=float), w))
