"""Sharp gradient-estimate constants for bounded harmonic functions on the
unit ball, with the ultraspherical-polynomial machinery, quadrature, identity
oracles, and certification sweeps behind them.

The package root holds the surface of the README and the CLI, plus the
referees that tests use (eval_explicit, integrate_adaptive); every other name
is imported from its own module."""

from .constants import (
    ConstantQuery,
    ConvexityReport,
    RadialMaxReport,
    certify_convexity,
    certify_radial_max,
    constant_direct,
    constant_radial,
    constant_series,
)
from .gegenbauer import DimensionParams, SeriesConvergenceError, eval_explicit
from .identities import run_suite
from .quadrature import gauss_legendre, integrate_adaptive

__version__ = "0.1.0"
