"""Sharp gradient-estimate constants for bounded harmonic functions on the
unit ball, with the ultraspherical-polynomial machinery, quadrature, identity
oracles, and certification sweeps behind them.

The package root holds the surface of the README and the CLI; every other
name is imported from its own module."""

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
from .gegenbauer import DimensionParams, SeriesConvergenceError
from .identities import run_suite
from .quadrature import gauss_legendre

__version__ = "0.1.0"
