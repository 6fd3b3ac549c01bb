"""Sharp gradient-estimate constants for bounded harmonic functions on the
unit ball, with the ultraspherical-polynomial machinery, quadrature, identity
oracles, and certification sweeps behind them."""

from .constants import (
    ConstantQuery,
    ConvexityReport,
    KernelPoint,
    RadialMaxReport,
    SeriesControl,
    certify_convexity,
    certify_radial_max,
    constant_direct,
    constant_radial,
    constant_series,
    curvature_density,
    curvature_density_grid,
    inner_integral,
    inner_integral_series,
    profile_curvature_kernel,
    profile_curvature_series,
    profile_parts,
)
from .gegenbauer import (
    DimensionParams,
    GegenbauerIndex,
    SeriesConvergenceError,
    assoc_legendre,
    derivative,
    eval_explicit,
    eval_recurrence,
    eval_sequence,
    gamma_ratio,
    legendre,
    pochhammer,
    series_cutoff,
)
from .identities import (
    KernelParams,
    addition_coefficient,
    addition_theorem_rhs,
    kernel_K,
    kernel_product_check,
    kernel_support,
    kink_integral_brute,
    kink_integral_closed,
    legendre_addition_rhs,
    orthogonality_closed_form,
    orthogonality_integral,
    product_formula_check,
    run_suite,
    weighted_derivative_check,
)
from .quadrature import (
    QuadratureRule,
    ToleranceNotMetError,
    composite_nodes,
    gauss_legendre,
    integrate,
    integrate_adaptive,
    integrate_split,
)

__version__ = "0.1.0"
