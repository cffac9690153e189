"""Expected maximum of 4-D centered unit-variance Gaussian vectors.

Closed-form value, gradient and Hessian over the elliptope; Monte-Carlo
oracles; tetrahedron geometry and mean width; an elliptope maximizer; and a
verification suite for the identities, inequalities and scans behind the
maximum theorem.
"""

from .closedform import (
    COPLANAR_BOUND,
    QuadrantIntegralParams,
    f_max,
    f_max3,
    gradient,
    hessian,
    quadrant_integral,
)
from .corrmat import (
    CorrDerived,
    CorrelationMatrix4,
    DomainClass,
    DomainTag,
    classify,
    derive,
)
from .geometry import (
    DihedralSet,
    Tetrahedron,
    corr_of,
    dihedrals,
    embed,
    f_width,
    f_width_inv,
    h_func,
    mean_width,
    stationarity_residual,
)
from .montecarlo import MCEstimate, OrderStats, estimate_max, estimate_order_stats, sample_factor
from .optimize import AscentConfig, OptResult, certify, maximize, project_elliptope
from .polynomial import IntPolynomial6
from .verify import (
    ObtuseInputError,
    ScanReport,
    bounds_check,
    euler_relation_check,
    h_monotonicity_scan,
    k_func,
    nonconcavity_example,
    nonobtuse_hessian_check,
    p_func,
    p_inequality_scan,
    p_limit,
    polynomial_identity,
    u_interval_scan,
)

__version__ = "0.1.0"

__all__ = [
    "AscentConfig",
    "COPLANAR_BOUND",
    "CorrDerived",
    "CorrelationMatrix4",
    "DihedralSet",
    "DomainClass",
    "DomainTag",
    "IntPolynomial6",
    "MCEstimate",
    "ObtuseInputError",
    "OptResult",
    "OrderStats",
    "QuadrantIntegralParams",
    "ScanReport",
    "Tetrahedron",
    "bounds_check",
    "certify",
    "classify",
    "corr_of",
    "derive",
    "dihedrals",
    "embed",
    "estimate_max",
    "estimate_order_stats",
    "euler_relation_check",
    "f_max",
    "f_max3",
    "f_width",
    "f_width_inv",
    "gradient",
    "h_func",
    "h_monotonicity_scan",
    "hessian",
    "k_func",
    "maximize",
    "mean_width",
    "nonconcavity_example",
    "nonobtuse_hessian_check",
    "p_func",
    "p_inequality_scan",
    "p_limit",
    "polynomial_identity",
    "project_elliptope",
    "quadrant_integral",
    "sample_factor",
    "stationarity_residual",
    "u_interval_scan",
]
