"""Eigenvalue bounds for geodesic balls from the area of their geodesic spheres.

The bound comes from rotating the metric into a model with the same sphere
areas and driving a recursive moment hierarchy whose ratio sequences converge
to the model's first Dirichlet eigenvalue.  Independent shooting and 2-D
finite-difference oracles validate every estimate.
"""

from .compare import (
    BOUND_BELOW_REFERENCE,
    BOUND_HOLDS,
    EQUALITY_CANDIDATE,
    HYPOTHESIS_FAILS,
    ComparisonReport,
    cheng_report,
    equality_criterion,
    monotonicity_check,
)
from .errors import (
    BallboundError,
    BracketError,
    ConfigError,
    ConvergenceError,
    DomainError,
    EvaluationError,
    ExpressionSyntaxError,
    InvalidAreaError,
    InvalidMetricError,
    InvalidModelError,
    PrecisionError,
)
from .exprparse import evaluate, format_expression, free_variables, parse
from .geometry import (
    AreaFunction,
    PolarMetric2D,
    RadialGrid,
    RiemannianModel,
    area_from_polar_metric,
    area_from_warping,
    bumped_disc_metric,
    euclidean_model,
    mean_curvature_field,
    polar_metric_from_warping,
    radiality_deviation,
    space_form_model,
    space_form_warping,
    unit_sphere_volume,
    warping_from_area,
)
from .moments import (
    EstimateSeries,
    compute_moments,
    estimator_center_ratio,
    estimator_mass_ratio,
    estimator_norm_ratio,
    run_until_converged,
)
from .oracle import (
    EigenResult,
    Mesh2D,
    build_discrete_laplacian,
    eigen_2d_polar,
    eigen_2d_refined,
    shoot_radial_lambda1,
)

__version__ = "0.1.0"

__all__ = [
    "AreaFunction",
    "BallboundError",
    "BOUND_BELOW_REFERENCE",
    "BOUND_HOLDS",
    "BracketError",
    "ComparisonReport",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "EigenResult",
    "EQUALITY_CANDIDATE",
    "EstimateSeries",
    "EvaluationError",
    "ExpressionSyntaxError",
    "HYPOTHESIS_FAILS",
    "InvalidAreaError",
    "InvalidMetricError",
    "InvalidModelError",
    "Mesh2D",
    "PolarMetric2D",
    "PrecisionError",
    "RadialGrid",
    "RiemannianModel",
    "area_from_polar_metric",
    "area_from_warping",
    "build_discrete_laplacian",
    "bumped_disc_metric",
    "cheng_report",
    "compute_moments",
    "eigen_2d_polar",
    "eigen_2d_refined",
    "equality_criterion",
    "estimator_center_ratio",
    "estimator_mass_ratio",
    "estimator_norm_ratio",
    "euclidean_model",
    "evaluate",
    "format_expression",
    "free_variables",
    "mean_curvature_field",
    "monotonicity_check",
    "parse",
    "polar_metric_from_warping",
    "radiality_deviation",
    "run_until_converged",
    "shoot_radial_lambda1",
    "space_form_model",
    "space_form_warping",
    "unit_sphere_volume",
    "warping_from_area",
]
