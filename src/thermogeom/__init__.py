"""Numerical toolkit for the geometry of Gibbs-state manifolds.

Builds Gibbs families from observable sets and exposes the
Bures-Wasserstein metric, thermodynamic lengths and geodesics, entropy
production, contact-form and Legendrian diagnostics, fiber-bundle state
functions, and connection curvature/holonomy, all scriptable through the
`thermogeom` CLI.
"""

from .errors import (
    DegenerateMetricError,
    ExprArityError,
    ExprDomainError,
    ExprNameError,
    ExprSyntaxError,
    NearSingularError,
    NumericalConsistencyError,
    NumericalDomainError,
    ParameterRangeError,
    SignatureError,
    ThermoGeomError,
    ValidationError,
)
from .linalg import DensityOperator, HermitianOperator
from .gibbs import (
    GibbsPoint,
    ObservableSet,
    expectation_consistency,
    gibbs_point,
    injectivity_diagnostic,
)
from .geometry import (
    MetricTensor,
    bw_distance,
    fidelity,
    metric_grid,
    metric_tensor,
    state_derivatives,
)
from .processes import (
    BoundaryEntropyScan,
    ConvergenceRecord,
    GeodesicProblem,
    LengthReport,
    ParamPath,
    ThirdLawScan,
    boundary_entropy_limit,
    discrete_path_energy,
    entropy_production,
    geodesic_between,
    segment_speed_profile,
    straight_path,
    thermo_length,
    third_law_scan,
)
from .contact import (
    MMetricSpec,
    MuExtension,
    TangentVector,
    ThermoPoint,
    contact_volume_coefficient,
    equilibrium_point,
    eta_eval,
    fiber_membership,
    fiber_path_length,
    gM_quadratic,
    gauge_translate,
    legendrian_residual,
    state_function,
)
from .connection import (
    ConnectionSpec,
    FlatnessReport,
    HolonomyResult,
    Loop,
    curvature,
    flatness_check,
    holonomy_via_curvature,
    holonomy_via_lift,
    horizontal_lift,
    rectangle_loop,
)

__version__ = "0.1.0"
