"""Numerical toolkit for the geometry of Gibbs-state manifolds.

Builds Gibbs families from observable sets and exposes the
Bures-Wasserstein metric, thermodynamic lengths and geodesics, entropy
production, contact-form and Legendrian diagnostics, fiber-bundle state
functions, and connection curvature/holonomy, all scriptable through the
`thermogeom` CLI.

`import thermogeom` loads none of the submodules.  Each public name, and
each submodule (`thermogeom.geometry`, `thermogeom.exprlang`, ...),
resolves on first use (PEP 562): the first `thermogeom.metric_grid`
imports `geometry` and what it imports, and later uses read the cached
binding.  The equilibrium geometry (`linalg`, `gibbs`, `geometry`,
`processes`) does not import the expression and bundle stack (`exprlang`,
`contact`, `connection`), and neither does the CLI until a subcommand
needs it: `length` and `entropy-production` load `exprlang` when a path
is given by `lambda_exprs`, `contact-check` loads `contact`, and a
config's `connection` entry (holonomy, curvature-map, flatness) loads
`connection` and with it the other two.
"""

import importlib

__version__ = "0.1.0"

# the home submodule of each public name
_EXPORTS = {
    "errors": (
        "DegenerateMetricError",
        "ExprArityError",
        "ExprDomainError",
        "ExprNameError",
        "ExprSyntaxError",
        "NearSingularError",
        "NumericalConsistencyError",
        "NumericalDomainError",
        "ParameterRangeError",
        "SignatureError",
        "ThermoGeomError",
        "ValidationError",
    ),
    "linalg": ("DensityOperator", "HermitianOperator"),
    "gibbs": ("GibbsPoint", "ObservableSet", "expectation_consistency", "gibbs_point"),
    "geometry": (
        "MetricTensor",
        "bw_distance",
        "fidelity",
        "injectivity_diagnostic",
        "metric_grid",
        "metric_tensor",
        "state_derivatives",
    ),
    "processes": (
        "BoundaryEntropyScan",
        "ConvergenceRecord",
        "GeodesicProblem",
        "LengthReport",
        "ParamPath",
        "ThirdLawScan",
        "boundary_entropy_limit",
        "discrete_path_energy",
        "entropy_production",
        "geodesic_between",
        "segment_speed_profile",
        "straight_path",
        "thermo_length",
        "third_law_scan",
    ),
    "contact": (
        "MMetricSpec",
        "MuExtension",
        "TangentVector",
        "ThermoPoint",
        "contact_volume_coefficient",
        "equilibrium_point",
        "eta_eval",
        "fiber_membership",
        "fiber_path_length",
        "gM_quadratic",
        "gauge_translate",
        "legendrian_residual",
        "state_function",
    ),
    "connection": (
        "ConnectionSpec",
        "FlatnessReport",
        "HolonomyResult",
        "Loop",
        "curvature",
        "flatness_check",
        "holonomy_via_curvature",
        "holonomy_via_lift",
        "horizontal_lift",
        "rectangle_loop",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules that resolve as attributes before anything imports them
_SUBMODULES = (*_EXPORTS, "exprlang", "inputs")

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
