"""Numerical laboratory for a locally constrained curvature flow on S^{n+1}.

Convex axisymmetric hypersurfaces evolve under the normal speed
c * phi'(rho) - u * sigma_{k+1}/sigma_k, which conserves one
quermassintegral and monotonically orders the rest.  The package bundles the
symmetric-function algebra, radial-graph geometry, quermassintegral audits,
the graph and support-function solvers, and a batch CLI.
"""

from .exceptions import ConeViolation, ConvexityLoss, MonotonicityError, StepRejected
from .symfunc import identity_quotient, quotient, quotient_trace_gaps
from .hypersurface import (
    GeometryState,
    RadialProfile,
    SphereGrid2D,
    geometry,
    geometry_full_s2,
    hessian_contraction_residuals,
    integrate,
    load_checkpoint,
    minkowski_residual,
    save_checkpoint,
    volume,
)
from .quermass import (
    AuditReport,
    QuermassVector,
    audit_inequalities,
    quermass_vector,
    sphere_comparison,
    sphere_quermass,
)
from .flow import (
    FlowConfig,
    FlowResult,
    FlowTrace,
    ShapeSpec,
    evolution_residuals,
    functional_derivative_residuals,
    run,
    speed,
    step,
)
from .dualflow import (
    DualResult,
    DualState,
    decomposition_residual,
    dual_from_profile,
    dual_run,
    gamma_transform,
    profile_from_dual,
    support_closure,
)
from .identities import SuiteReport, run_identity_suite

__version__ = "0.1.0"

__all__ = [
    "ConeViolation", "ConvexityLoss", "MonotonicityError", "StepRejected",
    "identity_quotient", "quotient", "quotient_trace_gaps",
    "GeometryState", "RadialProfile", "SphereGrid2D", "geometry",
    "geometry_full_s2", "hessian_contraction_residuals", "integrate",
    "load_checkpoint", "minkowski_residual", "save_checkpoint", "volume",
    "AuditReport", "QuermassVector", "audit_inequalities", "quermass_vector",
    "sphere_comparison", "sphere_quermass",
    "FlowConfig", "FlowResult", "FlowTrace", "ShapeSpec",
    "evolution_residuals", "functional_derivative_residuals",
    "run", "speed", "step",
    "DualResult", "DualState", "decomposition_residual",
    "dual_from_profile", "dual_run", "gamma_transform",
    "profile_from_dual", "support_closure",
    "SuiteReport", "run_identity_suite",
]
