"""Bihamiltonian separation of variables for the symmetric so(4) Euler top.

Numerical verification at machine precision of the pencil of Poisson
structures, the anchored Lenard chain, the deformed second structure and its
Nijenhuis recursion operator, the Darboux coordinates on symplectic leaves,
and the Jacobi separation relations; plus a rigid body integrator with
invariant monitoring.
"""

from .dynamics import Trajectory, integrate
from .fields import (
    CHART_M,
    CHART_SPLIT,
    CHART_UV,
    DegeneracyError,
    PhasePoint,
    Residual,
)
from .leaf import (
    DNChart,
    LeafChart,
    closed_forms,
    dn_bracket_residuals,
    dn_chart,
    embed,
    nijenhuis,
    phi1_residual,
    phi2_residual,
    project,
    restricted_tensors,
    xi2_closed_form,
)
from .so4 import ModelParams, chart_map, lax, observables_m, p1_m, p2_m, rigid_rhs
from .verify import (
    VerificationReport,
    run_suite,
    sample_points,
    validate_report,
)
from .xxz import p1_uv, p2_uv, q_uv, uv_observables

__version__ = "0.1.0"

__all__ = [
    "CHART_M",
    "CHART_SPLIT",
    "CHART_UV",
    "DegeneracyError",
    "DNChart",
    "LeafChart",
    "ModelParams",
    "PhasePoint",
    "Residual",
    "Trajectory",
    "VerificationReport",
    "chart_map",
    "closed_forms",
    "dn_bracket_residuals",
    "dn_chart",
    "embed",
    "integrate",
    "lax",
    "nijenhuis",
    "observables_m",
    "p1_m",
    "p1_uv",
    "p2_m",
    "p2_uv",
    "phi1_residual",
    "phi2_residual",
    "project",
    "q_uv",
    "restricted_tensors",
    "rigid_rhs",
    "run_suite",
    "sample_points",
    "uv_observables",
    "validate_report",
    "xi2_closed_form",
]
