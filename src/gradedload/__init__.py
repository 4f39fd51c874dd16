"""Moving-load response of a power-law graded elastic half-plane.

The package solves the boundary integral system for a point load moving
subsonically along the surface of a half-plane whose shear modulus grows
as a power of depth, then evaluates asymptotic expansions for surface and
subsurface displacements, displacement derivatives and stresses.

Typical use::

    from gradedload import MaterialConfig, solve_case, evaluate_point

    case = solve_case(MaterialConfig(nu=0.3), n=100)
    result = evaluate_point(case, xi=-1.0, y=0.0)
    print(result.u1, result.u2)
"""

from .driver import (
    CaseReport,
    CaseSolution,
    RunConfig,
    csv_text,
    evaluate_point,
    format_report,
    run_case,
    run_sweep,
    solve_case,
    write_csv,
)
from .errors import (
    ConfigError,
    DegenerateDeterminantError,
    ExpansionRangeError,
    GradedLoadError,
    OscillationRegimeError,
    PoleError,
    RealnessError,
    SingularMatrixError,
    SingularPointError,
    SubsonicViolation,
)
from .fields import (
    BoundaryConstants,
    FieldCoefficients,
    FieldResult,
    boundary_phi,
    constants_c,
    determinant_delta,
    displacement_derivative,
    displacement_field,
    derivative_large_eta,
    field_coeffs,
    stress_field,
)
from .kernels import coeff_b, complex_gamma, kernel_g, mellin_m, rhs_f
from .params import MU0, DerivedParams, MaterialConfig, derive_params
from .system import (
    Discretization,
    SIESolution,
    SolutionBlock,
    assemble_rhs,
    build_grid,
    solve_system,
    step_weights,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MU0",
    "MaterialConfig",
    "DerivedParams",
    "derive_params",
    "coeff_b",
    "kernel_g",
    "rhs_f",
    "mellin_m",
    "complex_gamma",
    "Discretization",
    "SolutionBlock",
    "SIESolution",
    "build_grid",
    "step_weights",
    "assemble_rhs",
    "solve_system",
    "BoundaryConstants",
    "FieldCoefficients",
    "FieldResult",
    "boundary_phi",
    "determinant_delta",
    "constants_c",
    "field_coeffs",
    "displacement_field",
    "displacement_derivative",
    "derivative_large_eta",
    "stress_field",
    "RunConfig",
    "CaseSolution",
    "CaseReport",
    "solve_case",
    "evaluate_point",
    "run_case",
    "run_sweep",
    "format_report",
    "csv_text",
    "write_csv",
    "GradedLoadError",
    "ConfigError",
    "SubsonicViolation",
    "SingularPointError",
    "ExpansionRangeError",
    "OscillationRegimeError",
    "PoleError",
    "SingularMatrixError",
    "DegenerateDeterminantError",
    "RealnessError",
]
