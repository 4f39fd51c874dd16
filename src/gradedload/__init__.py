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
    CaseSolution,
    RunConfig,
    evaluate_point,
    run_case,
    run_sweep,
    solve_case,
)
from .errors import (
    ConfigError,
    DegenerateDeterminantError,
    ExpansionRangeError,
    GradedLoadError,
    RealnessError,
    SingularMatrixError,
    SingularPointError,
    SubsonicViolation,
)
from .params import MaterialConfig

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MaterialConfig",
    "RunConfig",
    "CaseSolution",
    "solve_case",
    "evaluate_point",
    "run_case",
    "run_sweep",
    "GradedLoadError",
    "ConfigError",
    "SubsonicViolation",
    "SingularPointError",
    "ExpansionRangeError",
    "SingularMatrixError",
    "DegenerateDeterminantError",
    "RealnessError",
]
