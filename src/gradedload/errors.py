"""Exception hierarchy for the graded half-plane solver.

Configuration problems (bad parameter ranges, malformed queries) derive from
``ConfigError``; failures of numerical validity gates derive directly from
``GradedLoadError``.  The CLI maps the former to exit code 2 and the latter
to exit code 3.
"""

__all__ = [
    "GradedLoadError",
    "ConfigError",
    "SubsonicViolation",
    "SingularPointError",
    "ExpansionRangeError",
    "SingularMatrixError",
    "DegenerateDeterminantError",
    "RealnessError",
]


class GradedLoadError(Exception):
    """Base class for all solver errors."""


class ConfigError(GradedLoadError):
    """Invalid configuration value or query."""


class SubsonicViolation(ConfigError):
    """Load speed at or above the shear wave speed."""


class SingularPointError(ConfigError):
    """Field evaluation requested at the moving load point itself, or so
    near it that the fields leave the floating-point range."""


class ExpansionRangeError(ConfigError):
    """A sweep's first query point lies between the two expansion ranges."""


class SingularMatrixError(GradedLoadError):
    """Collocation matrix is numerically singular."""


class DegenerateDeterminantError(GradedLoadError):
    """Boundary-value determinant too close to zero to fix the load constants."""


class RealnessError(GradedLoadError):
    """Imaginary residue of a physical field exceeds the sanity bound."""
