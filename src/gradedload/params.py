"""Material and load configuration, and the parameters derived from it.

The half-plane has Lame coefficients and density growing with depth like
``depth**nu`` (0 < nu < 1), and a point load moves along the boundary at a
constant subsonic speed ``V < c_s``.  Shear modulus at unit depth is the
stress unit, ``mu0 = 1``, so it appears in no formula.  Everything
downstream (kernels, collocation system, field expansions) is parameterised
by the quantities computed here: scaled slownesses, the speed factors
``beta1, beta2``, and the oscillation exponents ``delta_j^+-`` that absorb
the ``x**(+-i*eps)`` behaviour of the kernel near the fixed singularity.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

from .errors import ConfigError, SubsonicViolation

__all__ = [
    "SIGMA_FRACTION", "MaterialConfig", "DerivedParams", "derive_params", "real_float",
    "require_material", "shown",
]

# the Mellin inversion strip Re s = sigma sits at this fraction of nu; the
# problem does not depend on where in (0, nu) it sits, and A2 checks the
# discrete determinant at nu/4 against nu/2
SIGMA_FRACTION = 0.25


def shown(value) -> str:
    """``repr(value)`` for an error message about a malformed input.

    An int of more than ``sys.get_int_max_str_digits()`` digits, or a
    container that holds one, has no ``repr`` (``ValueError``); it is shown
    by its type instead, so the message never raises.
    """
    try:
        return repr(value)
    except ValueError:
        return f"an unprintable {type(value).__name__}"


def real_float(value, name: str) -> float:
    """``value`` as a Python float: the one number rule of every config.

    Callers range-check and format only the float, and no numpy scalar
    reaches a later stage.  A non-real value or an int beyond the float
    range is a ``ConfigError`` naming ``name``.
    """
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(
            f"{name} must be finite, got an integer beyond the float range"
        ) from None


@dataclass(frozen=True)
class MaterialConfig:
    """Physical input set.

    Parameters
    ----------
    nu : float
        Grading exponent of the power-law depth profile, 0 < nu < 1.
    nu_p : float
        Poisson ratio, 0 <= nu_p < 0.5.
    speed_ratio : float
        Load speed over shear wave speed, 0 < V/c_s < 1 (subsonic).
    h1, h2 : float
        Tangential and normal point-load amplitudes divided by mu0.
    xi0 : float
        Load position in the moving frame.

    Each field is stored as a Python ``float`` (:func:`real_float`), and the
    ranges are checked on the stored floats.
    """

    nu: float = 0.1
    nu_p: float = 0.3
    speed_ratio: float = 0.2
    h1: float = -1.0
    h2: float = -1.0
    xi0: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, real_float(getattr(self, f.name), f.name))
        if not (0.0 < self.nu < 1.0):
            raise ConfigError(f"grading exponent nu must lie in (0, 1), got {self.nu}")
        if not (0.0 <= self.nu_p < 0.5):
            raise ConfigError(f"Poisson ratio nu_p must lie in [0, 0.5), got {self.nu_p}")
        if not (0.0 < self.speed_ratio):
            raise ConfigError(f"speed_ratio must be positive, got {self.speed_ratio}")
        if self.speed_ratio >= 1.0:
            raise SubsonicViolation(
                f"speed_ratio = {self.speed_ratio} is not subsonic (need V/c_s < 1)"
            )
        for name in ("h1", "h2", "xi0"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")


def require_material(value) -> None:
    """Refuse a ``value`` that is not a :class:`MaterialConfig` (``ConfigError``)."""
    if not isinstance(value, MaterialConfig):
        raise ConfigError(f"material must be a MaterialConfig, got {shown(value)}")


@dataclass(frozen=True)
class DerivedParams:
    """Parameters derived from a :class:`MaterialConfig`.

    ``a_s = c_s/V`` and ``a_d = c_d/V`` are the inverse Mach numbers of the
    shear and pressure waves; ``beta1, beta2`` the positive-definite speed
    factors of the two wave operators, whose ratio sets the kernel
    oscillation rate ``eps``.  The shift ``l`` solves the exponent
    matching conditions; ``delta1_minus``, ``delta1_plus`` are the
    oscillation exponents of both solution families, which the second
    family takes crosswise (see :mod:`gradedload.system`).  ``gamma1,
    gamma2`` scale the load amplitudes in the boundary conditions, and
    ``cd2_cs2 = (c_d/c_s)**2`` doubles as ``(lam0 + 2 mu0)/mu0``.
    """

    nu: float
    sigma: float
    a_s: float
    a_d: float
    beta1: float
    beta2: float
    eps: float
    l_param: float
    delta1_minus: float
    delta1_plus: float
    gamma1: float
    gamma2: float
    cd2_cs2: float


def _oscillation_shift(beta: float, lam1: float, lam2: float) -> float:
    """The shift l >= 0 of the exponent matching conditions, ``cosh(2 pi l) = r``.

    cosh(pi*eps) is evaluated as (sqrt(beta) + 1/sqrt(beta))/2 to avoid an
    exp/log round trip, and l through log1p to keep accuracy when r is
    close to 1.  With ``v = (V/c_s)**2`` and ``k = (c_d/c_s)**2``,

        r - 1 = (k - 1)**2 v**2 / (2 q (2k - (k + 1) v + 2q)),
        q = sqrt(k (k - v) (1 - v)),

    which is positive for every subsonic load.  The difference
    ``cosh(pi*eps) - lam1*lam2/2`` cancels, though, and at slow loads
    (V/c_s below about 1e-3) it can round to just below 1; ``r - 1`` is
    then taken as 0, which gives l = 0.
    """
    sqrt_beta = math.sqrt(beta)
    cosh_pi_eps = (sqrt_beta + 1.0 / sqrt_beta) / 2.0
    r = cosh_pi_eps - lam1 * lam2 / 2.0
    rm1 = max(r - 1.0, 0.0)
    return math.log1p(rm1 + math.sqrt(rm1 * (r + 1.0))) / (2.0 * math.pi)


def _too_slow(config: MaterialConfig, what: str) -> ConfigError:
    return ConfigError(
        f"speed_ratio = {config.speed_ratio} is too slow at nu_p = {config.nu_p}: {what}"
    )


def derive_params(config: MaterialConfig) -> DerivedParams:
    """Compute all derived parameters for a configuration.

    The inversion strip is fixed at ``sigma = SIGMA_FRACTION * nu``; the
    rest of the pipeline reads it only as ``DerivedParams.sigma``.

    Parameters
    ----------
    config : MaterialConfig

    Returns
    -------
    DerivedParams

    Raises
    ------
    ConfigError
        If ``config`` is not a :class:`MaterialConfig`, or if the load is
        so slow (V/c_s below about 1e-151) that ``(c_d/V)**2`` or the
        denominator of ``lam1`` leaves the float range.
    """
    require_material(config)
    nu = config.nu
    cd2_cs2 = 2.0 * (1.0 - config.nu_p) / (1.0 - 2.0 * config.nu_p)
    a_s = 1.0 / config.speed_ratio
    a_d = a_s * math.sqrt(cd2_cs2)
    a_s2 = a_s * a_s
    a_d2 = a_d * a_d
    # subsonic gate guarantees a_s > 1; c_d > c_s guarantees a_d > a_s, so
    # a finite a_d2 leaves a_s2 finite too
    if not math.isfinite(a_d2):
        raise _too_slow(config, f"(c_d/V)**2 = {a_d2} leaves the float range")
    beta1 = a_s2 / (a_d2 - 1.0)
    beta2 = a_d2 / (a_s2 - 1.0)
    beta = beta2 / beta1
    eps = math.log(beta) / (2.0 * math.pi)
    lam1 = (a_d2 - a_s2) / ((a_d2 - 1.0) * math.sqrt(beta2))
    lam2 = (a_d2 - a_s2) / ((a_s2 - 1.0) * math.sqrt(beta1))
    if not lam1 > 0.0:
        raise _too_slow(config, f"the kernel amplitude lam1 = {lam1} is not positive")
    l = _oscillation_shift(beta, lam1, lam2)
    delta1_minus = eps / 2.0 + l
    delta1_plus = -eps / 2.0 + l
    sigma = SIGMA_FRACTION * nu
    gam = math.gamma((1.0 - nu) / 2.0)
    gamma1 = gam / (2.0 ** (nu + 1.0) * beta1 ** ((nu - 1.0) / 2.0))
    gamma2 = gam / (cd2_cs2 * 2.0 ** (nu + 1.0) * beta2 ** ((nu - 1.0) / 2.0))
    return DerivedParams(
        nu=nu,
        sigma=sigma,
        a_s=a_s,
        a_d=a_d,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        l_param=l,
        delta1_minus=delta1_minus,
        delta1_plus=delta1_plus,
        gamma1=gamma1,
        gamma2=gamma2,
        cd2_cs2=cd2_cs2,
    )
