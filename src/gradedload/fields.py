"""Boundary functionals, load constants, and the asymptotic field expansions.

From a solved collocation system this module recovers the boundary values
``Phi_{j +}^{(m)}(nu - 1)`` of the solved "+" variant, derives those of the
"-" variant as ``Phi_- = J Phi_+ J`` with ``J = diag(1, -1)``, and takes
the determinant ``Delta`` that both share, the load constants ``C_{j +-}``
and finally the expansion coefficients that give the displacements, their
tangential derivatives, and the stresses near the surface (small
eta = y/|xi - xi0|) or at depth (large eta).  The coefficients of both
sides of the load are built in one call per case, each with the plan of its
side: every factor of the expansions that is fixed for the case and side,
formed once.  The fields at a point come from one function,
:func:`evaluate_fields`, which only reads that plan, on Python floats and
complex numbers only; the public entry point
:func:`gradedload.driver.evaluate_point` calls it.  Each point's fields come
back as a :class:`FieldResult`, an immutable named tuple built
positionally: a field map builds one per point, and a tuple is the
cheapest record to build.

Physical outputs are real; the computed complex values carry a small
imaginary residue from the discretization, which is recorded and projected
out.  A residue above the sanity bound aborts with ``RealnessError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDeterminantError,
    RealnessError,
    SingularPointError,
)
from .kernels import coeff_b
from .params import DerivedParams, MaterialConfig
from .system import SIESolution

__all__ = [
    "BoundaryConstants",
    "FieldCoefficients",
    "FieldResult",
    "boundary_phi",
    "constants_c",
    "field_coeffs",
    "locate",
    "NEAR_ETA_MAX",
    "DEEP_ETA_MIN",
]

# |Delta| below this is too degenerate to divide by
_DELTA_FLOOR = 1e-8
# hard sanity bound on any imaginary residue of a projected field value
_RESIDUE_SANITY = 1e-2
# eta = y/|xi - xi0| ranges of the near-surface and the deep expansion
NEAR_ETA_MAX = 1.0
DEEP_ETA_MIN = 2.0
# entries that J Phi J negates, J = diag(1, -1)
_OFF_DIAGONAL = ~np.eye(2, dtype=bool)


def boundary_phi(sol: SIESolution) -> np.ndarray:
    """Boundary values ``Phi_j^{(m)}`` of the "+" variant at nu - 1.

    Quadrature of the solved densities against the load kernel; the
    component-j functional integrates the opposite-component densities,
    ``sol.f2`` for j = 1 and ``sol.f1`` for j = 2.  Both stacks carry the
    exponents ``[delta1^+; delta1^-]``, so their halves take the weights
    ``[w_plus; w_minus]``; only the denominators swap between the two
    components.  With an all-zero solution only the forcing term
    ``-delta_jm / cos(pi nu / 2)`` survives, which pins the normalization.
    The "-" variant's values are ``J Phi J`` (see :func:`constants_c`).

    Returns
    -------
    ndarray of complex, shape (2, 2)
        Indexed by (j - 1, m - 1).
    """
    p = sol.params
    d = sol.disc
    n = d.n
    nu = p.nu
    xn = d.colloc
    phase = np.exp(-1j * np.pi * (p.sigma - nu) / 2.0)
    den_plus = xn * phase + 1.0 / phase
    den_minus = xn / phase + phase
    # (densities, denominator of their first half, of their second) per component
    phi = np.array([
        [0.5j / np.pi * np.sum(f[n:, k] * d.w_minus / den_b + f[:n, k] * d.w_plus / den_a)
         for k in (0, 1)]
        for f, den_a, den_b in ((sol.f2, den_minus, den_plus), (sol.f1, den_plus, den_minus))
    ])
    return phi - np.eye(2) / math.cos(np.pi * nu / 2.0)


@dataclass(frozen=True)
class BoundaryConstants:
    """Boundary functionals of both sign variants with their load constants.

    ``phi`` is the solved "+" matrix ``Phi_+``, indexed by (j - 1, m - 1);
    the "-" matrix ``Phi_- = J Phi_+ J`` is not stored.  Their determinants
    are equal, ``delta_minus == delta_plus``.
    ``c_plus``/``c_minus`` hold (C_1, C_2) for the two variants; each pair
    solves the 2x2 system  Phi_j^(1) C_1 + Phi_j^(2) C_2 = gamma_j H_j.
    """

    phi: np.ndarray
    delta_plus: complex
    delta_minus: complex
    c_plus: np.ndarray
    c_minus: np.ndarray


def constants_c(
    phi: np.ndarray, config: MaterialConfig, p: DerivedParams
) -> BoundaryConstants:
    """Solve for the load constants ``C_{j +-}`` by Cramer's rule.

    ``phi`` is the "+" matrix from :func:`boundary_phi`.  The "-" matrix
    ``J phi J`` negates its off-diagonal entries, which is exact, and has
    the same determinant ``Delta = Phi_1^(1) Phi_2^(2) - Phi_1^(2) Phi_2^(1)``:
    the two negated factors of the second product cancel exactly.

    Raises
    ------
    DegenerateDeterminantError
        If the determinant has modulus below 1e-8.
    """
    delta = complex(phi[0, 0] * phi[1, 1] - phi[0, 1] * phi[1, 0])
    if abs(delta) < _DELTA_FLOOR:
        raise DegenerateDeterminantError(
            f"|Delta_+| = {abs(delta):.3e} below floor {_DELTA_FLOOR}"
        )
    g1h1 = p.gamma1 * config.h1
    g2h2 = p.gamma2 * config.h2

    def cramer(f: np.ndarray) -> np.ndarray:
        return np.array([
            (g1h1 * f[1, 1] - g2h2 * f[0, 1]) / delta,
            (g2h2 * f[0, 0] - g1h1 * f[1, 0]) / delta,
        ])

    return BoundaryConstants(
        phi=phi,
        delta_plus=delta,
        delta_minus=delta,
        c_plus=cramer(phi),
        c_minus=cramer(np.where(_OFF_DIAGONAL, -phi, phi)),
    )


@dataclass(frozen=True)
class FieldCoefficients:
    """Expansion coefficients for one side of the load.

    ``kappa = sgn(xi0 - xi)`` names the side and labels it in the text
    report.  ``d0`` and ``d2`` drive the near-surface displacement expansion
    ``d0 + d2 eta^2``, ``e1`` the deep expansion of the tangential
    derivative, each a pair of Python ``complex`` indexed by component
    (j - 1).  The odd coefficient ``d1`` and the deep constant ``e0`` are
    multiples of ``Phi_+ C_+ - Phi_- C_-``, zero because both constant
    pairs solve ``Phi C = gamma H``, and the eta^3 coefficient vanishes by
    periodicity; none of the three is stored.

    ``plan`` holds every constant of the side's expansions, built once per
    case with the coefficients, in the order :func:`evaluate_fields`
    unpacks it.  It is derived from the coefficients, so it takes no part
    in ``repr`` or ``==``.
    """

    kappa: float
    d0: tuple[complex, complex]
    d2: tuple[complex, complex]
    e1: tuple[complex, complex]
    plan: tuple = field(repr=False, compare=False)


def field_coeffs(
    bc: BoundaryConstants, p: DerivedParams
) -> tuple[FieldCoefficients, FieldCoefficients]:
    """Expansion coefficients of both sides of the load, ``(plus, minus)``.

    ``plus`` belongs to the side xi < xi0, ``kappa = sgn(xi0 - xi) = +1``,
    and ``minus`` to the side xi > xi0, kappa = -1.
    """
    nu = p.nu
    lam0 = p.cd2_cs2 - 2.0  # lam0/mu0 from (lam0 + 2 mu0)/mu0
    lead = math.gamma(nu / 2.0) * 2.0 ** (nu - 1.0) / (
        np.pi ** 1.5 * math.cos(np.pi * nu / 2.0)
    )

    def side(kappa: float) -> FieldCoefficients:
        turn = np.exp(1j * np.pi * kappa * nu / 2.0)
        # per component, the two sign variants' constants turned by +-pi nu/2
        mix = [turn * bc.c_plus[k] + bc.c_minus[k] / turn for k in (0, 1)]
        d0, d2, e1 = [], [], []
        for j, beta_j in ((1, p.beta1), (2, p.beta2)):
            d0_j = lead * mix[j - 1]
            d0.append(complex(d0_j))
            d2.append(complex(-nu * d0_j / (2.0 * beta_j)))
            e1.append(complex(
                -2.0 * kappa / np.pi * coeff_b(j, 1.0, p) * math.sqrt(beta_j)
                * math.gamma(nu) * math.gamma((1.0 - nu) / 2.0) * mix[2 - j]
            ))
        sgn = -kappa  # sgn(xi - xi0) on this side
        # every constant prefix of evaluate_fields' written expansion, each
        # formed in the left-to-right order Python evaluates that expansion
        # in, so the fields keep every bit of the written form
        plan = (
            nu, sgn, -nu, -nu - 1.0, nu - 1.0, *d0, *d2,
            -nu * d0[0], -nu * d0[1], (nu + 2.0) * d2[0], (nu + 2.0) * d2[1],
            -nu * sgn * d0[1], 2.0 * d2[0], (nu + 2.0) * sgn * d2[1],
            -lam0 * nu * sgn * d0[0], p.cd2_cs2 * 2.0 * d2[1], lam0 * (nu + 2.0) * sgn * d2[0],
            *e1,
        )
        return FieldCoefficients(kappa=kappa, d0=tuple(d0), d2=tuple(d2), e1=tuple(e1), plan=plan)

    return side(1.0), side(-1.0)


class FieldResult(NamedTuple):
    """Evaluated fields at one query point, an immutable named tuple.

    ``expansion`` is "near" (eta <= NEAR_ETA_MAX: displacements,
    derivatives and stresses available), "deep" (eta >= DEEP_ETA_MIN:
    derivatives only) or "out-of-range" (eta between the two expansions:
    nothing available).
    Unavailable entries are None, the default of the six field entries.
    ``imag_residue`` is the largest relative imaginary residue projected
    out of the reported values, 0.0 when nothing is reported.
    """

    xi: float
    y: float
    eta: float
    expansion: str
    u1: float | None = None
    u2: float | None = None
    du1_dxi: float | None = None
    du2_dxi: float | None = None
    s12: float | None = None
    s22: float | None = None
    imag_residue: float = 0.0


# _tuple_new(FieldResult, entries) builds a record from all eleven entries
# in order, without the keyword parsing of FieldResult(...)
_tuple_new = tuple.__new__


def _project(a: complex, b: complex) -> tuple[float, float, float]:
    """Real parts of a field pair and its relative imaginary residue.

    The scale is ``max(abs(a), abs(b))`` and the residue
    ``max(abs(a.imag), abs(b.imag)) / scale``, written as comparisons that
    keep ``max``'s choice on ties and NaN: the second value wins only if
    it compares greater.
    """
    scale = abs(a)
    other = abs(b)
    if other > scale:
        scale = other
    if not math.isfinite(scale):
        raise OverflowError("field value is not finite")
    if scale == 0.0:
        return 0.0, 0.0, 0.0
    top = abs(a.imag)
    other = abs(b.imag)
    if other > top:
        top = other
    residue = top / scale
    if residue > _RESIDUE_SANITY:
        raise RealnessError(
            f"imaginary residue {residue:.3e} exceeds sanity bound {_RESIDUE_SANITY}"
        )
    return a.real, b.real, residue


def locate(xi: float, y: float, xi0: float) -> tuple[float, str]:
    """The one point rule: ``eta = y/|xi - xi0|`` and the expansion there.

    xi and y must be finite, y >= 0, xi != xi0 and eta finite.  The
    expansion is "near" for eta <= NEAR_ETA_MAX, "deep" for
    eta >= DEEP_ETA_MIN and "out-of-range" in between.
    :class:`gradedload.driver.RunConfig` locates every point before any
    solve, and :func:`evaluate_fields` the point it evaluates.

    Raises
    ------
    ConfigError
        If xi or y is not finite, or y < 0.
    SingularPointError
        At the load point xi = xi0, where the expansions diverge, or so
        near it that eta leaves the floating-point range.
    """
    if not (math.isfinite(xi) and math.isfinite(y)):
        name, value = ("y", y) if math.isfinite(xi) else ("xi", xi)
        raise ConfigError(f"query coordinate {name} must be finite, got {value}")
    if y < 0.0:
        raise ConfigError(f"depth coordinate y must be >= 0, got {y}")
    if xi == xi0:
        raise SingularPointError("field expansions diverge at the load point xi = xi0")
    dist = abs(xi - xi0)
    eta = y / dist
    if eta <= NEAR_ETA_MAX:
        return eta, "near"
    if eta < DEEP_ETA_MIN:
        return eta, "out-of-range"
    if math.isinf(eta):
        raise SingularPointError(
            f"eta at |xi - xi0| = {dist:.3e}, y = {y:.3e} leaves the floating-point range"
        )
    return eta, "deep"


def evaluate_fields(
    coeffs: FieldCoefficients, xi: float, xi0: float, y: float
) -> FieldResult:
    """Fields at (xi, y) from the expansion that :func:`locate` picks there.

    ``coeffs`` are those of the side ``kappa = sgn(xi0 - xi)``, and the
    fields come from their ``plan`` alone.  The near-surface expansion
    (eta <= NEAR_ETA_MAX) gives displacements, tangential derivatives and
    stresses; at y = 0 the stresses take their exact limit 0 (traction-free
    surface away from the load point).  The deep expansion
    (eta >= DEEP_ETA_MIN) gives the derivatives only.  A point between the
    two ranges comes back as an "out-of-range" record with no fields.

    Written out, with ``sgn = sgn(xi - xi0)``, ``dist = |xi - xi0|``,
    ``lam0 = cd2_cs2 - 2`` and component j in {0, 1}:

    - ``u_j = dist**(-nu) * (d0[j] + d2[j] * eta**2)``;
    - ``du_j/dxi = sgn * dist**(-nu - 1) * (-nu * d0[j] - (nu + 2) * d2[j] * eta**2)``;
    - ``s12 = eta**nu / dist * (-nu * sgn * d0[1] + 2 * d2[0] * eta
      - (nu + 2) * sgn * d2[1] * eta**2)``;
    - ``s22 = eta**nu / dist * (-lam0 * nu * sgn * d0[0] + cd2_cs2 * 2 * d2[1] * eta
      - lam0 * (nu + 2) * sgn * d2[0] * eta**2)``;
    - deep: ``du_j/dxi = e1[j] * eta**(nu - 1) / (pi * (xi - xi0) * y**nu)``.

    The stresses pair indices as the printed expansion does: the shear
    stress mixes the normal zeroth-order with the tangential second-order
    coefficient, the normal stress the other way around.  The d/dxi terms
    carry sgn, the d/dy terms (odd in eta) do not.

    Raises
    ------
    ConfigError
        If the point breaks the rule of :func:`locate`.
    SingularPointError
        At the load point xi = xi0, or so near it that eta or a field
        leaves the floating-point range.
    RealnessError
        If a projected pair keeps an imaginary residue above 1e-2.
    """
    eta, expansion = locate(xi, y, xi0)
    if expansion == "out-of-range":
        return _tuple_new(
            FieldResult, (xi, y, eta, expansion, None, None, None, None, None, None, 0.0)
        )
    (nu, sgn, pow_u, pow_du, pow_deep, u0_a, u0_b, u2_a, u2_b, du0_a, du0_b, du2_a, du2_b,
     s12_0, s12_1, s12_2, s22_0, s22_1, s22_2, e1_a, e1_b) = coeffs.plan
    dist = abs(xi - xi0)
    try:
        # leaving the float range ends in the typed error below, never in inf
        if expansion == "near":
            eta2 = eta**2
            amp = dist**pow_u
            u1, u2, r_u = _project(amp * (u0_a + u2_a * eta2), amp * (u0_b + u2_b * eta2))
            amp = sgn * dist**pow_du
            du1, du2, r_du = _project(
                amp * (du0_a - du2_a * eta2), amp * (du0_b - du2_b * eta2)
            )
            if y == 0.0:
                s12, s22, r_s = 0.0, 0.0, 0.0
            else:
                front = eta**nu / dist
                s12, s22, r_s = _project(
                    front * (s12_0 + s12_1 * eta - s12_2 * eta2),
                    front * (s22_0 + s22_1 * eta - s22_2 * eta2),
                )
            return _tuple_new(
                FieldResult, (xi, y, eta, "near", u1, u2, du1, du2, s12, s22, max(r_u, r_du, r_s))
            )
        tail = eta**pow_deep
        scale = math.pi * (xi - xi0) * y**nu
        du1, du2, r_du = _project(e1_a * tail / scale, e1_b * tail / scale)
        return _tuple_new(
            FieldResult, (xi, y, eta, "deep", None, None, du1, du2, None, None, r_du)
        )
    except (OverflowError, ZeroDivisionError):
        raise SingularPointError(
            f"fields at |xi - xi0| = {dist:.3e}, y = {y:.3e} leave the floating-point range"
        ) from None
