"""Boundary functionals, load constants, expansion coefficients, and fields."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cached_case, half_offset_case, minus_variant_phi, solver_order
from gradedload import (
    ConfigError,
    DegenerateDeterminantError,
    GradedLoadError,
    MaterialConfig,
    RealnessError,
    SingularPointError,
    evaluate_point,
)
from gradedload.fields import FieldResult, _project, boundary_phi, constants_c
from gradedload.system import SIESolution

# regression values from this implementation (cross-checked against the
# published reference digits in test_acceptance.py)
DELTA_N50 = 0.982070 - 2.012867e-4j
DELTA_N100 = 1.000743 - 1.440138e-4j


def zeroed_solution(sol: SIESolution) -> SIESolution:
    shape = (2 * sol.disc.n, 2)
    assert sol.f1.shape == sol.f2.shape == shape
    zero = np.zeros(shape, dtype=complex)
    return SIESolution(
        params=sol.params, disc=sol.disc, f1=zero, f2=zero, residuals=sol.residuals
    )


# ---------------------------------------------------------------- phi


def test_zero_solution_forcing_only(case25):
    # with the quadrature contribution switched off only the forcing
    # term survives
    phi = boundary_phi(zeroed_solution(case25.solution))
    nu = case25.params.nu
    forcing = -1.0 / math.cos(math.pi * nu / 2.0)
    for j in (0, 1):
        for m in (0, 1):
            expected = forcing if j == m else 0.0
            assert phi[j, m] == expected


def test_phi_from_family_exponents(case25, case50, case100):
    # Phi_j^(m) written entry by entry from the documented quadrature:
    # component j integrates the densities of component 3 - j, and each
    # family takes the cell weights of its own exponent.  F1^- and F1^+
    # carry delta1^- and delta1^+; F2^- and F2^+ carry delta2^- = delta1^+
    # and delta2^+ = delta1^-.
    for case in (case25, case50, case100):
        sol = case.solution
        d, p, n = sol.disc, sol.params, sol.disc.n
        weights = {"delta1^-": d.w[n:], "delta1^+": d.w[:n]}
        # the stacks in the paper's order [F1^-; F1^+; F2^-; F2^+]
        stacks = np.concatenate([sol.f1, sol.f2])[solver_order(n)]
        # component j -> (density stack, exponent of its "+" rows, of its "-" rows)
        opposite = {
            1: (stacks[2 * n:], "delta1^-", "delta1^+"),
            2: (stacks[:2 * n], "delta1^+", "delta1^-"),
        }
        phase = np.exp(-1j * np.pi * (p.sigma - p.nu) / 2.0)
        x = d.colloc
        den_plus = x * phase + 1.0 / phase
        den_minus = x / phase + phase
        phi = boundary_phi(sol)
        for j in (1, 2):
            f, exp_plus, exp_minus = opposite[j]
            for m in (1, 2):
                f_plus, f_minus = f[n:, m - 1], f[:n, m - 1]
                expected = 0.5j / np.pi * np.sum(
                    f_plus * weights[exp_plus] / den_plus
                    + f_minus * weights[exp_minus] / den_minus
                )
                if j == m:
                    expected -= 1.0 / math.cos(math.pi * p.nu / 2.0)
                assert phi[j - 1, m - 1] == expected


def test_phi_shape(case50):
    phi = boundary_phi(case50.solution)
    assert phi.shape == (2, 2)
    assert phi.dtype == complex
    # C_- solves the "-" system, whose matrix is J phi J, J = diag(1, -1)
    p, bc = case50.params, case50.constants
    j = np.array([1.0, -1.0])
    loads = np.array([p.gamma1 * case50.config.h1, p.gamma2 * case50.config.h2])
    minus = j[:, None] * phi * j[None, :]
    assert np.allclose(minus @ bc.c_minus, loads, rtol=1e-13, atol=0.0)


def test_determinant_regression(case50, case100):
    for case, ref in ((case50, DELTA_N50), (case100, DELTA_N100)):
        dp = case.constants.delta_plus
        assert dp == pytest.approx(ref, abs=5e-6)


def test_determinant_variants_agree(case25, case50, case100):
    # constants_c reuses Delta_+ for the "-" variant; the determinant of
    # J Phi J, J = diag(1, -1), matches it exactly, the two sign flips
    # cancelling
    j = np.array([1.0, -1.0])
    for case in (case25, case50, case100):
        bc = case.constants
        pm = j[:, None] * boundary_phi(case.solution) * j[None, :]
        assert complex(pm[0, 0] * pm[1, 1] - pm[0, 1] * pm[1, 0]) == bc.delta_minus
        assert bc.delta_minus == bc.delta_plus


def test_degenerate_determinant_guard(params_default):
    # Delta = 1e-5 * 1e-5 = 1e-10, below the 1e-8 floor
    phi = np.diag([1e-5, 1e-5]).astype(complex)
    with pytest.raises(DegenerateDeterminantError, match=r"\|Delta_\+\| = 1\.000e-10"):
        constants_c(phi, MaterialConfig(), params_default)


# ---------------------------------------------------------------- constants


def test_overflowing_constants_refused_by_load(params_default):
    # a load constant that leaves the float range is refused by the loads
    # that caused it, and numpy warns nothing (the suite makes that an error)
    phi = np.diag([1e-3, 1e-3]).astype(complex)
    with pytest.raises(ConfigError, match=(
        r"^loads h1 = 1e\+308, h2 = -1\.0 are too large: the load constants C\+- are not finite$"
    )):
        constants_c(phi, MaterialConfig(h1=1e308), params_default)


def test_constants_scale_with_load(case50):
    phi = boundary_phi(case50.solution)
    p = case50.params
    base = constants_c(phi, MaterialConfig(), p)
    scaled = constants_c(phi, MaterialConfig(h1=-3.0, h2=-3.0), p)
    assert np.allclose(scaled.c_plus, 3.0 * base.c_plus, rtol=1e-12)
    assert np.allclose(scaled.c_minus, 3.0 * base.c_minus, rtol=1e-12)


def test_constants_superpose(case50):
    phi = boundary_phi(case50.solution)
    p = case50.params
    both = constants_c(phi, MaterialConfig(h1=-1.0, h2=-1.0), p)
    only1 = constants_c(phi, MaterialConfig(h1=-1.0, h2=0.0), p)
    only2 = constants_c(phi, MaterialConfig(h1=0.0, h2=-1.0), p)
    assert np.allclose(only1.c_plus + only2.c_plus, both.c_plus, rtol=1e-12)
    assert np.allclose(only1.c_minus + only2.c_minus, both.c_minus, rtol=1e-12)


def test_constants_tangential_only_proportional(case50):
    phi = boundary_phi(case50.solution)
    p = case50.params
    one = constants_c(phi, MaterialConfig(h1=-1.0, h2=0.0), p)
    two = constants_c(phi, MaterialConfig(h1=-2.0, h2=0.0), p)
    assert np.allclose(two.c_plus, 2.0 * one.c_plus, rtol=1e-12)


def test_constants_conjugate_within_discretization_error(case100):
    # within one solve the +- constants are conjugate only when the
    # oscillation root l that both exponent families share is 0; at the
    # physical l > 0 they differ by about 2e-4 here (A3b checks the exact
    # form: conjugation maps the solve at l onto the solve at -l)
    bc = case100.constants
    for j in (0, 1):
        defect = abs(bc.c_plus[j] - np.conj(bc.c_minus[j])) / abs(bc.c_plus[j])
        assert defect <= 5e-3


# ---------------------------------------------------------------- coefficients


def test_coefficient_relations(case100):
    p = case100.params
    for co in (case100.coeffs_plus, case100.coeffs_minus):
        betas = (p.beta1, p.beta2)
        for j in (0, 1):
            ratio = co.d2[j] / co.d0[j]
            assert ratio == pytest.approx(-p.nu / (2.0 * betas[j]), rel=1e-12)
    # d1 and e0 are multiples of (Phi_+ C_+ - Phi_- C_-)_j and are not
    # stored; each component of that bracket vanishes with Phi_- taken from
    # a dense solve of A_- rather than from the Cramer solve's J Phi_+ J
    bc = case100.constants
    plus = boundary_phi(case100.solution) @ bc.c_plus
    minus = minus_variant_phi(case100) @ bc.c_minus
    for j in (0, 1):
        assert abs(plus[j] - minus[j]) <= 1e-3 * abs(plus[j])


def test_contour_shift_invariance(case100):
    # moving the inversion contour must not move the physics
    other = half_offset_case(n=100)
    a, b = case100.constants, other.constants
    assert abs(a.delta_plus - b.delta_plus) <= 6e-3 * abs(a.delta_plus)
    for j in (0, 1):
        assert abs(a.c_plus[j] - b.c_plus[j]) <= 6e-3 * abs(a.c_plus[j])
        assert abs(a.c_minus[j] - b.c_minus[j]) <= 6e-3 * abs(a.c_minus[j])
    coa = case100.coeffs_plus
    cob = other.coeffs_plus
    for j in (0, 1):
        assert abs(coa.d0[j] - cob.d0[j]) <= 6e-3 * abs(coa.d0[j])


# ---------------------------------------------------------------- fields


def test_displacement_power_law(case100):
    p = case100.params
    a = evaluate_point(case100, -1.0, 0.0)
    b = evaluate_point(case100, -2.0, 0.0)
    assert b.u1 / a.u1 == pytest.approx(2.0 ** (-p.nu), rel=1e-12)
    assert b.u2 / a.u2 == pytest.approx(2.0 ** (-p.nu), rel=1e-12)


def test_displacement_simplified_form(case100):
    # u_j = d_j0 |xi - xi0|^{-nu} (1 - nu eta^2 / (2 beta_j))
    p = case100.params
    co = case100.coeffs_plus
    betas = (p.beta1, p.beta2)
    for y in (0.0, 0.3, 0.8):
        eta = y / 1.0
        res = evaluate_point(case100, -1.0, y)
        u = (res.u1, res.u2)
        for j in (0, 1):
            ref = co.d0[j].real * (1.0 - p.nu * eta**2 / (2.0 * betas[j]))
            assert u[j] == pytest.approx(ref, rel=1e-10)


def test_derivative_matches_displacement_at_surface(case100):
    p = case100.params
    res = evaluate_point(case100, -1.0, 0.0)
    # at unit distance, y = 0: du/dxi = sgn(xi - xi0) * (-nu) * u = +nu u
    assert res.du1_dxi == pytest.approx(p.nu * res.u1, rel=1e-12)
    assert res.du2_dxi == pytest.approx(p.nu * res.u2, rel=1e-12)


def test_stress_surface_zero(case100):
    res = evaluate_point(case100, -1.0, 0.0)
    assert (res.s12, res.s22) == (0.0, 0.0)


def test_stress_vanishes_like_eta_power(case100):
    # leading term -nu d0 sgn(xi - xi0) eta^nu; at xi = -1 the sign is -1
    p = case100.params
    co = case100.coeffs_plus
    lam0 = p.cd2_cs2 - 2.0
    for y in (1e-6, 1e-4):
        eta = y / 1.0
        res = evaluate_point(case100, -1.0, y)
        assert res.s12 == pytest.approx(eta**p.nu * p.nu * co.d0[1].real, rel=1e-3)
        assert res.s22 == pytest.approx(
            eta**p.nu * lam0 * p.nu * co.d0[0].real, rel=1e-3
        )


def test_stresses_obey_hookes_law():
    # plane-strain Hooke's law with mu = y^nu and lam = lam0 y^nu (mu0 = 1)
    # applied to the reported displacements:
    #   s12 = y^nu (du1/dy + du2/dxi),
    #   s22 = y^nu ((lam0 + 2) du2/dy + lam0 du1/dxi),
    # lam0 = 2 nu_p / (1 - 2 nu_p).  Both derivatives are central
    # differences of evaluate_point's u with step h, so they err by
    # O(h^2) from truncation and O(eps/h) from rounding, relative to the
    # size y^nu |u| / |xi - xi0| of the terms.  Near points with y > 0 on
    # both sides of the load at xi0 = 0
    h = 1e-5
    tol = 1e3 * (h**2 + np.finfo(float).eps / h)
    for material in ({}, dict(nu=0.3), dict(nu=0.6, nu_p=0.2, speed_ratio=0.5)):
        case = cached_case(n=50, **material)
        nu, nu_p = case.config.nu, case.config.nu_p
        lam0 = 2.0 * nu_p / (1.0 - 2.0 * nu_p)

        def u(xi, y):
            res = evaluate_point(case, xi, y)
            return np.array([res.u1, res.u2])

        for xi in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
            for y in (0.1 * abs(xi), 0.6 * abs(xi)):
                du_dy = (u(xi, y + h) - u(xi, y - h)) / (2.0 * h)
                du_dxi = (u(xi + h, y) - u(xi - h, y)) / (2.0 * h)
                s12 = y**nu * (du_dy[0] + du_dxi[1])
                s22 = y**nu * ((lam0 + 2.0) * du_dy[1] + lam0 * du_dxi[0])
                scale = y**nu * np.abs(u(xi, y)).max() / abs(xi)
                res = evaluate_point(case, xi, y)
                assert abs(res.s12 - s12) <= tol * scale, (material, xi, y)
                assert abs(res.s22 - s22) <= tol * scale, (material, xi, y)


def test_deep_derivative_formula(case100):
    p = case100.params
    co = case100.coeffs_plus
    xi, y = -1.0, 3.0
    eta = y / abs(xi)
    res = evaluate_point(case100, xi, y)
    du = (res.du1_dxi, res.du2_dxi)
    for j in (0, 1):
        ref = co.e1[j] * eta ** (p.nu - 1.0) / (math.pi * (xi - 0.0) * y**p.nu)
        assert du[j] == pytest.approx(ref.real, rel=1e-12)
    # the eta^{nu-1} contribution decays as the line goes deeper
    term_3 = abs(co.e1[0]) * (3.0) ** (p.nu - 1.0)
    term_9 = abs(co.e1[0]) * (9.0) ** (p.nu - 1.0)
    assert term_9 < term_3


def _written_point(case, xi, y):
    """evaluate_point's record written out from d0, d2 and e1 alone.

    Each pair is projected by the max()-based definition of _project;
    imag_residue is the largest residue over the reported pairs, 0.0 for
    the surface stresses.
    """
    p, xi0 = case.params, case.config.xi0
    nu, lam0 = p.nu, p.cd2_cs2 - 2.0
    co = case.coeffs_plus if xi < xi0 else case.coeffs_minus
    d0, d2, e1 = co.d0, co.d2, co.e1
    dist = abs(xi - xi0)
    eta = y / dist
    sgn = math.copysign(1.0, xi - xi0)
    if eta <= 1.0:
        u = _project_by_max(*[dist ** (-nu) * (d0[j] + d2[j] * eta**2) for j in (0, 1)])
        du = _project_by_max(*[
            sgn * dist ** (-nu - 1.0) * (-nu * d0[j] - (nu + 2.0) * d2[j] * eta**2)
            for j in (0, 1)
        ])
        s = (0.0, 0.0, 0.0)
        if y != 0.0:
            front = eta**nu / dist
            s = _project_by_max(
                front * (
                    -nu * sgn * d0[1]
                    + 2.0 * d2[0] * eta
                    - (nu + 2.0) * sgn * d2[1] * eta**2
                ),
                front * (
                    -lam0 * nu * sgn * d0[0]
                    + p.cd2_cs2 * 2.0 * d2[1] * eta
                    - lam0 * (nu + 2.0) * sgn * d2[0] * eta**2
                ),
            )
        return FieldResult(
            xi=xi, y=y, eta=eta, expansion="near", u1=u[0], u2=u[1],
            du1_dxi=du[0], du2_dxi=du[1], s12=s[0], s22=s[1],
            imag_residue=max(u[2], du[2], s[2]),
        )
    if eta < 2.0:
        return FieldResult(xi=xi, y=y, eta=eta, expansion="out-of-range")
    du = _project_by_max(*[
        e1[j] * eta ** (nu - 1.0) / (math.pi * (xi - xi0) * y**nu) for j in (0, 1)
    ])
    return FieldResult(
        xi=xi, y=y, eta=eta, expansion="deep", du1_dxi=du[0], du2_dxi=du[1],
        imag_residue=du[2],
    )


def _outcome(evaluate, case, xi, y):
    try:
        return repr(evaluate(case, xi, y))
    except GradedLoadError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_evaluate_point_is_the_written_expansion(case100):
    # a surface, a near, a gap and a deep point on each side of the load
    for xi in (-1.3, 0.7):
        for eta, expansion in ((0.0, "near"), (0.4, "near"), (1.5, "out-of-range"), (3.0, "deep")):
            y = eta * abs(xi)
            res = evaluate_point(case100, xi, y)
            assert res.expansion == expansion
            assert repr(res) == repr(_written_point(case100, xi, y))


# eta of each kind of point: its lower end, its width
_ETA_SPANS = {"surface": (0.0, 0.0), "near": (0.0, 1.0), "gap": (1.0, 1.0), "deep": (2.0, 48.0)}


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    material=st.fixed_dictionaries({
        "nu": st.floats(0.05, 0.95),
        "nu_p": st.floats(0.0, 0.45),
        "speed_ratio": st.floats(0.05, 0.95),
        "h1": st.floats(-2.0, 2.0),
        "h2": st.floats(-2.0, 2.0),
        "xi0": st.floats(-1.0, 1.0),
    }),
    points=st.lists(
        st.tuples(
            st.sampled_from((-1.0, 1.0)),
            st.floats(1e-3, 10.0),
            st.sampled_from(sorted(_ETA_SPANS)),
            st.floats(0.0, 1.0),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_evaluate_point_is_the_written_expansion_everywhere(material, points):
    # over random materials and surface, near, gap and deep points on both
    # sides of xi0, evaluate_point's record (or typed error) is the written
    # expansion's, by repr, so every bit of every field agrees
    case = cached_case(n=25, **material)
    for side, dist, kind, t in points:
        low, width = _ETA_SPANS[kind]
        xi = case.config.xi0 + side * dist
        y = (low + width * t) * dist
        assert _outcome(evaluate_point, case, xi, y) == _outcome(_written_point, case, xi, y)


def test_side_plan_outside_repr_and_equality(case100):
    # the plan is derived from the coefficients, so the report, the output
    # comparison and equality see only kappa, d0, d2 and e1
    co = case100.coeffs_plus
    assert repr(co) == (
        f"FieldCoefficients(kappa={co.kappa!r}, d0={co.d0!r}, d2={co.d2!r}, e1={co.e1!r})"
    )
    swapped = dataclasses.replace(co, plan=case100.coeffs_minus.plan)
    assert swapped == co and hash(swapped) == hash(co)


def _project_by_max(a, b):
    # the definition of fields._project, written with max(): a NaN or an
    # infinite magnitude in either slot is refused
    if not (math.isfinite(abs(a)) and math.isfinite(abs(b))):
        raise OverflowError("field value is not finite")
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0, 0.0, 0.0
    residue = max(abs(a.imag), abs(b.imag)) / scale
    if residue > 1e-2:
        raise RealnessError(f"imaginary residue {residue:.3e} exceeds sanity bound 0.01")
    return a.real, b.real, residue


def test_project_is_the_max_definition():
    # same values, or the same error class and message, as the max()-based
    # definition, including max()'s choice on ties; a NaN in the second slot,
    # which max() would pass over, is refused like one in the first
    nan, inf = math.nan, math.inf

    def outcome(project, a, b):
        try:
            return repr(project(a, b))
        except (OverflowError, RealnessError) as exc:
            return f"{type(exc).__name__}: {exc}"

    pairs = [
        (1.0 + 1e-3j, 1.0 - 1e-3j),  # equal magnitudes, equal imaginary parts
        (1e-3 + 1.0j, 1.0 + 1e-3j),  # equal magnitudes, all of the first imaginary
        (0j, 0j), (-0j, complex(0.0, -0.0)),  # all-zero pairs
        (0j, 2.0 - 1e-5j), (3.0 + 2e-4j, 0j),
        (complex(nan, 0.0), 1.0 + 1e-5j), (1.0 + 1e-5j, complex(nan, 0.0)),
        (complex(1.0, nan), 1.0), (1.0 + 1e-5j, complex(0.5, nan)),
        (complex(inf, 0.0), 1.0), (1.0, complex(0.0, -inf)), (complex(inf, nan), 1.0),
        (complex(1.0, 0.0101), 0.5),  # residue 1.010e-02, just above the bound
        (complex(1.0, 0.0099), 0.5),  # just below it
    ]
    for a, b in pairs:
        assert outcome(_project, a, b) == outcome(_project_by_max, a, b), (a, b)
    # the pairs reach every outcome
    assert outcome(_project, 0j, 0j) == "(0.0, 0.0, 0.0)"
    for a, b in ((complex(nan, 0.0), 1.0), (1.0 + 1e-5j, complex(nan, 0.0))):
        assert outcome(_project, a, b) == "OverflowError: field value is not finite"
    assert outcome(_project, 1.0, complex(0.0, inf)) == "OverflowError: field value is not finite"
    assert outcome(_project, complex(1.0, 0.0101), 0.5) == (
        "RealnessError: imaginary residue 1.010e-02 exceeds sanity bound 0.01"
    )


def test_field_result_record():
    # an immutable named tuple in the order and repr of the earlier dataclass;
    # the six fields default to None and the residue to 0.0
    assert FieldResult._fields == (
        "xi", "y", "eta", "expansion", "u1", "u2", "du1_dxi", "du2_dxi",
        "s12", "s22", "imag_residue",
    )
    res = FieldResult(xi=-1.0, y=1.5, eta=1.5, expansion="out-of-range")
    assert res == (-1.0, 1.5, 1.5, "out-of-range", None, None, None, None, None, None, 0.0)
    assert repr(res) == (
        "FieldResult(xi=-1.0, y=1.5, eta=1.5, expansion='out-of-range', u1=None, "
        "u2=None, du1_dxi=None, du2_dxi=None, s12=None, s22=None, imag_residue=0.0)"
    )
    with pytest.raises(AttributeError):
        res.u1 = 0.0
    with pytest.raises(AttributeError):
        res.extra = 0.0


def test_deep_derivative_realness(case100):
    # imag_residue of a deep point is max |Im du_j/dxi| / max |du_j/dxi|
    res = evaluate_point(case100, -1.0, 3.0)
    assert res.expansion == "deep"
    assert res.imag_residue <= 1e-4


def test_expansion_range_gates(case50):
    # both range ends belong to their expansion; the gap between them has none
    assert evaluate_point(case50, -1.0, 1.0).expansion == "near"
    assert evaluate_point(case50, -1.0, 2.0).expansion == "deep"
    for y in (math.nextafter(1.0, 2.0), 1.5, math.nextafter(2.0, 1.0)):
        assert evaluate_point(case50, -1.0, y) == FieldResult(
            xi=-1.0, y=y, eta=y, expansion="out-of-range"
        )
    with pytest.raises(SingularPointError):
        evaluate_point(case50, 0.0, 0.0)
    with pytest.raises(ConfigError):
        evaluate_point(case50, -1.0, -0.1)


def test_non_finite_query_point_refused(case50):
    # refused by name before any expansion is tried, on either coordinate
    for xi, y, name in (
        (math.nan, 0.0, "xi"), (math.inf, 0.0, "xi"), (-math.inf, 0.3, "xi"),
        (-1.0, math.nan, "y"), (-1.0, math.inf, "y"),
    ):
        with pytest.raises(ConfigError, match=f"{name} must be finite, got -?(nan|inf)"):
            evaluate_point(case50, xi, y)


def test_query_point_number_rule(case50):
    # evaluate_point takes its coordinates by the number rule of every
    # config (params.real_float): a non-real or unconvertible value is a
    # ConfigError naming the coordinate, and a numpy or int coordinate
    # gives the record of the float call, with Python floats throughout
    for xi, y, name in (
        ("a", 0.0, "xi"), (1 + 0j, 0.0, "xi"), (None, 0.0, "xi"), (-1.0, [0.3], "y"),
    ):
        with pytest.raises(ConfigError, match=f"^query coordinate {name} must be a real number"):
            evaluate_point(case50, xi, y)
    with pytest.raises(ConfigError, match=(
        "^query coordinate xi must be finite, got an integer beyond the float range$"
    )):
        evaluate_point(case50, 10**400, 0.0)
    for xi, y in ((-1.0, 0.3), (0.5, 2.0), (-1.0, 1.5)):
        expected = repr(evaluate_point(case50, xi, y))
        assert repr(evaluate_point(case50, np.float64(xi), np.float64(y))) == expected
        assert repr(evaluate_point(case50, xi, np.float64(y))) == expected
    expected = repr(evaluate_point(case50, -1.0, 0.0))
    for xi, y in ((-1, 0), (np.int64(-1), 0.0), (-1.0, np.float64(0.0))):
        assert repr(evaluate_point(case50, xi, y)) == expected


def test_unrepresentable_fields_refused():
    # finite points so near the load that eta or a field leaves the float
    # range end in the typed error that names |xi - xi0|, never in a
    # Python OverflowError, ZeroDivisionError or an inf field
    for material, xi, y in (
        ({"nu": 0.9}, -1e-300, 0.0),  # |xi - xi0|**(-nu - 1) overflows
        ({}, -1e-300, 1e-299),  # the deep scale pi |xi - xi0| y**nu underflows to 0
        ({"nu": 0.9, "h1": -1000.0, "h2": -1000.0}, -1e-162, 0.0),  # du_dxi = inf
        ({}, -1e-300, 1e300),  # eta = y/|xi - xi0| = inf
    ):
        case = cached_case(n=100, **material)
        with pytest.raises(SingularPointError, match=rf"\|xi - xi0\| = {abs(xi):.3e}"):
            evaluate_point(case, xi, y)
    # nearer than any test above, but representable
    res = evaluate_point(cached_case(n=100), -1e-100, 0.0)
    assert all(math.isfinite(v) for v in (res.u1, res.u2, res.du1_dxi, res.du2_dxi))


def test_fore_aft_asymmetry(case100):
    # a moving load sees different material response ahead of and behind
    # the contact point; the two kappa branches must therefore differ
    behind = evaluate_point(case100, -1.0, 0.0)
    ahead = evaluate_point(case100, 1.0, 0.0)
    u_behind = (behind.u1, behind.u2)
    u_ahead = (ahead.u1, ahead.u2)
    for j in (0, 1):
        assert math.isfinite(u_behind[j]) and u_behind[j] > 0.0
        assert math.isfinite(u_ahead[j]) and u_ahead[j] > 0.0
    assert abs(u_ahead[1] - u_behind[1]) > 1e-3 * abs(u_behind[1])
