"""Acceptance gate: one test per contract criterion, one PASS/FAIL line each.

The printed lines are echoed in the terminal summary (see conftest).  The
strict imaginary-residue bound on evaluated fields (A5) fails and names
its cause in the failure text.  Both exponent families of a sign system
carry the oscillation root ``l`` of ``cosh(2 pi l) = r``:
``delta1^- = eps/2 + l`` and ``delta1^+ = -eps/2 + l``, and every subsonic
configuration has ``r > 1``, hence ``l > 0``.  Conjugation turns each
``delta`` into ``-delta`` and so maps the solve at ``l`` onto the solve at
the other root ``-l``, which meets every matching condition as well; the
conjugate-variant identities (A3b) check that map exactly.  Within one
solve the symmetry does not hold exactly at ``l > 0``: the determinant
keeps an imaginary part and the fields the imaginary residue that A5
gates.  Both shrink as the grid is refined; whether they vanish in the
limit is open (README, "Known numerical limits").
"""

import dataclasses
import math
import time

import mpmath as mp
import numpy as np
import pytest

import gradedload.system
from conftest import ACCEPTANCE_LINES, cached_case, minus_variant_phi, half_offset_case
from gradedload import (
    MaterialConfig,
    RunConfig,
    evaluate_point,
    run_sweep,
    solve_case,
)
from gradedload.kernels import kernel_g, mellin_m
from gradedload.params import derive_params

DELTA_REFS = {
    50: 0.9821 - 2.013e-4j,
    75: 0.9944 - 1.6671e-4j,
    100: 1.0007 - 1.4402e-4j,
}
DELTA_HALF_SHIFT = 0.9953 - 1.5088e-4j

RE_TOL = 2e-3
IM_TOL = 5e-5


def _criterion(label: str, passed: bool, detail: str) -> None:
    line = f"{'PASS' if passed else 'FAIL'}: {label} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    if not passed:
        pytest.fail(line, pytrace=False)


def test_a1_determinant_reference_values():
    worst_re = worst_im = slowest = 0.0
    for n, ref in sorted(DELTA_REFS.items()):
        start = time.perf_counter()
        case = solve_case(MaterialConfig(), n=n)
        elapsed = time.perf_counter() - start
        delta = case.constants.delta_plus
        worst_re = max(worst_re, abs(delta.real - ref.real))
        worst_im = max(worst_im, abs(delta.imag - ref.imag))
        slowest = max(slowest, elapsed)
    ok = worst_re <= RE_TOL and worst_im <= IM_TOL and slowest < 5.0
    _criterion(
        "A1 determinant regression at n=50/75/100",
        ok,
        f"max |dRe|={worst_re:.1e} (gate {RE_TOL:.0e}), "
        f"max |dIm|={worst_im:.1e} (gate {IM_TOL:.0e}), "
        f"slowest solve {slowest:.2f}s (gate 5s)",
    )


def test_a2_contour_shift_invariance():
    case = half_offset_case(n=100)
    delta = case.constants.delta_plus
    d_re = abs(delta.real - DELTA_HALF_SHIFT.real)
    d_im = abs(delta.imag - DELTA_HALF_SHIFT.imag)
    ok = d_re <= RE_TOL and d_im <= IM_TOL
    _criterion(
        "A2 inversion-contour shift invariance",
        ok,
        f"|dRe|={d_re:.1e}, |dIm|={d_im:.1e} at doubled contour offset",
    )


def test_a3a_exact_symmetry_relations():
    p = cached_case(n=50).params
    rng = np.random.default_rng(20260825)
    worst_schwarz = 0.0
    for j in (1, 2):
        for tau in rng.uniform(-30.0, 30.0, size=40):
            s = p.sigma + 1j * tau
            val = kernel_g(j, s, p)
            mirror = kernel_g(j, np.conj(s), p)
            worst_schwarz = max(worst_schwarz, abs(mirror - np.conj(val)) / abs(val))

    # the derived "-" variant against the one solved on its own: the dense
    # A_- with the negated forcing, then its boundary functionals and
    # constants.  The code keeps only Delta_- and C_-; Phi_- = J Phi_+ J,
    # J = diag(1, -1), is the relation they are derived from
    j = np.array([1.0, -1.0])
    worst_phi = worst_det = worst_c = 0.0
    for n in (25, 50, 100):
        case = cached_case(n=n)
        p, bc = case.params, case.constants
        phi_m = minus_variant_phi(case)
        delta_m = np.linalg.det(phi_m)
        loads = np.array([p.gamma1 * case.config.h1, p.gamma2 * case.config.h2])
        c_minus = np.linalg.solve(phi_m, loads)
        derived = j[:, None] * bc.phi * j[None, :]
        worst_phi = max(worst_phi, np.abs(derived - phi_m).max() / np.abs(phi_m).max())
        worst_det = max(worst_det, abs(bc.delta_minus - delta_m) / abs(delta_m))
        worst_c = max(
            worst_c, np.abs(bc.c_minus - c_minus).max() / np.abs(c_minus).max()
        )
    ok = (
        worst_schwarz <= 1e-12
        and worst_phi <= 1e-8
        and worst_det <= 1e-8
        and worst_c <= 1e-8
    )
    _criterion(
        "A3a exact symmetries: kernel reflection, derived \"-\" variant against "
        "a dense solve of A_-",
        ok,
        f"kernel reflection {worst_schwarz:.1e} (gate 1e-12), "
        f"Phi_- {worst_phi:.1e}, Delta_- {worst_det:.1e}, C_- {worst_c:.1e} "
        "at n=25/50/100 (gate 1e-8)",
    )


def _other_root(config: MaterialConfig):
    """Derived parameters of ``config`` at the root ``-l`` of ``cosh(2 pi l) = r``.

    Every matching condition is even in ``l``: ``cosh(2 pi l) = r``, the
    sinh product ``sinh(pi (l + eps/2)) sinh(pi (l - eps/2)) = -lam1 lam2/4``
    and ``delta1^- - delta1^+ = eps`` all hold with
    ``delta1^-+ = +-eps/2 - l``; the second family takes the same two
    exponents crosswise through the block layout.
    """
    p = derive_params(config)
    return dataclasses.replace(
        p,
        l_param=-p.l_param,
        delta1_minus=p.eps / 2.0 - p.l_param,
        delta1_plus=-p.eps / 2.0 - p.l_param,
    )


def _family_defect(case, mirror, twist=1.0) -> float:
    """Worst relative defect of ``F+ = +-conj(F-) twist`` over both families.

    ``F+`` (the last N rows of a stack) comes from ``case`` and ``F-`` (the
    first N rows) from ``mirror``, one load component m at a time; the sign
    is (+, -) for the families (1, 2) at m = 1 and (-, +) at m = 2.
    """
    a, b = case.solution, mirror.solution
    n = a.disc.n
    worst = 0.0
    for k, (s1, s2) in enumerate(((1.0, -1.0), (-1.0, 1.0))):
        scale = max(float(np.abs(f[:, k]).max()) for f in (a.f1, a.f2))
        defect = max(
            float(np.abs(a.f1[n:, k] - s1 * np.conj(b.f1[:n, k]) * twist).max()),
            float(np.abs(a.f2[n:, k] - s2 * np.conj(b.f2[:n, k]) * twist).max()),
        )
        worst = max(worst, defect / scale)
    return worst


def test_a3b_conjugate_variant_identities(monkeypatch):
    # Conjugation turns every exponent delta into -delta, so it takes the
    # solve at the root l onto the solve at the root -l, the "-" family of
    # one onto the "+" family of the other:
    #   F1+(l) = +-conj(F1-(-l)),  F2+(l) = -+conj(F2-(-l)),
    #   C+(l) = conj(C-(-l)),      Delta(l) = conj(Delta(-l)).
    # At l = 0 the two solves coincide and these are identities within one
    # solve.  At l > 0 the identity within one solve is the one for the
    # densities F x^(i delta), F1+ = +-conj(F1-) x^(-2il); the discrete
    # solution misses it, and A5 gates the effect on the fields.
    physical = {n: cached_case(n=n) for n in (25, 50, 100)}
    monkeypatch.setattr(gradedload.system, "derive_params", _other_root)
    per_n = {}
    worst_c = worst_det = 0.0
    for n, case in physical.items():
        mirror = solve_case(MaterialConfig(), n=n)
        per_n[n] = max(_family_defect(case, mirror), _family_defect(mirror, case))
        bc, bm = case.constants, mirror.constants
        for j in (0, 1):
            worst_c = max(
                worst_c,
                abs(bc.c_plus[j] - np.conj(bm.c_minus[j])) / abs(bc.c_plus[j]),
                abs(bm.c_plus[j] - np.conj(bc.c_minus[j])) / abs(bm.c_plus[j]),
            )
        worst_det = max(
            worst_det,
            abs(bc.delta_plus - np.conj(bm.delta_plus)) / abs(bc.delta_plus),
        )
    case = physical[100]
    twist = case.solution.disc.colloc ** (-2j * case.params.l_param)
    density = _family_defect(case, case, twist)
    delta = case.constants.delta_plus
    worst_f = max(per_n.values())
    ok = worst_f <= 1e-8 and worst_c <= 1e-8 and worst_det <= 1e-8
    _criterion(
        "A3b conjugate-variant identities: conjugation maps the solve at "
        "the root l onto the solve at -l",
        ok,
        f"solution-family defect {per_n[25]:.1e}/{per_n[50]:.1e}/"
        f"{per_n[100]:.1e} at n=25/50/100, load-constant defect "
        f"{worst_c:.1e}, determinant defect {worst_det:.1e}, gate 1e-8; "
        f"within one solve at l = {case.params.l_param:.1e}, n=100 the "
        f"density identity misses by {density:.1e} and Im/Re Delta = "
        f"{delta.imag / delta.real:.1e} (ungated here, see A5 and README "
        "'Known numerical limits')",
    )


def test_a4_odd_coefficient_suppression():
    # the odd coefficient d1 and the deep constant e0 are multiples of
    # Phi_+ C_+ - Phi_- C_-: they vanish when both sign variants meet the
    # same boundary conditions.  The code's C+- come from one Cramer solve
    # that makes this exact with the derived Phi_-; here Phi_- comes from
    # the dense solve of A_- instead (the A3a oracle)
    case = cached_case(n=100)
    bc = case.constants
    plus = bc.phi @ bc.c_plus
    minus = minus_variant_phi(case) @ bc.c_minus
    worst = np.linalg.norm(plus - minus) / np.linalg.norm(plus)
    _criterion(
        "A4 odd-order expansion coefficients vanish: both sign variants meet "
        "the boundary conditions Phi_+ C_+ = Phi_- C_-",
        worst <= 1e-3,
        f"|Phi_+ C_+ - Phi_- C_-| / |Phi_+ C_+| = {worst:.1e} with Phi_- from "
        "a dense solve of A_-, gate 1e-3",
    )


def test_a5_field_imaginary_residues():
    details = []
    worst = 0.0
    for h1, h2 in ((-1.0, 0.0), (0.0, -1.0), (-1.0, -1.0)):
        case = cached_case(n=100, nu=0.3, h1=h1, h2=h2)
        local = 0.0
        for y in (0.0, 0.3, 0.5):
            res = evaluate_point(case, -1.0, y)
            local = max(local, res.imag_residue)
        details.append(f"loads ({h1:g},{h2:g}): {local:.1e}")
        worst = max(worst, local)
    ok = worst <= 1e-6
    _criterion(
        "A5 evaluated fields are real to 1e-6",
        ok,
        "; ".join(details)
        + ". Known failure: at the oscillation root l > 0 the discrete "
        "solution is not conjugation-symmetric within one solve (see A3b "
        "and README 'Known numerical limits'); the realness projection "
        "reports the residue instead of hiding it.",
    )


def test_a6_monotone_trends():
    _, rows = run_sweep(RunConfig(n=100, sweep="nu", sweep_range=(0.1, 0.5, 0.1)))
    cols = {name: [float(r[i]) for r in rows]
            for i, name in ((1, "u1"), (2, "u2"), (3, "du1"), (4, "du2"))}
    nu_ok = (
        all(a > b for a, b in zip(cols["u1"], cols["u1"][1:]))
        and all(a > b for a, b in zip(cols["u2"], cols["u2"][1:]))
        and all(abs(a) < abs(b) for a, b in zip(cols["du1"], cols["du1"][1:]))
        and all(abs(a) < abs(b) for a, b in zip(cols["du2"], cols["du2"][1:]))
    )
    speed_ok = True
    for nu in (0.2, 0.3, 0.4):
        _, rows = run_sweep(
            RunConfig(
                material=MaterialConfig(nu=nu),
                n=100,
                sweep="speed",
                sweep_range=(0.1, 0.9, 0.1),
            )
        )
        for col in (1, 2):
            vals = [float(r[col]) for r in rows]
            speed_ok = speed_ok and all(a < b for a, b in zip(vals, vals[1:]))
    _criterion(
        "A6 monotone physical trends",
        nu_ok and speed_ok,
        "grading sweep: displacements strictly decrease, slopes strictly "
        f"increase ({nu_ok}); speed sweeps at nu=0.2/0.3/0.4: both surface "
        f"displacements strictly increase toward the shear speed ({speed_ok})",
    )


def _mp_mellin(x: float, delta: float):
    d = mp.mpf(repr(delta))
    xm = mp.mpf(repr(x))
    total = mp.pi * 1j * mp.power(xm, 1j * d) / mp.sinh(mp.pi * d)
    k = 0
    while True:
        term = (-1) ** k * mp.power(xm, k) / (1j * d - k)
        total += term
        if abs(term) < mp.mpf("1e-30") and k > 5:
            return total
        k += 1
        if k > 5000:  # pragma: no cover - convergence guard
            raise RuntimeError("shifted-kernel oracle did not converge")


def _mp_kernel_g(j: int, s: complex, p):
    """``G_j(s)`` from the documented formula, in mpmath arithmetic."""
    s = mp.mpc(s.real, s.imag)
    nu = mp.mpf(p.nu)
    as2, ad2 = mp.mpf(p.a_s) ** 2, mp.mpf(p.a_d) ** 2
    beta1, beta2 = mp.mpf(p.beta1), mp.mpf(p.beta2)
    if j == 1:
        b = ((ad2 - as2) * (s - 1) - nu * as2) / (
            2 * (ad2 - 1) * beta2 ** ((1 - s) / 2) * beta1 ** (s / 2)
        )
    else:
        b = ((ad2 - as2) * (s - 1) - nu * (ad2 - 2 * as2)) / (
            2 * (as2 - 1) * beta1 ** ((1 - s) / 2) * beta2 ** (s / 2)
        )
    return b * mp.gamma(1 - s / 2) * mp.gamma((s - nu) / 2) / (
        mp.gamma((s + 1 - nu) / 2) * mp.gamma((3 - s) / 2)
    )


def test_a7_kernel_value_oracles():
    case = cached_case(n=50)
    p = case.params
    mp.mp.dps = 40

    # the diagonal symbol at the collocation arguments of block_system
    log_x = np.log(case.solution.disc.colloc)
    args = np.concatenate([p.sigma - 1j / np.pi * log_x, p.sigma + 1j / np.pi * log_x])
    worst_g = 0.0
    for j in (1, 2):
        for s, value in zip(args, kernel_g(j, args, p)):
            ref = complex(_mp_kernel_g(j, s, p))
            worst_g = max(worst_g, abs(value - ref) / abs(ref))

    worst_m = 0.0
    deltas = (p.delta1_minus, -p.delta1_minus, p.delta1_plus, -p.delta1_plus)
    for x in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
        for delta in deltas:
            ref = complex(_mp_mellin(x, delta))
            worst_m = max(worst_m, abs(mellin_m(x, delta) - ref) / abs(ref))
    # independent route: direct integral of the defining kernel
    direct = mp.quad(
        lambda u: mp.power(u, 1j * mp.mpf(repr(p.delta1_minus))) / (u + mp.mpf("0.5")),
        [0, 1],
    )
    spot = abs(complex(direct) - mellin_m(0.5, p.delta1_minus))

    worst_asym = 0.0
    for j, lam, expo in ((1, p.lam1, 0.5), (2, p.lam2, -0.5)):
        for tau, unit in ((40.0, 1j), (-40.0, -1j)):
            s = p.sigma + 1j * tau
            ref = unit * lam * p.beta ** (expo * s)
            worst_asym = max(worst_asym, abs(kernel_g(j, s, p) / ref - 1.0))

    ok = (
        worst_g <= 1e-11
        and worst_m <= 1e-10
        and spot <= 1e-10
        and worst_asym <= 0.05
    )
    _criterion(
        "A7 special-function oracles",
        ok,
        f"G_j at the collocation arguments vs 40-digit oracle {worst_g:.1e} "
        "(gate 1e-11), "
        f"shifted kernel vs oracle {worst_m:.1e} (gate 1e-10), "
        f"direct-integral spot {spot:.1e} (gate 1e-10), "
        f"large-frequency asymptote {worst_asym:.1e} (gate 5e-2)",
    )


def _closed_form_r(p) -> float:
    ad2, as2 = p.a_d**2, p.a_s**2
    return (2.0 * ad2 * as2 - ad2 - as2) / (
        2.0 * p.a_d * p.a_s * math.sqrt((ad2 - 1.0) * (as2 - 1.0))
    )


def test_a8_oscillation_exponent_identities():
    worst = 0.0
    count = 0
    for nu_p in (0.0, 0.1, 0.2, 0.3, 0.4, 0.45):
        for speed in (0.05, 0.25, 0.45, 0.65, 0.85, 0.95):
            p = derive_params(MaterialConfig(nu_p=nu_p, speed_ratio=speed))
            count += 1
            checks = (
                abs(p.beta - p.beta2 / p.beta1) / p.beta,
                abs(math.exp(2.0 * math.pi * p.eps) - p.beta) / p.beta,
                abs((p.delta1_minus - p.delta1_plus) - p.eps) / abs(p.eps),
                abs(math.cosh(2.0 * math.pi * p.l_param) - p.r_param) / p.r_param,
                abs(
                    (math.sqrt(p.beta) + 1.0 / math.sqrt(p.beta)) / 2.0
                    - p.lam1 * p.lam2 / 2.0
                    - p.r_param
                )
                / p.r_param,
                abs(_closed_form_r(p) - p.r_param) / p.r_param,
            )
            worst = max(worst, max(checks))
            assert p.r_param > 1.0
    _criterion(
        "A8 oscillation-exponent identities across the subsonic range",
        worst <= 1e-10,
        f"max defect {worst:.1e} over {count} configurations, gate 1e-10",
    )


def test_a9_residuals_and_superposition():
    worst_res = 0.0
    for n in (25, 50, 100):
        sol = cached_case(n=n).solution
        worst_res = max(worst_res, max(sol.residuals.values()))

    both = cached_case(n=50, h1=-1.0, h2=-1.0)
    only1 = cached_case(n=50, h1=-1.0, h2=0.0)
    only2 = cached_case(n=50, h1=0.0, h2=-1.0)
    worst_sup = 0.0
    for xi, y in ((-1.0, 0.0), (-1.0, 0.3), (2.0, 0.5)):
        rb = evaluate_point(both, xi, y)
        r1 = evaluate_point(only1, xi, y)
        r2 = evaluate_point(only2, xi, y)
        for attr in ("u1", "u2", "du1_dxi", "du2_dxi", "s12", "s22"):
            vb = getattr(rb, attr)
            parts = getattr(r1, attr) + getattr(r2, attr)
            worst_sup = max(worst_sup, abs(vb - parts) / max(abs(vb), 1e-30))
    ok = worst_res <= 1e-10 and worst_sup <= 1e-10
    _criterion(
        "A9 linear-system residuals and load superposition",
        ok,
        f"max solve residual {worst_res:.1e} (gate 1e-10), "
        f"max superposition defect {worst_sup:.1e} (gate 1e-10)",
    )
