"""Special-function kernels: frozen spots, symmetries, and dual-route checks.

The singular kernel M is evaluated by one route (closed head plus a
CVZ-accelerated alternating series); it is checked against adaptive
quadrature of the defining integral and against a 40-digit mpmath
hypergeometric closed form, not against itself.  Frozen complex values come
from a 30-digit mpmath run.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import gradedload.kernels as kernels
from conftest import wave_factors
from gradedload import MaterialConfig
from gradedload.kernels import coeff_b, kernel_g, mellin_m, rhs_f
from gradedload.params import derive_params
from gradedload.system import block_system, build_grid

# frozen spot values (mpmath, 30 dps)
B1_AT_1 = -0.08064049958557055  # nu = 0.3 material
B2_AT_1 = -0.12274756325774571
B1_AT_NU = -0.22692393059466688
B2_AT_NU = -1.4572315485675373
G1_SPOT = -0.39784716116441386 + 0.14026338618512871j  # s = 0.025 + 1i, nu = 0.1
G2_SPOT = 4.923472642206899 + 1.4026744765930974j
M_03 = 1.3648640213834512 - 0.4029243752545487j  # M(0.3, 0.204)
M_095 = 0.6815075613961104 - 0.1670811480468601j  # M(0.95, 0.204)
M_AT_1 = 0.6572263225401313 - 0.1601137881536339j  # M(1.0, delta1_minus)
DELTA1_MINUS = 0.20405105386990351
DELTA1_PLUS = -0.19938341895851416
# materials whose exponent families span |delta| from 0.11 to 0.63
MELLIN_CONFIGS = (
    dict(nu=0.3, speed_ratio=0.05, nu_p=0.0),
    dict(nu=0.1),
    dict(nu=0.3, speed_ratio=0.95, nu_p=0.4),
)
# corners and the middle of the validated domain, nu from 0.05 to 0.95
DOMAIN_CONFIGS = (
    dict(nu=0.05, speed_ratio=0.05, nu_p=0.0),
    dict(nu=0.05, speed_ratio=0.95, nu_p=0.45),
    dict(nu=0.5, speed_ratio=0.5, nu_p=0.2),
    dict(nu=0.95, speed_ratio=0.05, nu_p=0.45),
    dict(nu=0.95, speed_ratio=0.95, nu_p=0.0),
)


@pytest.fixture(scope="module")
def p01():
    return derive_params(MaterialConfig(nu=0.1))


@pytest.fixture(scope="module")
def p03():
    return derive_params(MaterialConfig(nu=0.3))


# ---------------------------------------------------------------- b and G


def test_coeff_b_frozen(p03):
    b1, b2 = coeff_b(1.0, p03)
    assert b1 == pytest.approx(B1_AT_1, rel=1e-12)
    assert b2 == pytest.approx(B2_AT_1, rel=1e-12)
    b1, b2 = coeff_b(0.3, p03)
    assert b1 == pytest.approx(B1_AT_NU, rel=1e-12)
    assert b2 == pytest.approx(B2_AT_NU, rel=1e-12)


def test_coeff_b_schwarz(p01):
    for j in (1, 2):
        for s in (0.2 + 0.9j, 0.025 + 3.3j, 0.7 - 2.1j):
            assert coeff_b(np.conj(s), p01)[j - 1] == pytest.approx(
                np.conj(coeff_b(s, p01)[j - 1]), rel=1e-14
            )


def test_kernel_g_frozen_spots(p01):
    s = 0.025 + 1.0j
    g1, g2 = kernel_g(s, p01)
    assert g1 == pytest.approx(G1_SPOT, rel=1e-12)
    assert g2 == pytest.approx(G2_SPOT, rel=1e-12)


def test_kernel_g_schwarz(p01):
    sigma = p01.sigma
    # the named spot plus a deterministic sample on the contour line
    spots = [sigma + 0.7j]
    rng = np.random.default_rng(11)
    spots += [sigma + 1j * t for t in rng.uniform(-30.0, 30.0, size=100)]
    for j in (1, 2):
        for s in spots:
            lhs = kernel_g(np.conj(s), p01)[j - 1]
            rhs = np.conj(kernel_g(s, p01)[j - 1])
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_kernel_g_is_the_shared_gamma_ratio(p01):
    # bit for bit, G_j is b_j times the written gamma products; the
    # ratio does not depend on j, which lets kernel_g form it once for both
    # symbols and block_system take both diagonals from one call
    nu = p01.nu
    x = np.arange(1, 101) / 100.0
    args = p01.sigma + 1j / np.pi * np.log(x)
    gamma = kernels.gamma
    for s in (args, np.conj(args), np.concatenate([args, np.conj(args)]), 0.025 + 1j):
        num = gamma(1.0 - s / 2.0) * gamma((s - nu) / 2.0)
        den = gamma((s + 1.0 - nu) / 2.0) * gamma((3.0 - s) / 2.0)
        for g, b in zip(kernel_g(s, p01), coeff_b(s, p01)):
            assert np.asarray(g).tobytes() == np.asarray(b * num / den).tobytes()


def test_kernel_g_gamma_arguments_clear_the_poles(monkeypatch):
    # kernel_g has no pole guard: every gamma argument it forms at the
    # collocation arguments of block_system stays at least
    # min(3 nu/8, 1/2 - 3 nu/8) >= min(3 nu/8, 1/8) from the poles
    # 0, -1, -2, ...  The bound is reached at x_n = 1, where s = sigma = nu/4
    # is real, by (s - nu)/2 = -3 nu/8 in the numerator or by
    # (s + 1 - nu)/2 = 1/2 - 3 nu/8 in the denominator.  block_system forms
    # the four gamma factors once, over the 2n arguments of both diagonals
    gamma = kernels.gamma
    seen = []

    def recording(z):
        seen.append(np.asarray(z))
        return gamma(z)

    monkeypatch.setattr(kernels, "gamma", recording)
    for material in DOMAIN_CONFIGS:
        p = derive_params(MaterialConfig(**material))
        for n in (25, 100, 400):
            seen.clear()
            block_system(build_grid(n, p), p)
            z = np.concatenate(seen)
            assert len(seen) == 4 and z.shape == (4 * 2 * n,)
            nearest_pole = np.minimum(np.round(z.real), 0.0)
            gap = np.abs(z - nearest_pole).min()
            bound = min(3.0 * p.nu / 8.0, 0.5 - 3.0 * p.nu / 8.0)
            assert gap == pytest.approx(bound, rel=1e-12)


def test_kernel_g_asymptotes(p01):
    # far along the contour G_1 grows like +-i lam_1 beta^{s/2} and G_2
    # like +-i lam_2 beta^{-s/2}; the sign is +i in the upper half-strip
    # and -i in the lower (conjugate) half
    sigma = p01.sigma
    tau = 40.0
    beta, *lams, _ = wave_factors(p01)
    expos = (0.5, -0.5)
    for j in (1, 2):
        lam = lams[j - 1]
        expo = expos[j - 1]
        s_up = sigma + 1j * tau
        ref_up = 1j * lam * beta ** (expo * s_up)
        assert abs(kernel_g(s_up, p01)[j - 1] / ref_up - 1.0) <= 0.05
        s_down = sigma - 1j * tau
        ref_down = -1j * lam * beta ** (expo * s_down)
        assert abs(kernel_g(s_down, p01)[j - 1] / ref_down - 1.0) <= 0.05


# ---------------------------------------------------------------- f


def test_rhs_f_spot():
    value = rhs_f(1.0, 0.025)
    assert value.real == pytest.approx(0.0, abs=1e-12)
    assert value.imag == pytest.approx(6.288033152857572, rel=1e-12)


def test_rhs_f_zero_sigma_limit():
    for x in (0.25, 0.5, 1.0):
        assert rhs_f(x, 1e-14) == pytest.approx(4j * math.pi / (x + 1.0), rel=1e-10)
    assert rhs_f(1.0, 1e-14) == pytest.approx(2j * math.pi, rel=1e-10)


def test_rhs_f_modulus_bounds():
    for sigma in (0.01, 0.1, 0.3):
        for x in np.linspace(0.01, 1.0, 25):
            mod = abs(rhs_f(float(x), sigma))
            assert 2.0 * math.pi - 1e-9 <= mod <= 4.0 * math.pi + 1e-9


def test_rhs_f_array():
    x = np.array([0.25, 0.5, 1.0])
    out = rhs_f(x, 0.025)
    assert out.shape == (3,)
    assert out[2] == pytest.approx(rhs_f(1.0, 0.025), rel=1e-15)


# ---------------------------------------------------------------- M


def _mellin_quad(x: float, delta: float) -> complex:
    """Adaptive quadrature route: integral_0^1 y^{i delta}/(y + x) dy.

    The substitution y = e^u turns the endpoint oscillation into a plain
    exponentially damped oscillation on (-inf, 0].
    """
    def re_part(u: float) -> float:
        eu = math.exp(u)
        return eu * math.cos(delta * u) / (eu + x)

    def im_part(u: float) -> float:
        eu = math.exp(u)
        return eu * math.sin(delta * u) / (eu + x)

    opts = dict(epsabs=1e-13, epsrel=1e-12, limit=400)
    re = quad(re_part, -np.inf, 0.0, **opts)[0]
    im = quad(im_part, -np.inf, 0.0, **opts)[0]
    return re + 1j * im


def test_mellin_frozen_spots():
    assert mellin_m(0.3, 0.204) == pytest.approx(M_03, rel=1e-12)
    assert mellin_m(0.95, 0.204) == pytest.approx(M_095, rel=1e-10)
    assert mellin_m(1.0, DELTA1_MINUS) == pytest.approx(M_AT_1, rel=1e-10)


def _family_deltas():
    for material in MELLIN_CONFIGS:
        p = derive_params(MaterialConfig(**material))
        yield p.delta1_minus
        yield p.delta1_plus


def test_mellin_series_vs_quadrature_grid():
    # the accelerated series against adaptive quadrature at every node
    # x = k/400, both exponent families, including x in (0.9, 1]
    deltas = list(_family_deltas())
    assert min(map(abs, deltas)) <= 0.111 and max(map(abs, deltas)) >= 0.62
    x = np.arange(1, 401) / 400.0
    worst = 0.0
    for delta in deltas:
        series = mellin_m(x, delta)
        for xk, value in zip(x, series):
            quadr = _mellin_quad(float(xk), delta)
            worst = max(worst, abs(value - quadr) / abs(quadr))
    assert worst <= 1e-10


def _mp_mellin_closed(x: float, delta: float) -> complex:
    # integral_0^1 y^{a-1}/(y + x) dy = 2F1(1, a; a + 1; -1/x) / (a x), a = 1 + i delta
    with mp.workdps(40):
        a = 1 + 1j * mp.mpf(repr(delta))
        xm = mp.mpf(repr(x))
        return complex(mp.hyp2f1(1, a, a + 1, -1 / xm) / (a * xm))


def test_mellin_mpmath_oracle():
    worst = 0.0
    for delta in _family_deltas():
        for x in (1e-12, 0.01, 0.5, 0.9, 0.95, 1.0):
            ref = _mp_mellin_closed(x, delta)
            worst = max(worst, abs(mellin_m(x, delta) - ref) / abs(ref))
    assert worst <= 1e-13


def test_mellin_small_x_limit():
    delta = DELTA1_MINUS
    x = 1e-12
    head = math.pi * 1j * np.exp(1j * delta * math.log(x)) / math.sinh(math.pi * delta)
    assert mellin_m(x, delta) - head == pytest.approx(1.0 / (1j * delta), rel=1e-10)


def test_mellin_quadrature_against_log_oracle():
    # delta -> 0 analytic antiderivative validates the quadrature route
    for x in (0.5, 0.95, 1.0):
        value = _mellin_quad(x, 1e-9)
        assert value.real == pytest.approx(math.log((1.0 + x) / x), rel=1e-8)
        assert abs(value.imag) <= 1e-8


def test_mellin_domain_gates():
    with pytest.raises(ValueError):
        mellin_m(0.0, 0.2)
    with pytest.raises(ValueError):
        mellin_m(1.0001, 0.2)
    with pytest.raises(ValueError):
        mellin_m(-0.3, 0.2)
    with pytest.raises(ValueError):
        mellin_m(0.5, 0.0)
    for bad in ((0.5, 0.0, 1.0), (0.5, 1.0 + 1e-12), (0.5, np.nan, 0.25)):
        with pytest.raises(ValueError):
            mellin_m(np.array(bad), 0.2)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(x=st.floats(0.01, 0.89), delta=st.floats(0.01, 0.5))
def test_mellin_route_agreement_and_reflection(x, delta):
    series = mellin_m(x, delta)
    assert abs(series - _mellin_quad(x, delta)) <= 1e-9 * abs(series)
    # conjugating the exponent conjugates the kernel
    assert mellin_m(x, -delta) == pytest.approx(np.conj(mellin_m(x, delta)), rel=1e-12)
