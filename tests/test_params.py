"""Derived-parameter values, exponent identities, and configuration gates.

Reference numbers were frozen from a 30-digit mpmath evaluation of the
closed forms; the whole chain is independently pinned by the determinant
regression in test_acceptance.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedload import (
    ConfigError,
    MaterialConfig,
    OscillationRegimeError,
    SubsonicViolation,
)
from gradedload.params import SIGMA_FRACTION, _oscillation_shift, derive_params

# frozen: nu_P = 0.3, V/c_s = 0.2 (mpmath, 30 dps)
BETA1 = 0.28901734104046243
BETA2 = 3.6458333333333335
BETA = 12.614583333333333
EPS = 0.4034344728284177
LAM1 = 0.37841252642079604
LAM2 = 4.844030009827676
R_PARAM = 1.0001075155524353
L_PARAM = 0.0023338174556946724
DELTA1_MINUS = 0.20405105386990351
DELTA1_PLUS = -0.19938341895851416
# frozen: gamma amplitudes at nu = 0.1
GAMMA1 = 0.5252160074647911
GAMMA2 = 0.4695293221563696


def closed_form_r(a_d: float, a_s: float) -> float:
    # independent oracle: r in terms of the slownesses alone
    ad2, as2 = a_d * a_d, a_s * a_s
    return (2.0 * ad2 * as2 - ad2 - as2) / (
        2.0 * a_d * a_s * math.sqrt((ad2 - 1.0) * (as2 - 1.0))
    )


def test_default_kinematics(params_default):
    p = params_default
    assert p.cd2_cs2 == pytest.approx(3.5, rel=1e-15)
    assert p.a_s == pytest.approx(5.0, rel=1e-15)
    assert p.a_d**2 == pytest.approx(87.5, rel=1e-14)
    assert p.beta1 == pytest.approx(BETA1, rel=1e-14)
    assert p.beta2 == pytest.approx(BETA2, rel=1e-14)
    assert p.beta == pytest.approx(BETA, rel=1e-14)
    assert p.eps == pytest.approx(EPS, rel=1e-14)
    assert p.lam1 == pytest.approx(LAM1, rel=1e-14)
    assert p.lam2 == pytest.approx(LAM2, rel=1e-14)


def test_oscillation_exponents(params_default):
    p = params_default
    assert p.r_param == pytest.approx(R_PARAM, rel=1e-14)
    assert p.l_param == pytest.approx(L_PARAM, rel=1e-12)
    assert p.delta1_minus == pytest.approx(DELTA1_MINUS, rel=1e-13)
    assert p.delta1_plus == pytest.approx(DELTA1_PLUS, rel=1e-13)


def test_exponent_differences(params_default):
    p = params_default
    assert abs((p.delta1_minus - p.delta1_plus) - p.eps) <= 1e-12


def test_sinh_cancellation(params_default):
    p = params_default
    prod = math.sinh(math.pi * p.delta1_minus) * math.sinh(math.pi * p.delta1_plus)
    assert abs(p.lam1 * p.lam2 / (4.0 * prod) + 1.0) <= 1e-12
    # triple equality with the cosh form
    cosh_pi_eps = (math.sqrt(p.beta) + 1.0 / math.sqrt(p.beta)) / 2.0
    lhs = math.sinh(math.pi * (p.l_param + p.eps / 2.0)) * math.sinh(
        math.pi * (p.l_param - p.eps / 2.0)
    )
    assert lhs == pytest.approx((p.r_param - cosh_pi_eps) / 2.0, rel=1e-10)
    assert lhs == pytest.approx(-p.lam1 * p.lam2 / 4.0, rel=1e-10)


def test_gamma_amplitudes(params_default):
    p = params_default
    assert p.gamma1 == pytest.approx(GAMMA1, rel=1e-13)
    assert p.gamma2 == pytest.approx(GAMMA2, rel=1e-13)
    ratio = p.cd2_cs2 * (p.beta2 / p.beta1) ** ((p.nu - 1.0) / 2.0)
    assert p.gamma1 / p.gamma2 == pytest.approx(ratio, rel=1e-12)


def test_sigma_default(params_default):
    assert SIGMA_FRACTION == 0.25
    assert params_default.sigma == pytest.approx(0.025, rel=1e-15)
    p = derive_params(MaterialConfig(nu=0.4))
    assert p.sigma == pytest.approx(0.1, rel=1e-15)
    assert 0.0 < p.sigma < p.nu


def test_zero_poisson_ratio():
    p = derive_params(MaterialConfig(nu_p=0.0))
    assert p.cd2_cs2 == pytest.approx(2.0, rel=1e-15)
    assert p.a_d == pytest.approx(p.a_s * math.sqrt(2.0), rel=1e-15)


def test_config_gates():
    with pytest.raises(ConfigError):
        MaterialConfig(nu=0.0)
    with pytest.raises(ConfigError):
        MaterialConfig(nu=1.0)
    with pytest.raises(ConfigError):
        MaterialConfig(nu_p=0.5)
    with pytest.raises(ConfigError):
        MaterialConfig(nu_p=-0.1)
    with pytest.raises(SubsonicViolation):
        MaterialConfig(speed_ratio=1.0)
    with pytest.raises(SubsonicViolation):
        MaterialConfig(speed_ratio=1.2)
    with pytest.raises(ConfigError):
        MaterialConfig(speed_ratio=0.0)
    with pytest.raises(ConfigError):
        MaterialConfig(h1=math.inf)
    with pytest.raises(ConfigError):
        MaterialConfig(xi0=math.nan)
    # a value of no real type is refused by name before any comparison
    for name in ("nu", "nu_p", "speed_ratio", "h1", "h2", "xi0"):
        for bad in ("0.3", None, 0.3 + 0j):
            with pytest.raises(ConfigError, match=f"^{name} must be a real number"):
                MaterialConfig(**{name: bad})


def test_int_beyond_float_range_refused():
    # every field is converted before its range check, so such an int is
    # refused by name and never printed (Python >= 3.11 refuses to print
    # one of more than 4300 digits), while an int inside the float range is
    # stored as its float
    for name in ("nu", "nu_p", "speed_ratio", "h1", "h2", "xi0"):
        for huge in (10**400, -(10**400), 10**5000):
            with pytest.raises(ConfigError, match=f"^{name} must be finite, got an integer"):
                MaterialConfig(**{name: huge})
    for name in ("h1", "h2", "xi0"):
        assert getattr(MaterialConfig(**{name: 10**300}), name) == 1e300
    # a convertible int out of range is refused with its float in the message
    with pytest.raises(ConfigError, match=r"nu must lie in \(0, 1\), got 1e\+300$"):
        MaterialConfig(nu=10**300)
    with pytest.raises(SubsonicViolation, match=r"^speed_ratio = 2\.0 is not subsonic"):
        MaterialConfig(speed_ratio=2)
    # a non-real value that holds such an int is shown by its type
    with pytest.raises(ConfigError, match="^nu must be a real number, got an unprintable list$"):
        MaterialConfig(nu=[10**5000])


def test_numpy_scalars_stored_as_float():
    # numpy scalars would carry numpy arithmetic into every later stage;
    # a value of no real type, even a numeric string, is refused by name
    given_values = dict(nu=0.3, nu_p=0.25, speed_ratio=0.4, h1=-1.0, h2=0.5, xi0=0.1)
    config = MaterialConfig(**{k: np.float64(v) for k, v in given_values.items()})
    for name, value in given_values.items():
        stored = getattr(config, name)
        assert type(stored) is float and stored == value
    assert config == MaterialConfig(**given_values)
    p = derive_params(config)
    assert type(p.nu) is float and type(p.sigma) is float
    with pytest.raises(ConfigError, match="nu must be a real number, got '0.3'"):
        MaterialConfig(nu="0.3")


def test_parameter_grid_identities():
    # the full validity rectangle: every subsonic config has real exponents
    for nu_p in (0.0, 0.1, 0.2, 0.3, 0.4, 0.45):
        for speed in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
            p = derive_params(MaterialConfig(nu=0.25, nu_p=nu_p, speed_ratio=speed))
            assert p.beta1 > 0.0 and p.beta2 > 0.0
            assert p.r_param > 1.0
            assert p.r_param == pytest.approx(closed_form_r(p.a_d, p.a_s), rel=1e-10)
            assert abs((p.delta1_minus - p.delta1_plus) - p.eps) <= 1e-12
            prod = math.sinh(math.pi * p.delta1_minus) * math.sinh(
                math.pi * p.delta1_plus
            )
            assert abs(p.lam1 * p.lam2 / (4.0 * prod) + 1.0) <= 1e-10


def test_oscillation_regime_guard():
    # unreachable from valid configs (r > 1 always); exercised synthetically
    with pytest.raises(OscillationRegimeError):
        _oscillation_shift(beta=4.0, lam1=2.0, lam2=2.0)
    r, l = _oscillation_shift(beta=4.0, lam1=0.1, lam2=0.1)
    assert r == pytest.approx(1.245, rel=1e-12)
    assert math.cosh(2.0 * math.pi * l) == pytest.approx(r, rel=1e-12)


@settings(max_examples=60, derandomize=True)
@given(
    nu=st.floats(0.02, 0.98),
    nu_p=st.floats(0.0, 0.45),
    speed=st.floats(0.05, 0.95),
)
def test_derivation_total_on_valid_inputs(nu, nu_p, speed):
    p = derive_params(MaterialConfig(nu=nu, nu_p=nu_p, speed_ratio=speed))
    assert p.beta1 > 0.0 and p.beta2 > 0.0
    assert p.r_param >= 1.0
    assert p.l_param >= 0.0
    assert 0.0 < p.sigma < p.nu
