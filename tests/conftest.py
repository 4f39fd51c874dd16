"""Shared fixtures: cached solved cases for the expensive grid sizes."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla

import gradedload.system
from gradedload import MaterialConfig, solve_case
from gradedload.fields import boundary_phi
from gradedload.kernels import kernel_g
from gradedload.system import assemble_rhs, regular_block, singular_block

_CACHE: dict = {}

# one line per acceptance criterion, echoed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def cached_case(n: int = 100, **material):
    """Solve (or reuse) a case; keyed by grid size and material."""
    key = (n, tuple(sorted(material.items())))
    if key not in _CACHE:
        _CACHE[key] = solve_case(MaterialConfig(**material), n=n)
    return _CACHE[key]


def half_offset_case(n: int = 100):
    """The default material solved (or reused) with the inversion strip at
    sigma = nu/2 instead of the fixed SIGMA_FRACTION * nu."""
    key = ("sigma = nu/2", n)
    if key not in _CACHE:
        derive_params = gradedload.system.derive_params

        def shifted(config):
            p = derive_params(config)
            return dataclasses.replace(p, sigma=0.5 * p.nu)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gradedload.system, "derive_params", shifted)
            _CACHE[key] = solve_case(MaterialConfig(), n=n)
    return _CACHE[key]


@pytest.fixture(scope="session")
def case25():
    return cached_case(n=25)


@pytest.fixture(scope="session")
def case50():
    return cached_case(n=50)


@pytest.fixture(scope="session")
def case100():
    return cached_case(n=100)


@pytest.fixture(scope="session")
def params_default(case100):
    return case100.params


def dense_matrix(d, p, sign):
    """Dense 4N x 4N matrix of one sign variant, from the documented layout.

    Independent of ``block_system``: the diagonals come straight from
    kernel_g and the coupling blocks from the public block builders.  The
    sign multiplies the four diagonal blocks.
    """
    n = d.n
    log_x = np.log(d.colloc)
    arg_minus = p.sigma - 1j / np.pi * log_x
    arg_plus = p.sigma + 1j / np.pi * log_x
    osc_minus = np.exp(1j * p.delta1_minus * log_x)
    osc_plus = np.exp(1j * p.delta1_plus * log_x)
    scale = sign * 2j * np.pi
    diags = (
        scale * osc_minus / kernel_g(2, arg_minus, p),
        scale * osc_plus / kernel_g(2, arg_plus, p),
        scale * osc_plus / kernel_g(1, arg_minus, p),
        scale * osc_minus / kernel_g(1, arg_plus, p),
    )
    s_plus = singular_block(d, d.w_plus, d.m_plus)
    s_minus = singular_block(d, d.w_minus, d.m_minus)
    r_plus = regular_block(d, d.w_plus)
    r_minus = regular_block(d, d.w_minus)
    zero = np.zeros((n, n), dtype=complex)
    d1, d2, d3, d4 = (np.diag(v) for v in diags)
    return np.block([
        [d1, zero, s_plus, r_minus],
        [zero, d2, r_plus, s_minus],
        [s_minus, r_plus, d3, zero],
        [r_minus, s_plus, zero, d4],
    ])


def minus_variant_phi(case) -> np.ndarray:
    """``Phi_-`` of a solved case with the "-" variant solved on its own.

    The code derives the "-" variant from the "+" solve as
    ``Phi_- = J Phi_+ J``; here the dense ``A_-`` is solved with the negated
    forcing.  ``boundary_phi`` returns Q - F, the quadrature term Q with the
    "+" sign and the load forcing F; the "-" variant has -Q - F.
    """
    d, p, n = case.solution.disc, case.params, case.solution.disc.n
    rhs = np.concatenate(assemble_rhs(d, p))
    x = sla.solve(dense_matrix(d, p, -1), -rhs)
    solved = dataclasses.replace(case.solution, f1=x[:2 * n], f2=x[2 * n:])
    forcing = np.eye(2) / math.cos(math.pi * p.nu / 2.0)
    return -(boundary_phi(solved) + forcing) - forcing
