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
from gradedload.system import assemble_rhs

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


def wave_factors(p) -> tuple[float, float, float, float]:
    """``(beta, lam1, lam2, r)`` from the paper's formulas in the exported
    slownesses ``a_s``, ``a_d`` and speed factors ``beta1``, ``beta2``.

    ``beta = beta2/beta1`` sets the kernel oscillation rate, ``lam1`` and
    ``lam2`` are the kernel amplitudes, and ``r`` is the closed form of
    ``cosh(2 pi l)`` in the slownesses alone.
    """
    as2, ad2 = p.a_s**2, p.a_d**2
    lam1 = (ad2 - as2) / ((ad2 - 1.0) * math.sqrt(p.beta2))
    lam2 = (ad2 - as2) / ((as2 - 1.0) * math.sqrt(p.beta1))
    r = (2.0 * ad2 * as2 - ad2 - as2) / (
        2.0 * p.a_d * p.a_s * math.sqrt((ad2 - 1.0) * (as2 - 1.0))
    )
    return p.beta2 / p.beta1, lam1, lam2, r


def exact_exponents(nu_p: float, speed: float) -> tuple[float, float, float]:
    """``(l, delta1_plus, delta1_minus)`` in closed form.

    With ``v = (V/c_s)**2``, ``k = (c_d/c_s)**2`` and
    ``X = (k - v)/(k (1 - v))``, ``cosh(2 pi l) = (sqrt(X) + 1/sqrt(X))/2``,
    so ``l = log(X)/(4 pi)``, written through log1p; ``delta1^+ = -ln k/(2 pi)``
    at every speed and ``delta1^- = ln((k - v)/(1 - v))/(2 pi)``.
    """
    k = 2.0 * (1.0 - nu_p) / (1.0 - 2.0 * nu_p)
    v = speed * speed
    l = math.log1p((k - 1.0) * v / (k * (1.0 - v))) / (4.0 * math.pi)
    return l, -math.log(k) / (2.0 * math.pi), math.log((k - v) / (1.0 - v)) / (2.0 * math.pi)


def solver_order(n: int) -> np.ndarray:
    """Indices that take the paper's 4N layout to the solver's.

    The paper orders the unknowns ``[F1^-; F1^+; F2^-; F2^+]`` and the
    equations (1, 2, 3, 4); ``block_system`` puts the first two groups in
    the opposite order, so that both density stacks carry the exponents
    ``[delta1^+; delta1^-]``.  The map swaps the first two N-blocks and is
    its own inverse: ``a[np.ix_(o, o)]`` takes a matrix and ``x[o]`` a
    stack either way.
    """
    return np.r_[n:2 * n, 0:n, 2 * n:4 * n]


def singular_block(d, weights, heads):
    """Block S(delta) of the paper: kernel 1/(y + x), fixed singularity at 0.

    Entry (k, n) is w_n/(x_{n-1} + x_k), the cell taken at its left point
    and collocated at x_k; the first column is replaced by the exact head
    M(x_k, delta) minus the sum of the others, so each row sums to
    M(x_k, delta).
    """
    block = weights[None, :] / (d.left[None, :] + d.colloc[:, None])
    block[:, 0] = heads - block[:, 1:].sum(axis=1)
    return block


def regular_block(d, weights):
    """Block R(delta) of the paper: entry (k, n) is w_n/(1 + x_{n-1} x_k)."""
    return weights[None, :] / (1.0 + d.left[None, :] * d.colloc[:, None])


def dense_matrix(d, p, sign):
    """Dense 4N x 4N matrix of one sign variant in the paper's layout.

    Rows are the equations (1, 2, 3, 4) and columns the densities
    ``[F1^-; F1^+; F2^-; F2^+]``; :func:`solver_order` maps it to the
    solver's order.  Independent of ``block_system``: the diagonals come
    straight from kernel_g and the coupling blocks from
    :func:`singular_block` and :func:`regular_block` here, each written
    from the paper's formula with the weights and heads of its exponent.
    The sign multiplies the four diagonal blocks.
    """
    n = d.n
    log_x = np.log(d.colloc)
    arg_minus = p.sigma - 1j / np.pi * log_x
    arg_plus = p.sigma + 1j / np.pi * log_x
    osc_minus = np.exp(1j * p.delta1_minus * log_x)
    osc_plus = np.exp(1j * p.delta1_plus * log_x)
    scale = sign * 2j * np.pi
    diags = (
        scale * osc_minus / kernel_g(arg_minus, p)[1],
        scale * osc_plus / kernel_g(arg_plus, p)[1],
        scale * osc_plus / kernel_g(arg_minus, p)[0],
        scale * osc_minus / kernel_g(arg_plus, p)[0],
    )
    # the grid stacks weights and heads as [delta1^+; delta1^-]
    w_plus, w_minus = d.w[:n], d.w[n:]
    s_plus = singular_block(d, w_plus, d.heads[:n])
    s_minus = singular_block(d, w_minus, d.heads[n:])
    r_plus = regular_block(d, w_plus)
    r_minus = regular_block(d, w_minus)
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
    order = solver_order(n)
    rhs = np.concatenate(assemble_rhs(d, p))[order]
    x = sla.solve(dense_matrix(d, p, -1), -rhs)[order]
    solved = dataclasses.replace(case.solution, f1=x[:2 * n], f2=x[2 * n:])
    forcing = np.eye(2) / math.cos(math.pi * p.nu / 2.0)
    return -(boundary_phi(solved) + forcing) - forcing
