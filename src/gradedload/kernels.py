"""Scalar kernels of the boundary integral formulation.

The collocation system couples four unknown densities through three kinds of
coefficient: the diagonal symbols ``G_j(s)`` (a ratio of gamma functions times
the rational factor ``b_j(s)``), the forcing function ``f(x)`` generated by
the point load, and the fixed-singularity kernel ``M(x, delta)`` that
resolves the integrable endpoint singularity of the system.
:func:`kernel_g` forms both symbols from one gamma ratio and one
:func:`coeff_b` pair, and :func:`gradedload.system.block_system` takes both
diagonals of the system from one call.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma

from .params import DerivedParams

__all__ = ["coeff_b", "kernel_g", "rhs_f", "mellin_m"]

# terms of the accelerated alternating series in mellin_m; the CVZ error
# falls like (3 + sqrt 8)**-n, so 30 terms leave it far below roundoff for
# every x in (0, 1]
_CVZ_TERMS = 30


def _cvz_weights(n: int) -> np.ndarray:
    """Weights ``w_k`` with ``sum_k (-1)^k a_k ~= sum_{k<n} w_k a_k``.

    Algorithm 1 of Cohen, Rodriguez Villegas and Zagier, "Convergence
    acceleration of alternating series", Exp. Math. 9 (2000); the
    alternating sign is folded into the weights.
    """
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    weights = np.empty(n)
    for k in range(n):
        c = b - c
        weights[k] = c / d
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    return weights


_CVZ_WEIGHTS = _cvz_weights(_CVZ_TERMS)
_CVZ_K = np.arange(_CVZ_TERMS, dtype=float)


def coeff_b(s, p: DerivedParams):
    """Both rational prefactors ``(b_1(s), b_2(s))`` of the kernel symbols.

    Real for real ``s``; ``s`` is taken as a complex array, so a scalar
    comes back as 0-d arrays.  :func:`kernel_g` is its one caller.
    """
    a_s2 = p.a_s**2
    a_d2 = p.a_d**2
    nu = p.nu
    s = np.asarray(s, dtype=complex)
    num1 = (a_d2 - a_s2) * (s - 1.0) - nu * a_s2
    den1 = 2.0 * (a_d2 - 1.0) * p.beta2 ** ((1.0 - s) / 2.0) * p.beta1 ** (s / 2.0)
    num2 = (a_d2 - a_s2) * (s - 1.0) - nu * (a_d2 - 2.0 * a_s2)
    den2 = 2.0 * (a_s2 - 1.0) * p.beta1 ** ((1.0 - s) / 2.0) * p.beta2 ** (s / 2.0)
    return num1 / den1, num2 / den2


def kernel_g(s, p: DerivedParams):
    """Both diagonal kernel symbols ``(G_1(s), G_2(s))`` for complex ``s``.

    ``G_j(s) = b_j(s) * Gamma(1 - s/2) Gamma((s - nu)/2)
               / [Gamma((s + 1 - nu)/2) Gamma((3 - s)/2)]``;
    the gamma ratio is the same for j = 1 and 2, so its numerator and
    denominator are formed once and each symbol is ``b_j * num / den``, with
    both prefactors from one :func:`coeff_b` call.

    Satisfies the reflection symmetry G_j(conj(s)) = conj(G_j(s)) and grows
    like ``+-i lam_j beta**(+-s/2)`` far up/down the inversion strip.  The
    gamma factors have poles where an argument is a non-positive integer.
    The collocation arguments ``s = sigma +- i log(x_k)/pi`` with
    ``sigma = nu/4`` and ``0 < x_k <= 1`` keep every argument at least
    ``min(3 nu/8, 1/2 - 3 nu/8)`` away from them, the nearest being
    ``(s - nu)/2 = -3 nu/8`` or ``(s + 1 - nu)/2 = 1/2 - 3 nu/8`` at
    ``x_k = 1``.
    """
    nu = p.nu
    num = gamma(1.0 - s / 2.0) * gamma((s - nu) / 2.0)
    den = gamma((s + 1.0 - nu) / 2.0) * gamma((3.0 - s) / 2.0)
    b1, b2 = coeff_b(s, p)
    return b1 * num / den, b2 * num / den


def rhs_f(x, sigma: float):
    """Forcing function ``f(x) = 4*pi*i / (x e^{i pi sigma/2} + e^{-i pi sigma/2})``.

    Bounded between 2*pi and 4*pi in modulus for x in [0, 1] and small sigma.
    """
    ph = np.exp(1j * np.pi * sigma / 2.0)
    return 4j * np.pi / (x * ph + 1.0 / ph)


def mellin_m(x, delta: float):
    """Fixed-singularity kernel ``M(x, delta)`` for x in (0, 1].

    Equal to ``integral_0^1 y^{i delta}/(y + x) dy``, evaluated as the
    closed head plus the alternating series

    ``M(x, delta) = pi i x^{i delta}/sinh(pi delta)
                    + sum_{k>=0} (-1)^k x^k / (i delta - k)``

    whose sum is accelerated with fixed CVZ weights (see
    :func:`_cvz_weights`), so every x in (0, 1] takes the same
    ``_CVZ_TERMS``-term polynomial, evaluated by Horner's rule.

    Parameters
    ----------
    x : array_like
        Collocation points in (0, 1].
    delta : float
        Nonzero oscillation exponent.

    Returns
    -------
    ndarray of complex with the shape of x.

    Raises
    ------
    ValueError
        If any x is outside (0, 1] (NaN included) or delta == 0.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0.0) & (x <= 1.0)):
        raise ValueError(f"mellin_m defined for x in (0, 1], got {x}")
    if delta == 0.0:
        raise ValueError("mellin_m requires a nonzero oscillation exponent")
    coeffs = _CVZ_WEIGHTS / (1j * delta - _CVZ_K)
    acc = np.full(x.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    head = np.pi * 1j * np.exp(1j * delta * np.log(x)) / math.sinh(np.pi * delta)
    return head + acc
