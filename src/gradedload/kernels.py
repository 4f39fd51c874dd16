"""Scalar kernels of the boundary integral formulation.

The collocation system couples four unknown densities through three kinds of
coefficient: the diagonal symbol ``G_j(s)`` (a ratio of gamma functions times
the rational factor ``b_j(s)``), the forcing function ``f(x)`` generated by
the point load, and the fixed-singularity kernel ``M(x, delta)`` that
resolves the integrable endpoint singularity of the system.  All accept the
:class:`~gradedload.params.DerivedParams` produced by ``derive_params``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma as _scipy_gamma

from .errors import PoleError
from .params import DerivedParams

__all__ = ["complex_gamma", "coeff_b", "kernel_g", "rhs_f", "mellin_m"]

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


def complex_gamma(z):
    """Gamma function on the complex plane.

    Wraps the scipy implementation (Lanczos-type with reflection) and adds
    an explicit guard: non-positive integer arguments raise
    :class:`~gradedload.errors.PoleError` instead of returning inf/nan.

    Parameters
    ----------
    z : complex scalar or array_like

    Returns
    -------
    complex scalar or ndarray
    """
    za = np.asarray(z)
    on_real_axis = za.imag == 0.0
    at_pole = on_real_axis & (za.real <= 0.0) & (za.real == np.floor(za.real))
    if np.any(at_pole):
        raise PoleError(f"gamma pole at non-positive integer argument {za[at_pole].flat[0]}")
    out = _scipy_gamma(za if za.dtype.kind == "c" else za.astype(complex))
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(out)
    return out


def coeff_b(j: int, s, p: DerivedParams):
    """Rational prefactor ``b_j(s)`` of the kernel symbol, j in {1, 2}.

    Real for real ``s``; accepts complex scalars or arrays.
    """
    a_s2 = p.a_s**2
    a_d2 = p.a_d**2
    nu = p.nu
    s = np.asarray(s, dtype=complex) if np.ndim(s) else complex(s)
    if j == 1:
        num = (a_d2 - a_s2) * (s - 1.0) - nu * a_s2
        den = 2.0 * (a_d2 - 1.0) * p.beta2 ** ((1.0 - s) / 2.0) * p.beta1 ** (s / 2.0)
    elif j == 2:
        num = (a_d2 - a_s2) * (s - 1.0) - nu * (a_d2 - 2.0 * a_s2)
        den = 2.0 * (a_s2 - 1.0) * p.beta1 ** ((1.0 - s) / 2.0) * p.beta2 ** (s / 2.0)
    else:
        raise ValueError(f"component index j must be 1 or 2, got {j}")
    return num / den


def kernel_g(j: int, s, p: DerivedParams):
    """Diagonal kernel symbol ``G_j(s)``, j in {1, 2}.

    ``G_j(s) = b_j(s) * Gamma(1 - s/2) Gamma((s - nu)/2)
               / [Gamma((s + 1 - nu)/2) Gamma((3 - s)/2)]``

    Satisfies the reflection symmetry G_j(conj(s)) = conj(G_j(s)) and grows
    like ``+-i lam_j beta**(+-s/2)`` far up/down the inversion strip.  Has a
    pole at s = nu, which collocation arguments never hit.
    """
    nu = p.nu
    b = coeff_b(j, s, p)
    s = np.asarray(s, dtype=complex) if np.ndim(s) else complex(s)
    num = complex_gamma(1.0 - s / 2.0) * complex_gamma((s - nu) / 2.0)
    den = complex_gamma((s + 1.0 - nu) / 2.0) * complex_gamma((3.0 - s) / 2.0)
    return b * num / den


def rhs_f(x, sigma: float):
    """Forcing function ``f(x) = 4*pi*i / (x e^{i pi sigma/2} + e^{-i pi sigma/2})``.

    Bounded between 2*pi and 4*pi in modulus for x in [0, 1] and small sigma.
    """
    ph = np.exp(1j * np.pi * sigma / 2.0)
    out = 4j * np.pi / (np.asarray(x) * ph + 1.0 / ph)
    if np.ndim(x) == 0:
        return complex(out)
    return out


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
    x : float or array_like
        Collocation points in (0, 1].
    delta : float
        Nonzero oscillation exponent.

    Returns
    -------
    complex for scalar ``x``, else ndarray of complex with the shape of x.
    Each array entry equals the scalar result for that x bitwise.

    Raises
    ------
    ValueError
        If any x is outside (0, 1] (NaN included) or delta == 0.
    """
    # a scalar runs as a length-1 array so that it takes the same ufunc
    # loops, and hence the same roundings, as an array entry
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((xa > 0.0) & (xa <= 1.0)):
        raise ValueError(f"mellin_m defined for x in (0, 1], got {x}")
    if delta == 0.0:
        raise ValueError("mellin_m requires a nonzero oscillation exponent")
    coeffs = _CVZ_WEIGHTS / (1j * delta - _CVZ_K)
    acc = np.full(xa.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * xa + c
    head = np.pi * 1j * np.exp(1j * delta * np.log(xa)) / math.sinh(np.pi * delta)
    out = head + acc
    if np.ndim(x) == 0:
        return complex(out[0])
    return out
