"""Collocation discretization and solution of the boundary integral system.

The four coupled integral equations on (0, 1) are discretized on a uniform
grid ``x_k = k/N`` with piecewise-constant densities carrying the oscillation
exponents ``x**(i delta)``.  Collocating at the right endpoints of the cells
gives a ``4N x 4N`` complex block system (rows are equations, columns
unknown densities):

    [ D2   0    R+   S- ] [ F1^+]   [ r2 ]
    [ 0    D1   S+   R- ] [ F1^-] = [ r1 ]
    [ R+   S-   D3   0  ] [ F2^-]   [ r3 ]
    [ S+   R-   0    D4 ] [ F2^+]   [ r4 ]

where S(delta) carries the fixed-singularity kernel in its first column and
R(delta) is the regular complementary block; superscripts -/+ mark the two
exponent families.  Only ``delta1^-`` and ``delta1^+`` appear: through the
pairing ``delta2^- = delta1^+``, ``delta2^+ = delta1^-`` both density stacks
carry the exponents ``[delta1^+; delta1^-]``, so both coupling blocks are
one matrix K and ``A = [[D_a, K], [K, D_b]]`` with diagonal ``D_a``, ``D_b``.
This is the "+" sign variant of the formulation and the only one solved.
The "-" variant negates the diagonal blocks and the forcing,
``A_- = -J A J`` and ``r_- = -r`` with ``J = diag(I, -I)``.
Component m = 1 forces only the first half of the rows (``J r = r``) and
m = 2 only the second (``J r = -r``), so the "-" densities are ``J`` times
the "+" ones for m = 1 and ``-J`` times them for m = 2; the "-" boundary
values follow from the "+" ones in :func:`gradedload.fields.constants_c`.
The system is solved by eliminating ``D_a`` and factorizing the
``2N x 2N`` Schur complement once for both load components; the dense
``4N x 4N`` matrix is never formed.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ConfigError, SingularMatrixError
from .kernels import coeff_b, gamma_factors, mellin_m, rhs_f
from .params import DerivedParams, MaterialConfig, derive_params, shown

__all__ = [
    "Discretization",
    "SIESolution",
    "build_grid",
    "step_weights",
    "singular_block",
    "regular_block",
    "BlockSystem",
    "block_system",
    "assemble_rhs",
    "block_solve",
    "solve_system",
]

# smallest |entry| of D_a and |pivot| of the Schur complement accepted
_PIVOT_MIN = 1e-300


def step_weights(nodes: np.ndarray, delta: float) -> np.ndarray:
    """Cell weights ``w_n = (x_n^{i d + 1} - x_{n-1}^{i d + 1})/(i d + 1)``.

    ``nodes`` holds x_0..x_N; the returned array has one weight per cell,
    n = 1..N.  The x_0 = 0 endpoint contributes exactly zero.
    """
    power = 1j * delta + 1.0
    lifted = np.zeros(len(nodes), dtype=complex)
    lifted[1:] = np.exp(power * np.log(nodes[1:]))
    return (lifted[1:] - lifted[:-1]) / power


@dataclass(frozen=True)
class Discretization:
    """Uniform grid with the per-family quadrature data.

    ``nodes`` are x_0..x_N.  ``colloc`` holds the collocation points
    x_1..x_N and ``left`` the points x_0..x_{N-1} at which the kernels take
    each cell; every block, the forcing and the boundary functionals read
    them from here.  The weight and kernel-head vectors are indexed by cell
    (length N).  ``w_plus``/``m_plus`` belong to the exponent delta1^+ of
    the first N rows of both density stacks, ``w_minus``/``m_minus`` to
    delta1^- of the last N.
    """

    n: int
    nodes: np.ndarray
    colloc: np.ndarray
    left: np.ndarray
    w_minus: np.ndarray
    w_plus: np.ndarray
    m_minus: np.ndarray
    m_plus: np.ndarray


def build_grid(n: int, p: DerivedParams) -> Discretization:
    """Build the uniform grid and precompute weights and kernel heads.

    Parameters
    ----------
    n : int
        Number of cells, an integer (``operator.index``) n >= 2.
    p : DerivedParams

    Returns
    -------
    Discretization
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ConfigError(f"number of cells must be an integer, got {shown(n)}") from None
    if n < 2:
        raise ConfigError(f"need at least 2 cells, got n = {shown(n)}")
    nodes = np.arange(n + 1, dtype=float) / n
    colloc = nodes[1:]
    w_minus = step_weights(nodes, p.delta1_minus)
    w_plus = step_weights(nodes, p.delta1_plus)
    m_minus = mellin_m(colloc, p.delta1_minus)
    m_plus = mellin_m(colloc, p.delta1_plus)
    return Discretization(
        n=n, nodes=nodes, colloc=colloc, left=nodes[:-1],
        w_minus=w_minus, w_plus=w_plus, m_minus=m_minus, m_plus=m_plus,
    )


def singular_block(
    d: Discretization, weights: np.ndarray, heads: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Block S(delta): kernel 1/(y + x) with the fixed singularity at 0.

    Entries n >= 2 are w_n/(x_{n-1} + x_k); the first column carries the
    exact kernel head M(x_k, delta) minus the left-endpoint sum it replaces,
    so that each row sums to M(x_k, delta).  Written into ``out`` if given.
    """
    block = np.divide(weights[None, :], d.left[None, :] + d.colloc[:, None], out=out)
    block[:, 0] = heads - block[:, 1:].sum(axis=1)
    return block


def regular_block(
    d: Discretization, weights: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Block R(delta): regular kernel 1/(1 + y x), written into ``out`` if given."""
    return np.divide(weights[None, :], 1.0 + d.left[None, :] * d.colloc[:, None], out=out)


@dataclass(frozen=True)
class BlockSystem:
    """The collocation matrix ``A = [[D_a, K], [K, D_b]]`` in blocks.

    ``diag_a`` = (D2, D1) and ``diag_b`` = (D3, D4) hold the diagonals and
    ``k`` = [[R+, S-], [S+, R-]] is the coupling block of both block rows.
    The dense matrix itself is never formed.
    """

    diag_a: np.ndarray
    diag_b: np.ndarray
    k: np.ndarray

    def apply(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Product ``A @ [u; v]`` for column stacks u and v."""
        return (
            self.diag_a[:, None] * u + self.k @ v,
            self.k @ u + self.diag_b[:, None] * v,
        )


def block_system(d: Discretization, p: DerivedParams) -> BlockSystem:
    """Collocation blocks of the system (see the module docstring).

    The arguments of ``diag_b`` are those of ``diag_a`` with their halves
    swapped, so the gamma factors of both come from one
    :func:`~gradedload.kernels.gamma_factors` call; the four blocks of K are
    written in place into one array.
    """
    n = d.n
    log_xk = np.log(d.colloc)
    arg_minus = p.sigma - 1j / np.pi * log_xk
    arg_plus = p.sigma + 1j / np.pi * log_xk
    args_a = np.concatenate([arg_plus, arg_minus])
    args_b = np.concatenate([arg_minus, arg_plus])
    osc = np.concatenate([
        np.exp(1j * p.delta1_plus * log_xk), np.exp(1j * p.delta1_minus * log_xk)
    ])
    scale = 2j * np.pi
    # as nu -> 0 a gamma factor overflows or meets its pole; block_solve's
    # divisor gate reports the NaN or inf this leaves as a typed error
    with np.errstate(all="ignore"):
        num, den = gamma_factors(args_a, p.nu)
        diag_a = scale * osc / (coeff_b(2, args_a, p) * num / den)
        diag_b = scale * osc / (coeff_b(1, args_b, p) * np.roll(num, n) / np.roll(den, n))
    k = np.empty((2 * n, 2 * n), dtype=complex)
    regular_block(d, d.w_plus, out=k[:n, :n])
    singular_block(d, d.w_minus, d.m_minus, out=k[:n, n:])
    singular_block(d, d.w_plus, d.m_plus, out=k[n:, :n])
    regular_block(d, d.w_minus, out=k[n:, n:])
    return BlockSystem(diag_a=diag_a, diag_b=diag_b, k=k)


def assemble_rhs(d: Discretization, p: DerivedParams) -> tuple[np.ndarray, np.ndarray]:
    """Forcing of both load components as the stacks ``block_solve`` takes.

    Returns ``rhs_a = [r2; r1]`` and ``rhs_b = [r3; r4]``, each of shape
    ``(2N, 2)`` with column m - 1 for load component m.  Component m forces
    only its own two equation groups, m = 1 those of ``rhs_a`` and m = 2
    those of ``rhs_b``: rows of the first family (r1, r3) get ``-f(x_k)``
    and rows of the second family (r2, r4) ``conj(f(x_k))``.
    """
    f = rhs_f(d.colloc, p.sigma)
    zero = np.zeros(2 * d.n, dtype=complex)
    return (
        np.stack([np.concatenate([np.conj(f), -f]), zero], axis=1),
        np.stack([zero, np.concatenate([-f, np.conj(f)])], axis=1),
    )


def _require_divisors(block: str, what: str, values: np.ndarray) -> None:
    """Raise unless every |value| is finite and at least ``_PIVOT_MIN``.

    Names the first non-finite value, or else the smallest one.
    """
    mag = np.abs(values)
    k = int(np.argmin(np.where(np.isfinite(mag), mag, -1.0)))
    if not (np.isfinite(mag[k]) and mag[k] >= _PIVOT_MIN):
        raise SingularMatrixError(
            f"{block}: |{what} {k}| = {mag[k]:.3e}, need finite and >= {_PIVOT_MIN:.0e}"
        )


def block_solve(
    bs: BlockSystem, rhs_a: np.ndarray, rhs_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``A [u; v] = [rhs_a; rhs_b]`` by elimination.

    Eliminates the diagonal ``D_a``, factorizes the Schur complement
    ``S = D_b - K D_a^-1 K`` once (dense LU with partial pivoting), and
    recovers ``u = D_a^-1 (rhs_a - K v)``.  One step of iterative
    refinement with the same factors follows.  ``rhs_a`` and ``rhs_b`` may
    hold several right-hand sides as columns.

    Raises
    ------
    SingularMatrixError
        If an entry of ``D_a`` or a pivot of S is zero or not finite, or
        the refined solution is not finite.
    """
    da = bs.diag_a
    _require_divisors("diagonal block D_a", "entry", da)
    k = bs.k
    schur = -(k @ (k / da[:, None]))
    schur[np.diag_indices_from(schur)] += bs.diag_b
    with warnings.catch_warnings():
        # an exactly zero pivot is reported below as a typed error
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        factors = sla.lu_factor(schur, check_finite=False)
    _require_divisors("Schur complement S", "pivot", np.diagonal(factors[0]))

    def eliminate(ra, rb):
        v = sla.lu_solve(factors, rb - k @ (ra / da[:, None]), check_finite=False)
        return (ra - k @ v) / da[:, None], v

    u, v = eliminate(rhs_a, rhs_b)
    au, av = bs.apply(u, v)
    du, dv = eliminate(rhs_a - au, rhs_b - av)
    u = u + du
    v = v + dv
    for name, part in (("u", u), ("v", v)):
        bad = int(np.count_nonzero(~np.isfinite(part)))
        if bad:
            raise SingularMatrixError(
                f"refined solution {name}: {bad} non-finite entries, need all finite"
            )
    return u, v


@dataclass(frozen=True)
class SIESolution:
    """Solution of the collocation system for both load components.

    ``f1`` and ``f2`` are the "+" variant's density stacks
    ``[F1^+; F1^-]`` and ``[F2^-; F2^+]`` of shape ``(2N, 2)``: the
    ``u`` and ``v`` of :func:`block_solve`, exponent delta1^+ in the first
    N rows and delta1^- in the last N, column m - 1 for load component m.
    ``residuals`` maps m in {1, 2} to the relative infinity-norm residual
    of its solve.  The "-" variant is not stored: its densities are ``+-J``
    times these (see the module docstring), with equal residuals.
    """

    params: DerivedParams
    disc: Discretization
    f1: np.ndarray
    f2: np.ndarray
    residuals: dict


def solve_system(config: MaterialConfig, n: int = 100) -> SIESolution:
    """Assemble and solve the collocation system end to end.

    Both load components are solved at once (see :func:`block_solve`), and
    each residual is measured against the system.

    Returns
    -------
    SIESolution
    """
    p = derive_params(config)
    d = build_grid(n, p)
    bs = block_system(d, p)
    rhs_a, rhs_b = assemble_rhs(d, p)
    u, v = block_solve(bs, rhs_a, rhs_b)
    au, av = bs.apply(u, v)
    res = np.maximum(
        np.abs(au - rhs_a).max(axis=0), np.abs(av - rhs_b).max(axis=0)
    ) / np.maximum(np.abs(rhs_a).max(axis=0), np.abs(rhs_b).max(axis=0))
    residuals = {m: float(res[m - 1]) for m in (1, 2)}
    return SIESolution(params=p, disc=d, f1=u, f2=v, residuals=residuals)
