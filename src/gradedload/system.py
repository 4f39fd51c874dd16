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
one matrix K and ``A = [[D_a, K], [K, D_b]]`` with diagonal ``D_a``, ``D_b``,
which divide by the symbols ``G_2`` and ``G_1`` of one
:func:`~gradedload.kernels.kernel_g` call; :func:`block_system` returns the
three arrays ``(diag_a, diag_b, k)``.  The grid stacks the cell
weights ``w`` and the kernel heads M(x_k, delta) in the same order, and
``K = K_X diag(w)`` plus two head columns: K_X is one real grid kernel,
regular 1/(1 + y x) on its diagonal quadrants and singular 1/(y + x) off
them, and the head columns make each row of S(delta) sum to M(x_k, delta).
This is the "+" sign variant of the formulation and the only one solved.
The "-" variant negates the diagonal blocks and the forcing,
``A_- = -J A J`` and ``r_- = -r`` with ``J = diag(I, -I)``.
Component m = 1 forces only the first half of the rows (``J r = r``) and
m = 2 only the second (``J r = -r``), so the "-" densities are ``J`` times
the "+" ones for m = 1 and ``-J`` times them for m = 2; the "-" boundary
values follow from the "+" ones in :func:`gradedload.fields.constants_c`.
The system is solved by eliminating ``D_a`` and factorizing the
``2N x 2N`` Schur complement once for both load components; the dense
``4N x 4N`` matrix is never formed.  The Schur complement is written in
column blocks into one Fortran-ordered array and factored there in place,
so a solve holds K, S and one block-wide temporary; the solve is iterative
refinement from zero, one loop of two passes that returns its residual.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgetrf, zgetrs

from .errors import ConfigError, SingularMatrixError
from .kernels import kernel_g, mellin_m, rhs_f
from .params import DerivedParams, MaterialConfig, derive_params, shown

__all__ = [
    "Discretization",
    "SIESolution",
    "cell_count",
    "build_grid",
    "step_weights",
    "block_system",
    "assemble_rhs",
    "block_solve",
    "solve_system",
]

# smallest |entry| of D_a and |pivot| of the Schur complement accepted
_PIVOT_MIN = 1e-300
# column blocks in which block_solve writes the Schur complement, holding one
# block-wide temporary at a time; each product re-packs K, so 8 blocks cost
# 2.5% in time at n = 400, and 2 save only half the memory
_SCHUR_PARTS = 4
# largest relative solve residual of a reported case, that of acceptance
# test A9; the study domain stays below 3e-13 at n = 100
_RESIDUAL_MAX = 1e-10
# most cells a grid may have; tracemalloc reads a solve_case peak of about
# 146 n**2 bytes (23.4 and 92.7 MB at n = 400 and 800), so one at the cap
# takes about 0.6 GB
MAX_CELLS = 2048


def cell_count(n) -> int:
    """``n`` as a number of cells, the one rule of every entry that takes one:
    an integer (``operator.index``) with 2 <= n <= MAX_CELLS, else a ConfigError."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ConfigError(f"number of cells must be an integer, got {shown(n)}") from None
    if not 2 <= n <= MAX_CELLS:
        raise ConfigError(f"number of cells must lie in [2, {MAX_CELLS}], got n = {shown(n)}")
    return n


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

    The grid keeps two point sets: ``colloc`` holds the collocation points
    x_1..x_N and ``left`` the points x_0..x_{N-1} at which the kernels take
    each cell; every block, the forcing and the boundary functionals read
    them from here.  The cell weights ``w`` and the kernel heads
    ``heads`` = M(x_k, delta), indexed by cell, are stacked
    ``[delta1^+; delta1^-]`` (length 2N), the order of both density stacks.
    The coupling block is K = K_X diag(w) plus two head columns.
    """

    n: int
    colloc: np.ndarray
    left: np.ndarray
    w: np.ndarray
    heads: np.ndarray


def build_grid(n: int, p: DerivedParams) -> Discretization:
    """Build the uniform grid and precompute weights and kernel heads.

    Parameters
    ----------
    n : int
        Number of cells, by the rule of :func:`cell_count`.
    p : DerivedParams

    Returns
    -------
    Discretization
    """
    n = cell_count(n)
    nodes = np.arange(n + 1, dtype=float) / n
    colloc = nodes[1:]
    deltas = (p.delta1_plus, p.delta1_minus)
    return Discretization(
        n=n, colloc=colloc, left=nodes[:-1],
        w=np.concatenate([step_weights(nodes, delta) for delta in deltas]),
        heads=np.concatenate([mellin_m(colloc, delta) for delta in deltas]),
    )


def block_system(d: Discretization, p: DerivedParams) -> tuple[np.ndarray, ...]:
    """Collocation blocks ``(diag_a, diag_b, k)``, as :func:`block_solve`
    takes them (see the module docstring).

    The arguments of ``diag_b`` are those of ``diag_a`` with their halves
    swapped, so both come from one :func:`~gradedload.kernels.kernel_g`
    call.  K is ``K_X diag(d.w)``, written in place quadrant by quadrant,
    with K_X taking each cell at its left point x_{n-1}.  The first column
    of each singular quadrant then carries the head M(x_k, delta) minus the
    sum it replaces.
    """
    n = d.n
    log_xk = np.log(d.colloc)
    arg_minus = p.sigma - 1j / np.pi * log_xk
    arg_plus = p.sigma + 1j / np.pi * log_xk
    args_a = np.concatenate([arg_plus, arg_minus])
    osc = np.concatenate([
        np.exp(1j * p.delta1_plus * log_xk), np.exp(1j * p.delta1_minus * log_xk)
    ])
    scale = 2j * np.pi
    # as nu -> 0 a gamma factor overflows or meets its pole; block_solve's
    # divisor gate reports the NaN or inf this leaves as a typed error
    with np.errstate(all="ignore"):
        g1, g2 = kernel_g(args_a, p)
        diag_a = scale * osc / g2
        diag_b = scale * osc / np.roll(g1, n)
    w_plus, w_minus = d.w[:n], d.w[n:]
    k = np.empty((2 * n, 2 * n), dtype=complex)
    # one real kernel at a time: both at once cost 2 MB of peak RSS at n = 400
    kernel = 1.0 + d.left[None, :] * d.colloc[:, None]  # regular, diagonal quadrants
    np.divide(w_plus, kernel, out=k[:n, :n])
    np.divide(w_minus, kernel, out=k[n:, n:])
    kernel = d.left[None, :] + d.colloc[:, None]  # singular, off them
    np.divide(w_minus, kernel, out=k[:n, n:])
    np.divide(w_plus, kernel, out=k[n:, :n])
    k[n:, 0] = d.heads[:n] - k[n:, 1:n].sum(axis=1)
    k[:n, n] = d.heads[n:] - k[:n, n + 1:].sum(axis=1)
    return diag_a, diag_b, k


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
    diag_a: np.ndarray, diag_b: np.ndarray, k: np.ndarray,
    rhs_a: np.ndarray, rhs_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve ``A [u; v] = [rhs_a; rhs_b]`` by iterative refinement from zero.

    ``A = [[D_a, K], [K, D_b]]`` comes in blocks, never formed densely:
    the diagonals ``diag_a`` = (D2, D1) and ``diag_b`` = (D3, D4), and the
    coupling block ``k`` = [[R+, S-], [S+, R-]] of both block rows.

    Eliminates the diagonal ``D_a`` and factorizes the Schur complement
    ``S = D_b - K D_a^-1 K`` once (LAPACK ``zgetrf``, dense LU with partial
    pivoting).  S is written into one Fortran-ordered array in
    ``_SCHUR_PARTS`` column blocks, ``S[:, J] = K (K[:, J] / -D_a)`` (the
    sign rides on the divisor, which is exact), and ``zgetrf`` factors it
    in place, so no full product, negated copy or Fortran copy of S is made.
    One loop of two passes with these factors follows: each solves for a
    step from the residual ``[ra; rb]`` so far (the forcing at first), adds
    it and ends with the residual ``[rhs_a; rhs_b] - A [u; v]`` of its
    solution.  Returns ``(u, v, ra, rb)``, the densities and that residual;
    ``rhs_a`` and ``rhs_b`` may hold several right-hand sides as columns.

    Raises
    ------
    SingularMatrixError
        If an entry of ``D_a`` or a pivot of S is zero or not finite, or
        the refined solution is not finite.
    """
    _require_divisors("diagonal block D_a", "entry", diag_a)
    size = len(diag_a)
    schur = np.empty((size, size), dtype=complex, order="F")
    step = -(-size // _SCHUR_PARTS)
    for start in range(0, size, step):
        cols = slice(start, start + step)
        np.matmul(k, k[:, cols] / -diag_a[:, None], out=schur[:, cols])
    schur[np.diag_indices_from(schur)] += diag_b
    # an exactly zero pivot shows only in zgetrf's info; the gate names it
    lu, piv, _ = zgetrf(schur, overwrite_a=True)
    _require_divisors("Schur complement S", "pivot", np.diagonal(lu))
    da, db = diag_a[:, None], diag_b[:, None]
    # -0.0 + x is x to the bit, signed zeros too (0.0 + -0.0 is +0.0)
    u = v = complex(-0.0, -0.0)
    ra, rb = rhs_a, rhs_b
    for _ in range(2):
        dv = zgetrs(lu, piv, rb - k @ (ra / da))[0]
        u = u + (ra - k @ dv) / da
        v = v + dv
        ra = rhs_a - (da * u + k @ v)
        rb = rhs_b - (k @ u + db * v)
    for name, part in (("u", u), ("v", v)):
        bad = int(np.count_nonzero(~np.isfinite(part)))
        if bad:
            raise SingularMatrixError(
                f"refined solution {name}: {bad} non-finite entries, need all finite"
            )
    return u, v, ra, rb


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
    each residual is the max-norm of the one the solve returns over that of
    its forcing.

    Returns
    -------
    SIESolution

    Raises
    ------
    SingularMatrixError
        If :func:`block_solve` does, or a load component's residual is not
        at most ``_RESIDUAL_MAX`` (a NaN residual included): at the ends of
        the domain (nu -> 0, nu_p -> 0.5, V/c_s -> 1) the solve loses its
        digits before any divisor gate trips.
    """
    p = derive_params(config)
    d = build_grid(n, p)
    diag_a, diag_b, k = block_system(d, p)
    rhs_a, rhs_b = assemble_rhs(d, p)
    u, v, ra, rb = block_solve(diag_a, diag_b, k, rhs_a, rhs_b)
    res = np.maximum(np.abs(ra).max(axis=0), np.abs(rb).max(axis=0)) / np.maximum(
        np.abs(rhs_a).max(axis=0), np.abs(rhs_b).max(axis=0)
    )
    residuals = {m: float(res[m - 1]) for m in (1, 2)}
    for m, r in residuals.items():
        if not r <= _RESIDUAL_MAX:
            raise SingularMatrixError(
                f"load component m = {m}: relative solve residual {r:.3e}, "
                f"need <= {_RESIDUAL_MAX:.0e}"
            )
    return SIESolution(params=p, disc=d, f1=u, f2=v, residuals=residuals)
