"""Grid construction, matrix structure, forcing, and the linear solve."""

import operator
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

import gradedload.system as system
from conftest import dense_matrix, solver_order
from gradedload import ConfigError, MaterialConfig, SingularMatrixError, solve_case
from gradedload.kernels import kernel_g, mellin_m, rhs_f
from gradedload.params import derive_params
from gradedload.system import (
    assemble_rhs,
    block_solve,
    block_system,
    build_grid,
    solve_system,
    step_weights,
)


@pytest.fixture(scope="module")
def p01():
    return derive_params(MaterialConfig())


@pytest.fixture(scope="module")
def disc16(p01):
    return build_grid(16, p01)


# ---------------------------------------------------------------- grid


def test_nodes_small(p01):
    d = build_grid(4, p01)
    # collocation at the right and kernel at the left end of each cell
    assert np.array_equal(d.colloc, np.array([0.25, 0.5, 0.75, 1.0]))
    assert np.array_equal(d.left, np.array([0.0, 0.25, 0.5, 0.75]))


def test_nodes_default(p01):
    d = build_grid(100, p01)
    assert d.colloc[49] == 0.5 and d.left[50] == 0.5
    assert d.left[0] == 0.0 and d.colloc[99] == 1.0
    assert len(d.w) == len(d.heads) == 200


def test_degenerate_grid_rejected(p01, monkeypatch):
    for n in (1, 0, -3):
        with pytest.raises(ConfigError):
            build_grid(n, p01)
    # a non-integer n would build nodes past 1, so it is refused before any
    # node is built, on every entry that reaches the grid
    for n in (100.5, 100.0, "100"):
        with pytest.raises(ConfigError, match="number of cells must be an integer"):
            build_grid(n, p01)
    with pytest.raises(ConfigError, match="got 100.5"):
        solve_case(MaterialConfig(), n=100.5)
    # an int too long to print (Python >= 3.11) is shown by its type
    with pytest.raises(ConfigError, match="got n = an unprintable int$"):
        build_grid(-(10**5000), p01)
    with pytest.raises(ConfigError, match="integer, got an unprintable list$"):
        solve_case(MaterialConfig(), n=[10**5000])
    assert build_grid(np.int64(4), p01).n == 4
    # a size past the cap is refused before any array is built, so it never
    # reaches numpy's untyped size errors.  The cap admits n = 1600, the
    # largest size the convergence studies use
    assert system.MAX_CELLS >= 1600
    monkeypatch.setattr(system, "step_weights", lambda *args: pytest.fail("grid built"))
    for n in (10**5000, 2**62, system.MAX_CELLS + 1, "abc", -5):
        with pytest.raises(ConfigError, match="^number of cells must"):
            solve_case(MaterialConfig(), n=n)


def test_weights_telescope(p01):
    nodes = np.arange(33.0) / 32.0
    for delta in (p01.delta1_minus, p01.delta1_plus):
        w = step_weights(nodes, delta)
        total = w.sum()
        assert total == pytest.approx(1.0 / (1j * delta + 1.0), rel=1e-13)
        # first cell runs from the endpoint where the lifted power vanishes
        power = 1j * delta + 1.0
        w1 = np.exp(power * np.log(nodes[1])) / power
        assert w[0] == pytest.approx(w1, rel=1e-14)


# ---------------------------------------------------------------- matrix


def _dense(blocks):
    """The 4N x 4N matrix ``[[D_a, K], [K, D_b]]`` in the solver's order,
    from the ``(diag_a, diag_b, k)`` of :func:`block_system`."""
    diag_a, diag_b, k = blocks
    return np.block([[np.diag(diag_a), k], [k, np.diag(diag_b)]])


def _dense_blocks(blocks):
    """The N x N blocks of ``(diag_a, diag_b, k)`` in the paper's layout,
    by (row, column)."""
    n = len(blocks[0]) // 2
    order = solver_order(n)
    a = _dense(blocks)[np.ix_(order, order)]
    return {
        (bi, bj): a[bi * n:(bi + 1) * n, bj * n:(bj + 1) * n]
        for bi in range(4) for bj in range(4)
    }


def test_matrix_block_structure(disc16, p01):
    n = disc16.n
    system_blocks = block_system(disc16, p01)
    diag_a, diag_b, k = system_blocks
    assert diag_a.shape == diag_b.shape == (2 * n,)
    assert k.shape == (2 * n, 2 * n)
    # the paper's layout, mapped to the solver's order, is exactly
    # [[D_a, K], [K, D_b]]: one coupling block serves both block rows
    order = solver_order(n)
    dense = dense_matrix(disc16, p01, 1)
    assert np.array_equal(dense[np.ix_(order, order)], _dense(system_blocks))
    blocks = _dense_blocks(system_blocks)
    zero = np.zeros((n, n), dtype=complex)
    for ij in ((0, 1), (1, 0), (2, 3), (3, 2)):
        assert np.array_equal(blocks[ij], zero)
    # only four distinct off-diagonal blocks
    assert np.array_equal(blocks[(0, 2)], blocks[(3, 1)])
    assert np.array_equal(blocks[(0, 3)], blocks[(3, 0)])
    assert np.array_equal(blocks[(1, 2)], blocks[(2, 1)])
    assert np.array_equal(blocks[(1, 3)], blocks[(2, 0)])


def test_matrix_sign_flip(disc16, p01):
    # the dense "-" matrix flips the "+" one with J = diag(I, -I) as
    # A_- = -J A_+ J
    n = disc16.n
    a_plus = dense_matrix(disc16, p01, 1)
    a_minus = dense_matrix(disc16, p01, -1)
    j = np.concatenate([np.ones(2 * n), -np.ones(2 * n)])
    assert np.array_equal(a_minus, -(j[:, None] * a_plus * j[None, :]))


def test_diagonal_entry_independent(p01):
    # re-evaluate one diagonal entry outside the assembler
    n = 50
    d = build_grid(n, p01)
    diag_a, diag_b, _ = block_system(d, p01)
    # the four diagonal blocks D1..D4 in the paper's order
    diag = np.concatenate([diag_a, diag_b])[solver_order(n)]
    k = 25  # 1-based collocation index
    x = d.colloc[k - 1]
    expected = (
        2j * np.pi * np.exp(1j * p01.delta1_minus * np.log(x))
        / kernel_g(p01.sigma - 1j / np.pi * np.log(x), p01)[1]
    )
    assert diag[k - 1] == pytest.approx(expected, rel=1e-13)
    # third block diagonal pairs the other family with the first component
    expected3 = (
        2j * np.pi * np.exp(1j * p01.delta1_plus * np.log(x))
        / kernel_g(p01.sigma - 1j / np.pi * np.log(x), p01)[0]
    )
    assert diag[2 * n + k - 1] == pytest.approx(expected3, rel=1e-13)


def test_singular_block_row_sums(disc16, p01):
    # the head column restores the exact row sum M(x_k, delta)
    blocks = _dense_blocks(block_system(disc16, p01))
    n = disc16.n
    row_sums_13 = blocks[(0, 2)].sum(axis=1)
    assert np.allclose(row_sums_13, disc16.heads[:n], rtol=1e-12, atol=1e-12)
    row_sums_24 = blocks[(1, 3)].sum(axis=1)
    assert np.allclose(row_sums_24, disc16.heads[n:], rtol=1e-12, atol=1e-12)
    for k in (1, n):
        assert row_sums_13[k - 1] == pytest.approx(
            mellin_m(disc16.colloc[k - 1], p01.delta1_plus), rel=1e-12
        )


# ---------------------------------------------------------------- rhs


def test_rhs_structure(disc16, p01):
    # one column per load component; component 1 forces the rows of
    # rhs_a, component 2 those of rhs_b
    n = disc16.n
    f = rhs_f(disc16.colloc, p01.sigma)
    rhs_a, rhs_b = assemble_rhs(disc16, p01)
    assert rhs_a.shape == rhs_b.shape == (2 * n, 2)
    # the forcing r1..r4 in the paper's order
    rhs = np.concatenate([rhs_a, rhs_b])[solver_order(n)]
    r = rhs[:, 0]
    assert np.array_equal(r[0:n], -f)
    assert np.array_equal(r[n:2 * n], np.conj(-r[0:n]))
    assert np.all(rhs[2 * n:, 0] == 0.0)
    assert np.all(rhs[:2 * n, 1] == 0.0)
    assert np.array_equal(rhs[2 * n:3 * n, 1], -f)
    assert np.array_equal(rhs[3 * n:, 1], np.conj(f))


# ---------------------------------------------------------------- solve


def _split(a):
    """Blocks of a dense 2k x 2k matrix ``[[D_a, K], [K, D_b]]`` with
    diagonal k x k blocks D_a, D_b and one coupling block K."""
    a = np.asarray(a, dtype=complex)
    k = len(a) // 2
    assert np.array_equal(a[:k, k:], a[k:, :k])
    return np.diag(a[:k, :k]), np.diag(a[k:, k:]), a[:k, k:]


def test_lu_identity():
    blocks = _split(np.eye(6))
    rhs = np.arange(6.0) + 1j
    u, v, _, _ = block_solve(*blocks, rhs[:3, None], rhs[3:, None])
    assert np.array_equal(np.concatenate([u, v])[:, 0], rhs)


def test_lu_hand_inverted_case():
    # det = 8 + 4i, so [u; v] = [4; -2i] / (8 + 4i)
    a = np.array([[1.0 + 1.0j, 2.0j], [2.0j, 4.0]])
    blocks = _split(a)
    u, v, _, _ = block_solve(*blocks, np.array([[1.0 + 0j]]), np.array([[0.0 + 0j]]))
    assert u[0, 0] == pytest.approx(0.4 - 0.2j, abs=1e-14)
    assert v[0, 0] == pytest.approx(-0.1 - 0.2j, abs=1e-14)


def test_lu_singular_matrix():
    blocks = _split(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError, match="Schur complement"):
        block_solve(*blocks, np.array([[1.0 + 0j]]), np.array([[0.0 + 0j]]))
    # a zero entry of the eliminated diagonal is caught before dividing
    blocks = _split(np.array([[0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError, match="D_a"):
        block_solve(*blocks, np.array([[1.0 + 0j]]), np.array([[0.0 + 0j]]))
    # whatever slips past both gates is caught on the refined solution
    blocks = _split(np.eye(2))
    with np.errstate(invalid="ignore"), pytest.raises(SingularMatrixError, match="non-finite"):
        block_solve(*blocks, np.array([[np.inf + 0j]]), np.array([[0.0 + 0j]]))


def test_lu_multiple_rhs():
    blocks = _split(np.array([[2.0, 0.0], [0.0, 4.0]]))
    u, v, _, _ = block_solve(*blocks, np.array([[2.0, 0.0]]), np.array([[4.0, 8.0]]))
    assert np.allclose(u, [[1.0, 0.0]])
    assert np.allclose(v, [[1.0, 2.0]])


def test_singular_kernel_node_raises(monkeypatch):
    # the symbol G_2 of D_a at one node at a pole of its numerator (times
    # inf) or with an overflowing denominator (over inf) leaves a NaN or
    # infinite diagonal entry; the solve names the block, the entry and the
    # bound instead of returning NaN or inf
    original = system.kernel_g

    def faulty(op):
        def symbols(s, p):
            g1, g2 = original(s, p)
            g2 = np.array(g2)
            g2[3] = op(g2[3], np.inf)
            return g1, g2
        return symbols

    for op, shown in ((operator.mul, "nan"), (operator.truediv, "inf")):
        monkeypatch.setattr(system, "kernel_g", faulty(op))
        with pytest.raises(
            SingularMatrixError, match=rf"D_a: \|entry 3\| = {shown}, need finite and >= 1e-300"
        ):
            solve_system(MaterialConfig(), n=16)


def test_block_solve_returns_its_residual(disc16, p01, monkeypatch):
    # the (ra, rb) that block_solve returns is rhs - A [u; v] of the
    # solution it returns, A the dense "+" matrix built independently of
    # block_system, and solve_system reports the max-norm of it relative to
    # the forcing.  A back-solve that overshoots by 1e-3 leaves the passes
    # residuals of about 1e-3 and 1e-6, so the first pass's residual, or
    # none, would show in place of the second's
    n = disc16.n
    order = solver_order(n)
    a = dense_matrix(disc16, p01, 1)[np.ix_(order, order)]
    rhs_a, rhs_b = assemble_rhs(disc16, p01)
    rhs = np.vstack([rhs_a, rhs_b])
    exact = system.zgetrs

    def overshooting(lu, piv, b):
        x, info = exact(lu, piv, b)
        return x * (1.0 + 1e-3), info

    for sloppy in (False, True):
        if sloppy:
            monkeypatch.setattr(system, "zgetrs", overshooting)
        u, v, ra, rb = block_solve(*block_system(disc16, p01), rhs_a, rhs_b)
        residual = rhs - a @ np.vstack([u, v])
        assert np.abs(np.vstack([ra, rb]) - residual).max() <= 1e-13 * np.abs(rhs).max()
        got = solve_system(MaterialConfig(), n).residuals
        res = np.abs(np.vstack([ra, rb])).max(axis=0) / np.abs(rhs).max(axis=0)
        assert got == {1: res[0], 2: res[1]}
    assert 1e-8 < min(got.values()) and max(got.values()) < 1e-4


def test_dense_oracle_both_variants():
    # both sign variants solved densely with scipy, independent of the
    # block elimination: the stored "+" stacks solve A_+, and J maps them
    # onto the solution of A_- (J for m = 1, -J for m = 2)
    for n in (16, 50):
        sol = solve_system(MaterialConfig(), n=n)
        d, p = sol.disc, sol.params
        order = solver_order(n)
        j = np.concatenate([np.ones(2 * n), -np.ones(2 * n)])
        rhs = np.concatenate(assemble_rhs(d, p))[order]
        for sign in (1, -1):
            a = dense_matrix(d, p, sign)
            for m, flip in ((1, 1.0), (2, -1.0)):
                # the "-" variant negates the forcing as well; the dense
                # solve runs in the paper's layout and is mapped back
                ref = sla.solve(a, sign * rhs[:, m - 1])[order]
                got = np.concatenate([sol.f1[:, m - 1], sol.f2[:, m - 1]])
                if sign == -1:
                    got = flip * j * got
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_solve_system_residuals(case50):
    sol = case50.solution
    assert set(sol.residuals) == {1, 2}
    for value in sol.residuals.values():
        assert value <= 1e-10
    # exponents delta1^+ then delta1^- in the rows of both stacks, one
    # column per load component
    assert sol.f1.shape == (100, 2)
    assert sol.f2.shape == (100, 2)


def test_solve_peak_memory():
    # the solve writes the Schur complement in column blocks and factors it
    # in place, so besides K and S it holds only one block-wide temporary;
    # a full product, its negated copy or a Fortran copy of S would each
    # add one more 2n x 2n complex matrix
    n = 200
    tracemalloc.start()
    try:
        solve_system(MaterialConfig(), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (2 * n) ** 2 * np.dtype(complex).itemsize


def test_determinant_drift_with_n(case50, case100):
    # slow monotone convergence: doubling the grid moves the determinant
    # by the expected small amount
    d50 = case50.constants.delta_plus
    d100 = case100.constants.delta_plus
    assert abs(d100 - d50) <= 0.05
