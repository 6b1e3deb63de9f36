import tracemalloc
from functools import partial

import numpy as np
import pytest

from casq import casci, spin
from casq.casci import dense_hamiltonian, dense_solve, solve_davidson
from casq.davidson import DavidsonNotConverged, davidson_lowest
from casq.detspace import enumerate_cas, occupied_orbitals
from casq.ingest import DavidsonOptions, IntegralSet
from casq.spin import project_spin, s_squared

from conftest import (make_model_integrals, make_random_integrals,
                      spin_filtered_energies)


def _matvec(H):
    """davidson_lowest's matvec for an explicit matrix: H @ block into out."""
    return lambda block, out: np.matmul(H, block, out=out)


def test_diagonal_matrix_lowest_root():
    # guess on the lowest diagonal entry, as the CI driver seeds it
    H = np.diag([3.0, 1.0, 2.0])
    start = np.zeros((3, 1))
    start[np.argmin(np.diag(H)), 0] = 1.0
    res = davidson_lowest(_matvec(H), np.diag(H), 1, start)
    assert res.converged
    assert res.energies[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(res.vectors[:, 0] @ np.array([0.0, 1.0, 0.0])) == \
        pytest.approx(1.0, abs=1e-10)


def test_diagonal_hamiltonian_through_solver():
    # one electron in three orbitals: H is exactly diag(h) + core
    ints = IntegralSet(h=np.diag([3.0, 1.0, 2.0]), g2=np.zeros((3,) * 4))
    space = enumerate_cas(1, 3, 1)
    states = solve_davidson(space, ints, 1)
    assert states[0].energy == pytest.approx(1.0, abs=1e-12)
    k = int(np.argmax(np.abs(states[0].coeffs)))
    assert occupied_orbitals(states[0].space.determinant(k).alpha) == (1,)


def test_diagonally_dominant_block():
    rng = np.random.default_rng(5)
    n, k = 300, 4
    a = rng.standard_normal((n, n)) * 0.1
    H = np.diag(np.linspace(0.0, 10.0, n)) + (a + a.T) / 2.0
    start = np.eye(n)[:, :k + 2]
    res = davidson_lowest(_matvec(H), np.diag(H).copy(), k, start,
                          tol=1e-9)
    ref = np.linalg.eigvalsh(H)[:k]
    assert np.allclose(res.energies, ref, atol=1e-9)
    # orthonormal converged block
    g = res.vectors.T @ res.vectors
    assert np.allclose(g, np.eye(k), atol=1e-9)


def test_nonconvergence_carries_diagnostics():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((200, 200))
    H = (a + a.T) / 2.0
    with pytest.raises(DavidsonNotConverged) as exc:
        davidson_lowest(_matvec(H), np.diag(H).copy(), 3,
                        np.eye(200)[:, :3], tol=1e-13, max_iter=3)
    res = exc.value.result
    assert res.iterations == 3
    assert res.residual_norms.shape == (3,)
    assert "did not converge" in str(exc.value)


def test_root_count_bounds():
    H = np.eye(4)
    with pytest.raises(ValueError, match="exceeds"):
        davidson_lowest(_matvec(H), np.diag(H), 5, np.eye(4))


def test_projected_cas_block_matches_spin_filtered_eigh():
    # CAS(3,4) M_S = 1/2 holds 24 determinants: 20 doublets and 4 quartet
    # components, some of them below the doublets asked for; Davidson
    # (guess_dim 16 < 24) and the dense solver alike return the doublets
    ints = make_random_integrals(4, 61)
    space = enumerate_cas(3, 4, 1)
    ref = spin_filtered_energies(ints, space, 2)
    k = 8
    for states in (dense_solve(space, ints, k),
                   solve_davidson(space, ints, k,
                                  DavidsonOptions(tol=1e-10, guess_dim=16))):
        assert np.allclose([s.energy for s in states], ref[:k], atol=1e-10)
        assert all(abs(s.s2_expect - 0.75) < 1e-12 for s in states)
    with pytest.raises(ValueError, match="only 20 roots"):
        dense_solve(space, ints, 21)


def test_start_block_of_higher_spin_is_topped_up():
    # a start block of pure quartet components projects to nothing: the
    # solver tops it up with projected unit vectors instead of giving up
    ints = make_random_integrals(4, 62)
    space = enumerate_cas(3, 4, 1)
    H = dense_hamiltonian(space, ints)
    ref = spin_filtered_energies(ints, space, 2)
    w, U = np.linalg.eigh(H)
    quartets = U[:, [abs(s_squared(space, u) - 3.75) < 1e-8 for u in U.T]]
    res = davidson_lowest(_matvec(H), np.diag(H).copy(), 3, quartets,
                          tol=1e-10, project=partial(project_spin, space))
    assert res.converged
    assert np.allclose(res.energies, ref[:3], atol=1e-10)


def _pspace_model(seed=7, n=300, p=40):
    """H whose lowest-diagonal p x p block is strongly coupled and whose
    other off-diagonals are weak, with the P space (sel, w, U) of that
    block as solve_davidson builds it."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * 0.01
    H = np.diag(np.linspace(0.0, 10.0, n)) + (a + a.T) / 2.0
    sel = np.argsort(np.diag(H), kind="stable")[:p]
    b = rng.standard_normal((p, p)) * 0.5
    H[np.ix_(sel, sel)] += (b + b.T) / 2.0 - np.diag(np.diag(b))
    w, U = np.linalg.eigh(H[np.ix_(sel, sel)])
    return H, sel, w, U


def test_pspace_preconditioner_saves_matvecs():
    H, sel, w, U = _pspace_model()
    k = 4
    start = np.zeros((H.shape[0], k + 3))
    start[sel] = U[:, :k + 3]
    runs = [davidson_lowest(_matvec(H), np.diag(H).copy(), k, start,
                            tol=1e-9, pspace=pspace)
            for pspace in (None, (sel, w, U))]
    ref = np.linalg.eigvalsh(H)[:k]
    for res in runs:
        assert res.converged
        assert np.allclose(res.energies, ref, atol=1e-9)
    jacobi, pspace = runs
    assert pspace.n_matvec < jacobi.n_matvec


def test_pspace_eigenvalue_at_a_ritz_value_is_clamped():
    # the first Ritz value of a unit-vector start is exactly its diagonal
    # entry; setting that entry (outside P) to a P eigenvalue makes the
    # P-space denominator w_j - theta exactly zero in the first correction
    H, sel, w, U = _pspace_model()
    i = int(np.setdiff1d(np.arange(H.shape[0]), sel)[0])
    H[i, i] = w[5]
    start = np.eye(H.shape[0], 1, -i)
    with np.errstate(divide="raise", invalid="raise"):
        res = davidson_lowest(_matvec(H), np.diag(H).copy(), 1, start,
                              tol=1e-9, pspace=(sel, w, U))
    assert res.converged
    assert np.all(np.isfinite(res.vectors))
    assert res.energies[0] == pytest.approx(np.linalg.eigvalsh(H)[0],
                                            abs=1e-9)


def test_thick_restarts_rotate_the_subspace_in_place():
    # 4 roots in a 48-column subspace need several thick restarts.  The
    # matvec writes into the columns of sigma V's buffer beside the new
    # block; they move back to a lower column only at a restart, which
    # davidson_lowest makes only when m + n_new > max_subspace
    rng = np.random.default_rng(3)
    n, k = 400, 4
    a = rng.standard_normal((n, n)) * 0.1
    H = np.diag(np.linspace(0.0, 10.0, n)) + (a + a.T) / 2.0
    outs = []                # (address, width) of each matvec's out

    def matvec(block, out):
        outs.append((out.ctypes.data, out.shape[1]))
        np.matmul(H, block, out=out)

    res = davidson_lowest(matvec, np.diag(H).copy(), k, np.eye(n)[:, :k + 2],
                          tol=1e-10)
    # (first column in sigma V's buffer, width); the start block is at 0
    blocks = [((at - outs[0][0]) // (8 * n), b) for at, b in outs]
    max_subspace = max(6 * k + 12, 48)
    restarts = [m1 for (m, b), (m1, _) in zip(blocks, blocks[1:])
                if m1 < m + b]
    assert restarts and all(m + b <= max_subspace for m, b in blocks)
    assert res.converged and res.n_matvec == sum(b for _, b in blocks)
    assert np.max(np.abs(res.energies - np.linalg.eigvalsh(H)[:k])) < 1e-10
    assert np.max(np.abs(res.vectors.T @ res.vectors - np.eye(k))) < 1e-12


def test_davidson_solve_holds_no_block_temporaries(monkeypatch):
    # CAS(9,9) M_S = 1/2, 12 roots, guess_dim 300.  Above the level before
    # the call, the solve may hold V and sigma V (width columns each), two
    # more columns (the diagonal and one column temporary), and matrices
    # that do not grow with N: the guess block's H and eigenvectors and
    # the Ritz problem's width x width ones.  Inside sigma it adds sigma's
    # workspace; outside sigma the residuals R, the projector's S+ image
    # and one row block of its S- image.  Forming X, sigma X or any other
    # N x 12 block on top of these breaks a bound.
    space = enumerate_cas(9, 9, 1)
    ints = make_model_integrals(9, seed=3)
    options = DavidsonOptions(guess_dim=300)
    N, roots = space.size, 12
    solve_davidson(space, ints, roots, options)     # the cached tables
    plan = casci._sigma_plan(space)
    workspace = ((2 * plan.n_pair + 2) * casci._chunk_rows(plan, 2.0)
                 * plan.n_col * 8)
    width = min(N, max(6 * roots + 12, 48))
    held = ((2 * width + 2) * N + 2 * options.guess_dim ** 2
            + 4 * width ** 2) * 8

    inner, before, during = casci.sigma_block, [], []

    def spy(*args, **kwargs):
        before.append(tracemalloc.get_traced_memory()[1])
        result = inner(*args, **kwargs)
        during.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return result

    monkeypatch.setattr(casci, "sigma_block", spy)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        solve_davidson(space, ints, roots, options)
        after = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert during
    assert max(during + [after]) - base <= held + workspace
    outside_sigma = (roots * (N + enumerate_cas(9, 9, 3).size) * 8
                     + spin.BLOCK_BYTES)
    assert max(before + [after]) - base <= held + outside_sigma
