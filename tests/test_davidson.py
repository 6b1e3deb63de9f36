import numpy as np
import pytest
from scipy.linalg import null_space

from casq.casci import dense_hamiltonian, dense_solve, solve_davidson
from casq.davidson import DavidsonNotConverged, davidson_lowest
from casq.detspace import enumerate_cas
from casq.ingest import DavidsonOptions, IntegralSet

from conftest import make_random_integrals


def test_diagonal_matrix_lowest_root():
    # guess on the lowest diagonal entry, as the CI driver seeds it
    H = np.diag([3.0, 1.0, 2.0])
    start = np.zeros((3, 1))
    start[np.argmin(np.diag(H)), 0] = 1.0
    res = davidson_lowest(lambda b: H @ b, np.diag(H), 1, start)
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
    assert states[0].space.determinant(k).alpha_list() == (1,)


def test_diagonally_dominant_block():
    rng = np.random.default_rng(5)
    n, k = 300, 4
    a = rng.standard_normal((n, n)) * 0.1
    H = np.diag(np.linspace(0.0, 10.0, n)) + (a + a.T) / 2.0
    start = np.eye(n)[:, :k + 2]
    res = davidson_lowest(lambda b: H @ b, np.diag(H).copy(), k, start,
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
        davidson_lowest(lambda b: H @ b, np.diag(H).copy(), 3,
                        np.eye(200)[:, :3], tol=1e-13, max_iter=3)
    res = exc.value.result
    assert res.iterations == 3
    assert res.residual_norms.shape == (3,)
    assert "did not converge" in str(exc.value)


def test_root_count_bounds():
    H = np.eye(4)
    with pytest.raises(ValueError, match="exceeds"):
        davidson_lowest(lambda b: H @ b, np.diag(H), 5, np.eye(4))


def _complement_eigvalsh(H, L):
    """Eigenvalues of H on the orthogonal complement of the columns of L."""
    Q = null_space(L.T)
    return np.linalg.eigvalsh(Q.T @ H @ Q)


def test_locked_random_matrix_matches_complement_eigh():
    # 40 random orthonormal locked vectors leave a 20-dimensional
    # complement, below the subspace cap of 48: the subspace must stop
    # at N - q, and the residuals must be measured on the complement
    # since the locked vectors are no eigenvectors of H
    rng = np.random.default_rng(7)
    n, q, k = 60, 40, 3
    a = rng.standard_normal((n, n))
    H = np.diag(np.linspace(0.0, 6.0, n)) + (a + a.T) / 4.0
    L = np.linalg.qr(rng.standard_normal((n, q)))[0]
    res = davidson_lowest(lambda b: H @ b, np.diag(H).copy(), k,
                          np.eye(n)[:, :k + q + 3], tol=1e-10, locked=(L,))
    assert res.converged
    assert np.allclose(res.energies, _complement_eigvalsh(H, L)[:k],
                       atol=1e-10)
    assert np.max(np.abs(L.T @ res.vectors)) < 1e-12
    with pytest.raises(ValueError, match="exceeds"):
        davidson_lowest(lambda b: H @ b, np.diag(H).copy(), n - q + 1,
                        np.eye(n), locked=(L,))


def test_locked_cas_block_matches_complement_eigh():
    # CAS(3,4) M_S = 1/2 has 24 determinants; locking 10 eigenvectors
    # leaves 14, below the subspace cap, for Davidson (guess_dim 16 < 24)
    # and for the dense solver alike
    ints = make_random_integrals(4, 61)
    space = enumerate_cas(3, 4, 1)
    H = dense_hamiltonian(space, ints)
    L = np.linalg.eigh(H)[1][:, 0:20:2]     # every other lowest root
    ref = _complement_eigvalsh(H, L)
    k = 5
    for states in (dense_solve(space, ints, k, (L,)),
                   solve_davidson(space, ints, k,
                                  DavidsonOptions(tol=1e-10, guess_dim=16),
                                  (L,))):
        assert np.allclose([s.energy for s in states], ref[:k], atol=1e-10)
        X = np.column_stack([s.coeffs for s in states])
        assert np.max(np.abs(L.T @ X)) < 1e-10
    with pytest.raises(ValueError, match="outside"):
        dense_solve(space, ints, space.size - 9, (L,))
