"""Block Davidson-Liu eigensolver for the lowest roots of a symmetric matrix.

Operates through a caller-supplied matrix-vector product, with thick
restarts, preconditioned by (H - theta)^-1 on an optional diagonalized
P space (Knowles & Handy, Chem. Phys. Lett. 111, 315 (1984)) and by the
diagonal (Jacobi) elsewhere.  Fully deterministic for a fixed start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Jacobi D_ii - theta and P-space w_j - theta are clamped away from zero, where
# near-degenerate multiplet pairs and a start on P eigenvectors put theta.
LEVEL_SHIFT = 1e-4

# _orthonormalize drops a column when less than this share of its norm is left
DROP_TOL = 1e-10


@dataclass
class DavidsonResult:
    energies: np.ndarray
    vectors: np.ndarray          # (N, n_roots), orthonormal columns
    iterations: int
    residual_norms: np.ndarray
    converged: bool
    n_matvec: int = 0


class DavidsonNotConverged(RuntimeError):
    """Raised after max_iter; carries the partial result for diagnostics."""

    def __init__(self, result: DavidsonResult):
        self.result = result
        worst = float(np.max(result.residual_norms))
        super().__init__(
            f"Davidson did not converge in {result.iterations} iterations "
            f"(worst residual {worst:.3e})")


def _orthonormalize(block: np.ndarray, against: np.ndarray,
                    project=None) -> np.ndarray:
    """Block Gram-Schmidt with reorthogonalization, within the range of the
    projector `project` if given; drops dependent columns.

    Each of two rounds applies `project` to a C-contiguous (N, k) copy of
    the block, which it may overwrite and which it returns projected (the
    spin projector does so in place), projects the block against the
    orthonormal basis `against` (two GEMMs), then runs modified
    Gram-Schmidt within it.  Projecting in both rounds matters: a column
    that keeps only a small share of its norm is rescaled by the first
    round, and with it the projector's rounding error outside its range,
    which the second projection removes again.  A
    column is dependent when less than DROP_TOL of its norm before all
    projections is left (what `project` leaves of a column it removes is
    rounding error); it is zeroed at once.  The test is relative because
    correction vectors shrink with the residual: an absolute cut drops
    them near convergence and stalls the solver at residuals near 1e-9.
    """
    B = np.array(block.T, dtype=float, order="C")    # one row per column
    cut = DROP_TOL * np.linalg.norm(B, axis=1)
    X = np.empty(B.shape[::-1])           # the block as `project` takes it
    for _ in range(2):
        if project is not None:
            np.copyto(X, B.T)
            np.copyto(B, project(X).T)
        B -= (B @ against) @ against.T
        for j, v in enumerate(B):
            for u in B[:j]:
                v -= u * (u @ v)
            norm = np.linalg.norm(v)
            if norm > cut[j]:
                v /= norm
                cut[j] /= norm
            else:
                v[:] = 0.0
                cut[j] = np.inf
    return B[np.isfinite(cut)].T


def _shifted(denom: np.ndarray) -> np.ndarray:
    """Denominators clamped to at least LEVEL_SHIFT in magnitude."""
    return np.where(np.abs(denom) < LEVEL_SHIFT,
                    np.copysign(LEVEL_SHIFT, denom), denom)


def davidson_lowest(matvec, diagonal: np.ndarray, n_roots: int,
                    start: np.ndarray, *, tol: float = 1e-8,
                    max_iter: int = 200, project=None,
                    pspace=None) -> DavidsonResult:
    """Iterate to the lowest n_roots eigenpairs, within the range of the
    projector `project` (which must commute with H) when one is given.

    `pspace` = (sel, w, U), with H[sel][:, sel] = U diag(w) U^T, makes the
    correction U diag(1/(w - theta)) U^T r on the coordinates sel.

    matvec maps an (N, k) block to H times the block.  `start` supplies
    the initial block.  Every block added to the subspace is projected:
    the start block, each correction block and a stagnation unit vector.
    A start block left with fewer than n_roots columns is topped up with
    the projected unit vectors of the lowest diagonal entries.  The
    subspace holds at most min(N, max(6 n_roots + 12, 48)) columns
    before a thick restart.
    """
    n = diagonal.shape[0]
    max_subspace = min(n, max(6 * n_roots + 12, 48))
    V = _orthonormalize(np.asarray(start), np.empty((n, 0)), project)
    for k in np.argsort(diagonal, kind="stable"):
        if V.shape[1] >= n_roots:
            break
        V = np.hstack([V, _orthonormalize(np.eye(n, 1, -k), V, project)])
    if V.shape[1] < n_roots:
        raise ValueError(f"n_roots={n_roots} exceeds dimension {V.shape[1]}")
    m = V.shape[1]
    # V and S live in column buffers, so a new block copies only itself
    Vbuf = np.empty((n, max(max_subspace, m)), order="F")
    Sbuf = np.empty_like(Vbuf)
    Vbuf[:, :m] = V
    Sbuf[:, :m] = matvec(V)
    V, S = Vbuf[:, :m], Sbuf[:, :m]
    n_matvec = m
    T = V.T @ S

    last = None
    for iteration in range(1, max_iter + 1):
        theta, Y = np.linalg.eigh((T + T.T) / 2.0)
        X = V @ Y[:, :n_roots]
        SX = S @ Y[:, :n_roots]
        R = SX - X * theta[:n_roots]
        norms = np.linalg.norm(R, axis=0)
        last = DavidsonResult(theta[:n_roots].copy(), X, iteration, norms,
                              bool(np.all(norms <= tol)), n_matvec)
        if last.converged:
            return last

        # restart by collapsing onto the best Ritz vectors when full
        n_new_max = int(np.sum(norms > tol))
        if m + n_new_max > max_subspace:
            keep = min(max(2 * n_roots, n_roots + 4),
                       max_subspace - n_new_max)
            m = max(keep, n_roots)
            Vbuf[:, :m] = V @ Y[:, :m]
            Sbuf[:, :m] = S @ Y[:, :m]
            V, S = Vbuf[:, :m], Sbuf[:, :m]
            T = np.diag(theta[:m]).copy()

        todo = np.flatnonzero(norms > tol)
        news = R[:, todo] / _shifted(diagonal[:, None] - theta[todo])
        if pspace is not None:
            sel, w, U = pspace
            news[sel] = U @ ((U.T @ R[sel][:, todo])
                             / _shifted(w[:, None] - theta[todo]))
        block = _orthonormalize(news, V, project)
        if block.shape[1] == 0:
            # stagnation: inject the coordinate direction of the worst residual
            worst = int(np.argmax(np.abs(R[:, int(np.argmax(norms))])))
            block = _orthonormalize(np.eye(n, 1, -worst), V, project)
            if block.shape[1] == 0:
                break
        Sb = matvec(block)
        n_matvec += block.shape[1]
        T = np.block([[T, V.T @ Sb],
                      [block.T @ S, block.T @ Sb]])
        Vbuf[:, m:m + block.shape[1]] = block
        Sbuf[:, m:m + block.shape[1]] = Sb
        m += block.shape[1]
        V, S = Vbuf[:, :m], Sbuf[:, :m]

    assert last is not None
    last = DavidsonResult(last.energies, last.vectors, last.iterations,
                          last.residual_norms, False, n_matvec)
    raise DavidsonNotConverged(last)
