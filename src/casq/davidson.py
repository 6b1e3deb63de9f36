"""Block Davidson-Liu eigensolver for the lowest roots of a symmetric matrix.

Operates through a caller-supplied matrix-vector product, with diagonal
(Jacobi) preconditioning and thick restarts.  Fully deterministic for a
fixed starting block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Jacobi denominators are clamped away from zero to survive the
# near-degenerate diagonals of almost-degenerate multiplet pairs.
LEVEL_SHIFT = 1e-4


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


def _orthonormalize(block: np.ndarray, against: tuple[np.ndarray, ...] = (),
                    drop_tol: float = 1e-10) -> np.ndarray:
    """Block Gram-Schmidt with reorthogonalization; drops dependent columns.

    Each of two rounds projects the whole block against every orthonormal
    basis in `against` (two GEMMs each), then runs modified Gram-Schmidt
    within the block.  A column is dependent when the projections leave
    less than drop_tol of its own norm; it is zeroed at once, so it takes
    no part in later projections.  The test is relative because correction
    vectors shrink with the residual: an absolute cut drops them near
    convergence and stalls the solver at residuals around 1e-9.
    """
    B = np.array(block.T, dtype=float, order="C")    # one row per column
    cut = drop_tol * np.linalg.norm(B, axis=1)
    for _ in range(2):
        for basis in against:
            B -= (B @ basis) @ basis.T
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


def davidson_lowest(matvec, diagonal: np.ndarray, n_roots: int,
                    start: np.ndarray, *, tol: float = 1e-8,
                    max_iter: int = 200,
                    locked: tuple[np.ndarray, ...] = ()) -> DavidsonResult:
    """Iterate to the lowest n_roots eigenpairs on the orthogonal
    complement of the `locked` orthonormal bases (q columns in all).

    matvec maps an (N, k) block to H times the block.  `start` supplies
    the initial block (at least n_roots columns).  The subspace holds at
    most min(N - q, max(6 n_roots + 12, 48)) columns before a thick
    restart.  Residuals are projected off `locked` too, so locked
    vectors that are eigenvectors only to within tol cannot stall it.
    """
    n = diagonal.shape[0]
    q = sum(basis.shape[1] for basis in locked)
    if n_roots > n - q:
        raise ValueError(f"n_roots={n_roots} exceeds dimension {n - q}")
    max_subspace = min(n - q, max(6 * n_roots + 12, 48))

    V = _orthonormalize(np.asarray(start, dtype=float), against=locked)
    m = V.shape[1]
    if m < n_roots:
        raise ValueError("starting block is rank deficient")
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
        for basis in locked:
            R -= basis @ (basis.T @ R)
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

        news = []
        for k in range(n_roots):
            if norms[k] <= tol:
                continue
            denom = diagonal - theta[k]
            denom = np.where(np.abs(denom) < LEVEL_SHIFT,
                             np.copysign(LEVEL_SHIFT, denom), denom)
            news.append(R[:, k] / denom)
        block = _orthonormalize(np.stack(news, axis=1), against=locked + (V,))
        if block.shape[1] == 0:
            # stagnation: inject the coordinate direction of the worst residual
            worst = int(np.argmax(np.abs(R[:, int(np.argmax(norms))])))
            unit = np.zeros((n, 1))
            unit[worst, 0] = 1.0
            block = _orthonormalize(unit, against=locked + (V,))
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
