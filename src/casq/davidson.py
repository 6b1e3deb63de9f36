"""Block Davidson-Liu eigensolver for the lowest roots of a symmetric matrix.

Operates through a caller-supplied matrix-vector product, with thick
restarts, preconditioned by (H - theta)^-1 on an optional diagonalized
P space (Knowles & Handy, Chem. Phys. Lett. 111, 315 (1984)) and by the
diagonal (Jacobi) elsewhere.  Fully deterministic for a fixed start.

The solve works inside two (N, width) column buffers, V and sigma V:
every new block is built, projected and orthonormalized in the free
columns of sigma V's buffer and written to the next free columns of V's,
and the matvec writes sigma of that block straight into the columns
beside it.  Besides the two buffers, an iteration holds only its
residuals R; the Ritz vectors are formed once, on exit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import row_blocks

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


def _c_view(block: np.ndarray) -> np.ndarray:
    """The memory of an F-contiguous (N, k) block as a C-ordered (N, k)
    array (a view)."""
    return block.ravel(order="F").reshape(block.shape)


def _copy(dst: np.ndarray, src: np.ndarray) -> None:
    """dst[:] = src for (N, k) blocks, by row blocks."""
    for r in row_blocks(*dst.shape):
        np.copyto(dst[r], src[r])


def _orthonormalize(scratch: np.ndarray, V: np.ndarray, out: np.ndarray,
                    project=None) -> int:
    """Block Gram-Schmidt with reorthogonalization against the orthonormal
    columns V, within the range of the projector `project` if given;
    drops dependent columns.  Returns the number k' of columns kept, which
    are written to out[:, :k'].

    On entry the block is the C-ordered (N, k) array _c_view(scratch) of
    the F-contiguous (N, k) buffer scratch, and out is an F-ordered (N, k)
    buffer.  Each of two rounds applies `project` to the C-ordered block
    (it returns the block projected; the spin projector does so in
    place), copies it into out, subtracts V V^T out by two GEMMs whose
    product goes through scratch, then runs modified Gram-Schmidt within
    out; the second round first copies out back into the C-ordered block.
    Projecting in both rounds matters: a column that keeps only a small
    share of its norm is rescaled by the first round, and with it the
    projector's rounding error outside its range, which the second
    projection removes again.  A column is dependent when less than
    DROP_TOL of its norm before all projections is left (what `project`
    leaves of a column it removes is rounding error); it is zeroed at
    once.  The test is relative because correction vectors shrink with the
    residual: an absolute cut drops them near convergence and stalls the
    solver at residuals near 1e-9.
    """
    W = _c_view(scratch)
    cut = DROP_TOL * np.sqrt(np.einsum("ij,ij->j", W, W))
    for first in (True, False):
        if project is not None:
            if not first:
                _copy(W, out)
            _copy(out, project(W))
        elif first:
            _copy(out, W)
        if V.shape[1]:
            # scratch = V (V^T out), written as its C-ordered transpose
            np.matmul((V.T @ out).T, V.T, out=scratch.T)
            out -= scratch
        for j in range(out.shape[1]):
            v = out[:, j]
            for i in range(j):
                u = out[:, i]
                v -= u * (u @ v)
            norm = np.linalg.norm(v)
            if norm > cut[j]:
                v /= norm
                cut[j] /= norm
            else:
                v[:] = 0.0
                cut[j] = np.inf
    kept = np.flatnonzero(np.isfinite(cut))
    for i, j in enumerate(kept):
        if i != j:
            out[:, i] = out[:, j]
    return kept.size


def _shifted(denom: np.ndarray) -> np.ndarray:
    """Denominators clamped in place to at least LEVEL_SHIFT in magnitude."""
    small = np.abs(denom) < LEVEL_SHIFT
    denom[small] = np.copysign(LEVEL_SHIFT, denom[small])
    return denom


def _unit(scratch: np.ndarray, i: int) -> np.ndarray:
    """Coordinate vector i written into the (N, 1) buffer scratch."""
    scratch.fill(0.0)
    scratch[i] = 1.0
    return scratch


def davidson_lowest(matvec, diagonal: np.ndarray, n_roots: int,
                    start: np.ndarray, *, tol: float = 1e-8,
                    max_iter: int = 200, project=None,
                    pspace=None) -> DavidsonResult:
    """Iterate to the lowest n_roots eigenpairs, within the range of the
    projector `project` (which must commute with H) when one is given.

    `pspace` = (sel, w, U), with H[sel][:, sel] = U diag(w) U^T, makes the
    correction U diag(1/(w - theta)) U^T r on the coordinates sel.

    matvec(block, out) writes H times an F-ordered (N, k) block into out,
    the F-ordered (N, k) columns beside it in sigma V's buffer.  `start`
    supplies the initial block: an (N, k) array, or a pair (rows, B) for
    the block that is B on the coordinates `rows` and zero elsewhere, so
    that a start on a P space needs no N x k array.  Every block added to
    the subspace is projected: the start block, each correction block and
    a stagnation unit vector.  A start block left with fewer than n_roots
    columns is topped up with the projected unit vectors of the lowest
    diagonal entries.  The subspace holds at most
    min(N, max(6 n_roots + 12, 48)) columns before a thick restart, which
    rotates V and sigma V in place.
    """
    n = diagonal.shape[0]
    rows, start = start if isinstance(start, tuple) else (slice(None), start)
    k = np.shape(start)[1]
    max_subspace = min(n, max(6 * n_roots + 12, 48))
    # a restart keeps at least n_roots columns and adds up to n_roots
    width = max(max_subspace, k, 2 * n_roots)
    Vbuf = np.empty((n, width), order="F")
    Sbuf = np.empty_like(Vbuf)
    scratch = Sbuf[:, :k]
    W = _c_view(scratch)
    W.fill(0.0)
    W[rows] = start
    m = _orthonormalize(scratch, Vbuf[:, :0], Vbuf[:, :k], project)
    for i in np.argsort(diagonal, kind="stable"):
        if m >= n_roots:
            break
        m += _orthonormalize(_unit(Sbuf[:, m:m + 1], i), Vbuf[:, :m],
                             Vbuf[:, m:m + 1], project)
    if m < n_roots:
        raise ValueError(f"n_roots={n_roots} exceeds dimension {m}")
    matvec(Vbuf[:, :m], Sbuf[:, :m])
    n_matvec = m
    T = Vbuf[:, :m].T @ Sbuf[:, :m]

    for iteration in range(1, max_iter + 1):
        V, S = Vbuf[:, :m], Sbuf[:, :m]
        theta, Y = np.linalg.eigh((T + T.T) / 2.0)
        Yr = Y[:, :n_roots]          # the Ritz vectors are V Yr
        Yt = Yr * theta[:n_roots]
        R = np.empty((n, n_roots))
        for r in row_blocks(n, m):
            np.matmul(S[r], Yr, out=R[r])
            R[r] -= V[r] @ Yt
        norms = np.sqrt(np.einsum("ij,ij->j", R, R))
        todo = np.flatnonzero(norms > tol)
        if todo.size == 0 or iteration == max_iter:
            break

        # restart by collapsing onto the best Ritz vectors when full
        if m + todo.size > max_subspace:
            keep = max(min(max(2 * n_roots, n_roots + 4),
                           max_subspace - todo.size), n_roots)
            for r in row_blocks(n, m):
                V[r, :keep] = V[r] @ Y[:, :keep]
                S[r, :keep] = S[r] @ Y[:, :keep]
            m = keep
            V, S = Vbuf[:, :m], Sbuf[:, :m]
            Yr = np.eye(m, n_roots)
            T = np.diag(theta[:m])

        # corrections in the C-ordered memory of sigma V's free columns
        scratch = Sbuf[:, m:m + todo.size]
        W = _c_view(scratch)
        for c, j in enumerate(todo):
            col = np.subtract(diagonal, theta[j], out=W[:, c])
            np.divide(R[:, j], _shifted(col), out=col)
        if pspace is not None:
            sel, w, U = pspace
            W[sel] = U @ ((U.T @ R[sel][:, todo])
                          / _shifted(w[:, None] - theta[todo]))
        b = _orthonormalize(scratch, V, Vbuf[:, m:m + todo.size], project)
        if b == 0:
            # stagnation: inject the coordinate direction of the worst residual
            worst = int(np.argmax(np.abs(R[:, int(np.argmax(norms))])))
            b = _orthonormalize(_unit(Sbuf[:, m:m + 1], worst), V,
                                Vbuf[:, m:m + 1], project)
            if b == 0:
                break
        del R
        block, Sb = Vbuf[:, m:m + b], Sbuf[:, m:m + b]
        matvec(block, Sb)
        n_matvec += b
        T = np.block([[T, V.T @ Sb],
                      [block.T @ S, block.T @ Sb]])
        m += b

    del R                       # before the Ritz vectors take its place
    result = DavidsonResult(theta[:n_roots].copy(), Vbuf[:, :Yr.shape[0]] @ Yr,
                            iteration, norms, todo.size == 0, n_matvec)
    if not result.converged:
        raise DavidsonNotConverged(result)
    return result
