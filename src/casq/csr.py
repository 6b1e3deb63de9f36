"""Raw CSR tables and the compiled in-place product that runs them.

Sigma's string scatters and gathers and the spin ladders of blocks above
SMALL_SPACE determinants are sparse products Y += A @ X (or A^T @ X) on
(N, k) blocks of vectors.  A table is kept as its raw CSR arrays and run
through scipy's compiled sparsetools routines, so no product allocates.
scipy.sparse costs about 0.15-0.2 s and 16 MB to import: it is loaded by
the first product or scipy-built table, so runs that make neither do not
pay it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# With an automatic guess_dim, casci.solve_davidson hands blocks of at most
# this many determinants to dense_solve.  On one BLAS thread, 6 roots of
# model integrals: dense build + eigh 22 / 35 / 107 ms at 300 / 400 / 735
# determinants, Davidson 43 / 41 / 74 ms.  PySCF's direct_spin1 also
# diagonalizes its P-space directly up to 400.  The spin ladders of a table
# whose blocks have at most this many determinants run numpy's bincount,
# so that the dense route never loads scipy; larger ones run csr_add.
SMALL_SPACE = 400


class Csr(NamedTuple):
    """The raw arrays of an (indptr.size - 1, n_col) CSR matrix."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_col: int


def csr_from_coo(data, rows, cols, shape) -> Csr:
    """The CSR table of shape `shape` with entries data at (rows, cols),
    built by scipy (column indices sorted within each row)."""
    from scipy.sparse import csr_matrix
    A = csr_matrix((data, (rows, cols)), shape=shape)
    return Csr(A.indptr, A.indices, A.data, shape[1])


def csr_add(A: Csr, X: np.ndarray, Y: np.ndarray,
            transpose: bool = False) -> None:
    """Y += A @ X in place, or Y += A^T @ X when transpose, for 2-D X, Y.

    These are the compiled routines behind scipy's own `A @ X`, which
    writes into a fresh zero-filled array on every call: csr_matvecs, and
    for A^T csc_matvecs over the same arrays, since CSR arrays read as CSC
    are the transpose.  Either sums each element of Y over its entries in
    storage order: A's column order within a row, or A's row order for
    A^T.  X and Y are read and written through ravel(), which would copy a
    non-contiguous array and drop the result, so they must be C-contiguous
    float64.
    """
    from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs
    n_row, n_col = A.indptr.size - 1, A.n_col
    rows_in, rows_out = (n_row, n_col) if transpose else (n_col, n_row)
    for a, rows in ((X, rows_in), (Y, rows_out)):
        if (a.dtype != np.float64 or not a.flags.c_contiguous or a.ndim != 2
                or a.shape != (rows, X.shape[-1])):
            raise ValueError(f"{a.dtype} array of shape {a.shape} for a CSR "
                             f"product ({n_row}, {n_col}){'^T' * transpose}"
                             f" @ ({rows_in}, k): need C-contiguous float64")
    product = csc_matvecs if transpose else csr_matvecs
    product(*((n_col, n_row) if transpose else (n_row, n_col)), X.shape[1],
            A.indptr, A.indices, A.data, X.ravel(), Y.ravel())
