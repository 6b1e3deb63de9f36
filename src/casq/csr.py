"""Raw CSR tables and the compiled in-place product that runs them.

Sigma's string scatters and gathers and the spin ladders are sparse
products Y += A @ X (or A^T @ X) on (N, k) blocks of vectors.  A table is
kept as its raw CSR arrays, built here with numpy, and run through the
compiled routines of scipy's `_sparsetools` extension, so no product
allocates.  The extension is loaded from its file at the first product,
without importing the scipy.sparse package: that import costs about
0.2 s and 16 MB (scipy 1.17's array-API layer loads numpy.f2py,
numpy.testing and numpy.ma), the file load under a millisecond.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from functools import lru_cache
from typing import NamedTuple

import numpy as np


class Csr(NamedTuple):
    """The raw arrays of an (indptr.size - 1, n_col) CSR matrix."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_col: int


def csr_from_coo(data, rows, cols, shape) -> Csr:
    """The CSR table of shape `shape` with entries data at (rows, cols).

    The arrays are those of scipy's csr_matrix: column indices ascend
    within each row, and indptr and indices are int32 when the entry
    count and both dimensions fit, int64 otherwise.  A (row, col) given
    twice raises ValueError instead of being summed.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    twice = np.flatnonzero((np.diff(rows) == 0) & (np.diff(cols) == 0))
    if twice.size:
        raise ValueError(f"CSR table {shape}: entry ({rows[twice[0]]}, "
                         f"{cols[twice[0]]}) given twice")
    index = np.int32 if max(rows.size, *shape) < 2**31 else np.int64
    indptr = np.zeros(shape[0] + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return Csr(indptr, cols.astype(index),
               np.asarray(data, dtype=float)[order], shape[1])


def csr_rows(A: Csr, r0: int, r1: int) -> Csr:
    """Rows r0:r1 of A as a table of their own: views of A's column
    indices and values, which keep their order within each row."""
    p0, p1 = A.indptr[r0], A.indptr[r1]
    return Csr(A.indptr[r0:r1 + 1] - p0, A.indices[p0:p1], A.data[p0:p1],
               A.n_col)


@lru_cache(maxsize=None)
def _sparsetools():
    """scipy's compiled scipy.sparse._sparsetools extension, loaded from
    its file in scipy's install directory, which is found without
    importing scipy: neither scipy nor scipy.sparse is imported."""
    scipy = importlib.util.find_spec("scipy")
    where = [os.path.join(d, "sparse")
             for d in (scipy.submodule_search_locations if scipy else [])]
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.sparse._sparsetools", where)
    if spec is None:
        raise ImportError(f"scipy's compiled _sparsetools extension is not "
                          f"in {where or 'any directory: no scipy installed'}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    n_row, n_col = A.indptr.size - 1, A.n_col
    rows_in, rows_out = (n_row, n_col) if transpose else (n_col, n_row)
    for a, rows in ((X, rows_in), (Y, rows_out)):
        if (a.dtype != np.float64 or not a.flags.c_contiguous or a.ndim != 2
                or a.shape != (rows, X.shape[-1])):
            raise ValueError(f"{a.dtype} array of shape {a.shape} for a CSR "
                             f"product ({n_row}, {n_col}){'^T' * transpose}"
                             f" @ ({rows_in}, k): need C-contiguous float64")
    tools = _sparsetools()
    product = tools.csc_matvecs if transpose else tools.csr_matvecs
    product(*((n_col, n_row) if transpose else (n_row, n_col)), X.shape[1],
            A.indptr, A.indices, A.data, X.ravel(), Y.ravel())
