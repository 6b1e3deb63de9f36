"""CASCI Hamiltonian action, eigensolvers and spin multiplets.

The Hamiltonian lives entirely in the active space:

    H = E_core + sum_pq h[p,q] E_pq
        + 1/2 sum_pqrs (pq|rs) (E_pq E_rs - delta_qr E_ps)

Three independent routes to H are provided: per-element Slater-Condon
rules (`hamiltonian_element`, the scalar oracle), the same rules applied
to all connected pairs of one excitation class at once
(`dense_hamiltonian`, which builds H over the whole space or over any
selection of determinants: the dense oracle, the solve of blocks of up to
SMALL_SPACE determinants and the Davidson guess block), and a
string-driven matrix-free product (`sigma`) used by the Davidson solver.
They are cross-checked in the test suite.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from math import isqrt

import numpy as np

from .csr import Csr, _sparsetools, csr_add, csr_from_coo
from .davidson import DavidsonNotConverged, davidson_lowest  # noqa: F401 (re-export)
from .detspace import (CasSpace, Determinant, cas_dimension,  # noqa: F401
                       enumerate_cas, excitation_links, occupation_matrix,
                       occupied_orbitals, relative_sign, single_excitation_sign)
from .ingest import DavidsonOptions, IntegralSet
from .spin import apply_s_minus, project_spin, s_squared, s_squared_matrix

DENSE_CAP = 20_000

# With an automatic guess_dim, solve_davidson hands blocks of at most this
# many determinants to dense_solve.  On one BLAS thread, 6 roots of model
# integrals: dense build + eigh 22 / 35 / 107 ms at 300 / 400 / 735
# determinants, Davidson 43 / 41 / 74 ms.  PySCF's direct_spin1 also
# diagonalizes its P-space directly up to 400.
SMALL_SPACE = 400

# dense_hamiltonian classes the determinant pairs this many at a time; a
# chunk's GEMMs and masks take a few MiB.  On a 2-core host with one BLAS
# thread the build of 3,136 determinants took 0.23 s at 2**16 or 2**17 and
# 0.25-0.29 s at 2**19-2**21.
PAIR_CHUNK = 2**17

# dense_solve's degenerate clusters (Hartree); eigh splits exact ones ~1e-14
DEGENERACY_TOL = 1e-8

# largest Rayleigh-quotient drift of a laddered multiplet component from
# its top component's energy (Hartree)
RAYLEIGH_TOL = 1e-8

# Sigma's working set per row chunk stays below this many bytes as well as
# below max_memory_gb: chunks that stay in cache run faster (on a 2-core
# Xeon, CAS(17,12) M_S = 1/2 took 0.27 s per vector in one 171 MB chunk and
# 0.10-0.13 s in 33 MB chunks).
CHUNK_BYTES = 32 * 2**20

# Sigma's T threads form one team that splits each vector's row chunks when
# the plan has at least this many chunks per thread, and teams of one thread
# that share a block's whole vectors otherwise.  Davidson solves of 4
# doublets and 1 quartet on one BLAS thread (T = 2, shared 2-core host),
# split over whole-vector time, medians of 4-10 interleaved runs: 0.99 /
# 1.00 / 1.04 / 0.95 / 0.97 / 0.95 / 0.94 at 1 / 3 / 8 / 14 / 18 / 30 / 58
# chunks per thread (CAS(9,9), (11,10), (17,12), (11,11), (7,13), (9,12),
# (13,12)); a first set of 4 runs at 14 read 1.02, so the crossover lies
# between 8 and 14, and 16 keeps a margin above it.
SPLIT_CHUNKS = 16

# the environment variables by which BLAS libraries read their thread
# count when numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# largest |<S^2> - S(S+1)| of a root solved within the range of the spin-S
# projector, or gap of a laddered M_S < 0 component from its _spin_flip: a
# larger one means the projection or a ladder table failed
SPIN_TOL = 1e-8


class InvariantBreach(RuntimeError):
    """A computed result failed an internal consistency check."""


# ---------------------------------------------------------------------------
# Slater-Condon rules
# ---------------------------------------------------------------------------

def hamiltonian_element(d1: Determinant, d2: Determinant,
                        ints: IntegralSet) -> float:
    """<d1|H|d2> for two determinants of the same space."""
    dega2 = (d1.alpha ^ d2.alpha).bit_count()
    degb2 = (d1.beta ^ d2.beta).bit_count()
    if dega2 + degb2 > 4:
        return 0.0
    h, g2 = ints.h, ints.g2
    if dega2 + degb2 == 0:
        return _diagonal_element(h, g2, d1.alpha, d1.beta, ints.core_energy)
    if dega2 == 2 and degb2 == 0:
        return _single_element(h, g2, d2.alpha, d1.alpha, d2.beta)
    if dega2 == 0 and degb2 == 2:
        return _single_element(h, g2, d2.beta, d1.beta, d2.alpha)
    if dega2 == 4 and degb2 == 0:
        return _double_same(g2, d2.alpha, d1.alpha)
    if dega2 == 0 and degb2 == 4:
        return _double_same(g2, d2.beta, d1.beta)
    # one alpha move and one beta move
    (i,) = occupied_orbitals(d2.alpha & ~d1.alpha)
    (a,) = occupied_orbitals(d1.alpha & ~d2.alpha)
    (j,) = occupied_orbitals(d2.beta & ~d1.beta)
    (b,) = occupied_orbitals(d1.beta & ~d2.beta)
    sign = (single_excitation_sign(d2.alpha, i, a)
            * single_excitation_sign(d2.beta, j, b))
    return sign * g2[a, i, b, j]


def _diagonal_element(h, g2, a_mask, b_mask, core):
    occ_a = occupied_orbitals(a_mask)
    occ_b = occupied_orbitals(b_mask)
    e = core
    for k in occ_a:
        e += h[k, k]
    for k in occ_b:
        e += h[k, k]
    for k in occ_a:
        for l in occ_a:
            e += 0.5 * (g2[k, k, l, l] - g2[k, l, l, k])
    for k in occ_b:
        for l in occ_b:
            e += 0.5 * (g2[k, k, l, l] - g2[k, l, l, k])
    for k in occ_a:
        for l in occ_b:
            e += g2[k, k, l, l]
    return float(e)


def _single_element(h, g2, ket_same, bra_same, ket_other):
    (i,) = occupied_orbitals(ket_same & ~bra_same)
    (a,) = occupied_orbitals(bra_same & ~ket_same)
    val = h[a, i]
    for k in occupied_orbitals(ket_same):
        val += g2[a, i, k, k] - g2[a, k, k, i]
    for k in occupied_orbitals(ket_other):
        val += g2[a, i, k, k]
    return single_excitation_sign(ket_same, i, a) * float(val)


def _double_same(g2, ket, bra):
    i, j = occupied_orbitals(ket & ~bra)
    a, b = occupied_orbitals(bra & ~ket)
    return relative_sign(ket, bra) * float(g2[a, i, b, j] - g2[a, j, b, i])


# ---------------------------------------------------------------------------
# Vectorized diagonal and sigma
# ---------------------------------------------------------------------------

def _occupations(space: CasSpace):
    return (occupation_matrix(space.n_orb, space.n_alpha),
            occupation_matrix(space.n_orb, space.n_beta))


def hamiltonian_diagonal(space: CasSpace, ints: IntegralSet) -> np.ndarray:
    """Diagonal of H as an (n_alpha_strings, n_beta_strings) array."""
    occ_a, occ_b = _occupations(space)
    hd = np.diag(ints.h)
    J = np.einsum("ppqq->pq", ints.g2)
    K = np.einsum("pqqp->pq", ints.g2)
    ea = occ_a @ hd + 0.5 * np.einsum("ip,pq,iq->i", occ_a, J - K, occ_a)
    eb = occ_b @ hd + 0.5 * np.einsum("ip,pq,iq->i", occ_b, J - K, occ_b)
    return ea[:, None] + eb[None, :] + occ_a @ J @ occ_b.T + ints.core_energy


def _pair_index(n: int) -> np.ndarray:
    """(n, n) array of the packed index P of the pair {p, q}, p >= q."""
    P = np.empty((n, n), dtype=np.int64)
    p, q = np.tril_indices(n)
    P[p, q] = P[q, p] = np.arange(p.size)
    return P


@dataclass(frozen=True, eq=False)
class _SigmaPlan:
    """CSR operators of the packed-pair sigma kernel.

    The spin with the larger link table gives the rows, the other spin the
    columns, of each vector C as an (n_row, n_col) matrix.  Every string
    scatter of _sigma_chunk is one compiled CSR product, accumulated in
    place into the call's workspace or output (csr_add): on the row side
    those of each chunk, built from row_links once per chunk size and
    cached in chunks; on the column side col_op, which serves every chunk.
    The packed link table is symmetric in its two strings, so each gather
    is its scatter read transposed: no gather table is stored.
    """

    transpose: bool              # True when beta strings are the row side
    n_row: int
    n_col: int
    n_pair: int                  # n(n+1)/2
    row_links: tuple             # (pair, src, dst, sign), flat
    col_op: Csr                  # (n_pair * n_col, n_col) column scatter
    chunks: dict = field(default_factory=dict)   # rows per chunk -> tables

    @property
    def row_bytes(self) -> int:
        """Bytes per row and vector by which chunks are sized: four
        n_pair * n_col float64 rows, twice the two-buffer workspace.
        Chunks of twice the rows ran CAS(13,13) about 5 % faster at 6 %
        more peak RSS."""
        return 4 * 8 * self.n_pair * self.n_col


@lru_cache(maxsize=None)
def _sigma_plan(space: CasSpace) -> _SigmaPlan:
    n = space.n_orb
    a_links = excitation_links(n, space.n_alpha)
    b_links = excitation_links(n, space.n_beta)
    transpose = b_links[0].size > a_links[0].size
    pair = _pair_index(n).ravel()
    (r_gid, *row), (c_gid, c_src, c_dst, c_sign) = (
        (b_links, a_links) if transpose else (a_links, b_links))
    n_pair = n * (n + 1) // 2
    n_row, n_col = ((len(space.beta_strings), len(space.alpha_strings))
                    if transpose else
                    (len(space.alpha_strings), len(space.beta_strings)))
    return _SigmaPlan(
        transpose=transpose, n_row=n_row, n_col=n_col, n_pair=n_pair,
        row_links=(pair[r_gid], *row),
        col_op=csr_from_coo(c_sign, pair[c_gid] * n_col + c_dst, c_src,
                            (n_pair * n_col, n_col)))


def _chunk_rows(plan: _SigmaPlan, max_memory_gb: float) -> int:
    """Rows per chunk that keep one vector's working set under the cap
    and under CHUNK_BYTES."""
    cap = min(max_memory_gb * 2**30, CHUNK_BYTES)
    return max(1, min(plan.n_row, int(cap // plan.row_bytes)))


def _chunk_tables(plan: _SigmaPlan, rows: int) -> tuple:
    """(r0, r1, scatter) of each chunk of `rows` rows.

    Per chunk [r0, r1) of m rows, scatter, (n_pair * m, n_row), takes the
    links whose dst lies in the chunk to the fused pair * m + row index of
    the chunk's D.  Read transposed it is the chunk's gather, from G back
    to every row the links reach.  Cached on the plan.
    """
    tables = plan.chunks.get(rows)
    if tables is None:
        pair, src, dst, sign = plan.row_links
        tables = []
        for r0 in range(0, plan.n_row, rows):
            r1 = min(plan.n_row, r0 + rows)
            m = r1 - r0
            s = (dst >= r0) & (dst < r1)
            tables.append((r0, r1, csr_from_coo(
                sign[s], pair[s] * m + dst[s] - r0, src[s],
                (plan.n_pair * m, plan.n_row))))
        tables = plan.chunks[rows] = tuple(tables)
    return tables


def _sigma_chunk(plan: _SigmaPlan, h2p: np.ndarray, chunk: tuple,
                 C: np.ndarray, out: np.ndarray, work: tuple) -> None:
    """out += H2 action of one row chunk, with C, out in (n_row, n_col).

    work is the call's workspace: two flat buffers A, B of n_pair * n_col
    values per row of a full chunk, and two of n_col per row.  A holds D,
    then G^T; B the column part of D, then G.  Each gather is the
    scatter of its side read transposed.
    """
    r0, r1, scatter = chunk
    m, n_pair, n_col = r1 - r0, plan.n_pair, plan.n_col
    A, B = (w[:n_pair * m * n_col] for w in work[:2])
    Ct, Y = (w[:n_col * m].reshape(n_col, m) for w in work[2:])
    np.copyto(Ct, C[r0:r1].T)
    B.fill(0.0)
    csr_add(plan.col_op, Ct, B.reshape(-1, m))
    np.copyto(A.reshape(n_pair, m, n_col),
              B.reshape(n_pair, n_col, m).transpose(0, 2, 1))
    csr_add(scatter, C, A.reshape(-1, n_col))
    np.matmul(h2p, A.reshape(n_pair, -1), out=B.reshape(n_pair, -1))
    csr_add(scatter, B.reshape(-1, n_col), out, transpose=True)
    np.copyto(A.reshape(n_pair, n_col, m),
              B.reshape(n_pair, m, n_col).transpose(0, 2, 1))
    Y.fill(0.0)
    csr_add(plan.col_op, A.reshape(-1, m), Y, transpose=True)
    out[r0:r1] += Y.T


@lru_cache(maxsize=64)
def _absorbed_eri(ints: IntegralSet, n_elec: int) -> np.ndarray:
    """Fold h and the -1/2 delta contraction into a single two-electron
    tensor, so that H - E_core = sum_pq E_pq [sum_rs h2[pq,rs] E_rs] v, and
    keep its p >= q, r >= s entries as an (n(n+1)/2)^2 matrix.  Real
    integrals make h2 symmetric under p <-> q and r <-> s (IntegralSet
    enforces it), so the packed matrix carries all of h2."""
    n = ints.n_orb
    f = (ints.h - 0.5 * np.einsum("prrq->pq", ints.g2)) / n_elec
    h2 = ints.g2.copy()
    for k in range(n):
        h2[k, k, :, :] += f
        h2[:, :, k, k] += f
    p, q = np.tril_indices(n)
    pq = p * n + q
    return 0.5 * h2.reshape(n * n, n * n)[np.ix_(pq, pq)]


def _sigma_threads() -> int:
    """Threads that run a sigma call: the cores that BLAS leaves idle,
    max(1, cpus // blas_threads), where blas_threads is the first
    positive integer set in BLAS_THREAD_VARS.  With none set, BLAS uses
    every core, and sigma one thread."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return max(1, cpus // int(value))
    return 1


def sigma(space: CasSpace, ints: IntegralSet, vec: np.ndarray, *,
          max_memory_gb: float = 2.0,
          out: np.ndarray | None = None) -> np.ndarray:
    """Matrix-free H @ vec over the determinant basis; vec is (N,) or (N, k).

    For each vector the string-driven kernel (Olsen et al., J. Chem.
    Phys. 89, 2185 (1988)) builds the packed intermediate
    D_P = (E_pq + E_qp) vec over the n(n+1)/2 pairs p >= q, contracts it
    with the packed two-electron matrix and gathers back; every string
    scatter is one CSR product of the plan (_SigmaPlan), and every gather
    the same table read transposed, added in place.  The rows of the plan
    are processed in chunks of _chunk_rows // T rows, sized by row_bytes
    under max_memory_gb (and under CHUNK_BYTES, so that a chunk stays in
    cache), and each vector through all chunks.

    T = _sigma_threads() threads, the cores that BLAS leaves idle, share
    the work, the calling thread one of them; every step of a vector
    releases the interpreter lock (the compiled CSR products, np.copyto
    and the GEMM).  They form min(T // tau, k) teams of tau threads, and
    team m runs vectors m, m + teams, ...  The team size depends on the
    space, never on k: tau = T when the plan has at least SPLIT_CHUNKS
    chunks per thread, else 1.  Member i of a team runs a fixed
    contiguous share of the chunks of each of its vectors.  Member 0 adds
    its chunks into the result after the core term, each other member
    into its own zeroed accumulator of the team, and the accumulators are
    added into the result in member order.  Copy-in, the core term and
    that sum run by row slices, one per member, between the barriers of
    the team; the threads start once per call.

    A vector's result is thus the same bits in any block, at any place in
    it and under any thread schedule, for a given space, T and cap.  Each
    thread owns one workspace that all its chunks and vectors reuse: two
    buffers of one chunk's D (holding in turn D, its column part, the
    contracted G and its transpose) and two of n_col values per row.
    Every buffer is allocated here before any thread starts, so no chunk
    allocates, and the first exception of any thread is raised here,
    after every thread has finished.

    The result is written into `out`, a float64 array of vec's shape that
    does not overlap vec (by default a new F-ordered one), and returned.
    A vector is copied only when it is strided or the plan reads it
    transposed, and a result column of out likewise goes through a
    buffer: one of each per team, beside its tau - 1 accumulators of one
    vector.
    """
    v = np.asarray(vec, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != space.size:
        raise ValueError(f"vector of shape {v.shape}: length != space size {space.size}")
    if out is None:
        out = np.empty(v.shape, order="F")
    elif out.shape != v.shape or out.dtype != np.float64:
        raise ValueError(f"out of shape {out.shape} and dtype {out.dtype} for "
                         f"a sigma of shape {v.shape}: need float64 of its shape")
    elif np.may_share_memory(out, v):
        raise ValueError("out overlaps the vectors sigma reads")
    if space.n_elec == 0:
        return np.multiply(v, ints.core_energy, out=out)
    plan = _sigma_plan(space)
    h2p = _absorbed_eri(ints, space.n_elec)
    threads = _sigma_threads()
    rows = max(1, _chunk_rows(plan, max_memory_gb) // threads)
    chunks = _chunk_tables(plan, rows)
    shape = len(space.alpha_strings), len(space.beta_strings)
    v2, out2 = v.reshape(space.size, -1), out.reshape(space.size, -1)
    k = v2.shape[1]
    # each vector as an (n_row, n_col) matrix is a view when its column is
    # contiguous and alpha strings are the rows, else a copy in a buffer
    copy_in, copy_out = (plan.transpose or a.strides[0] != a.itemsize
                         for a in (v2, out2))
    tau = threads if len(chunks) // threads >= SPLIT_CHUNKS else 1
    teams = max(1, min(threads // tau, k))
    # per call, since buffers cached on the plan would stay allocated
    # between calls
    works = [tuple(np.empty(n * rows * plan.n_col)
                   for n in (plan.n_pair, plan.n_pair, 1, 1))
             for _ in range(teams * tau)]
    buffers = [tuple(np.empty((plan.n_row, plan.n_col)) if copy else None
                     for copy in (copy_in, copy_out))
               for _ in range(teams)]
    accs = [[np.zeros((plan.n_row, plan.n_col)) for _ in range(tau - 1)]
            for _ in range(teams)]
    barriers, errors = [threading.Barrier(tau) for _ in range(teams)], []
    _sparsetools()          # its lru_cache does not lock a first call

    def member(m, i):
        """Member i of team m: its share of each of the team's vectors."""
        (cbuf, obuf), acc, barrier = buffers[m], accs[m], barriers[m]
        s = slice(i * plan.n_row // tau, (i + 1) * plan.n_row // tau)
        group = chunks[i * len(chunks) // tau:(i + 1) * len(chunks) // tau]
        for j in range(m, k, teams):
            C, O = v2[:, j].reshape(shape), out2[:, j].reshape(shape)
            if plan.transpose:
                C, O = C.T, O.T
            Oj = O if obuf is None else obuf
            if cbuf is not None:
                np.copyto(cbuf[s], C[s])
                C = cbuf
            np.multiply(C[s], ints.core_energy, out=Oj[s])
            barrier.wait()
            for chunk in group:
                _sigma_chunk(plan, h2p, chunk, C, acc[i - 1] if i else Oj,
                             works[m * tau + i])
            barrier.wait()
            for a in acc:
                Oj[s] += a[s]
                a[s] = 0.0
            if obuf is not None:
                np.copyto(O[s], obuf[s])

    def run(m, i):
        try:
            member(m, i)
        except BaseException as exc:    # re-raised below, after the join
            # appended before the abort, so it comes before the
            # BrokenBarrierError of every thread left waiting
            errors.append(exc)
            for barrier in barriers:
                barrier.abort()

    workers = [threading.Thread(target=run, args=divmod(t, tau))
               for t in range(1, teams * tau)]
    for worker in workers:
        worker.start()
    try:
        run(0, 0)
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]
    return out


def sigma_block(space: CasSpace, ints: IntegralSet, block: np.ndarray,
                **kw) -> np.ndarray:
    """H @ block for an (N, k) block of columns."""
    return sigma(space, ints, block, **kw)


# ---------------------------------------------------------------------------
# Explicit H: dense oracle, small-block solve and Davidson guess
# ---------------------------------------------------------------------------

def _moved_orbitals(ket: np.ndarray, bra: np.ndarray, k: int):
    """The k orbitals that each ket occupation row vacates and that the
    matching bra row fills, ascending, as (k, pairs) arrays."""
    return (np.nonzero(ket > bra)[1].reshape(-1, k).T,
            np.nonzero(bra > ket)[1].reshape(-1, k).T)


def _between(cum: np.ndarray, ket: np.ndarray, i: np.ndarray,
             a: np.ndarray) -> np.ndarray:
    """Electrons of each ket string strictly between orbitals i and a,
    from the running occupation counts cum."""
    return cum[ket, np.maximum(i, a) - 1] - cum[ket, np.minimum(i, a)]


def dense_hamiltonian(space: CasSpace, ints: IntegralSet,
                      sel: np.ndarray | None = None) -> np.ndarray:
    """Explicit H over the determinants `sel` of the space, in that order
    (all of them by default).

    The Slater-Condon rules of hamiltonian_element, applied to all
    connected pairs of one excitation class at once.  The pairs bra > ket
    are taken PAIR_CHUNK at a time: one GEMM of occupation rows per chunk
    and spin counts the electrons each pair moves, and only the pairs that
    move at most two are classed and filled, symmetrically.
    """
    sel = np.arange(space.size) if sel is None else np.asarray(sel)
    N = sel.size
    if N > DENSE_CAP:
        raise ValueError(f"{N} determinants exceed dense cap {DENSE_CAP}")
    nb = len(space.beta_strings)
    occ_a, occ_b = _occupations(space)
    A, B = occ_a[sel // nb], occ_b[sel % nb]
    cum_a, cum_b = np.cumsum(A, axis=1), np.cumsum(B, axis=1)
    h, g2 = ints.h, ints.g2
    Jt = np.einsum("pqkk->pqk", g2)
    Kt = np.einsum("pkkq->pqk", g2)
    H = np.zeros((N, N))
    H[np.diag_indices(N)] = hamiltonian_diagonal(space, ints).ravel()[sel]
    n_pairs = N * (N - 1) // 2
    for p0 in range(0, n_pairs, PAIR_CHUNK):
        p1 = min(p0 + PAIR_CHUNK, n_pairs)
        # pair (bra, ket) is number bra (bra - 1) / 2 + ket
        r0, r1 = ((1 + isqrt(1 + 8 * p)) // 2 for p in (p0, p1 - 1))
        rows = np.arange(r0, r1 + 1)
        first = rows * (rows - 1) // 2
        cols = np.arange(r1)
        in_chunk = ((cols >= (p0 - first)[:, None])
                    & (cols < np.minimum(p1 - first, rows)[:, None]))
        kept_a = A[r0:r1 + 1] @ A[:r1].T
        kept_b = B[r0:r1 + 1] @ B[:r1].T
        r, c = np.nonzero(in_chunk & (kept_a + kept_b >= space.n_elec - 2))
        ma = space.n_alpha - kept_a[r, c]
        mb = space.n_beta - kept_b[r, c]
        r += r0
        val = np.zeros(r.size)
        for same, cum, other, m_same, m_other in ((A, cum_a, B, ma, mb),
                                                  (B, cum_b, A, mb, ma)):
            one = (m_same == 1) & (m_other == 0)
            bra, ket = r[one], c[one]
            (i,), (a,) = _moved_orbitals(same[ket], same[bra], 1)
            val[one] = (-1.0) ** _between(cum, ket, i, a) * (h[a, i] + np.sum(
                same[ket] * (Jt[a, i] - Kt[a, i]) + other[ket] * Jt[a, i], axis=1))
            two = (m_same == 2) & (m_other == 0)
            bra, ket = r[two], c[two]
            (i, j), (a, b) = _moved_orbitals(same[ket], same[bra], 2)
            # i -> a first, then j -> b on the string that move leaves
            lo, hi = np.minimum(j, b), np.maximum(j, b)
            n = (_between(cum, ket, i, a) + _between(cum, ket, j, b)
                 - ((lo < i) & (i < hi)) + ((lo < a) & (a < hi)))
            val[two] = (-1.0) ** n * (g2[a, i, b, j] - g2[a, j, b, i])
        mixed = (ma == 1) & (mb == 1)
        bra, ket = r[mixed], c[mixed]
        (i,), (a,) = _moved_orbitals(A[ket], A[bra], 1)
        (j,), (b,) = _moved_orbitals(B[ket], B[bra], 1)
        n = _between(cum_a, ket, i, a) + _between(cum_b, ket, j, b)
        val[mixed] = (-1.0) ** n * g2[a, i, b, j]
        H[r, c] = H[c, r] = val
    return H


# ---------------------------------------------------------------------------
# CI states
# ---------------------------------------------------------------------------

@dataclass
class CiState:
    """One converged CI root with its spin diagnostics."""

    energy: float
    coeffs: np.ndarray
    space: CasSpace = field(repr=False)
    s2_expect: float
    multiplicity: int

    @property
    def ms2(self) -> int:
        return self.space.ms2

    def __repr__(self) -> str:
        return (f"CiState(E={self.energy:.10f}, mult={self.multiplicity}, "
                f"ms2={self.ms2}, <S2>={self.s2_expect:.6f})")


def _finalize_states(space: CasSpace, energies: np.ndarray,
                     vectors: np.ndarray) -> list[CiState]:
    """Sign-fix and normalize roots of spin S = M_S, checking their <S^2>.

    The roots are copied once, into an F-ordered block whose columns are
    negated (when the entry of largest magnitude is negative) and divided
    by their norms in place, so each state's coeffs is a contiguous
    column of it."""
    vectors = np.array(vectors, dtype=float, order="F")
    for v in vectors.T:
        if v[np.argmax(np.abs(v))] < 0:
            np.negative(v, out=v)
        v /= np.linalg.norm(v)
    s2 = np.diag(s_squared_matrix(space, vectors))
    exact = space.ms2 * (space.ms2 + 2) / 4.0
    worst = float(np.max(np.abs(s2 - exact)))
    if worst > SPIN_TOL:
        raise InvariantBreach(
            f"a root solved at ms2={space.ms2} has <S^2> off S(S+1) = "
            f"{exact} by {worst:.3e} (> {SPIN_TOL:.0e})")
    return [CiState(energy=float(e), coeffs=v, space=space, s2_expect=float(x),
                    multiplicity=space.ms2 + 1)
            for e, v, x in zip(energies, vectors.T, s2)]


def _spin_projector(space: CasSpace, n_roots: int):
    """Löwdin's projector onto spin S = M_S of a top block, after checking
    that the block holds n_roots roots of that spin: it holds
    dim(M_S = S) - dim(M_S = S + 1) of them."""
    if space.ms2 < 0:
        raise ValueError(f"ms2={space.ms2} < 0: the roots of spin S = M_S "
                         f"are solved in the top block ms2 >= 0")
    n_elec, n_orb, ms2 = space.n_elec, space.n_orb, space.ms2
    exist = space.size - (cas_dimension(n_elec, n_orb, ms2 + 2)
                          if ms2 < min(n_elec, 2 * n_orb - n_elec) else 0)
    if n_roots > exist:
        raise ValueError(f"only {exist} roots of multiplicity {ms2 + 1} "
                         f"exist in CAS({n_elec}, {n_orb}) "
                         f"(requested {n_roots})")
    return partial(project_spin, space)


def dense_solve(space: CasSpace, ints: IntegralSet,
                n_roots: int) -> list[CiState]:
    """Brute-force eigensolver on the explicitly built H: its lowest
    n_roots eigenvectors of spin S = M_S.  In a cluster of eigenvalues
    closer than DEGENERACY_TOL, eigh's vectors U, these span the unit
    eigenvalues of U^T P_S U: all of U, none of it, or a rotation."""
    project = _spin_projector(space, n_roots)
    w, U = np.linalg.eigh(dense_hamiltonian(space, ints))
    cuts = [0, *np.flatnonzero(np.diff(w) > DEGENERACY_TOL) + 1, w.size]
    energies, vectors, s, m = [], [], 0, 0
    for a, b in zip(cuts, cuts[1:]):
        if b > m:       # one projection of n_roots columns or more
            s, m = a, min(w.size, max(b, a + n_roots))
            PU = project(U[:, s:m].copy())
        Uc, wc = U[:, a:b], w[a:b]
        M = Uc.T @ PU[:, a - s:b - s]
        rank = round(float(np.trace(M)))       # eigenvalues of M are 0 or 1
        if 0 < rank < b - a:    # spin-S states degenerate with others
            occ, V = np.linalg.eigh(M)
            V = V[:, occ > 0.5]
            wc, Y = np.linalg.eigh(V.T @ (wc[:, None] * V))
            Uc = Uc @ (V @ Y)
        energies.extend(wc[:rank])
        vectors.append(Uc[:, :rank])
        if len(energies) >= n_roots:
            break
    else:
        raise InvariantBreach(f"only {len(energies)} of the {n_roots} roots "
                              f"of spin S = M_S lie in the projected range")
    return _finalize_states(space, np.array(energies[:n_roots]),
                            np.hstack(vectors)[:, :n_roots])


def solve_davidson(space: CasSpace, ints: IntegralSet, n_roots: int,
                   options: DavidsonOptions | None = None) -> list[CiState]:
    """Lowest CI roots of spin S = M_S by block Davidson within the range
    of the spin-S projector, from a deterministic guess.

    A block goes to dense_solve instead when it has no more determinants
    than guess_dim (when guess_dim is 0, automatic: SMALL_SPACE = 400 or
    2 n_roots, whichever is larger).  Otherwise the guess diagonalizes H
    over the guess_dim determinants of lowest diagonal energy, the P
    space whose eigendecomposition also preconditions Davidson there.
    """
    project = _spin_projector(space, n_roots)
    options = options or DavidsonOptions()
    N = space.size
    # a guess block that would cover the whole block is the dense solve
    if N <= (options.guess_dim or max(SMALL_SPACE, 2 * n_roots)):
        return dense_solve(space, ints, n_roots)
    diag = hamiltonian_diagonal(space, ints).ravel()
    gd = max(options.guess_dim or max(32, 2 * n_roots), n_roots)
    sel = np.argsort(diag, kind="stable")[:gd].copy()
    w, U = np.linalg.eigh(dense_hamiltonian(space, ints, sel))
    result = davidson_lowest(
        lambda block, out: sigma_block(space, ints, block, out=out),
        diag, n_roots, (sel, U[:, :min(gd, n_roots + 3)]), tol=options.tol,
        max_iter=options.max_iter, project=project, pspace=(sel, w, U))
    return _finalize_states(space, result.energies, result.vectors)


# ---------------------------------------------------------------------------
# Multiplets
# ---------------------------------------------------------------------------

@dataclass
class Multiplet:
    """The 2S+1 phase-aligned M_S components of one spin eigenstate."""

    two_s: int
    energy: float
    components: dict[int, CiState]   # key: 2*M_S

    @property
    def S(self) -> float:
        return self.two_s / 2.0

    @property
    def multiplicity(self) -> int:
        return self.two_s + 1

    def component(self, ms2: int) -> CiState:
        return self.components[ms2]

    def __repr__(self) -> str:
        return (f"Multiplet(2S+1={self.multiplicity}, "
                f"E={self.energy:.10f})")


def _spin_flip(state: CiState) -> np.ndarray:
    """The M_S = -M partner of ladder-phased |S, M> as the S- chain builds
    it: eps C^T, C the coefficients as (alpha strings x beta strings), and
    eps = (-1)^(S - M + n_beta + n_alpha n_beta) from this block.  Rotating
    by pi about y maps a+_pa -> a+_pb and a+_pb -> -a+_pa: (-1)^n_beta;
    putting the alpha operators first again crosses n_alpha n_beta pairs;
    and R|S, M> = (-1)^(S - M)|S, -M> in soc.time_reversal_matrix's phase."""
    space = state.space
    sign = ((state.multiplicity - 1 - space.ms2) // 2
            + space.n_beta * (1 + space.n_alpha))
    C = state.coeffs.reshape(len(space.alpha_strings), len(space.beta_strings))
    return (-1.0) ** sign * C.T.ravel()


def assemble_multiplets(states: list[CiState],
                        ints: IntegralSet) -> list[Multiplet]:
    """Generate all M_S components of top-M_S roots by repeated S-.

    Every input state must satisfy 2S = M_S*2 (a top component); the
    ladder construction keeps the relative phases consistent across
    components, which the spin-orbit coupling matrix relies on.  Each
    component at 0 <= M_S < S (a quartet's M_S = 1/2) is re-verified as a
    Rayleigh quotient within RAYLEIGH_TOL by one sigma; each at M_S < 0
    must match the _spin_flip of its +M_S partner within SPIN_TOL, with no
    sigma, and takes that partner's energy and <S^2>.
    """
    multiplets = []
    for state in states:
        two_s = state.multiplicity - 1
        if two_s != state.ms2:
            raise ValueError(
                f"state with 2S={two_s} solved at ms2={state.ms2} is not a "
                f"top component; solve it at ms2={two_s}")
        components = {state.ms2: state}
        space = state.space
        vec = state.coeffs
        for ms2 in range(state.ms2 - 2, -state.ms2 - 1, -2):
            space, vec = apply_s_minus(space, vec)
            vec = vec / np.linalg.norm(vec)
            if ms2 < 0:
                partner = components[-ms2]
                gap = np.max(np.abs(vec - _spin_flip(partner)))
                if gap > SPIN_TOL:
                    raise InvariantBreach(
                        f"component at ms2={ms2} is off the spin flip of "
                        f"ms2={-ms2} by {gap:.3e} (> {SPIN_TOL:.0e})")
                e, s2 = partner.energy, partner.s2_expect
            else:
                e = float(vec @ sigma(space, ints, vec))
                if abs(e - state.energy) > RAYLEIGH_TOL:
                    raise InvariantBreach(
                        f"Rayleigh quotient at ms2={ms2} deviates by "
                        f"{abs(e - state.energy):.3e} (> {RAYLEIGH_TOL:.0e}); "
                        f"degenerate roots may be mixed")
                s2 = float(s_squared(space, vec))
            components[ms2] = replace(state, energy=e, coeffs=vec,
                                      space=space, s2_expect=s2)
        multiplets.append(Multiplet(two_s=two_s, energy=state.energy,
                                    components=components))
    multiplets.sort(key=lambda m: m.energy)
    return multiplets
