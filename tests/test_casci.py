import importlib.machinery
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from casq import casci, csr
from casq.casci import (
    DENSE_CAP,
    SMALL_SPACE,
    DavidsonNotConverged,
    _chunk_rows,
    _sigma_plan,
    dense_hamiltonian,
    dense_solve,
    hamiltonian_diagonal,
    hamiltonian_element,
    sigma,
    solve_davidson,
)
from casq.csr import Csr, csr_add, csr_from_coo
from casq.detspace import Determinant, cas_dimension, enumerate_cas, occupied_orbitals
from casq.ingest import DavidsonOptions, IntegralSet

from _oracles import fock_block, fock_hamiltonian
from conftest import make_model_integrals, make_random_integrals, spin_filtered_energies


def element_matrix(space, ints):
    dets = [space.determinant(k) for k in range(space.size)]
    n = len(dets)
    H = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            H[i, j] = hamiltonian_element(dets[i], dets[j], ints)
    return H


@pytest.mark.parametrize("n_elec,n_orb,ms2,seed", [
    (2, 3, 0, 1), (3, 3, 1, 2), (2, 4, 2, 3), (4, 3, 0, 4), (3, 4, 1, 5),
])
def test_slater_condon_against_fock_oracle(n_elec, n_orb, ms2, seed):
    ints = make_random_integrals(n_orb, seed)
    space = enumerate_cas(n_elec, n_orb, ms2)
    ref = fock_block(fock_hamiltonian(ints.h, ints.g2, ints.core_energy), space)
    got = element_matrix(space, ints)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_element_one_electron_diagonal():
    # single electron in orbital p: h[p,p] + core, no two-electron part
    ints = make_random_integrals(3, 11)
    space = enumerate_cas(1, 3, 1)
    for k in range(space.size):
        det = space.determinant(k)
        (p,) = occupied_orbitals(det.alpha)
        val = hamiltonian_element(det, det, ints)
        assert val == pytest.approx(ints.h[p, p] + ints.core_energy, abs=1e-14)


def test_element_doubly_mixed_example():
    # <a=10,b=10|H|a=01,b=01> = (12|12) in a 2-orbital model
    n = 2
    g2 = np.zeros((n, n, n, n))
    from casq.ingest import set_chem
    set_chem(g2, 0, 1, 0, 1, 0.37)
    ints = IntegralSet(h=np.zeros((n, n)), g2=g2)
    d1 = Determinant(alpha=0b01, beta=0b01, n_orb=2)
    d2 = Determinant(alpha=0b10, beta=0b10, n_orb=2)
    assert hamiltonian_element(d2, d1, ints) == pytest.approx(0.37)


def test_element_degree_three_is_zero():
    ints = make_random_integrals(4, 12)
    d1 = Determinant(alpha=0b0011, beta=0b0001, n_orb=4)
    d2 = Determinant(alpha=0b1100, beta=0b0010, n_orb=4)  # 2 alpha + 1 beta moves
    assert hamiltonian_element(d1, d2, ints) == 0.0
    assert hamiltonian_element(d2, d1, ints) == 0.0


@pytest.mark.parametrize("n_elec,n_orb,ms2,seed", [
    (4, 5, 0, 21), (5, 5, 1, 22), (3, 5, 3, 23), (6, 4, 0, 24),
])
def test_dense_hamiltonian_matches_element_matrix(n_elec, n_orb, ms2, seed):
    ints = make_random_integrals(n_orb, seed)
    space = enumerate_cas(n_elec, n_orb, ms2)
    ref = element_matrix(space, ints)
    got = dense_hamiltonian(space, ints)
    assert np.max(np.abs(got - ref)) < 1e-12
    # and the vectorized diagonal agrees
    assert np.max(np.abs(hamiltonian_diagonal(space, ints).ravel()
                         - np.diag(ref))) < 1e-12


def test_dense_cap_enforced(monkeypatch):
    # CAS(11,10) M_S = 1/2 holds 52,920 determinants, above DENSE_CAP
    ints = make_random_integrals(10, 1)
    space = enumerate_cas(11, 10, 1)
    assert space.size > DENSE_CAP
    with pytest.raises(ValueError, match="cap"):
        dense_hamiltonian(space, ints)
    # an explicit guess block above the cap is an input error, not a
    # (DENSE_CAP + 1)^2 allocation
    with pytest.raises(ValueError, match="cap"):
        solve_davidson(space, ints, 2, DavidsonOptions(guess_dim=DENSE_CAP + 1))
    # a selection above the cap raises before any work: the diagonal,
    # which comes before any pair is classed, is never reached
    monkeypatch.setattr(casci, "hamiltonian_diagonal", None)
    with pytest.raises(ValueError, match="cap"):
        dense_hamiltonian(space, ints, np.arange(DENSE_CAP + 1))


def test_sigma_equals_dense_columns():
    ints = make_random_integrals(5, 31)
    space = enumerate_cas(4, 5, 0)
    H = dense_hamiltonian(space, ints)
    for k in [0, 1, 17, space.size - 1]:
        e = np.zeros(space.size)
        e[k] = 1.0
        assert np.max(np.abs(sigma(space, ints, e) - H[:, k])) < 1e-12


def test_sigma_batched_matches_unbatched():
    ints = make_random_integrals(5, 32)
    space = enumerate_cas(4, 5, 0)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(space.size)
    full = sigma(space, ints, v)
    tiny = sigma(space, ints, v, max_memory_gb=1e-6)  # forces batch = 1
    assert np.max(np.abs(full - tiny)) < 1e-12
    # a space whose plan takes the beta strings as rows
    ints = make_random_integrals(6, 35)
    space = enumerate_cas(7, 6, 1)
    assert _sigma_plan(space).transpose
    v = rng.standard_normal(space.size)
    full = sigma(space, ints, v)
    tiny = sigma(space, ints, v, max_memory_gb=1e-6)
    assert np.max(np.abs(full - tiny)) < 1e-12
    assert np.max(np.abs(full - dense_hamiltonian(space, ints) @ v)) < 1e-12


def test_sigma_block_is_bit_reproducible():
    # a transposed plan (beta strings as rows) and a 3-vector block
    ints = make_random_integrals(6, 36)
    space = enumerate_cas(7, 6, 1)
    plan = _sigma_plan(space)
    assert plan.transpose
    block = np.random.default_rng(6).standard_normal((space.size, 3))
    first = sigma(space, ints, block)
    assert _chunk_rows(plan, 2.0) == plan.n_row > 1
    assert np.array_equal(first, sigma(space, ints, block))
    cap = 0.5 * plan.row_bytes / 2 ** 30
    assert _chunk_rows(plan, cap) == 1
    one_row = sigma(space, ints, block, max_memory_gb=cap)
    assert np.max(np.abs(one_row - first)) < 1e-12


@pytest.mark.parametrize("n_elec,n_orb,ms2,transpose",
                         [(4, 5, 0, False), (7, 6, 1, True)])
def test_sigma_writes_into_out(n_elec, n_orb, ms2, transpose):
    # Davidson hands sigma the F-ordered columns of its sigma V buffer: what
    # sigma writes there is bit-identical to a fresh sigma, vector by
    # vector, for C- and F-ordered blocks and a strided 1-D vector, and no
    # other column of the buffer changes
    ints = make_random_integrals(n_orb, 38)
    space = enumerate_cas(n_elec, n_orb, ms2)
    assert _sigma_plan(space).transpose == transpose
    block = np.random.default_rng(38).standard_normal((space.size, 3))
    ref = sigma(space, ints, block)
    for j in range(3):
        assert np.array_equal(sigma(space, ints, block[:, j]), ref[:, j])
    for vec in (block, np.asfortranarray(block), block[:, 1]):
        buf = np.full((space.size, 5), np.nan, order="F")
        out = buf[:, 1:4] if vec.ndim == 2 else buf[:, 1]
        assert sigma(space, ints, vec, out=out) is out
        assert np.array_equal(out, sigma(space, ints, vec))
        assert np.isnan(buf[:, [0, 4]]).all()
    # a C-ordered out, strided column by column
    assert np.array_equal(sigma(space, ints, block, out=np.empty(block.shape)),
                          ref)
    for bad in (np.empty((space.size, 2)),
                np.empty(block.shape, dtype=np.float32)):
        with pytest.raises(ValueError, match="out of shape"):
            sigma(space, ints, block, out=bad)
    with pytest.raises(ValueError, match="overlaps"):
        sigma(space, ints, block, out=block)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("k", [1, 3])
def test_csr_add_matches_the_scipy_product(index_dtype, k):
    # csr_add calls private scipy routines, csr_matvecs and (transposed)
    # csc_matvecs: a scipy that moves or changes them fails here
    from scipy.sparse import random as sparse_random
    rng = np.random.default_rng(k)
    A = sparse_random(7, 5, density=0.4, format="csr", random_state=k)
    A.indices, A.indptr = A.indices.astype(index_dtype), A.indptr.astype(index_dtype)
    assert A.indices.dtype == A.indptr.dtype == index_dtype and A.nnz > 0
    table = Csr(A.indptr, A.indices, A.data, A.shape[1])
    for transpose, ref, (m, n) in ((False, A, A.shape), (True, A.T, A.shape[::-1])):
        X, Y0 = rng.standard_normal((n, k)), rng.standard_normal((m, k))
        Y = Y0.copy()
        csr_add(table, X, Y, transpose=transpose)
        assert np.max(np.abs(Y - (Y0 + ref @ X))) < 1e-14
        # any X or Y that ravel() would copy is refused, and Y is left as it was
        wide = rng.standard_normal((m, 2 * k))
        for bad_x, bad_y in ((np.asfortranarray(rng.standard_normal((n, 3))),
                              np.zeros((m, 3))),
                             (rng.standard_normal((2 * n, k))[::2], Y),
                             (X, wide[:, ::2]),
                             (np.ones((n, 3)), np.asfortranarray(np.zeros((m, 3)))),
                             (X.astype(np.float32), Y),
                             (X, np.zeros((m - 1, k))),
                             (Y0, X)):
            before = bad_y.copy()
            with pytest.raises(ValueError, match="C-contiguous float64"):
                csr_add(table, bad_x, bad_y, transpose=transpose)
            assert np.array_equal(bad_y, before)


def test_missing_sparsetools_extension_names_the_directory(monkeypatch):
    # no fallback import path: the error names where the file was sought
    sparse = os.path.join(
        importlib.util.find_spec("scipy").submodule_search_locations[0],
        "sparse")
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        lambda name, path: None)
    with pytest.raises(ImportError, match=re.escape(repr([sparse]))):
        csr._sparsetools.__wrapped__()


@pytest.mark.parametrize("seed", range(4))
def test_csr_from_coo_matches_scipy_csr_matrix(seed):
    # the tables are built with numpy, as scipy's csr_matrix would build
    # them: the same indptr, sorted indices of the same dtype and data
    from scipy.sparse import csr_matrix
    rng = np.random.default_rng(seed)
    n_row, n_col = rng.integers(1, 40, size=2)
    nnz = rng.integers(0, n_row * n_col // 2 + 1)
    flat = rng.permutation(n_row * n_col)[:nnz]
    rows, cols = flat // n_col, flat % n_col
    data = rng.standard_normal(nnz)
    # 3 empty rows at the end; then 2**31 + 5 columns, for int64 indices
    for shape, index in (((n_row + 3, n_col), np.int32),
                         ((n_row, 2**31 + 5), np.int64)):
        ref = csr_matrix((data, (rows, cols)), shape=shape)
        table = csr_from_coo(data, rows, cols, shape)
        assert table.n_col == shape[1] and table.indices.dtype == index
        for name in ("indptr", "indices", "data"):
            got, want = getattr(table, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
    if nnz:
        with pytest.raises(ValueError, match="given twice"):
            csr_from_coo(np.append(data, 1.0), np.append(rows, rows[0]),
                         np.append(cols, cols[0]), (n_row, n_col))


@pytest.mark.parametrize("n_elec,n_orb,ms2,transpose", [
    (7, 6, 1, True), (5, 6, 1, False)])
def test_sigma_carries_no_state_between_calls(n_elec, n_orb, ms2, transpose,
                                              monkeypatch):
    # sigma runs every chunk and vector of a call in one workspace, and
    # never through scipy's allocating sparse @ dense product
    from scipy.sparse._compressed import _cs_matrix
    product = ("_matmul_multivector" if hasattr(_cs_matrix, "_matmul_multivector")
               else "_mul_multivector")

    def refuse(*_):
        raise AssertionError("sigma called scipy's allocating product")
    monkeypatch.setattr(_cs_matrix, product, refuse)
    ints = make_random_integrals(n_orb, 37)
    space = enumerate_cas(n_elec, n_orb, ms2)
    plan = _sigma_plan(space)
    assert plan.transpose == transpose
    rng = np.random.default_rng(37)
    P = rng.standard_normal((space.size, 3))
    Q = 1e3 * rng.standard_normal((space.size, 3))
    H = dense_hamiltonian(space, ints)
    one_row = 0.5 * plan.row_bytes / 2 ** 30
    for cap, rows in ((one_row, 1), (2.0, plan.n_row)):
        assert _chunk_rows(plan, cap) == rows
        first = sigma(space, ints, P, max_memory_gb=cap)
        assert np.max(np.abs(first - H @ P)) < 1e-12
        assert np.max(np.abs(sigma(space, ints, Q, max_memory_gb=cap)
                             - H @ Q)) < 1e-9
        assert np.array_equal(sigma(space, ints, P, max_memory_gb=cap), first)
        # a 1-vector call after a 3-vector call
        assert np.array_equal(sigma(space, ints, P[:, 0], max_memory_gb=cap),
                              first[:, 0])


def test_scipy_loads_with_the_first_sigma_only():
    # the scipy.sparse package costs about 0.2 s and 16 MB to import, so
    # casq loads only scipy's compiled sparsetools extension, from its
    # file, at the first sigma, and not at import; a sigma and the spin
    # ladders of a 3,920-determinant block leave scipy.sparse unimported
    code = """
import sys
import casq, casq.cli, casq.driver, casq.ligandfield
from casq.csr import _sparsetools
loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
assert not loaded and _sparsetools.cache_info().currsize == 0, ('at import', loaded)
import numpy as np
from casq.casci import sigma
from casq.detspace import enumerate_cas
from casq.ingest import IntegralSet
from casq.spin import project_spin, s_squared_matrix
space = enumerate_cas(3, 4, 1)
sigma(space, IntegralSet(h=np.eye(4), g2=np.zeros((4,) * 4)), np.ones(space.size))
assert _sparsetools.cache_info().currsize == 1, 'after sigma'
big = enumerate_cas(7, 8, 1)
vecs = np.random.default_rng(0).standard_normal((big.size, 2))
s_squared_matrix(big, project_spin(big, vecs))
assert big.size > 400 and _sparsetools.cache_info().misses == 1
for name in ('scipy', 'scipy.sparse'):
    assert name not in sys.modules, name
"""
    path = f"import sys; sys.path.insert(0, {str(Path(casci.__file__).parents[1])!r})"
    run = subprocess.run([sys.executable, "-c", path + code],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_sigma_core_only():
    n = 4
    ints = IntegralSet(h=np.zeros((n, n)), g2=np.zeros((n,) * 4),
                       core_energy=-2.25)
    space = enumerate_cas(3, 4, 1)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(space.size)
    assert np.allclose(sigma(space, ints, v), -2.25 * v, atol=1e-14)


def test_sigma_linearity():
    ints = make_random_integrals(5, 33)
    space = enumerate_cas(5, 5, 1)
    rng = np.random.default_rng(1)
    v, w = rng.standard_normal((2, space.size))
    lhs = sigma(space, ints, 0.3 * v + 1.7 * w)
    rhs = 0.3 * sigma(space, ints, v) + 1.7 * sigma(space, ints, w)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_sigma_dimension_mismatch():
    ints = make_random_integrals(4, 34)
    space = enumerate_cas(3, 4, 1)
    with pytest.raises(ValueError, match="length"):
        sigma(space, ints, np.zeros(space.size + 1))
    with pytest.raises(ValueError, match="length"):
        sigma(space, ints, np.zeros((space.size + 1, 3)))


@st.composite
def cas_block(draw):
    """Random CAS(n_e, n_o <= 6) in any M_S block, a column count and a seed."""
    n_orb = draw(st.integers(1, 6))
    n_elec = draw(st.integers(1, 2 * n_orb))
    top = min(n_elec, 2 * n_orb - n_elec)
    ms2 = draw(st.sampled_from(range(-top, top + 1, 2)))
    return n_elec, n_orb, ms2, draw(st.integers(1, 4)), draw(st.integers(0, 2 ** 16))


@given(cas_block())
@example((6, 6, 0, 3, 7))    # the largest space: 400 determinants
@example((7, 6, 1, 2, 8))    # beta strings as the plan's rows
@example((5, 6, -3, 4, 9))
@example((9, 6, 3, 1, 10))
def test_sigma_dense_and_slater_condon_agree(case):
    n_elec, n_orb, ms2, k, seed = case
    rng = np.random.default_rng(seed)
    ints = make_random_integrals(n_orb, seed)
    space = enumerate_cas(n_elec, n_orb, ms2)
    H = dense_hamiltonian(space, ints)
    dets = [space.determinant(k) for k in range(space.size)]
    for i in rng.choice(space.size, min(3, space.size), replace=False):
        row = [hamiltonian_element(dets[i], d, ints) for d in dets]
        assert np.max(np.abs(H[i] - row)) < 1e-12
    block = rng.standard_normal((space.size, k))
    ref = H @ block
    # one chunk at the default cap, then at least two, then one row each
    plan = _sigma_plan(space)
    row_gb = plan.row_bytes / 2 ** 30
    half = max(1, plan.n_row // 2)
    for cap, rows in ((2.0, plan.n_row), ((half + 0.5) * row_gb, half),
                      (0.5 * row_gb, 1)):
        assert _chunk_rows(plan, cap) == rows
        got = sigma(space, ints, block, max_memory_gb=cap)
        assert got.shape == block.shape
        assert np.max(np.abs(got - ref)) < 1e-12


@pytest.mark.parametrize("n_elec,n_orb,ms2,seed", [
    (4, 5, 0, 71), (5, 5, 1, 72), (5, 5, -3, 73), (6, 6, 2, 74),
    (7, 6, -1, 75), (3, 6, 3, 76), (8, 7, 0, 77),
])
def test_guess_block_matches_element_loop(n_elec, n_orb, ms2, seed,
                                         monkeypatch):
    ints = make_random_integrals(n_orb, seed)
    space = enumerate_cas(n_elec, n_orb, ms2)
    rng = np.random.default_rng(seed)
    sel = rng.permutation(space.size)[:150]
    dets = [space.determinant(int(k)) for k in sel]
    ref = np.array([[hamiltonian_element(d1, d2, ints) for d2 in dets]
                    for d1 in dets])
    assert np.max(np.abs(dense_hamiltonian(space, ints, sel) - ref)) < 1e-12
    full = dense_hamiltonian(space, ints)
    assert np.array_equal(full, full.T)
    assert np.max(np.abs(full[np.ix_(sel, sel)] - ref)) < 1e-12
    # chunks of 7 pairs end inside rows of the pair triangle
    monkeypatch.setattr(casci, "PAIR_CHUNK", 7)
    assert np.max(np.abs(dense_hamiltonian(space, ints, sel) - ref)) < 1e-12


def test_64_orbitals_beyond_int64_masks(davidson_runs):
    # strings that occupy orbital 63 do not fit an int64 bit mask
    ints = make_model_integrals(64, 5)
    space = enumerate_cas(2, 64, 2)          # 2,016 determinants
    top = [k for k in range(space.size) if space.alpha_strings[k] >> 63]
    rng = np.random.default_rng(64)
    sel = np.r_[top, rng.choice(np.setdiff1d(np.arange(space.size), top), 37,
                                replace=False)]
    dets = [space.determinant(int(k)) for k in sel]
    ref = np.array([[hamiltonian_element(d1, d2, ints) for d2 in dets]
                    for d1 in dets])
    assert np.max(np.abs(dense_hamiltonian(space, ints, sel) - ref)) < 1e-12
    (dav,) = solve_davidson(space, ints, 1)
    assert davidson_runs == [space.size]
    (exact,) = dense_solve(space, ints, 1)
    assert abs(dav.energy - exact.energy) < 1e-10
    assert abs(dav.coeffs @ exact.coeffs) > 1.0 - 1e-10


def _count_sigma(monkeypatch) -> list:
    """Records every sigma call made inside casci (sigma_block included)."""
    calls = []
    fn = casci.sigma
    monkeypatch.setattr(casci, "sigma",
                        lambda *a, **k: calls.append(a[0].size) or fn(*a, **k))
    return calls


def test_small_block_skips_davidson_and_sigma(davidson_runs, monkeypatch):
    ints = make_random_integrals(6, 47)
    space = enumerate_cas(6, 6, 0)
    assert space.size == SMALL_SPACE
    ref = spin_filtered_energies(ints, space, 1, 5)
    sigmas = _count_sigma(monkeypatch)
    states = solve_davidson(space, ints, 5)
    assert davidson_runs == [] and sigmas == []
    assert np.max(np.abs([s.energy for s in states] - ref)) < 1e-10
    assert all(s.multiplicity == 1 for s in states)


def test_block_one_above_small_space_runs_davidson(davidson_runs, monkeypatch):
    ints = make_random_integrals(5, 48)
    space = enumerate_cas(4, 5, 0)           # 100 determinants
    ref = spin_filtered_energies(ints, space, 1, 3)
    for small, runs in ((space.size, []), (space.size - 1, [space.size])):
        monkeypatch.setattr(casci, "SMALL_SPACE", small)
        states = solve_davidson(space, ints, 3)
        assert davidson_runs == runs
        assert np.max(np.abs([s.energy for s in states] - ref)) < 1e-9


def test_auto_guess_covering_the_block_solves_densely(davidson_runs,
                                                      monkeypatch):
    # above SMALL_SPACE, an automatic guess of 2 n_roots determinants that
    # covers the block means the dense solve, not Davidson on an exact guess
    ints = make_random_integrals(5, 50)
    space = enumerate_cas(4, 5, 0)           # 100 determinants, 50 singlets
    monkeypatch.setattr(casci, "SMALL_SPACE", 10)
    ref = spin_filtered_energies(ints, space, 1)
    assert ref.size == 50
    states = solve_davidson(space, ints, 50)
    assert davidson_runs == []
    assert np.max(np.abs([s.energy for s in states] - ref)) < 1e-10


def test_explicit_guess_dim_below_block_runs_davidson(davidson_runs):
    ints = make_random_integrals(5, 49)
    space = enumerate_cas(4, 5, 0)           # 100 determinants
    ref = spin_filtered_energies(ints, space, 1, 3)
    for guess_dim, runs in ((space.size, []), (space.size - 1, [space.size])):
        states = solve_davidson(space, ints, 3, DavidsonOptions(guess_dim=guess_dim))
        assert davidson_runs == runs
        assert np.max(np.abs([s.energy for s in states] - ref)) < 1e-9


def test_davidson_matches_dense_energies_and_vectors(davidson_runs):
    ints = make_random_integrals(6, 41)
    space = enumerate_cas(6, 6, 0)  # 400 determinants
    n_roots = 8
    # a guess_dim below the block size keeps it off the dense route
    dav = solve_davidson(space, ints, n_roots,
                         DavidsonOptions(tol=1e-9, guess_dim=32))
    assert davidson_runs == [space.size]
    ref = dense_solve(space, ints, n_roots)
    for a, b in zip(dav, ref):
        assert abs(a.energy - b.energy) < 1e-9
    # eigenvector overlap per nondegenerate root
    for k in range(n_roots):
        gap_ok = (k == 0 or ref[k].energy - ref[k - 1].energy > 1e-6) and \
                 (k == n_roots - 1 or ref[k + 1].energy - ref[k].energy > 1e-6)
        if gap_ok:
            ov = abs(dav[k].coeffs @ ref[k].coeffs)
            assert ov >= 1.0 - 1e-8


def test_davidson_full_space_roots():
    ints = make_random_integrals(5, 42)
    space = enumerate_cas(2, 5, 0)  # C(5,1)^2 = 25 determinants
    # every root of the block's spin: 15 singlets beside 10 triplet components
    n = space.size - cas_dimension(2, 5, 2)
    dav = solve_davidson(space, ints, n)
    assert np.allclose([s.energy for s in dav],
                       spin_filtered_energies(ints, space, 1), atol=1e-9)
    with pytest.raises(ValueError, match="only 15 roots"):
        solve_davidson(space, ints, n + 1)


def test_davidson_ten_det_full_spectrum():
    ints = make_random_integrals(5, 43)
    space = enumerate_cas(1, 5, 1)
    # 5 determinants only: full spectrum through the guess path
    dav = solve_davidson(space, ints, space.size)
    w = np.linalg.eigvalsh(dense_hamiltonian(space, ints))
    assert np.allclose([s.energy for s in dav], w, atol=1e-11)


def test_davidson_root_bounds():
    ints = make_random_integrals(4, 44)
    space = enumerate_cas(2, 4, 0)
    with pytest.raises(ValueError):
        solve_davidson(space, ints, space.size + 1)
    with pytest.raises(ValueError):
        dense_solve(space, ints, 0)


def test_davidson_nonconvergence_diagnostics(davidson_runs):
    ints = make_random_integrals(6, 45)
    space = enumerate_cas(6, 6, 0)
    with pytest.raises(DavidsonNotConverged) as exc:
        solve_davidson(space, ints, 4,
                       DavidsonOptions(tol=1e-12, max_iter=2, guess_dim=32))
    assert davidson_runs == [space.size]
    result = exc.value.result
    assert result.residual_norms.shape == (4,)
    assert not result.converged


def test_variational_monotonicity_under_orbital_growth():
    # appending a decoupled orbital cannot raise the ground energy
    ints5 = make_random_integrals(5, 46)
    space5 = enumerate_cas(4, 5, 0)
    e5 = dense_solve(space5, ints5, 1)[0].energy
    h6 = np.zeros((6, 6))
    h6[:5, :5] = ints5.h
    h6[5, 5] = 50.0  # high-lying empty orbital, uncoupled
    g6 = np.zeros((6,) * 4)
    g6[:5, :5, :5, :5] = ints5.g2
    ints6 = IntegralSet(h=h6, g2=g6, core_energy=ints5.core_energy)
    e6 = dense_solve(enumerate_cas(4, 6, 0), ints6, 1)[0].energy
    assert e6 <= e5 + 1e-12


def test_dense_solve_takes_spin_roots_from_degenerate_clusters():
    # h = diag(0..5), g = 0: states of different spin are exactly
    # degenerate, and eigh returns an arbitrary basis of each eigenspace
    ints = IntegralSet(h=np.diag(np.arange(6.0)), g2=np.zeros((6,) * 4))
    for (n_elec, ms2, n_roots), want in (((4, 0, 4), [2, 3, 4, 4]),
                                         ((5, 1, 5), [4, 5, 5, 6, 6])):
        space = enumerate_cas(n_elec, 6, ms2)
        states = dense_solve(space, ints, n_roots)
        assert np.allclose([s.energy for s in states], want, rtol=0, atol=1e-12)
        exact = ms2 * (ms2 + 2) / 4.0
        assert all(abs(s.s2_expect - exact) < 1e-12 for s in states)
