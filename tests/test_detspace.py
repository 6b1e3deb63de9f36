from dataclasses import replace
from math import comb

import numpy as np
import pytest

from casq.detspace import (
    Determinant,
    annihilators,
    cas_dimension,
    enumerate_cas,
    excitation_links,
    occupation_matrix,
    occupied_orbitals,
    relative_sign,
    single_excitation_sign,
)

from _oracles import annihilation_matrix, creation_matrix, fock_index, so_index


def test_enumerate_counts():
    assert enumerate_cas(1, 5, 1).size == 5
    assert enumerate_cas(9, 5, 1).size == 5
    assert cas_dimension(17, 12, 1) == 108_900
    assert cas_dimension(13, 14, 1) == 10_306_296


def test_enumerate_errors():
    with pytest.raises(ValueError, match="parity"):
        enumerate_cas(2, 2, 1)
    with pytest.raises(ValueError):
        enumerate_cas(1, 5, 3)
    with pytest.raises(ValueError):
        enumerate_cas(2, 3, -4)
    with pytest.raises(ValueError):
        enumerate_cas(11, 5, 1)


def test_vacuum_space():
    space = enumerate_cas(0, 3, 0)
    assert space.size == 1
    det = space.determinant(0)
    assert det.alpha == 0 and det.beta == 0


def test_index_bijection_exhaustive():
    for args in [(3, 4, 1), (4, 4, 0), (5, 5, 1), (6, 6, 0)]:
        space = enumerate_cas(*args)
        for k in range(space.size):
            det = space.determinant(k)
            assert space.index(det) == k
            assert det.n_elec == space.n_elec
            assert det.ms2 == space.ms2


def test_enumeration_deterministic():
    a = enumerate_cas(5, 6, 1)
    b = enumerate_cas(5, 6, 1)
    assert a is b  # cached singleton
    assert a.alpha_strings == tuple(sorted(a.alpha_strings, key=_occ_key))


def _occ_key(mask):
    return occupied_orbitals(mask)


def test_position_is_alpha_major():
    space = enumerate_cas(2, 3, 0)
    nb = len(space.beta_strings)
    det = space.determinant(2 * nb + 1)
    assert det.alpha == space.alpha_strings[2]
    assert det.beta == space.beta_strings[1]


def test_to_string():
    det = Determinant(0b01011, 0b01101, 5)
    assert det.to_string() == "2 u d 2 0"
    closed = Determinant(0b11, 0b11, 2)
    assert closed.to_string() == "2 2"


def test_single_signs_against_fock_oracle():
    # every single excitation sign on all determinants of CAS(2,4) and CAS(3,4)
    for n_elec, ms2 in [(2, 0), (3, 1)]:
        space = enumerate_cas(n_elec, 4, ms2)
        n_orb = space.n_orb
        n_so = 2 * n_orb
        cre = [creation_matrix(n_so, k) for k in range(n_so)]
        ann = [annihilation_matrix(n_so, k) for k in range(n_so)]
        for k in range(space.size):
            det = space.determinant(k)
            src = fock_index(det.alpha, det.beta, n_orb)
            for spin in ("alpha", "beta"):
                mask = getattr(det, spin)
                virt = occupied_orbitals(~mask & ((1 << n_orb) - 1))
                for i in occupied_orbitals(mask):
                    for a in virt:
                        new = replace(det, **{spin: (mask ^ (1 << i)) | (1 << a)})
                        dst = fock_index(new.alpha, new.beta, n_orb)
                        sign = single_excitation_sign(mask, i, a)
                        op = cre[so_index(a, spin, n_orb)] @ ann[so_index(i, spin, n_orb)]
                        assert op[dst, src] == pytest.approx(sign)
                        assert sign in (-1, 1)


@pytest.mark.parametrize("n_orb", range(1, 7))
def test_string_tables_against_fock_oracle(n_orb):
    # the stacked a_p maps, the E_pq size classes and the occupation
    # matrices of every k-electron string set against a_p and a+_p a_q in
    # the one-spin Fock space (basis index = bitstring): int64 indices, a_p
    # rows of shape (n, C(n-1, k-1)) with src and dst ascending, E_pq rows
    # with src ascending; a group in no class (every group at k = 0, the
    # off-diagonal ones at k = n_orb) is zero on the strings
    cre = [creation_matrix(n_orb, p) for p in range(n_orb)]
    for k in range(n_orb + 1):
        strings = enumerate_cas(k, n_orb, k).alpha_strings
        rows = [fock_index(s, 0, n_orb) for s in strings]
        lower = ([fock_index(s, 0, n_orb) for s
                  in enumerate_cas(k - 1, n_orb, k - 1).alpha_strings]
                 if k else [])
        occ = occupation_matrix(n_orb, k)
        assert occ.shape == (len(strings), n_orb)
        src, dst, sign = annihilators(n_orb, k)
        assert src.shape == dst.shape == sign.shape == (
            n_orb, comb(n_orb - 1, k - 1) if k else 0)
        assert src.dtype == dst.dtype == np.int64
        for p in range(n_orb):
            assert np.array_equal(occ[:, p], np.diag(cre[p] @ cre[p].T)[rows])
            assert np.all(np.diff(src[p]) > 0) and np.all(np.diff(dst[p]) > 0)
            table = np.zeros((len(lower), len(strings)))
            table[dst[p], src[p]] = sign[p]
            assert np.array_equal(table, cre[p].T[np.ix_(lower, rows)])
        missing = set(range(n_orb * n_orb))
        gid, g_src, g_dst, g_sign = excitation_links(n_orb, k)
        assert g_src.dtype == g_dst.dtype == np.int64
        for g in np.unique(gid):
            missing.remove(g)
            s, d = g_src[gid == g], g_dst[gid == g]
            assert np.unique(s).size == s.size
            p, q = divmod(int(g), n_orb)
            table = np.zeros((len(strings), len(strings)))
            table[d, s] = g_sign[gid == g]
            ref = (cre[p] @ cre[q].T)[np.ix_(rows, rows)]
            assert np.array_equal(table, ref)
        for g in missing:
            p, q = divmod(g, n_orb)
            assert k == 0 or (k == n_orb and p != q)
            assert not (cre[p] @ cre[q].T)[np.ix_(rows, rows)].any()


@pytest.mark.parametrize("n_orb", [1, 2, 3, 5])
def test_excitation_classes_stack_the_links_by_size(n_orb):
    # diagonal groups of C(n-1, k-1) entries, off-diagonal ones of
    # C(n-2, k-1); none at k = 0, only the diagonal at k = n_orb; the four
    # arrays are flat and of one length
    for k in range(n_orb + 1):
        gid, src, dst, sign = excitation_links(n_orb, k)
        assert gid.ndim == 1 and gid.shape == src.shape == dst.shape == sign.shape
        groups, sizes = np.unique(gid, return_counts=True)
        diagonal = groups // n_orb == groups % n_orb
        assert set(sizes[diagonal]) == ({comb(n_orb - 1, k - 1)} if k else set())
        assert set(sizes[~diagonal]) == ({comb(n_orb - 2, k - 1)}
                                         if 0 < k < n_orb else set())
        assert groups.tolist() == (
            [] if k == 0 else [p * (n_orb + 1) for p in range(n_orb)]
            if k == n_orb else list(range(n_orb * n_orb)))


def test_relative_sign_against_fock_oracle():
    # double excitations within one spin string, exhaustive over 3 electrons
    # in 5 orbitals: relative_sign must equal <m2| a+_a a+_b a_j a_i |m1>
    # with removed (i<j) and added (a<b) orbitals paired ascending.
    n_orb = 5
    n_so = 2 * n_orb
    cre = [creation_matrix(n_so, k) for k in range(n_so)]
    ann = [annihilation_matrix(n_so, k) for k in range(n_so)]
    masks = [m for m in range(1 << n_orb) if m.bit_count() == 3]
    checked = 0
    for m1 in masks:
        for m2 in masks:
            if (m1 ^ m2).bit_count() != 4:
                continue
            (i, j) = occupied_orbitals(m1 & ~m2)
            (a, b) = occupied_orbitals(m2 & ~m1)
            op = cre[a] @ cre[b] @ ann[j] @ ann[i]
            ref = op[fock_index(m2, 0, n_orb), fock_index(m1, 0, n_orb)]
            assert ref == pytest.approx(relative_sign(m1, m2))
            checked += 1
    assert checked == 30  # 10 strings x C(3,2) double moves each


def test_index_bijection_large_space():
    # exhaustive index(dets[k]) == k on the 108,900-determinant block
    space = enumerate_cas(17, 12, 1)
    assert space.size == 108_900
    nb = len(space.beta_strings)
    for k in range(space.size):
        det = space.determinant(k)
        ia = space.alpha_index[det.alpha]
        ib = space.beta_index[det.beta]
        assert ia * nb + ib == k
