from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given

from casq import analysis
from casq.analysis import (
    decompose,
    flip_transition_densities,
    format_decomposition,
    natural_occupations,
    one_rdm,
    spin_transition_densities,
)
from casq.casci import CiState, dense_solve
from casq.detspace import Determinant, enumerate_cas
from casq.spin import flip_lower_links, flip_raise_links, s_squared

from _oracles import creation_matrix, fock_one_electron, space_projector
from conftest import make_random_integrals, stacked_block


def _state(space, vec):
    vec = np.asarray(vec, dtype=float)
    vec = vec / np.linalg.norm(vec)
    return CiState(energy=0.0, coeffs=vec, space=space,
                   s2_expect=s_squared(space, vec), multiplicity=space.ms2 + 1)


def test_transition_density_matches_fock_oracle():
    rng = np.random.default_rng(9)
    space = enumerate_cas(3, 3, 1)
    P = space_projector(space)
    bra = rng.standard_normal(space.size)
    ket = rng.standard_normal(space.size)
    ga, gb = spin_transition_densities(space, bra, ket)
    n = space.n_orb
    for p in range(n):
        for q in range(n):
            ca = np.zeros((2 * n, 2 * n))
            ca[p, q] = 1.0
            ref_a = bra @ P @ fock_one_electron(ca, n).real @ P.T @ ket
            cb = np.zeros((2 * n, 2 * n))
            cb[n + p, n + q] = 1.0
            ref_b = bra @ P @ fock_one_electron(cb, n).real @ P.T @ ket
            assert ga[p, q] == pytest.approx(ref_a, abs=1e-12)
            assert gb[p, q] == pytest.approx(ref_b, abs=1e-12)


def _columns(rng, space, k):
    return rng.standard_normal((space.size, k) if k else space.size)


def _fock_pair_densities(n_orb, bra_space, ket_space, bra, ket, spins):
    """ref[p,q] = bra^T <a+_p(s1) a_q(s2)> ket from explicit Fock matrices."""
    n_so = 2 * n_orb
    cre = [creation_matrix(n_so, k) for k in range(n_so)]
    Pb, Pk = space_projector(bra_space), space_projector(ket_space)
    off = {"alpha": 0, "beta": n_orb}
    s1, s2 = (off[s] for s in spins)
    ref = np.zeros((n_orb, n_orb) + bra.shape[1:] + ket.shape[1:])
    for p in range(n_orb):
        for q in range(n_orb):
            block = Pb @ cre[s1 + p] @ cre[s2 + q].T @ Pk.T
            ref[p, q] = np.tensordot(bra, block @ ket, axes=(0, 0))
    return ref


@given(stacked_block())
def test_block_densities_match_fock_oracle(case):
    n_elec, n_orb, ms2, kb, kk, seed = case
    rng = np.random.default_rng(seed)
    space = enumerate_cas(n_elec, n_orb, ms2)
    bra, ket = _columns(rng, space, kb), _columns(rng, space, kk)
    ga, gb = spin_transition_densities(space, bra, ket)
    for got, spin in ((ga, "alpha"), (gb, "beta")):
        ref = _fock_pair_densities(n_orb, space, space, bra, ket, (spin, spin))
        assert np.allclose(got, ref, rtol=0, atol=1e-12)
    # spin flips out of this block, as stacks of columns
    kb, kk = max(kb, 1), max(kk, 1)
    top = min(n_elec, 2 * n_orb - n_elec)
    for table, spins, edge in ((flip_lower_links, ("beta", "alpha"), -top),
                               (flip_raise_links, ("alpha", "beta"), top)):
        links = table(space)
        assert (links is None) == (ms2 == edge)
        if links is None:
            continue
        other = links[0]
        bra, ket = _columns(rng, other, kb), _columns(rng, space, kk)
        ref = _fock_pair_densities(n_orb, other, space, bra, ket, spins)
        got = flip_transition_densities(links, bra, ket)
        assert np.allclose(got, ref, rtol=0, atol=1e-12)


@given(stacked_block())
@example((0, 1, 0, 2, 1, 3))      # n_orb = 1, k = 0: no string to gather
@example((2, 1, 0, 0, 3, 4))      # n_orb = 1, k = n_orb: one string
@example((1, 1, 1, 1, 0, 5))      # n_orb = 1, alpha k = 1, beta k = 0
@example((2, 3, 2, 3, 2, 6))      # beta k = 0; a flip up only from below
@example((5, 3, 1, 2, 3, 7))      # alpha k = n_orb: one slot per string
@example((4, 2, 0, 3, 3, 8))      # k = n_orb on both spins
def test_chunk_size_does_not_change_densities(case):
    # same-spin densities and both spin flips of a block, in one chunk,
    # one string per chunk and chunks of 2, 3 and 5 strings (ragged):
    # bit-identical to each other, and to the Fock oracle within 1e-12
    n_elec, n_orb, ms2, kb, kk, seed = case
    rng = np.random.default_rng(seed)
    space = enumerate_cas(n_elec, n_orb, ms2)
    kb, kk = max(kb, 1), max(kk, 1)
    bra, ket = _columns(rng, space, kb), _columns(rng, space, kk)
    na, nb = len(space.alpha_strings), len(space.beta_strings)
    # (densities at the current chunk size, oracle); the bytes of one
    # string's intermediates: slots times the rest of a side's strings
    calls = [(lambda: spin_transition_densities(space, bra, ket),
              [_fock_pair_densities(n_orb, space, space, bra, ket, (s, s))
               for s in ("alpha", "beta")])]
    slots_a, slots_b = n_orb - space.n_alpha + 1, n_orb - space.n_beta + 1
    sizes = {(nb * slots_a, nb * slots_a), (na * slots_b, na * slots_b)}
    for table, spins in ((flip_lower_links, ("beta", "alpha")),
                         (flip_raise_links, ("alpha", "beta"))):
        links = table(space)
        if links is not None:
            f_bra = _columns(rng, links[0], kb)
            calls.append((lambda links=links, f_bra=f_bra:
                          [flip_transition_densities(links, f_bra, ket)],
                          [_fock_pair_densities(n_orb, links[0], space,
                                                f_bra, ket, spins)]))
            slots = slots_a if links[2][1] else space.n_alpha + 1
            sizes.add((len(links[0].beta_strings), nb * slots))
    caps = {2 ** 62, 1} | {step * (b * kb + k * kk) * 8
                           for b, k in sizes for step in (2, 3, 5)}
    for densities, refs in calls:
        want = densities()
        for got, ref in zip(want, refs):
            assert np.allclose(got, ref, rtol=0, atol=1e-12)
        for cap in sorted(caps):
            with mock.patch.object(analysis, "CHUNK_BYTES", cap):
                got = densities()
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_one_rdm_single_determinant():
    space = enumerate_cas(2, 2, 0)
    v = np.zeros(space.size)
    v[space.index(Determinant(0b01, 0b01, 2))] = 1.0
    dm = one_rdm(space, [_state(space, v)], [1.0])
    assert np.allclose(dm, np.diag([2.0, 0.0]), atol=1e-12)


def test_one_rdm_trace_random_vectors():
    rng = np.random.default_rng(10)
    space = enumerate_cas(4, 4, 0)
    states = [_state(space, rng.standard_normal(space.size)) for _ in range(3)]
    dm = one_rdm(space, states, [0.5, 0.3, 0.2])
    assert abs(np.trace(dm) - space.n_elec) < 1e-10
    occ = natural_occupations(dm)
    assert np.all(occ >= 0.0) and np.all(occ <= 2.0)
    assert abs(occ.sum() - space.n_elec) < 1e-10


def test_one_rdm_weight_validation():
    space = enumerate_cas(2, 2, 0)
    v = np.zeros(space.size)
    v[0] = 1.0
    st = _state(space, v)
    with pytest.raises(ValueError, match="weights"):
        one_rdm(space, [st], [0.7])
    with pytest.raises(ValueError, match="weights"):
        one_rdm(space, [st, st], [1.5, -0.5])


def test_natural_occupations_basic():
    occ = natural_occupations(np.diag([2.0, 1.0, 0.0]))
    assert np.allclose(occ, [2.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="symmetric"):
        natural_occupations(np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="outside"):
        natural_occupations(np.diag([2.5, 0.0]))
    # tiny eigenvalue overshoot from roundoff is clipped
    occ = natural_occupations(np.diag([2.0 + 1e-12, -1e-13]))
    assert occ[0] == 2.0 and occ[1] == 0.0


def test_transition_density_ground_excited_orthogonal():
    ints = make_random_integrals(4, 61)
    space = enumerate_cas(3, 4, 1)
    states = dense_solve(space, ints, 3)
    g = sum(spin_transition_densities(space, states[0].coeffs, states[1].coeffs))
    # no particular structure required, but the contraction with identity
    # (= overlap * n_elec) must vanish for orthogonal states
    assert abs(np.trace(g)) < 1e-10


def test_decompose_pure_determinant():
    space = enumerate_cas(3, 4, 1)
    v = np.zeros(space.size)
    v[7] = 1.0
    st = _state(space, v)
    lines = decompose(st, threshold_percent=1.0)
    assert len(lines) == 1
    det_str, weight = lines[0]
    assert weight == pytest.approx(100.0)
    assert det_str == space.determinant(7).to_string()


def test_decompose_two_weights():
    # c = (0.954, 0.3) -> 91% and 9%
    space = enumerate_cas(1, 2, 1)
    v = np.array([0.954, 0.3])
    st = _state(space, v / np.linalg.norm(v))
    lines = decompose(st, threshold_percent=1.0)
    weights = [round(w) for _, w in lines]
    assert weights == [91, 9]


def test_decompose_merges_conjugate_pair():
    # 7-orbital singlet block: "2 2 u 2 0 d 0" and its u/d swap carry equal
    # weight and merge into one 49% line with the lower-index representative
    space = enumerate_cas(8, 7, 0)
    det_u = _det_from_string("2 2 u 2 0 d 0")
    det_d = _det_from_string("2 2 d 2 0 u 0")
    other = _det_from_string("2 2 2 2 0 0 0")
    v = np.zeros(space.size)
    v[space.index(det_u)] = np.sqrt(0.245)
    v[space.index(det_d)] = np.sqrt(0.245)
    v[space.index(other)] = np.sqrt(0.51)
    st = _state(space, v)
    lines = decompose(st, threshold_percent=1.0)
    assert lines[0][0] == "2 2 2 2 0 0 0"
    assert lines[0][1] == pytest.approx(51.0)
    assert lines[1][0] == "2 2 u 2 0 d 0"
    assert lines[1][1] == pytest.approx(49.0)
    rendered = format_decomposition(lines)
    assert rendered[1] == "2 2 u 2 0 d 0 (49%)"
    # a pair of 0.6% each reaches a 1% threshold only as a merged line
    v[space.index(other)] = np.sqrt(0.498)
    v[space.index(_det_from_string("2 2 u 0 2 d 0"))] = np.sqrt(0.006)
    v[space.index(_det_from_string("2 2 d 0 2 u 0"))] = np.sqrt(0.006)
    lines = decompose(_state(space, v), threshold_percent=1.0)
    assert len(lines) == 3
    assert lines[2][0] == "2 2 u 0 2 d 0"
    assert lines[2][1] == pytest.approx(1.2)


def test_decompose_weights_sum_to_100():
    rng = np.random.default_rng(11)
    space = enumerate_cas(4, 4, 0)
    st = _state(space, rng.standard_normal(space.size))
    lines = decompose(st, threshold_percent=0.0)
    assert sum(w for _, w in lines) == pytest.approx(100.0, abs=1e-8)


def _det_from_string(text):
    alpha = beta = 0
    chars = text.split()
    for p, ch in enumerate(chars):
        if ch in ("2", "u"):
            alpha |= 1 << p
        if ch in ("2", "d"):
            beta |= 1 << p
    return Determinant(alpha, beta, len(chars))
