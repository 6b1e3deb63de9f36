import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from casq import spin
from casq.casci import (InvariantBreach, _spin_flip, assemble_multiplets,
                        dense_solve, solve_davidson)
from casq.detspace import Determinant, cas_dimension, enumerate_cas
from casq.ingest import DavidsonOptions
from casq.analysis import flip_transition_densities
from casq.spin import (
    LadderAnnihilation,
    _ladder,
    _s_minus_links,
    _s_plus_links,
    apply_s_minus,
    flip_lower_links,
    flip_raise_links,
    project_spin,
    s_squared,
    s_squared_matrix,
)

from _oracles import (
    fock_one_electron,
    fock_s_squared,
    fock_spin_ops,
    space_projector,
)
from conftest import make_random_integrals, spin_filtered_energies, stacked_block

# Every M_S block of CAS(3,4), CAS(4,4) and CAS(5,4) that has a block
# below it; the blocks at the two ends are in test_ladders_at_edge_blocks.
LOWERABLE_BLOCKS = [(3, 4, -1), (3, 4, 1), (3, 4, 3),
                    (4, 4, -2), (4, 4, 0), (4, 4, 2), (4, 4, 4),
                    (5, 4, -1), (5, 4, 1), (5, 4, 3)]


def test_s_squared_matches_fock_oracle():
    rng = np.random.default_rng(3)
    for n_elec, n_orb, ms2 in [(2, 3, 0), (3, 3, 1), (3, 4, 1), (4, 4, 2)]:
        space = enumerate_cas(n_elec, n_orb, ms2)
        P = space_projector(space)
        s2_block = P @ fock_s_squared(n_orb) @ P.T
        for _ in range(3):
            v = rng.standard_normal(space.size)
            v /= np.linalg.norm(v)
            assert s_squared(space, v) == pytest.approx(v @ s2_block @ v,
                                                        abs=1e-12)


def test_s_squared_matrix_block():
    rng = np.random.default_rng(4)
    space = enumerate_cas(3, 4, 1)
    P = space_projector(space)
    s2_block = P @ fock_s_squared(4) @ P.T
    V = rng.standard_normal((space.size, 3))
    assert np.allclose(s_squared_matrix(space, V), V.T @ s2_block @ V,
                       atol=1e-12)


def test_s_squared_trivial_cases():
    # high-spin triplet component alpha=11, beta=00
    space = enumerate_cas(2, 2, 2)
    v = np.zeros(space.size)
    v[space.index(Determinant(0b11, 0, 2))] = 1.0
    assert s_squared(space, v) == pytest.approx(2.0, abs=1e-12)
    # open-shell singlet: with alpha operators ordered before beta the
    # singlet is the symmetric combination (|ud> + |du>)/sqrt(2)
    space0 = enumerate_cas(2, 2, 0)
    v = np.zeros(space0.size)
    v[space0.index(Determinant(0b01, 0b10, 2))] = 1.0 / np.sqrt(2)
    v[space0.index(Determinant(0b10, 0b01, 2))] = 1.0 / np.sqrt(2)
    assert s_squared(space0, v) == pytest.approx(0.0, abs=1e-12)
    v[space0.index(Determinant(0b10, 0b01, 2))] *= -1.0  # triplet M_S=0
    assert s_squared(space0, v) == pytest.approx(2.0, abs=1e-12)


def test_apply_s_minus_matches_fock_oracle():
    rng = np.random.default_rng(5)
    for n_elec, n_orb, ms2 in [(3, 3, 3)] + LOWERABLE_BLOCKS:
        space = enumerate_cas(n_elec, n_orb, ms2)
        sp, sm, _ = fock_spin_ops(n_orb)
        v = rng.standard_normal(space.size)
        lower, w = apply_s_minus(space, v)
        ref = space_projector(lower) @ sm @ space_projector(space).T @ v
        assert np.allclose(w, ref, atol=1e-12)
        up, wu = _ladder(_s_plus_links(lower), w)
        assert up is space
        ref_up = space_projector(space) @ sp @ space_projector(lower).T @ w
        assert np.allclose(wu, ref_up, atol=1e-12)


def test_s_minus_triplet_example():
    # |uu> -> equal-weight mix of |ud> and |du> after normalization; the
    # relative phase follows the alpha-block-first operator ordering
    space = enumerate_cas(2, 2, 2)
    v = np.zeros(space.size)
    v[space.index(Determinant(0b11, 0, 2))] = 1.0
    lower, w = apply_s_minus(space, v)
    assert np.linalg.norm(w) ** 2 == pytest.approx(2.0)  # S(S+1)-M(M-1) = 2
    w /= np.linalg.norm(w)
    m0 = np.zeros(lower.size)
    m0[lower.index(Determinant(0b01, 0b10, 2))] = 1.0 / np.sqrt(2)
    m0[lower.index(Determinant(0b10, 0b01, 2))] = -1.0 / np.sqrt(2)
    assert np.allclose(np.abs(w @ m0), 1.0, atol=1e-12)
    assert s_squared(lower, w) == pytest.approx(2.0, abs=1e-12)


def test_s_minus_norm_quartet():
    # S=3/2, M=3/2: norm^2 = 15/4 - 3/4 = 3
    space = enumerate_cas(3, 3, 3)
    v = np.zeros(space.size)
    v[0] = 1.0
    _, w = apply_s_minus(space, v)
    assert np.linalg.norm(w) ** 2 == pytest.approx(3.0, abs=1e-12)


def test_s_minus_annihilates_singlet():
    space = enumerate_cas(2, 2, 0)
    v = np.zeros(space.size)
    v[space.index(Determinant(0b01, 0b10, 2))] = 1.0 / np.sqrt(2)
    v[space.index(Determinant(0b10, 0b01, 2))] = 1.0 / np.sqrt(2)
    assert s_squared(space, v) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(LadderAnnihilation):
        apply_s_minus(space, v)


def test_spin_purity_of_cas_roots():
    ints = make_random_integrals(4, 51)
    space = enumerate_cas(4, 4, 0)
    for st in dense_solve(space, ints, 8):
        s = (st.multiplicity - 1) / 2.0
        assert abs(st.s2_expect - s * (s + 1.0)) < 1e-6


def test_ms_independence_of_doublet_spectrum():
    # the doublets solved at M_S = +1/2 are those of the M_S = -1/2 block,
    # where the solvers, whose spin projector needs a top block, refuse
    ints = make_random_integrals(4, 52)
    up = [s.energy for s in dense_solve(enumerate_cas(3, 4, 1), ints, 6)]
    down = enumerate_cas(3, 4, -1)
    assert np.allclose(up, spin_filtered_energies(ints, down, 2, 6), atol=1e-10)
    for solve in (dense_solve, solve_davidson):
        with pytest.raises(ValueError, match="ms2=-1"):
            solve(down, ints, 6)


def _flip_oracle_check(links, space, target, spins, rng):
    """flip_transition_densities of one column each way against the Fock
    oracle's <w|a+_p a_q|v> for every (p, q), spins (creator, annihilator)."""
    n_orb = space.n_orb
    Pv = space_projector(space)
    Pw = space_projector(target)
    v = rng.standard_normal(space.size)
    w = rng.standard_normal(target.size)
    got = flip_transition_densities(links, w[:, None], v[:, None])[:, :, 0, 0]
    offset = {"alpha": 0, "beta": n_orb}
    for p in range(n_orb):
        for q in range(n_orb):
            coeff = np.zeros((2 * n_orb, 2 * n_orb))
            coeff[offset[spins[0]] + p, offset[spins[1]] + q] = 1.0
            ref = w @ (Pw @ fock_one_electron(coeff, n_orb).real @ Pv.T) @ v
            assert got[p, q] == pytest.approx(ref, abs=1e-12)


def test_flip_lower_links_match_fock_oracle():
    rng = np.random.default_rng(6)
    for n_elec, n_orb, ms2 in [(3, 3, 1)] + LOWERABLE_BLOCKS:
        space = enumerate_cas(n_elec, n_orb, ms2)
        links = flip_lower_links(space)
        lower = enumerate_cas(n_elec, n_orb, ms2 - 2)
        assert links[0] is lower
        _flip_oracle_check(links, space, lower, ("beta", "alpha"), rng)


def test_flip_raise_links_match_fock_oracle():
    rng = np.random.default_rng(8)
    for n_elec, n_orb, ms2 in [(3, 3, 3)] + LOWERABLE_BLOCKS:
        upper = enumerate_cas(n_elec, n_orb, ms2)
        space = enumerate_cas(n_elec, n_orb, ms2 - 2)
        links = flip_raise_links(space)
        assert links[0] is upper
        _flip_oracle_check(links, space, upper, ("alpha", "beta"), rng)


def test_flip_operands_stay_string_sized():
    # every array the flip operands of a CAS(9,9) block hold is a string
    # map: no longer than n_orb times the block's largest string count
    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, tuple):
            for item in obj:
                yield from arrays(item)

    for ms2 in range(-9, 10, 2):
        space = enumerate_cas(9, 9, ms2)
        bound = 9 * max(len(space.alpha_strings), len(space.beta_strings))
        for table in (flip_lower_links, flip_raise_links):
            links = table(space)
            if links is None:
                continue
            sizes = [a.size for a in arrays(links)]
            assert sizes and max(sizes) <= bound


@pytest.mark.parametrize("n_elec", [3, 4, 5])
def test_ladders_at_edge_blocks(n_elec):
    top = min(n_elec, 8 - n_elec)  # largest 2*M_S in 4 orbitals
    bottom = enumerate_cas(n_elec, 4, -top)
    assert flip_lower_links(bottom) is None
    with pytest.raises(LadderAnnihilation):
        apply_s_minus(bottom, np.ones(bottom.size))
    upper = enumerate_cas(n_elec, 4, top)
    assert flip_raise_links(upper) is None
    assert _s_plus_links(upper) is None


@st.composite
def cas_blocks(draw):
    n_orb = draw(st.integers(1, 4))
    n_elec = draw(st.integers(0, 2 * n_orb))
    top = min(n_elec, 2 * n_orb - n_elec)
    return n_elec, n_orb, draw(st.sampled_from(range(-top, top + 1, 2)))


@given(cas_blocks())
def test_s_plus_is_s_minus_of_block_above_transposed(block):
    n_elec, n_orb, ms2 = block
    space = enumerate_cas(n_elec, n_orb, ms2)
    P = space_projector(space)
    V = np.random.default_rng(7).standard_normal((space.size, 3))
    assert np.allclose(s_squared_matrix(space, V),
                       V.T @ P @ fock_s_squared(n_orb) @ P.T @ V, atol=1e-12)
    if ms2 == min(n_elec, 2 * n_orb - n_elec):
        assert _s_plus_links(space) is None
        return
    upper = enumerate_cas(n_elec, n_orb, ms2 + 2)
    plus = np.column_stack([_ladder(_s_plus_links(space), e)[1]
                            for e in np.eye(space.size)])
    minus = np.column_stack([_ladder(_s_minus_links(upper), e)[1]
                             for e in np.eye(upper.size)])
    assert np.array_equal(plus, minus.T)
    sp, _, _ = fock_spin_ops(n_orb)
    assert np.array_equal(plus, space_projector(upper) @ sp @ P.T)


def _add_at_product(A, X, Y, transpose=False):
    """csr_add by np.add.at, which sums in input order: the table's
    entries row by row, for A^T with rows and columns swapped."""
    rows = np.repeat(np.arange(A.indptr.size - 1), np.diff(A.indptr))
    src, dst = (rows, A.indices) if transpose else (A.indices, rows)
    np.add.at(Y, dst, A.data[:, None] * X[src])


def _add_at_ladder(links, vecs):
    """Reference ladder scatter by np.add.at (_add_at_product)."""
    target, table, raising = links
    X = vecs.reshape(len(vecs), -1)
    out = np.zeros((target.size, X.shape[1]))
    _add_at_product(table, X, out, raising)
    return out.reshape((target.size,) + vecs.shape[1:])


def test_ladder_scatter_is_bit_identical_to_add_at():
    # bit-reproducible runs need every ladder image summed in one fixed
    # order, ascending source: the compiled product must match np.add.at
    # exactly, in blocks of 4 to 3,920 determinants
    rng = np.random.default_rng(11)
    for n_elec, n_orb in [(3, 4), (5, 6), (7, 8)]:
        top = min(n_elec, 2 * n_orb - n_elec)
        for ms2 in range(-top, top + 1, 2):
            space = enumerate_cas(n_elec, n_orb, ms2)
            for links in (_s_plus_links(space), _s_minus_links(space)):
                if links is None:
                    continue
                for shape in [(space.size,), (space.size, 3)]:
                    vecs = rng.standard_normal(shape)
                    target, out = _ladder(links, vecs)
                    assert out.shape == (target.size,) + shape[1:]
                    assert np.array_equal(out, _add_at_ladder(links, vecs))


def _spin_images(space, vecs):
    """S+ and S- images, <S^2> matrix and (on a top block) Löwdin
    projection of vecs, None where the block has no such image."""
    plus, minus = _s_plus_links(space), _s_minus_links(space)
    return (None if plus is None else _ladder(plus, vecs)[1],
            None if minus is None else _ladder(minus, vecs)[1],
            s_squared_matrix(space, vecs.reshape(space.size, -1)),
            project_spin(space, np.array(vecs, order="C"))
            if space.ms2 >= 0 else None)


def _assert_executors_agree(space, vecs):
    """Every spin image by the compiled CSR products is bit-identical to
    the one by np.add.at."""
    images = [_spin_images(space, vecs)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spin, "csr_add", _add_at_product)
        images.append(_spin_images(space, vecs))
    for csr, add_at in zip(*images):
        assert (csr is None) == (add_at is None)
        assert csr is None or np.array_equal(csr, add_at)


@given(stacked_block())
def test_ladder_executors_agree_on_stacked_blocks(case):
    n_elec, n_orb, ms2, k, _, seed = case
    space = enumerate_cas(n_elec, n_orb, ms2)
    rng = np.random.default_rng(seed)
    _assert_executors_agree(space, rng.standard_normal(
        (space.size, k) if k else space.size))


@pytest.mark.parametrize("n_elec, n_orb", [(3, 4), (4, 4), (5, 4), (5, 6)])
def test_ladder_executors_agree_in_every_block(n_elec, n_orb):
    # every M_S, the edge blocks of test_ladders_at_edge_blocks included,
    # and a column-major block, which the ladders read through a copy
    top = min(n_elec, 2 * n_orb - n_elec)
    rng = np.random.default_rng(12)
    for ms2 in range(-top, top + 1, 2):
        space = enumerate_cas(n_elec, n_orb, ms2)
        for shape in ((space.size,), (space.size, 1), (space.size, 4)):
            _assert_executors_agree(space, rng.standard_normal(shape))
        _assert_executors_agree(space, np.asfortranarray(
            rng.standard_normal((space.size, 3))))


def test_ladder_table_is_one_int32_csr_for_both_directions():
    # the CAS(7,8) M_S = 1/2 <-> 3/2 table: only CSR arrays, 12 bytes per
    # entry, shared by S+ of the lower and S- of the upper block
    space = enumerate_cas(7, 8, 1)
    upper, table, raising = _s_plus_links(space)
    assert raising
    lower, down, lowering = _s_minus_links(upper)
    assert lower is space and down is table and not lowering
    assert table.indptr.dtype == table.indices.dtype == np.int32
    assert table.data.dtype == np.float64
    assert table.indptr.size == space.size + 1 and table.n_col == upper.size
    assert table.indices.size == table.data.size == table.indptr[-1]
    arrays = [a for a in table if isinstance(a, np.ndarray)]
    assert len(arrays) == 3 and not any(a.dtype == np.intp for a in arrays)
    # columns ascend within each row: S- sums every image element in
    # ascending source order, as S+ (the rows) does
    rows = np.repeat(np.arange(space.size), np.diff(table.indptr))
    assert np.all((np.diff(rows) > 0) | (np.diff(table.indices) > 0))


@st.composite
def top_blocks(draw):
    """A top block M_S = S >= 0 of a CAS space with 2 to 5 orbitals."""
    n_orb = draw(st.integers(2, 5))
    n_elec = draw(st.integers(1, 2 * n_orb - 1))
    top = min(n_elec, 2 * n_orb - n_elec)
    return n_elec, n_orb, draw(st.sampled_from(range(top % 2, top + 1, 2)))


@given(top_blocks(), st.integers(0, 2 ** 16))
def test_spin_projector_is_the_spin_s_projector(block, seed):
    n_elec, n_orb, ms2 = block
    space = enumerate_cas(n_elec, n_orb, ms2)
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, space.size, 3))
    px = x.copy()
    assert project_spin(space, px) is px                            # in place
    pp = project_spin(space, px.copy())
    assert np.max(np.abs(pp - px)) < 1e-12                           # P^2 = P
    assert np.allclose(y.T @ px, project_spin(space, y.copy()).T @ x,
                       rtol=0.0, atol=1e-12)                         # P = P^T
    full = project_spin(space, np.eye(space.size))
    top = min(n_elec, 2 * n_orb - n_elec)
    if ms2 == top:
        assert np.array_equal(full, np.eye(space.size))
        return
    # S+ P = 0, and P S- = 0 on the block above: P keeps spin S only
    assert np.max(np.abs(_ladder(_s_plus_links(space), px)[1])) < 1e-12
    upper = enumerate_cas(n_elec, n_orb, ms2 + 2)
    _, lowered = apply_s_minus(upper, rng.standard_normal((upper.size, 3)))
    assert np.max(np.abs(project_spin(space, lowered))) < 1e-12
    # the roots of spin S number dim(M_S = S) - dim(M_S = S + 1)
    assert np.linalg.matrix_rank(full, tol=1e-8) == \
        space.size - cas_dimension(n_elec, n_orb, ms2 + 2)


def test_spin_projector_refuses_blocks_it_cannot_project_in_place():
    # a block that reshape() would copy would lose its projection
    space = enumerate_cas(5, 6, 1)
    x = np.random.default_rng(3).standard_normal((space.size, 4))
    for bad in (np.asfortranarray(x), x[:, ::2], x.astype(np.float32)):
        before = bad.copy()
        with pytest.raises(ValueError, match="C-contiguous float64"):
            project_spin(space, bad)
        assert np.array_equal(bad, before)


@pytest.mark.parametrize("n_elec, n_orb", [(2, 2), (3, 3), (4, 4)])
def test_spin_projector_rejects_blocks_below_zero(n_elec, n_orb):
    # a block with M_S < 0 holds no spin S = M_S, and the projector's
    # factor for S' = -M_S - 1 has a zero gap
    top = min(n_elec, 2 * n_orb - n_elec)
    for ms2 in range(-top, 0, 2):
        space = enumerate_cas(n_elec, n_orb, ms2)
        with pytest.raises(ValueError, match=f"ms2={ms2}"):
            project_spin(space, np.ones(space.size))


def test_assemble_multiplets_doublet_and_quartet():
    ints = make_random_integrals(3, 53)
    doublets = dense_solve(enumerate_cas(3, 3, 1), ints, 2)
    quartets = dense_solve(enumerate_cas(3, 3, 3), ints, 1)
    mults = assemble_multiplets(doublets + quartets, ints)
    for m in mults:
        assert len(m.components) == m.multiplicity
        energies = [c.energy for c in m.components.values()]
        assert np.ptp(energies) < 1e-8
        for ms2, comp in m.components.items():
            assert comp.ms2 == ms2
            s = m.S
            assert abs(comp.s2_expect - s * (s + 1)) < 1e-6


@pytest.mark.parametrize("n_elec, roots", [(5, {2: 3, 4: 2, 6: 1}),
                                           (4, {1: 2, 3: 2, 5: 1})])
def test_spin_flip_matches_the_s_minus_chain(n_elec, roots):
    # eps C^T of every M_S >= 0 component is the chain's -M_S component,
    # and at M_S = 0 the component itself; eps comes from its formula,
    # which takes both signs over these blocks
    ints = make_random_integrals(6, 56)
    states = [s for mult, count in roots.items() for s in
              dense_solve(enumerate_cas(n_elec, 6, mult - 1), ints, count)]
    signs = set()
    for m in assemble_multiplets(states, ints):
        for ms2 in range(m.two_s % 2, m.two_s + 1, 2):
            comp = m.component(ms2)
            flipped = _spin_flip(comp)
            assert np.max(np.abs(flipped - m.component(-ms2).coeffs)) < 1e-12
            C = comp.coeffs.reshape(len(comp.space.alpha_strings), -1)
            signs.add(round(flipped @ C.T.ravel()))
    assert signs == {-1, 1}


def test_negated_s_minus_entry_fails_the_spin_flip_check(negated_s_minus_entry):
    # no sigma checks a doublet's M_S = -1/2 component: the spin flip of
    # its M_S = 1/2 partner catches one wrong sign in the ladder table
    ints = make_random_integrals(4, 57)
    doublets = dense_solve(enumerate_cas(3, 4, 1), ints, 2)
    with pytest.raises(InvariantBreach, match="spin flip"):
        assemble_multiplets(doublets, ints)


def test_assemble_rejects_non_top_states():
    ints = make_random_integrals(3, 54)
    (quartet,) = assemble_multiplets(
        dense_solve(enumerate_cas(3, 3, 3), ints, 1), ints)
    quartet_component = quartet.component(1)
    with pytest.raises(ValueError, match="top component"):
        assemble_multiplets([quartet_component], ints)


def test_davidson_states_spin_labels(davidson_runs):
    ints = make_random_integrals(5, 55)
    space = enumerate_cas(5, 5, 1)
    # a guess_dim below the block size keeps it off the dense route
    states = solve_davidson(space, ints, 6, DavidsonOptions(guess_dim=32))
    assert davidson_runs == [space.size]
    for st in states:
        s = (st.multiplicity - 1) / 2.0
        assert abs(st.s2_expect - s * (s + 1.0)) < 1e-6
        assert abs(np.linalg.norm(st.coeffs) - 1.0) < 1e-10
