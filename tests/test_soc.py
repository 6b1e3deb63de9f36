import numpy as np
import pytest

from casq.casci import assemble_multiplets, dense_solve
from casq.detspace import enumerate_cas
from casq.driver import solve_multiplets
from casq.ingest import (DavidsonOptions, PropertyIntegrals, RunConfig,
                         zero_properties)
from casq.ligandfield import LigandFieldModel, build_ligand_field_model, dshell_l_matrices
from casq import soc
from casq.soc import (
    KramersPairingError,
    PhaseConsistencyError,
    component_blocks,
    diagonal_energies,
    qdpt,
    soc_basis,
    soc_matrix,
    time_reversal_matrix,
)
from casq.units import CM_TO_HARTREE

from _oracles import fock_spin_ops, space_projector
from conftest import make_random_integrals


def doublet_multiplets_d1(v_diag_ev, zeta_cm, n_mult=5):
    model = LigandFieldModel(v_lf=np.diag(v_diag_ev), racah_b=0.0,
                             racah_c=0.0, zeta=zeta_cm, n_elec=1)
    _, ints, prop, config = build_ligand_field_model(model)
    mults = solve_multiplets(ints, RunConfig(cas=(1, 5),
                                             roots_per_multiplicity={2: n_mult}))
    return mults, prop, ints


def soc_oracle_d1(zeta_hartree, orbital_indices=None):
    """Brute-force zeta l.s over the (orbital x spin) product space."""
    L = dshell_l_matrices()
    lmats = [1j * L[k] for k in range(3)]
    if orbital_indices is not None:
        lmats = [m[np.ix_(orbital_indices, orbital_indices)] for m in lmats]
    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    sy = np.array([[0, -1j], [1j, 0]]) / 2
    sz = np.array([[1, 0], [0, -1]], dtype=complex) / 2
    H = sum(zeta_hartree * np.kron(lm, sm)
            for lm, sm in zip(lmats, (sx, sy, sz)))
    return np.linalg.eigvalsh(H)


def test_soc_zero_for_zero_z():
    mults, prop, _ = doublet_multiplets_d1([0.0, 1.0, 1.0, 2.0, 3.0], 0.0)
    basis = soc_basis(mults)
    H = soc_matrix(basis, component_blocks(basis, mults), prop)
    assert np.max(np.abs(H)) == 0.0


def test_soc_full_d1_matches_brute_force():
    # degenerate d shell: QDPT over all 5 doublets == zeta l.s exactly
    zeta_cm = 305.0
    mults, prop, _ = doublet_multiplets_d1([0.0] * 5, zeta_cm)
    basis = soc_basis(mults)
    H = soc_matrix(basis, component_blocks(basis, mults), prop)
    assert np.max(np.abs(H - H.conj().T)) < 1e-12
    got = np.linalg.eigvalsh(H)
    zeta = zeta_cm * CM_TO_HARTREE
    ref = soc_oracle_d1(zeta)
    assert np.allclose(got, ref, atol=1e-12)
    # analytic pattern: -3/2 zeta (x4), +zeta (x6)
    assert np.allclose(got[:4], -1.5 * zeta, atol=1e-12)
    assert np.allclose(got[4:], zeta, atol=1e-12)


def test_soc_t2g_block_pattern():
    # restricting the QDPT basis to the three t2g doublets projects
    # zeta l.s onto t2g: eigenvalues -zeta/2 (x4) and +zeta (x2)
    zeta_cm = 305.0
    big = 50.0  # push z2 and x2-y2 far up
    mults, prop, _ = doublet_multiplets_d1([big, 0.0, 0.0, big, 0.0], zeta_cm)
    t2g = [m for m in mults if m.energy < 1.0 * CM_TO_HARTREE * 1e4][:3]
    assert len(t2g) == 3
    basis = soc_basis(t2g)
    H = soc_matrix(basis, component_blocks(basis, t2g), prop)
    got = np.linalg.eigvalsh(H)
    zeta = zeta_cm * CM_TO_HARTREE
    ref = soc_oracle_d1(zeta, orbital_indices=[1, 2, 4])
    assert np.allclose(got, ref, atol=1e-12)
    assert np.allclose(got[:4], -0.5 * zeta, atol=1e-12)
    assert np.allclose(got[4:], zeta, atol=1e-12)


def test_soc_selection_rules():
    # 3 electrons in 3 orbitals: doublets and quartets coexist
    ints = make_random_integrals(3, 71)
    doublets = dense_solve(enumerate_cas(3, 3, 1), ints, 2)
    quartets = dense_solve(enumerate_cas(3, 3, 3), ints, 1)
    mults = assemble_multiplets(doublets + quartets, ints)
    rng = np.random.default_rng(7)
    Z = rng.standard_normal((3, 3, 3))
    Z = (Z - Z.transpose(0, 2, 1)) / 2.0
    prop = PropertyIntegrals(L=np.zeros((3, 3, 3)), Z=Z, D=np.zeros((3, 3, 3)))
    basis = soc_basis(mults)
    H = soc_matrix(basis, component_blocks(basis, mults), prop)
    assert np.max(np.abs(H - H.conj().T)) < 1e-12
    ms2, two_s = basis.ms2, basis.two_s
    # |Delta M_S| = 2 forbidden
    assert np.all(H[np.abs(ms2[:, None] - ms2) >= 4] == 0.0)
    # |Delta S| = 1 coupling is present
    assert np.any(np.abs(H[two_s[:, None] != two_s]) > 1e-12)


def test_hermiticity_check_catches_a_corrupted_flip_table(monkeypatch):
    # the Delta M_S = +1 blocks come from their own raising operands, so a
    # sign error in the lowering operands alone must break Hermiticity
    ints = make_random_integrals(3, 71)
    doublets = dense_solve(enumerate_cas(3, 3, 1), ints, 2)
    quartets = dense_solve(enumerate_cas(3, 3, 3), ints, 1)
    mults = assemble_multiplets(doublets + quartets, ints)
    Z = np.zeros((3, 3, 3))
    Z[0, 0, 1], Z[0, 1, 0] = 0.3, -0.3          # only (p, q) = (0, 1), (1, 0)
    prop = PropertyIntegrals(L=np.zeros((3, 3, 3)), Z=Z, D=np.zeros((3, 3, 3)))
    basis = soc_basis(mults)
    blocks = component_blocks(basis, mults)
    assert np.max(np.abs(soc_matrix(basis, blocks, prop))) > 1e-3
    lower_links = soc.flip_lower_links

    def corrupted(space):
        # negate the signs of the beta creator a+_p for p = 1 (in a copy of
        # the sign array: the cached operands stay intact)
        *head, (bra_rows, ket_rows, sign) = lower_links(space)
        sign = sign.copy()
        sign[1] = -sign[1]
        return (*head, (bra_rows, ket_rows, sign))

    monkeypatch.setattr(soc, "flip_lower_links", corrupted)
    with pytest.raises(PhaseConsistencyError):
        soc_matrix(basis, blocks, prop)


def test_davidson_tol_within_kramers_split_tol():
    # the SOC matrix inherits the roots' residual: a looser default solve
    # splits Kramers partners beyond what qdpt accepts (exit 3)
    assert DavidsonOptions().tol <= soc.KRAMERS_SPLIT_TOL


def test_qdpt_zero_soc_identity():
    mults, prop, _ = doublet_multiplets_d1([0.0, 1.0, 1.5, 2.0, 3.0], 0.0)
    basis = soc_basis(mults)
    H = soc_matrix(basis, component_blocks(basis, mults), prop)
    energies = diagonal_energies(basis, mults)
    so = qdpt(basis, energies, H)
    assert np.allclose(so.energies, np.sort(energies), atol=1e-15)
    assert len(so.kramers_pairs) == 5


def test_qdpt_kramers_degeneracy_d1():
    mults, prop, _ = doublet_multiplets_d1([0.0, 1.9, 1.9, 2.6, 4.5], 305.0)
    basis = soc_basis(mults)
    H = soc_matrix(basis, component_blocks(basis, mults), prop)
    so = qdpt(basis, diagonal_energies(basis, mults), H)
    assert len(so.kramers_pairs) == 5
    for i, j in so.kramers_pairs:
        assert abs(so.energies[i] - so.energies[j]) <= 1e-10


def test_qdpt_kramers_random_z():
    # arbitrary antisymmetric SOC matrices on an odd-electron model
    ints = make_random_integrals(3, 72)
    doublets = dense_solve(enumerate_cas(3, 3, 1), ints, 3)
    quartets = dense_solve(enumerate_cas(3, 3, 3), ints, 1)
    mults = assemble_multiplets(doublets + quartets, ints)
    basis = soc_basis(mults)
    blocks = component_blocks(basis, mults)
    rng = np.random.default_rng(73)
    for _ in range(5):
        Z = rng.standard_normal((3, 3, 3)) * 0.01
        Z = (Z - Z.transpose(0, 2, 1)) / 2.0
        prop = PropertyIntegrals(L=np.zeros((3, 3, 3)), Z=Z,
                                 D=np.zeros((3, 3, 3)))
        H = soc_matrix(basis, blocks, prop)
        so = qdpt(basis, diagonal_energies(basis, mults), H)
        for i, j in so.kramers_pairs:
            assert abs(so.energies[i] - so.energies[j]) <= 1e-10


def test_qdpt_gauge_invariance_under_multiplet_sign():
    mults, prop, ints = doublet_multiplets_d1([0.0, 1.9, 1.9, 2.6, 4.5], 305.0)
    basis = soc_basis(mults)
    blocks = component_blocks(basis, mults)
    e_ref = qdpt(basis, diagonal_energies(basis, mults),
                 soc_matrix(basis, blocks, prop)).energies
    # flip the global sign of one whole multiplet
    flipped = [m for m in mults]
    victim = flipped[2]
    for comp in victim.components.values():
        comp.coeffs = -comp.coeffs
    blocks = component_blocks(basis, flipped)
    e_new = qdpt(basis, diagonal_energies(basis, flipped),
                 soc_matrix(basis, blocks, prop)).energies
    assert np.allclose(e_ref, e_new, atol=1e-12)


def test_component_swap_detected_by_kramers_pairing():
    # matrix elements are evaluated as exact conjugate pairs, so swapping
    # the lower components of two degenerate doublets cannot break
    # Hermiticity; the inconsistency surfaces in qdpt, where the
    # label-based time-reversal pairing fails
    mults, prop, _ = doublet_multiplets_d1([0.0, 1.9, 1.9, 2.6, 4.5], 305.0)
    basis = soc_basis(mults)
    a, b = mults[1], mults[2]  # degenerate xz/yz pair
    assert abs(a.energy - b.energy) < 1e-12
    a.components[-1], b.components[-1] = b.components[-1], a.components[-1]
    H = soc_matrix(basis, component_blocks(basis, mults), prop)
    assert np.max(np.abs(H - H.conj().T)) < 1e-12  # structurally Hermitian
    with pytest.raises(KramersPairingError):
        qdpt(basis, diagonal_energies(basis, mults), H)


def test_time_reversal_matrix_squares_to_minus_one():
    ints = make_random_integrals(3, 74)
    doublets = dense_solve(enumerate_cas(3, 3, 1), ints, 2)
    mults = assemble_multiplets(doublets, ints)
    basis = soc_basis(mults)
    T = time_reversal_matrix(basis)
    # antiunitary square: T(T psi) = T conj(T conj(psi)) = (T T*) psi
    assert np.allclose(T @ T, -np.eye(basis.size))


def test_zeeman_spin_matrices_match_fock_oracle():
    # the analytic within-multiplet spin matrices must agree with explicit
    # S_K matrix elements between the laddered components, and vanish
    # between different multiplets (a quartet alone, doublets + a quartet)
    from casq.gtensor import zeeman_basis_matrices
    from casq.units import G_E

    for n_orb, roots in ((3, {4: 1}), (4, {2: 2, 4: 1})):
        ints = make_random_integrals(n_orb, 75)
        mults = []
        for mult, count in roots.items():
            states = dense_solve(enumerate_cas(3, n_orb, mult - 1), ints, count)
            mults += assemble_multiplets(states, ints)
        basis = soc_basis(mults)
        mu = zeeman_basis_matrices(basis, component_blocks(basis, mults),
                                   zero_properties(n_orb))
        sp, sm, sz = fock_spin_ops(n_orb)
        sx = (sp + sm) / 2.0
        sy = (sp - sm) / 2.0j
        comps = [mults[i].component(ms2)
                 for i, ms2 in zip(basis.multiplet, basis.ms2)]
        for k, op in enumerate((sx, sy, sz)):
            ref = np.array([[ci.coeffs @ (space_projector(ci.space) @ op
                                          @ space_projector(cj.space).T)
                             @ cj.coeffs for cj in comps] for ci in comps])
            assert np.max(np.abs(mu[k] - G_E * ref)) < 1e-10
