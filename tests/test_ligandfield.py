from dataclasses import replace

import numpy as np
import pytest

from casq.casci import dense_solve
from casq.detspace import enumerate_cas
from casq.driver import run_gtensor
from casq.ligandfield import (
    LigandFieldModel,
    build_ligand_field_model,
    dshell_l_matrices,
    preset_model,
    racah_coulomb,
    real_d_transform,
    wigner_3j,
)
from casq.units import EV_TO_HARTREE

from _oracles import dshell_coulomb_quadrature, lz_quadrature, racah_to_slater
from conftest import kramers_split_d5_model


def test_wigner_3j_known_values():
    assert wigner_3j(2, 0, 2, 0, 0, 0) == pytest.approx(1.0 / np.sqrt(5.0))
    assert wigner_3j(2, 2, 2, 0, 0, 0) == pytest.approx(-np.sqrt(2.0 / 35.0))
    assert wigner_3j(1, 1, 1, 1, 0, -1) == pytest.approx(-1.0 / np.sqrt(6.0))
    assert wigner_3j(2, 1, 2, 0, 0, 0) == pytest.approx(0.0)  # odd sum parity
    assert wigner_3j(2, 4, 1, 0, 0, 0) == 0.0  # triangle violation


def test_real_d_transform_unitary():
    u = real_d_transform()
    assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-14)


def test_coulomb_matches_quadrature_oracle():
    # Racah A=0.3, B=0.12, C=0.5 (arbitrary): element-wise against the
    # independent spherical-quadrature oracle
    a, b, c = 0.3, 0.12, 0.5
    got = racah_coulomb(a, b, c)
    ref = dshell_coulomb_quadrature(*racah_to_slater(a, b, c))
    assert np.max(np.abs(got - ref)) < 1e-10


def test_coulomb_anchor_z2_and_symmetries():
    b, c = 0.11, 0.43
    g2 = racah_coulomb(0.0, b, c)
    # (z2 z2|z2 z2) = A + 4B + 3C with A = 0
    assert g2[0, 0, 0, 0] == pytest.approx(4 * b + 3 * c, abs=1e-12)
    # textbook d-shell values: J(z2, x2-y2) = A - 4B + C, K = 4B + C
    assert g2[0, 0, 3, 3] == pytest.approx(-4 * b + c, abs=1e-12)
    assert g2[0, 3, 3, 0] == pytest.approx(4 * b + c, abs=1e-12)
    # J(xy, x2-y2) = A + 4B + C, K(xy, x2-y2) = C
    assert g2[4, 4, 3, 3] == pytest.approx(4 * b + c, abs=1e-12)
    assert g2[4, 3, 3, 4] == pytest.approx(c, abs=1e-12)
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
        assert np.array_equal(g2, g2.transpose(perm))


def test_l_matrices_against_lz_quadrature_and_commutators():
    L = dshell_l_matrices()
    lz_ref = lz_quadrature()
    assert np.max(np.abs(1j * L[2] - lz_ref)) < 1e-10
    # spec anchor: <d_xy| l_z |d_x2-y2> = 2i
    assert L[2][4, 3] == pytest.approx(2.0, abs=1e-12)
    lx, ly, lz = (1j * L[k] for k in range(3))
    assert np.max(np.abs(lx @ ly - ly @ lx - 1j * lz)) < 1e-12
    assert np.max(np.abs(ly @ lz - lz @ ly - 1j * lx)) < 1e-12
    assert np.max(np.abs(lz @ lx - lx @ lz - 1j * ly)) < 1e-12
    casimir = lx @ lx + ly @ ly + lz @ lz
    assert np.allclose(casimir, 6.0 * np.eye(5), atol=1e-12)
    for k in range(3):
        assert np.max(np.abs(L[k] + L[k].T)) == 0.0


def test_one_electron_diagonal_limit():
    # zeta=0, B=C=0, v_lf=diag(0, D, D, D, D): CASCI energies = eigenvalues
    delta = 1.7
    v = np.diag([0.0, delta, delta, delta, delta])
    model = LigandFieldModel(v_lf=v, racah_b=0.0, racah_c=0.0, zeta=0.0,
                             n_elec=1)
    _, ints, prop, config = build_ligand_field_model(model)
    states = dense_solve(enumerate_cas(1, 5, 1), ints, 5)
    expect = np.sort(np.diag(v)) * EV_TO_HARTREE
    assert np.allclose([s.energy for s in states], expect, atol=1e-12)
    assert np.all(prop.D == 0.0)
    assert config.cas == (1, 5)


def test_particle_hole_symmetry_d9_vs_d1():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((5, 5)) * 0.5
    v = (a + a.T) / 2.0
    m9 = LigandFieldModel(v_lf=v, racah_b=0.13, racah_c=0.5, zeta=0.0,
                          n_elec=9)
    m1 = LigandFieldModel(v_lf=-v, racah_b=0.13, racah_c=0.5, zeta=0.0,
                          n_elec=1)
    _, ints9, _, _ = build_ligand_field_model(m9)
    _, ints1, _, _ = build_ligand_field_model(m1)
    e9 = np.array([s.energy for s in dense_solve(enumerate_cas(9, 5, 1), ints9, 5)])
    e1 = np.array([s.energy for s in dense_solve(enumerate_cas(1, 5, 1), ints1, 5)])
    assert np.allclose(e9 - e9[0], e1 - e1[0], atol=1e-10)


def test_rotational_invariance_of_spectrum():
    # conjugating h, g2 by exp(theta . L) leaves the CASCI spectrum intact
    rng = np.random.default_rng(18)
    a = rng.standard_normal((5, 5))
    v = (a + a.T) / 2.0
    model = LigandFieldModel(v_lf=v, racah_b=0.1, racah_c=0.4, zeta=0.0,
                             n_elec=2)
    _, ints, _, _ = build_ligand_field_model(model)
    L = dshell_l_matrices()
    gen = 0.3 * L[0] - 0.7 * L[1] + 0.45 * L[2]
    from scipy.linalg import expm
    R = expm(gen)
    assert np.allclose(R @ R.T, np.eye(5), atol=1e-12)
    h_rot = R @ ints.h @ R.T
    g_rot = np.einsum("pa,qb,rc,sd,abcd->pqrs", R, R, R, R, ints.g2,
                      optimize=True)
    from casq.ingest import IntegralSet
    ints_rot = IntegralSet(h=h_rot, g2=g_rot, core_energy=0.0)
    space = enumerate_cas(2, 5, 0)
    e0 = [s.energy for s in dense_solve(space, ints, 8)]
    e1 = [s.energy for s in dense_solve(space, ints_rot, 8)]
    assert np.allclose(e0, e1, atol=1e-9)


def test_returned_config_resolves_kramers_pairs(davidson_runs):
    _, ints, prop, config = build_ligand_field_model(kramers_split_d5_model())
    # guess_dim 32 keeps the 100-determinant doublet block on Davidson,
    # whose Kramers partners agree only as far as its tol allows
    config = replace(config, davidson=replace(config.davidson, guess_dim=32))
    result = run_gtensor(ints, prop, config)
    assert 100 in davidson_runs
    assert 2 * len(result.so_states.kramers_pairs) == result.basis.size


def test_model_validation():
    with pytest.raises(ValueError, match="n_elec"):
        LigandFieldModel(v_lf=np.zeros((5, 5)), racah_b=0.0, racah_c=0.0,
                         zeta=0.0, n_elec=10)
    with pytest.raises(ValueError, match="symmetric"):
        bad = np.zeros((5, 5))
        bad[0, 1] = 1.0
        LigandFieldModel(v_lf=bad, racah_b=0.0, racah_c=0.0, zeta=0.0,
                         n_elec=1)
    with pytest.raises(ValueError, match="B and C"):
        LigandFieldModel(v_lf=np.zeros((5, 5)), racah_b=-0.1, racah_c=0.0,
                         zeta=0.0, n_elec=1)


def test_presets():
    d1 = preset_model("d1-tetragonal")
    assert d1.n_elec == 1
    assert preset_model("d1").zeta == d1.zeta
    d9 = preset_model("d9", zeta=0.0)
    assert d9.n_elec == 9 and d9.zeta == 0.0
    with pytest.raises(ValueError, match="preset"):
        preset_model("d5")
