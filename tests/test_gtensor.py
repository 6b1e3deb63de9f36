import numpy as np
import pytest

from casq.casci import dense_solve
from casq.detspace import enumerate_cas
from casq.driver import run_gtensor, solve_multiplets
from casq.gtensor import format_gap_report, g_tensor_sos, gap_report
from casq.ingest import IntegralSet, RunConfig, set_chem, zero_properties
from casq.ligandfield import (
    LigandFieldModel,
    build_ligand_field_model,
    dshell_l_matrices,
    preset_model,
)
from casq.units import EV_TO_HARTREE, G_E, HARTREE_TO_CM

from conftest import cas56_magnetic_problem, make_random_integrals


def d1_model(zeta_cm, e_xz=1.9, e_x2y2=2.6, e_z2=4.5):
    return LigandFieldModel(
        v_lf=np.diag([e_z2, e_xz, e_xz, e_x2y2, 0.0]),
        racah_b=0.0, racah_c=0.0, zeta=zeta_cm, n_elec=1)


def run_lf(model, roots=None):
    _, ints, prop, config = build_ligand_field_model(model)
    if roots is not None:
        config = RunConfig(cas=config.cas, roots_per_multiplicity=roots,
                           davidson=config.davidson)
    return run_gtensor(ints, prop, config)


def test_free_electron_limit():
    res = run_lf(d1_model(0.0))
    assert res.g_eha.principal == pytest.approx((G_E, G_E, G_E), abs=1e-10)
    assert res.g_sos is not None
    assert res.g_sos.principal == pytest.approx((G_E, G_E, G_E), abs=1e-10)


def test_d1_tetragonal_ordering():
    res = run_lf(preset_model("d1-tetragonal"))
    gx, gy, gz = res.g_eha.principal
    assert gz < gx < G_E
    assert gx == pytest.approx(gy, abs=1e-6)
    sx, sy, sz = res.g_sos.principal
    assert sz < sx < G_E


def test_d9_planar_ordering():
    res = run_lf(preset_model("d9-planar"))
    gx, gy, gz = res.g_eha.principal
    assert gz > gx > G_E
    assert gx == pytest.approx(gy, abs=1e-6)


def ev_to_cm(e_ev):
    from casq.units import CM_TO_HARTREE
    return e_ev * EV_TO_HARTREE / CM_TO_HARTREE


def test_d1_analytic_g_shifts():
    # small zeta: Dg_z = -8 zeta / D(xy->x2-y2), Dg_perp = -2 zeta / D(xy->xz)
    d_xz, d_x2y2 = 1.9, 2.6
    zeta_ev = 1e-3 * d_xz
    res = run_lf(d1_model(ev_to_cm(zeta_ev), e_xz=d_xz, e_x2y2=d_x2y2))
    gx, gy, gz = res.g_eha.principal
    dg_z_ref = -8.0 * zeta_ev / d_x2y2
    dg_perp_ref = -2.0 * zeta_ev / d_xz
    assert abs((gz - G_E) - dg_z_ref) < 0.01 * abs(dg_z_ref)
    assert abs((gx - G_E) - dg_perp_ref) < 0.01 * abs(dg_perp_ref)
    assert abs((gy - G_E) - dg_perp_ref) < 0.01 * abs(dg_perp_ref)


def test_eha_sos_agree_at_small_zeta():
    d_xz = 1.9
    res = run_lf(d1_model(ev_to_cm(1e-2 * d_xz)))
    diff = np.abs(np.array(res.g_eha.principal) - np.array(res.g_sos.principal))
    assert np.max(diff) <= 1e-3


def test_eha_sos_difference_scales_quadratically():
    d_xz = 1.9
    ratios = np.array([1e-4, 3e-4, 1e-3, 3e-3, 1e-2])
    diffs = []
    for r in ratios:
        res = run_lf(d1_model(ev_to_cm(r * d_xz)))
        diffs.append(max(abs(a - b) for a, b in
                         zip(res.g_eha.principal, res.g_sos.principal)))
    slope = np.polyfit(np.log(ratios), np.log(diffs), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def test_rotational_covariance():
    from scipy.linalg import expm

    model = preset_model("d1-tetragonal")
    _, ints, prop, config = build_ligand_field_model(model)
    res0 = run_gtensor(ints, prop, config)
    L = dshell_l_matrices()
    theta = np.array([0.4, -0.25, 0.65])
    gen = sum(t * L[k] for k, t in enumerate(theta))
    R5 = expm(gen)
    # extract the 3x3 rotation induced on the angular momentum components
    norm = np.trace(L[0].T @ L[0])
    R3 = np.array([[np.trace(L[b].T @ (R5 @ L[a] @ R5.T)) / norm
                    for a in range(3)] for b in range(3)])
    assert np.allclose(R3 @ R3.T, np.eye(3), atol=1e-12)
    h_rot = R5 @ ints.h @ R5.T
    g2_rot = np.einsum("pa,qb,rc,sd,abcd->pqrs", R5, R5, R5, R5, ints.g2,
                       optimize=True)
    L_rot = np.einsum("KL,Lpq->Kpq", R3,
                      np.einsum("pa,Kab,qb->Kpq", R5, L, R5))
    Z_rot = np.einsum("KL,Lpq->Kpq", R3,
                      np.einsum("pa,Kab,qb->Kpq", R5, prop.Z, R5))
    from casq.ingest import IntegralSet, PropertyIntegrals
    ints_rot = IntegralSet(h=h_rot, g2=np.ascontiguousarray(g2_rot))
    prop_rot = PropertyIntegrals(
        L=0.5 * (L_rot - L_rot.transpose(0, 2, 1)),
        Z=0.5 * (Z_rot - Z_rot.transpose(0, 2, 1)),
        D=np.zeros((3, 5, 5)))
    res1 = run_gtensor(ints_rot, prop_rot, config)
    G0 = res0.g_eha.matrix @ res0.g_eha.matrix.T
    G1 = res1.g_eha.matrix @ res1.g_eha.matrix.T
    assert np.allclose(np.sort(res0.g_eha.principal),
                       np.sort(res1.g_eha.principal), atol=1e-9)
    assert np.allclose(R3 @ G0 @ R3.T, G1, atol=1e-9)


def test_gauge_invariance_of_g_under_multiplet_sign():
    model = preset_model("d1-tetragonal")
    _, ints, prop, config = build_ligand_field_model(model)
    mults = solve_multiplets(ints, config)
    res0 = run_gtensor(ints, prop, config, multiplets=mults)
    for comp in mults[3].components.values():
        comp.coeffs = -comp.coeffs
    res1 = run_gtensor(ints, prop, config, multiplets=mults)
    assert np.allclose(res0.g_eha.principal, res1.g_eha.principal, atol=1e-10)
    assert np.allclose(res0.so_states.energies, res1.so_states.energies,
                       atol=1e-12)


def test_sos_rejects_degenerate_ground():
    # degenerate xz/yz ground manifold: SOS denominators collapse
    model = LigandFieldModel(
        v_lf=np.diag([4.5, 0.0, 0.0, 2.6, 1.9]), racah_b=0.0, racah_c=0.0,
        zeta=100.0, n_elec=1)
    _, ints, prop, config = build_ligand_field_model(model)
    mults = solve_multiplets(ints, config)
    with pytest.raises(ValueError, match="degenerate ground"):
        g_tensor_sos(mults[0], mults[1:], prop)


def test_run_gtensor_refuses_even_electrons():
    ints = make_random_integrals(3, 81)
    prop = zero_properties(3)
    config = RunConfig(cas=(2, 3), roots_per_multiplicity={1: 2})
    with pytest.raises(ValueError, match="odd electron"):
        run_gtensor(ints, prop, config)


def test_gap_report_unit_conversion():
    ints = make_random_integrals(3, 82)
    doublets = dense_solve(enumerate_cas(3, 3, 1), ints, 2)
    from casq.casci import assemble_multiplets
    mults = assemble_multiplets(doublets, ints)
    # synthetic energies: exactly 1e-4 Hartree apart
    mults[0].energy = 0.0
    mults[1].energy = 1e-4
    rep = gap_report(mults)
    assert rep.rows[1]["gap_to_previous_cm"] == pytest.approx(21.947, abs=1e-3)
    text = format_gap_report(rep)
    assert "21.95" in text
    # degenerate pair prints 0.00
    mults[1].energy = 0.0
    text = format_gap_report(gap_report(mults))
    assert "0.00" in text


def test_hund_exchange_model_quartet_below_doublet():
    # three singly occupied orbitals with ferromagnetic exchange: the
    # quartet drops below the doublets and the report flags it
    n = 3
    h = np.diag([0.0, 0.05, 0.10])
    g2 = np.zeros((n,) * 4)
    for p in range(n):
        set_chem(g2, p, p, p, p, 0.8)
        for q in range(n):
            if p != q:
                set_chem(g2, p, p, q, q, 0.5)
                set_chem(g2, p, q, q, p, 0.05)
    ints = IntegralSet(h=h, g2=g2)
    config = RunConfig(cas=(3, 3), roots_per_multiplicity={2: 2, 4: 1})
    mults = solve_multiplets(ints, config)
    rep = gap_report(mults)
    assert rep.quartet_below_doublet
    lowest = min(mults, key=lambda m: m.energy)
    assert lowest.multiplicity == 4
    doublet = min(m.energy for m in mults if m.multiplicity == 2)
    gap_cm = (doublet - lowest.energy) * HARTREE_TO_CM
    assert gap_cm > 0.0
    assert "flag: quartet below doublet" in format_gap_report(rep)


def test_one_density_pass_per_ms_block(monkeypatch):
    # H_SO and the Zeeman operator share each M_S block's same-spin
    # densities; SOS takes one (ground, excited) pass of its own
    from casq import analysis, gtensor, soc

    kernel = analysis.spin_transition_densities
    calls = []

    def counted(space, bra, ket):
        calls.append(space.ms2)
        return kernel(space, bra, ket)

    for module in (analysis, soc, gtensor):
        monkeypatch.setattr(module, "spin_transition_densities", counted)
    res = run_gtensor(*cas56_magnetic_problem())
    assert res.g_sos is not None
    blocks = sorted(set(res.basis.ms2.tolist()))
    assert blocks == [-3, -1, 1, 3]
    assert len(calls) == len(blocks) + 1
    assert sorted(calls) == sorted(blocks + [1])
