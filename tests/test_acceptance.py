"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timing/throughput reports.
"""

import os
import resource
import time

import numpy as np

from casq.analysis import natural_occupations, one_rdm
from casq.casci import dense_solve, sigma, solve_davidson
from casq.detspace import cas_dimension, enumerate_cas
from casq.driver import run_gtensor, solve_multiplets
from casq.gtensor import format_gap_report, gap_report
from casq.ingest import (DavidsonOptions, IntegralSet, RunConfig,
                         read_fcidump, set_chem, write_fcidump)
from casq.ligandfield import LigandFieldModel, build_ligand_field_model, preset_model
from casq.analysis import flip_transition_densities
from casq.spin import flip_lower_links, flip_raise_links
from casq.units import EV_TO_HARTREE, G_E, HARTREE_TO_CM

from conftest import make_model_integrals, make_random_integrals


def _report(num, text):
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


# --- 1. oracle equivalence --------------------------------------------------

ORACLE_SPACES = [
    (2, 4, 0), (3, 4, 1), (4, 4, 0), (4, 4, 2), (5, 4, 1),
    (2, 4, 2), (3, 4, 3), (6, 4, 0),
    (2, 5, 0), (3, 5, 1), (4, 5, 0), (5, 5, 1), (6, 5, 0), (4, 5, 2),
    (6, 6, 0), (5, 6, 1), (7, 6, 1), (6, 6, 2),
    (6, 7, 0), (7, 7, 1), (8, 7, 0), (5, 7, 1), (4, 7, 0),
    (5, 8, 1), (6, 8, 0),
]


def _davidson(space, n_roots):
    """Options that keep solve_davidson on its iterative route: a
    guess_dim below the block size (a block that the roots fill is
    solved densely whatever the guess_dim)."""
    return DavidsonOptions(guess_dim=max(n_roots, min(32, space.size - 1)))


def _iterative(spaces_and_roots):
    """The block sizes that solve_davidson must hand to davidson_lowest."""
    return [space.size for space, nr in spaces_and_roots if nr < space.size]


def test_criterion_01_oracle_equivalence(davidson_runs):
    assert len(ORACLE_SPACES) >= 25
    n_roots = 3
    t0 = time.perf_counter()
    worst = 0.0
    solved = []
    for k, (n_elec, n_orb, ms2) in enumerate(ORACLE_SPACES):
        ints = make_random_integrals(n_orb, seed=1000 + k)
        space = enumerate_cas(n_elec, n_orb, ms2)
        assert space.size <= 20_000
        nr = min(n_roots, space.size)
        dav = solve_davidson(space, ints, nr, _davidson(space, nr))
        solved.append((space, nr))
        ref = dense_solve(space, ints, nr)
        for a, b in zip(dav, ref):
            worst = max(worst, abs(a.energy - b.energy))
        assert worst <= 1e-9, f"set {k}: |dE| = {worst:.2e}"
    elapsed = time.perf_counter() - t0
    assert davidson_runs == [space.size for space, _ in solved]
    assert elapsed <= 60.0, f"oracle sweep took {elapsed:.1f} s (> 60 s)"
    _report(1, f"{len(ORACLE_SPACES)} seeded sets, worst |dE| = {worst:.2e} "
               f"Hartree, {elapsed:.1f} s total")


# --- 2. spin purity ---------------------------------------------------------

def test_criterion_02_spin_purity(davidson_runs):
    checked = 0
    worst = 0.0
    solved = []
    rng = np.random.default_rng(7)
    for n_elec in range(1, 10):
        a = rng.standard_normal((5, 5)) * 0.3
        model = LigandFieldModel(v_lf=(a + a.T) / 2.0, racah_b=0.1,
                                 racah_c=0.4, zeta=0.0, n_elec=n_elec)
        _, ints, _, _ = build_ligand_field_model(model)
        space = enumerate_cas(n_elec, 5, n_elec % 2)
        nr = min(6, space.size)
        solved.append((space, nr))
        for st in solve_davidson(space, ints, nr, _davidson(space, nr)):
            s = (st.multiplicity - 1) / 2.0
            worst = max(worst, abs(st.s2_expect - s * (s + 1.0)))
            checked += 1
    for k, (n_elec, n_orb, ms2) in enumerate(ORACLE_SPACES[:8]):
        ints = make_random_integrals(n_orb, seed=2000 + k)
        space = enumerate_cas(n_elec, n_orb, ms2)
        nr = min(4, space.size)
        solved.append((space, nr))
        for st in solve_davidson(space, ints, nr, _davidson(space, nr)):
            s = (st.multiplicity - 1) / 2.0
            worst = max(worst, abs(st.s2_expect - s * (s + 1.0)))
            checked += 1
    assert davidson_runs == _iterative(solved)
    assert worst <= 1e-6
    _report(2, f"{checked} roots, worst |<S2> - S(S+1)| = {worst:.2e}")


# --- 3. combinatorics -------------------------------------------------------

def test_criterion_03_counts():
    assert cas_dimension(1, 5, 1) == 5
    assert cas_dimension(17, 12, 1) == 108_900
    assert cas_dimension(13, 14, 1) == 10_306_296
    from casq.cli import main
    assert main(["count", "--nelec", "13", "--norb", "14", "--ms2", "1",
                 "--out", "/tmp/casq_accept_count"]) == 0
    _report(3, "CAS(1,5) = 5, CAS(17,12) = 108900, CAS(13,14) = 10306296")


# --- 4. Kramers theorem -----------------------------------------------------

def test_criterion_04_kramers_100_trials():
    from casq.casci import assemble_multiplets
    from casq.ingest import PropertyIntegrals
    from casq.soc import (component_blocks, diagonal_energies, qdpt,
                          soc_basis, soc_matrix)

    rng = np.random.default_rng(11)
    trials = 0
    worst = 0.0
    for seed in range(10):
        ints = make_random_integrals(3, seed=3000 + seed)
        doublets = dense_solve(enumerate_cas(3, 3, 1), ints, 3)
        quartets = dense_solve(enumerate_cas(3, 3, 3), ints, 1)
        mults = assemble_multiplets(doublets + quartets, ints)
        basis = soc_basis(mults)
        diag = diagonal_energies(basis, mults)
        blocks = component_blocks(basis, mults)
        for _ in range(10):
            Z = rng.standard_normal((3, 3, 3)) * 10 ** rng.uniform(-4, -1)
            Z = (Z - Z.transpose(0, 2, 1)) / 2.0
            prop = PropertyIntegrals(L=np.zeros((3, 3, 3)), Z=Z,
                                     D=np.zeros((3, 3, 3)))
            so = qdpt(basis, diag, soc_matrix(basis, blocks, prop))
            assert len(so.kramers_pairs) * 2 == basis.size
            for i, j in so.kramers_pairs:
                split = abs(so.energies[i] - so.energies[j])
                worst = max(worst, split)
                assert split <= 1e-10
            trials += 1
    assert trials == 100
    _report(4, f"100 randomized trials, worst Kramers split = {worst:.2e} "
               f"Hartree")


# --- 5. analytic EPR limit --------------------------------------------------

def _d1_run(zeta_ev, d_xz=1.9, d_x2y2=2.6):
    from casq.units import CM_TO_HARTREE

    zeta_cm = zeta_ev * EV_TO_HARTREE / CM_TO_HARTREE
    model = LigandFieldModel(
        v_lf=np.diag([4.5, d_xz, d_xz, d_x2y2, 0.0]),
        racah_b=0.0, racah_c=0.0, zeta=zeta_cm, n_elec=1)
    _, ints, prop, config = build_ligand_field_model(model)
    return run_gtensor(ints, prop, config)


def test_criterion_05_analytic_epr_limit():
    d_xz, d_x2y2 = 1.9, 2.6
    zeta_ev = 1e-3 * d_xz  # zeta/Delta = 1e-3 <= 1e-2
    res = _d1_run(zeta_ev, d_xz, d_x2y2)
    gx, gy, gz = res.g_eha.principal
    ref_z = -8.0 * zeta_ev / d_x2y2
    ref_p = -2.0 * zeta_ev / d_xz
    err_z = abs((gz - G_E) - ref_z) / abs(ref_z)
    err_p = max(abs((gx - G_E) - ref_p), abs((gy - G_E) - ref_p)) / abs(ref_p)
    assert err_z <= 0.01
    assert err_p <= 0.01
    ratios = np.array([1e-4, 3e-4, 1e-3, 3e-3, 1e-2])
    diffs = []
    for r in ratios:
        rr = _d1_run(r * d_xz, d_xz, d_x2y2)
        diffs.append(max(abs(a - b) for a, b in
                         zip(rr.g_eha.principal, rr.g_sos.principal)))
    slope = np.polyfit(np.log(ratios), np.log(diffs), 1)[0]
    assert abs(slope - 2.0) <= 0.1
    _report(5, f"Dg_z err {100 * err_z:.2f}%, Dg_perp err {100 * err_p:.2f}%, "
               f"EHA-SOS log-log slope {slope:.3f}")


# --- 6. paper g orderings ---------------------------------------------------

def test_criterion_06_g_orderings():
    _, ints, prop, config = build_ligand_field_model(preset_model("d1-tetragonal"))
    d1 = run_gtensor(ints, prop, config)
    gx, gy, gz = d1.g_eha.principal
    assert gz < gx < G_E and gz < gy < G_E
    _, ints, prop, config = build_ligand_field_model(preset_model("d9-planar"))
    d9 = run_gtensor(ints, prop, config)
    hx, hy, hz = d9.g_eha.principal
    assert hz > hx > G_E and hz > hy > G_E
    _report(6, f"d1: {gz:.3f} < {gx:.3f} < g_e; d9: {hz:.3f} > {hx:.3f} > g_e")


# --- 7. Hund / quartet-below-doublet ----------------------------------------

def test_criterion_07_hund_quartet_flag():
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
    quartet = min(m.energy for m in mults if m.multiplicity == 4)
    doublet = min(m.energy for m in mults if m.multiplicity == 2)
    gap_cm = (doublet - quartet) * HARTREE_TO_CM
    assert gap_cm > 0.0
    assert "quartet below doublet" in format_gap_report(rep)
    _report(7, f"quartet ground, doublet {gap_cm:.2f} cm^-1 above, flagged")


# --- 8. RDM invariants -------------------------------------------------------

def test_criterion_08_rdm_invariants(davidson_runs):
    rng = np.random.default_rng(21)
    checked = 0
    solved = []
    for n_elec in range(1, 10):
        a = rng.standard_normal((5, 5)) * 0.3
        model = LigandFieldModel(v_lf=(a + a.T) / 2.0, racah_b=0.1,
                                 racah_c=0.4, zeta=0.0, n_elec=n_elec)
        _, ints, _, _ = build_ligand_field_model(model)
        space = enumerate_cas(n_elec, 5, n_elec % 2)
        nr = min(3, space.size)
        solved.append((space, nr))
        states = solve_davidson(space, ints, nr, _davidson(space, nr))
        dm = one_rdm(space, states, np.full(len(states), 1.0 / len(states)))
        assert abs(np.trace(dm) - n_elec) <= 1e-10
        occ = natural_occupations(dm)
        assert np.all(occ >= 0.0) and np.all(occ <= 2.0)
        checked += 1
    for k, (n_elec, n_orb, ms2) in enumerate(ORACLE_SPACES[:6]):
        ints = make_random_integrals(n_orb, seed=4000 + k)
        space = enumerate_cas(n_elec, n_orb, ms2)
        nr = min(2, space.size)
        solved.append((space, nr))
        states = solve_davidson(space, ints, nr, _davidson(space, nr))
        dm = one_rdm(space, states, np.full(len(states), 1.0 / len(states)))
        assert abs(np.trace(dm) - n_elec) <= 1e-10
        occ = natural_occupations(dm)
        assert np.all(occ >= 0.0) and np.all(occ <= 2.0)
        checked += 1
    # d9 preset ground state: one singly and four doubly occupied naturals
    _, ints, _, _ = build_ligand_field_model(preset_model("d9-planar"))
    space = enumerate_cas(9, 5, 1)
    ground = solve_davidson(space, ints, 1, _davidson(space, 1))[0]
    solved.append((space, 1))
    assert davidson_runs == _iterative(solved)
    occ = natural_occupations(one_rdm(space, [ground], [1.0]))
    assert 0.9 < occ[-1] < 1.1
    assert np.all(occ[:4] > 1.9) and np.all(occ[:4] <= 2.0)
    _report(8, f"{checked} state-averaged densities; d9 occupations "
               f"{np.round(occ, 3).tolist()}")


# --- 9. performance ----------------------------------------------------------

def test_criterion_09_performance_17_12():
    ints = make_model_integrals(12, seed=42)
    config = RunConfig(cas=(17, 12), roots_per_multiplicity={2: 12, 4: 4},
                       davidson=DavidsonOptions(tol=1e-7, guess_dim=300,
                                                max_iter=300))
    t0 = time.perf_counter()
    mults = solve_multiplets(ints, config)
    elapsed = time.perf_counter() - t0
    counts = {m: sum(1 for x in mults if x.multiplicity == m) for m in (2, 4)}
    assert counts == {2: 12, 4: 4}
    assert elapsed <= 600.0, f"(17,12) workload took {elapsed:.0f} s"
    # sigma throughput on the doublet block
    space = enumerate_cas(17, 12, 1)
    v = np.zeros(space.size)
    v[0] = 1.0
    sigma(space, ints, v)
    t0 = time.perf_counter()
    reps = 3
    for _ in range(reps):
        sigma(space, ints, v)
    rate = space.size * reps / (time.perf_counter() - t0)
    msg = (f"(17,12) 12 doublets + 4 quartets in {elapsed:.0f} s; "
           f"sigma throughput {rate:.2e} determinants/s")
    if os.environ.get("CASQ_BENCH_1314"):
        big = enumerate_cas(13, 14, 1)
        # one spin-flip pair 1/2 <-> -1/2 of 4 seeded columns, each way
        # from its own string operands: down equals up transposed.  Run
        # before the sigma, so that the peak RSS read after it is not the
        # sigma's
        low = enumerate_cas(13, 14, -1)
        rng = np.random.default_rng(44)
        C = rng.standard_normal((big.size, 4))
        D = rng.standard_normal((low.size, 4))
        t0 = time.perf_counter()
        down = flip_transition_densities(flip_lower_links(big), D, C)
        up = flip_transition_densities(flip_raise_links(low), C, D)
        dt = time.perf_counter() - t0
        diff = np.max(np.abs(down - up.transpose(1, 0, 3, 2)))
        assert diff <= 1e-12 * np.max(np.abs(down))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        msg += f"; (13,14) flip pair {dt:.0f} s, peak RSS {rss:.0f} MB"
        del C, D
        vb = np.zeros(big.size)
        vb[0] = 1.0
        t0 = time.perf_counter()
        sigma(big, make_model_integrals(14, seed=43), vb, max_memory_gb=1.5)
        dt = time.perf_counter() - t0
        msg += f"; (13,14) single sigma {dt:.0f} s ({big.size / dt:.2e} det/s)"
    else:
        msg += "; (13,14) stretch benchmark skipped (set CASQ_BENCH_1314=1)"
    _report(9, msg)


# --- 10. format fidelity -----------------------------------------------------

def test_criterion_10_format_fidelity():
    from casq.analysis import decompose, format_decomposition
    from casq.casci import CiState
    from casq.detspace import Determinant
    from casq.spin import s_squared

    space = enumerate_cas(8, 7, 0)

    def det(text):
        alpha = beta = 0
        for p, ch in enumerate(text.split()):
            if ch in ("2", "u"):
                alpha |= 1 << p
            if ch in ("2", "d"):
                beta |= 1 << p
        return Determinant(alpha, beta, 7)

    v = np.zeros(space.size)
    v[space.index(det("2 2 u 2 0 d 0"))] = np.sqrt(0.245)
    v[space.index(det("2 2 d 2 0 u 0"))] = np.sqrt(0.245)
    v[space.index(det("2 2 2 2 0 0 0"))] = np.sqrt(0.51)
    state = CiState(energy=0.0, coeffs=v, space=space,
                    s2_expect=s_squared(space, v), multiplicity=1)
    rendered = format_decomposition(decompose(state, threshold_percent=1.0))
    assert rendered == ["2 2 2 2 0 0 0 (51%)", "2 2 u 2 0 d 0 (49%)"]

    ints = make_random_integrals(5, seed=5000)
    text = write_fcidump(ints, n_elec=5, ms2=1)
    back = read_fcidump(text).integrals
    assert np.array_equal(back.h, ints.h)
    assert np.array_equal(back.g2, ints.g2)
    assert back.core_energy == ints.core_energy
    _report(10, 'decomposition "2 2 u 2 0 d 0 (49%)" byte-exact; '
                'FCIDUMP round trip value-exact')
