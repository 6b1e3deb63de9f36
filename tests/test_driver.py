"""Multiplicity-resolved solves: one spin-projected solve per multiplicity,
checked against full diagonalization."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casq import casci, driver
from casq.detspace import cas_dimension, enumerate_cas
from casq.ingest import DavidsonOptions, IntegralSet, RunConfig
from casq.ligandfield import LigandFieldModel, build_ligand_field_model

from conftest import make_random_integrals, spin_filtered_energies, spin_purity_field


@st.composite
def _problems(draw):
    n_orb = draw(st.integers(3, 5))
    n_elec = draw(st.integers(1, 2 * n_orb - 1))
    top = min(n_elec, 2 * n_orb - n_elec)          # largest 2S
    roots = {}
    for two_s in range(top % 2, top + 1, 2):
        # roots of 2S+1 = dim(M_S = S) - dim(M_S = S + 1)
        above = cas_dimension(n_elec, n_orb, two_s + 2) if two_s < top else 0
        roots[two_s + 1] = draw(st.integers(
            0, min(6, cas_dimension(n_elec, n_orb, two_s) - above)))
    if not any(roots.values()):
        roots[top % 2 + 1] = 1
    # random integrals, or a diagonal h with integer spacing (equal orbital
    # energies included) and zero or Coulomb-only g: states of different
    # spin are then exactly degenerate
    return (n_elec, n_orb, roots, draw(st.integers(0, 2 ** 16)),
            draw(st.sampled_from(["random", "zero g", "coulomb g"])))


def _integrals(n_orb, seed, kind):
    if kind == "random":
        return make_random_integrals(n_orb, seed)
    rng = np.random.default_rng(seed)
    g = np.zeros((n_orb,) * 4)
    if kind == "coulomb g":
        J = rng.integers(0, 3, (n_orb, n_orb)) / 2.0
        g[np.arange(n_orb)[:, None], np.arange(n_orb)[:, None],
          np.arange(n_orb), np.arange(n_orb)] = J + J.T
    return IntegralSet(h=np.diag(rng.integers(0, 3, n_orb).astype(float)), g2=g)


@settings(max_examples=50)
@given(_problems(), st.booleans())
def test_solve_multiplets_matches_full_eigh(problem, at_floor):
    n_elec, n_orb, roots, seed, kind = problem
    ints = _integrals(n_orb, seed, kind)
    # these blocks hold at most 100 determinants: an automatic guess_dim
    # (0) sends them to the dense route, guess_dim at its floor to Davidson
    floor = max(roots.values())
    config = RunConfig(cas=(n_elec, n_orb), roots_per_multiplicity=roots,
                       davidson=DavidsonOptions(guess_dim=floor if at_floor else 0))
    calls, dense = [], []

    def spy(solve, log):
        def solver(space, ints, n_roots, *rest):
            states = solve(space, ints, n_roots, *rest)
            log.append((space.ms2 + 1, n_roots, states))
            return states
        return solver

    with mock.patch.object(casci, "dense_solve", spy(casci.dense_solve, dense)), \
            mock.patch.object(driver, "solve_davidson",
                              spy(driver.solve_davidson, calls)):
        multiplets = driver.solve_multiplets(ints, config)

    for mult, count in roots.items():
        got = sorted(m.energy for m in multiplets if m.multiplicity == mult)
        ref = spin_filtered_energies(
            ints, enumerate_cas(n_elec, n_orb, mult - 1), mult, count)
        assert np.allclose(got, ref, rtol=0.0, atol=1e-9)
        # one solver call for exactly `count` roots, every one of spin mult
        solves = [(n, states) for m, n, states in calls if m == mult]
        assert [n for n, _ in solves] == ([count] if count else [])
        assert all(s.multiplicity == mult for _, states in solves for s in states)
        # the dense route takes the block unless it exceeds guess_dim
        size = cas_dimension(n_elec, n_orb, mult - 1)
        routed = count and (not at_floor or size <= floor)
        assert [n for m, n, _ in dense if m == mult] == ([count] if routed else [])


@pytest.mark.parametrize("solver", ["dense", "davidson"])
@pytest.mark.parametrize("roots", [{2: 9}, {2: 9, 4: 1}])
def test_too_many_roots_requested(solver, roots):
    # CAS(3,3) M_S = 1/2 holds 9 determinants: 8 doublets and one quartet
    ints = make_random_integrals(3, 71)
    config = RunConfig(cas=(3, 3), roots_per_multiplicity=roots)
    with pytest.raises(ValueError, match="only 8 roots of multiplicity 2"):
        driver.solve_multiplets(ints, config)
    # each solver rejects the request itself, before it builds any H
    solve = {"dense": casci.dense_solve, "davidson": casci.solve_davidson}[solver]
    with mock.patch.object(casci, "dense_hamiltonian", None), \
            pytest.raises(ValueError, match="only 8 roots of multiplicity 2 "
                                            r"exist in CAS\(3, 3\)"):
        solve(enumerate_cas(3, 3, 1), ints, 9)


def test_projector_failure_is_an_invariant_breach(monkeypatch):
    # the count lets 2 roots through; a projector that leaves nothing of
    # any eigenvector is a failure of the solve, not of the input
    ints = make_random_integrals(3, 71)
    monkeypatch.setattr(casci, "project_spin", lambda space, v: 0.0 * v)
    with pytest.raises(casci.InvariantBreach, match="only 0 of the 2 roots"):
        casci.dense_solve(enumerate_cas(3, 3, 1), ints, 2)


@pytest.mark.parametrize("n_elec,mult", [(6, 1), (7, 2)])
def test_targets_above_higher_spin_roots_converge(n_elec, mult, davidson_runs):
    # in these d6 and d7 fields triplets and quartets lie among the lowest
    # roots of the singlet and doublet blocks, and correction columns keep
    # as little as 1e-10 of their norm under the projector: normalizing
    # them scales up its rounding error outside its range, which only a
    # projection in each Gram-Schmidt round keeps from stalling Davidson
    _, ints, _, _ = build_ligand_field_model(spin_purity_field(n_elec))
    config = RunConfig(cas=(n_elec, 5), roots_per_multiplicity={mult: 6},
                       davidson=DavidsonOptions(guess_dim=32))
    multiplets = driver.solve_multiplets(ints, config)
    space = enumerate_cas(n_elec, 5, mult - 1)
    assert davidson_runs == [space.size]
    assert np.allclose([m.energy for m in multiplets],
                       spin_filtered_energies(ints, space, mult, 6),
                       rtol=0.0, atol=1e-9)


def test_near_degenerate_intruder_leaves_targets_pure(davidson_runs):
    # a d7 field whose 10th root (a quartet) lies 5e-6 Eh above the 5th
    # doublet: a one-root Davidson pass finds the quartet first, and had it
    # been locked with its residual error along that doublet, the doublet
    # would inherit it and its Kramers pair split by 1.4e-10 Eh
    v_lf = [[1.4870961606104314, -0.5220744917395865, -0.3114089144892714,
             -0.6216428835003601, 0.17803370829585005],
            [-0.5220744917395865, 0.6715214110939286, 0.16246969050477428,
             0.31502711243638415, -0.22396722074119307],
            [-0.3114089144892714, 0.16246969050477428, 1.4925772371713553,
             0.008547629150693231, 0.5399790594774387],
            [-0.6216428835003601, 0.31502711243638415, 0.008547629150693231,
             1.1776014275799114, 0.2095883720198219],
            [0.17803370829585005, -0.22396722074119307, 0.5399790594774387,
             0.2095883720198219, 1.2800900687704218]]
    model = LigandFieldModel(v_lf=np.array(v_lf), racah_b=0.12762063362615733,
                             racah_c=0.4045251793384107,
                             zeta=489.09756126370934, n_elec=7)
    _, ints, prop, config = build_ligand_field_model(model)
    assert config.roots_per_multiplicity == {2: 5}
    assert config.davidson.tol == 1e-10
    # guess_dim 32 keeps the 50-determinant doublet block on Davidson,
    # whose roots (and the quartet's) are converged only to tol
    config = replace(config, davidson=replace(config.davidson, guess_dim=32))
    result = driver.run_gtensor(ints, prop, config)   # pairs Kramers partners
    assert davidson_runs and set(davidson_runs) == {50}
    for m in result.multiplets:
        for comp in m.components.values():
            assert abs(comp.s2_expect - 0.75) < 1e-12
