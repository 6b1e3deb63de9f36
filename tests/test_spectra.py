import numpy as np
import pytest
from scipy.integrate import trapezoid

from casq.casci import assemble_multiplets, dense_solve
from casq.detspace import enumerate_cas
from casq.ingest import PropertyIntegrals, zero_properties
from casq.spectra import (
    SpectrumLine,
    broaden,
    energy_grid,
    oscillator_strength,
    spectrum_csv,
    transition_table,
)
from casq.units import HARTREE_TO_EV

from _oracles import fock_one_electron, space_projector
from conftest import make_random_integrals


def _prop_with_dipoles(n, seed):
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((3, n, n))
    D = (D + D.transpose(0, 2, 1)) / 2.0
    return PropertyIntegrals(L=np.zeros((3, n, n)), Z=np.zeros((3, n, n)), D=D)


def _doublets_and_quartet(ints):
    """The eight doublets and the M_S = 1/2 component of the quartet of
    CAS(3,3), lowest first."""
    states = (dense_solve(enumerate_cas(3, 3, 1), ints, 8)
              + dense_solve(enumerate_cas(3, 3, 3), ints, 1))
    return [m.component(1) for m in assemble_multiplets(states, ints)]


def test_transition_dipole_zero_operator():
    ints = make_random_integrals(3, 91)
    space = enumerate_cas(3, 3, 1)
    states = dense_solve(space, ints, 2)
    (line,) = transition_table(states, zero_properties(3))
    assert line.f_osc == 0.0 and not line.spin_forbidden


def test_transition_dipole_matches_fock_oracle():
    # f = 2/3 dE |<0|D|k>|^2 with the dipole taken in the Fock space
    ints = make_random_integrals(3, 92)
    prop = _prop_with_dipoles(3, 93)
    space = enumerate_cas(3, 3, 1)
    states = dense_solve(space, ints, 4)
    lines = transition_table(states, prop)
    assert len(lines) == len(states) - 1 >= 1
    P = space_projector(space)
    n = space.n_orb
    ops = []
    for k in range(3):
        coeff = np.zeros((2 * n, 2 * n))
        coeff[:n, :n] = prop.D[k]
        coeff[n:, n:] = prop.D[k]
        ops.append(P @ fock_one_electron(coeff, n).real @ P.T)
    s0 = states[0]
    for line in lines:
        sk = states[line.to_state]
        mu = np.array([s0.coeffs @ op @ sk.coeffs for op in ops])
        assert not line.spin_forbidden
        assert line.f_osc == pytest.approx(
            2.0 / 3.0 * (sk.energy - s0.energy) * (mu @ mu), rel=1e-10, abs=1e-14)


def test_transition_dipole_spin_forbidden():
    ints = make_random_integrals(3, 94)
    prop = _prop_with_dipoles(3, 95)
    states = _doublets_and_quartet(ints)
    doublet = next(s for s in states if s.multiplicity == 2)
    quartet = next(s for s in states if s.multiplicity == 4)
    (line,) = transition_table([doublet, quartet], prop)
    assert line.spin_forbidden and line.f_osc == 0.0


def test_oscillator_strength_values():
    assert oscillator_strength(0.3, np.zeros(3)) == 0.0
    f = oscillator_strength(0.1, np.array([1.0, 0.0, 0.0]))
    assert f == pytest.approx(2.0 / 30.0)
    # rotation invariance: depends on |mu| only
    mu = np.array([0.3, -0.4, 1.2])
    rot = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))[0]
    assert oscillator_strength(0.2, rot @ mu) == pytest.approx(
        oscillator_strength(0.2, mu), abs=1e-14)
    with pytest.raises(ValueError, match="negative"):
        oscillator_strength(-0.1, mu)


def test_f_sum_invariant_under_orbital_rotation():
    from scipy.linalg import expm

    from casq.ingest import IntegralSet

    ints = make_random_integrals(4, 96)
    prop = _prop_with_dipoles(4, 97)
    space = enumerate_cas(3, 4, 1)
    states = dense_solve(space, ints, 6)
    lines = transition_table(states, prop)
    f_sum = sum(ln.f_osc for ln in lines)
    a = np.random.default_rng(98).standard_normal((4, 4))
    R = expm(0.3 * (a - a.T))
    ints_rot = IntegralSet(
        h=R @ ints.h @ R.T,
        g2=np.ascontiguousarray(np.einsum(
            "pa,qb,rc,sd,abcd->pqrs", R, R, R, R, ints.g2, optimize=True)),
        core_energy=ints.core_energy)
    prop_rot = PropertyIntegrals(
        L=np.zeros((3, 4, 4)), Z=np.zeros((3, 4, 4)),
        D=np.einsum("pa,kab,qb->kpq", R, prop.D, R))
    states_rot = dense_solve(space, ints_rot, 6)
    lines_rot = transition_table(states_rot, prop_rot)
    assert np.allclose([s.energy for s in states],
                       [s.energy for s in states_rot], atol=1e-10)
    assert sum(ln.f_osc for ln in lines_rot) == pytest.approx(f_sum, abs=1e-9)
    assert f_sum >= 0.0


def test_transition_table_flags_and_labels():
    ints = make_random_integrals(3, 99)
    prop = _prop_with_dipoles(3, 100)
    lines = transition_table(_doublets_and_quartet(ints), prop)
    forbidden = [ln for ln in lines if ln.spin_forbidden]
    assert forbidden and all(ln.f_osc == 0.0 for ln in forbidden)
    assert all(ln.label == "spin-forbidden" for ln in forbidden)
    strong = [ln for ln in lines if ln.f_osc >= 0.5]
    assert all(ln.label == "Soret-like (auto)" for ln in strong)


def test_broaden_peak_height_and_linearity():
    line = SpectrumLine(delta_e_ev=2.0, f_osc=1.0, from_state=0, to_state=1)
    grid = energy_grid(0.0, 4.0, 0.002)
    curve = broaden([line], 0.1, grid)
    sigma = 0.1 / 2.3548200450309493
    peak = 1.0 / (sigma * np.sqrt(2 * np.pi))
    k = np.argmin(np.abs(grid - 2.0))
    assert curve[k] == pytest.approx(peak, rel=1e-6)
    double = broaden([line, line], 0.1, grid)
    assert np.allclose(double, 2 * curve, atol=1e-12)
    assert np.all(curve >= 0.0)


def test_broaden_integral_conserves_f():
    lines = [SpectrumLine(2.0, 0.7, 0, 1), SpectrumLine(3.1, 0.25, 0, 2)]
    fwhm = 0.2
    sigma = fwhm / 2.3548200450309493
    grid = energy_grid(0.5, 4.5, sigma / 5.0)
    curve = broaden(lines, fwhm, grid)
    integral = trapezoid(curve, grid)
    assert abs(integral - 0.95) / 0.95 < 1e-3


def test_broaden_errors():
    line = SpectrumLine(1.0, 1.0, 0, 1)
    with pytest.raises(ValueError, match="fwhm"):
        broaden([line], 0.0, np.linspace(0, 2, 10))
    with pytest.raises(ValueError, match="empty"):
        broaden([line], 0.1, np.array([]))
    with pytest.raises(ValueError, match="non-negative"):
        SpectrumLine(1.0, -0.1, 0, 1)


def test_spectrum_csv_roundtrip():
    grid = energy_grid(0.0, 1.0, 0.5)
    curve = np.array([0.0, 1.0, 0.5])
    text = spectrum_csv(grid, curve)
    rows = text.strip().splitlines()
    assert rows[0] == "energy_eV,intensity"
    assert len(rows) == 4
    assert float(rows[2].split(",")[1]) == 1.0


def test_line_energies_in_ev():
    ints = make_random_integrals(3, 101)
    prop = _prop_with_dipoles(3, 102)
    space = enumerate_cas(3, 3, 1)
    states = dense_solve(space, ints, 3)
    lines = transition_table(states, prop)
    de = (states[1].energy - states[0].energy) * HARTREE_TO_EV
    assert lines[0].delta_e_ev == pytest.approx(de, abs=1e-12)
