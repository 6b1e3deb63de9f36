"""d-shell ligand-field model: one-shell Hamiltonian, Racah repulsion, SOC.

The model Hamiltonian is built over the five real d orbitals in the
fixed order (d_z2, d_xz, d_yz, d_x2-y2, d_xy):

  h   = one-electron ligand-field matrix (input, eV)
  g2  = full Coulomb/exchange tensor from Racah A(=0), B, C
  L   = exact d-shell angular momentum matrices
  Z   = (zeta/2) L, which together with the Pauli-matrix spin coupling
        used by the SOC module realizes H_SO = zeta l.s exactly
  D   = 0 (single centrosymmetric shell)

Racah A is fixed to zero: it shifts every state of fixed electron count
uniformly and cancels from all excitation energies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, sqrt

import numpy as np

from .ingest import (IntegralSet, OrbitalSpace, PropertyIntegrals,
                     parse_run_config, symmetrize_8fold)
from .units import CM_TO_HARTREE, EV_TO_HARTREE


@dataclass(frozen=True)
class LigandFieldModel:
    """One-shell d^n model parameterization.

    v_lf is the 5x5 symmetric one-electron matrix (eV) over the real d
    orbitals in the fixed order above; racah_b/racah_c in eV; zeta in cm^-1.
    """

    v_lf: np.ndarray
    racah_b: float
    racah_c: float
    zeta: float
    n_elec: int

    def __post_init__(self):
        v = np.asarray(self.v_lf, dtype=float)
        if v.shape != (5, 5):
            raise ValueError(f"v_lf must be 5x5, got {v.shape}")
        if np.max(np.abs(v - v.T)) > 1e-12:
            raise ValueError("v_lf must be symmetric")
        if self.racah_b < 0 or self.racah_c < 0:
            raise ValueError("Racah B and C must be non-negative")
        if not 1 <= self.n_elec <= 9:
            raise ValueError(f"n_elec must be in 1..9, got {self.n_elec}")
        object.__setattr__(self, "v_lf", v)


def wigner_3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3j symbol for integer arguments (Racah closed form)."""
    if m1 + m2 + m3 != 0:
        return 0.0
    if not abs(j1 - j2) <= j3 <= j1 + j2:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    delta = sqrt(factorial(j1 + j2 - j3) * factorial(j1 - j2 + j3)
                 * factorial(-j1 + j2 + j3) / factorial(j1 + j2 + j3 + 1))
    pref = sqrt(factorial(j1 + m1) * factorial(j1 - m1)
                * factorial(j2 + m2) * factorial(j2 - m2)
                * factorial(j3 + m3) * factorial(j3 - m3))
    total = 0.0
    t_min = max(0, j2 - j3 - m1, j1 - j3 + m2)
    t_max = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    for t in range(t_min, t_max + 1):
        denom = (factorial(t) * factorial(j3 - j2 + t + m1)
                 * factorial(j3 - j1 + t - m2) * factorial(j1 + j2 - j3 - t)
                 * factorial(j1 - t - m1) * factorial(j2 - t + m2))
        total += (-1.0) ** t / denom
    return (-1.0) ** (j1 - j2 - m3) * delta * pref * total


def _gaunt_integral(k: int, mu: int, m1: int, m2: int) -> float:
    """int Y*_{2 m1} Y_{k mu} Y_{2 m2} dOmega, for the d shell."""
    if mu != m1 - m2:
        return 0.0
    pref = (-1.0) ** m1 * sqrt(25.0 * (2 * k + 1) / (4.0 * np.pi))
    return (pref * wigner_3j(2, k, 2, 0, 0, 0)
            * wigner_3j(2, k, 2, -m1, mu, m2))


@lru_cache(maxsize=None)
def _dshell_coulomb_complex() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-F^k coefficient tensors of (m1 m2|m3 m4) over the complex m
    basis, m ordered -2..2."""
    out = []
    ms = range(-2, 3)
    for k in (0, 2, 4):
        t = np.zeros((5, 5, 5, 5))
        pref = 4.0 * np.pi / (2 * k + 1)
        for i1, m1 in enumerate(ms):
            for i2, m2 in enumerate(ms):
                mu = m2 - m1
                if abs(mu) > k:
                    continue
                # int Y*_m1 Y*_kmu Y_m2 = (-1)^mu int Y*_m1 Y_{k,-mu} Y_m2
                a1 = (-1.0) ** mu * _gaunt_integral(k, -mu, m1, m2)
                for i3, m3 in enumerate(ms):
                    m4 = m3 - mu
                    if not -2 <= m4 <= 2:
                        continue
                    a2 = _gaunt_integral(k, mu, m3, m4)
                    t[i1, i2, i3, m4 + 2] = pref * a1 * a2
        out.append(t)
    return tuple(out)


@lru_cache(maxsize=None)
def real_d_transform() -> np.ndarray:
    """U with real_p = sum_m U[p, m] |2 m>, m columns ordered -2..2."""
    s = 1.0 / np.sqrt(2.0)
    u = np.zeros((5, 5), dtype=complex)
    u[0, 2] = 1.0                      # z2 = |0>
    u[1, 1] = s                        # xz = (|-1> - |1>)/sqrt(2)
    u[1, 3] = -s
    u[2, 1] = 1j * s                   # yz = i(|-1> + |1>)/sqrt(2)
    u[2, 3] = 1j * s
    u[3, 0] = s                        # x2-y2 = (|-2> + |2>)/sqrt(2)
    u[3, 4] = s
    u[4, 0] = 1j * s                   # xy = i(|-2> - |2>)/sqrt(2)
    u[4, 4] = -1j * s
    return u


@lru_cache(maxsize=None)
def dshell_coulomb_fk() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real-basis coefficient tensors of (pq|rs) per Slater F^0, F^2, F^4."""
    u = real_d_transform()
    out = []
    for t in _dshell_coulomb_complex():
        g = np.einsum("pa,qb,rc,sd,abcd->pqrs",
                      u.conj(), u, u.conj(), u, t, optimize=True)
        if np.max(np.abs(g.imag)) > 1e-12:
            raise AssertionError("complex residue in real d Coulomb tensor")
        out.append(symmetrize_8fold(g.real))
    return tuple(out)


def racah_coulomb(a: float, b: float, c: float) -> np.ndarray:
    """d-shell (pq|rs) over the real orbitals from Racah parameters."""
    f0 = a + 7.0 * c / 5.0
    f2 = 49.0 * b + 7.0 * c
    f4 = 63.0 * c / 5.0
    t0, t2, t4 = dshell_coulomb_fk()
    return f0 * t0 + f2 * t2 + f4 * t4


@lru_cache(maxsize=None)
def dshell_l_matrices() -> np.ndarray:
    """Real antisymmetric L with <p|l_K|q> = i L[K, p, q] (hbar units)."""
    m = np.arange(-2.0, 3.0)
    lz = np.diag(m)
    lp = np.zeros((5, 5))
    for i in range(4):
        lp[i + 1, i] = sqrt(6.0 - m[i] * (m[i] + 1.0))  # <m+1|l+|m>
    lm = lp.T
    lx = (lp + lm) / 2.0
    ly = (lp - lm) / 2j
    u = real_d_transform()
    out = np.zeros((3, 5, 5))
    for k, lc in enumerate((lx, ly, lz)):
        lr = u.conj() @ lc @ u.T
        if np.max(np.abs(lr.real)) > 1e-12:
            raise AssertionError("d-shell l matrix not purely imaginary")
        out[k] = (lr.imag - lr.imag.T) / 2.0
    return out


def build_ligand_field_model(model: LigandFieldModel):
    """Assemble (OrbitalSpace, IntegralSet, PropertyIntegrals, RunConfig)."""
    h = model.v_lf * EV_TO_HARTREE
    g2 = racah_coulomb(0.0, model.racah_b * EV_TO_HARTREE,
                       model.racah_c * EV_TO_HARTREE)
    L = dshell_l_matrices()
    Z = 0.5 * model.zeta * CM_TO_HARTREE * L
    prop = PropertyIntegrals(L=L, Z=Z, D=np.zeros((3, 5, 5)))
    ints = IntegralSet(h=h, g2=g2, core_energy=0.0)
    config = parse_run_config("", default_cas=(model.n_elec, 5))
    return OrbitalSpace(5), ints, prop, config


# Built-in illustrative presets: generic VO(2+)-like and Cu(2+)-like
# ligand fields (not fitted to any specific molecule).

def preset_model(name: str, zeta: float | None = None) -> LigandFieldModel:
    key = name.lower()
    if key in ("d1", "d1-tetragonal"):
        # xy ground, xz/yz at 1.9 eV, x2-y2 at 2.6 eV, z2 at 4.5 eV
        v = np.diag([4.5, 1.9, 1.9, 2.6, 0.0])
        return LigandFieldModel(v_lf=v, racah_b=0.0, racah_c=0.0,
                                zeta=248.0 if zeta is None else zeta,
                                n_elec=1)
    if key in ("d9", "d9-planar"):
        # hole in x2-y2; hole excitations: ->xy 2.2 eV, ->xz/yz 1.95 eV
        v = np.diag([0.9, 0.25, 0.25, 2.2, 0.0])
        return LigandFieldModel(v_lf=v, racah_b=0.15, racah_c=0.60,
                                zeta=829.0 if zeta is None else zeta,
                                n_elec=9)
    raise ValueError(f"unknown ligand-field preset {name!r}; "
                     f"use d1-tetragonal or d9-planar")
