"""Spin-orbit matrix over multiplet components, QDPT and Kramers pairing.

The one-electron spin-orbit operator couples to Pauli matrices,

    H_SO = sum_i z(i) . sigma(i),      <p|z_K|q> = i Z[K,p,q],

so a ligand-field Z = (zeta/2) L realizes zeta l.s exactly.  Matrix
elements over multiplet components reduce to spin-conserving and
spin-flip one-particle transition densities, evaluated for all
components of one pair of M_S blocks at once, spin flips straight from
their alpha and beta string maps.  The Delta M_S = -1 and +1 blocks come
from independent operands and intermediates (one electron fewer, one
more), so the Hermiticity check compares two evaluations of each element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import flip_transition_densities, spin_transition_densities
from .casci import InvariantBreach, Multiplet
from .ingest import PropertyIntegrals
from .spin import flip_lower_links, flip_raise_links

# largest |H_SO - H_SO^+| element before symmetrizing (Hartree)
HERMITICITY_TOL = 1e-8

# Kramers partners: the largest energy split (Hartree) and the smallest
# time-reversal overlap |<j|T|i>| that still count as one pair
KRAMERS_SPLIT_TOL = 1e-10
KRAMERS_OVERLAP_TOL = 1e-8


class PhaseConsistencyError(InvariantBreach):
    """Multiplet component phases are inconsistent (Hermiticity breach)."""


class KramersPairingError(InvariantBreach):
    """QDPT eigenstates of an odd-electron system failed to pair."""


@dataclass(frozen=True, eq=False)
class SocStateBasis:
    """The components entering QDPT, in basis order: multiplet index, 2S
    and 2M_S of each, as integer arrays."""

    multiplet: np.ndarray
    two_s: np.ndarray
    ms2: np.ndarray

    @property
    def size(self) -> int:
        return self.ms2.size


def soc_basis(multiplets: list[Multiplet]) -> SocStateBasis:
    """All 2S+1 components of every multiplet, M_S descending."""
    labels = [(idx, m.two_s, ms2) for idx, m in enumerate(multiplets)
              for ms2 in range(m.two_s, -m.two_s - 1, -2)]
    return SocStateBasis(*np.array(labels, dtype=int).reshape(-1, 3).T)


def diagonal_energies(basis: SocStateBasis,
                      multiplets: list[Multiplet]) -> np.ndarray:
    return np.array([m.energy for m in multiplets])[basis.multiplet]


def component_blocks(basis: SocStateBasis, multiplets: list[Multiplet]):
    """Basis entries grouped by M_S, {ms2: (indices, space, columns,
    (gamma_alpha, gamma_beta))}: the components' CI vectors stacked in basis
    order (one CAS space per M_S) and their same-spin densities, the one
    density pass that H_SO and the Zeeman operator share."""
    blocks = {}
    for ms2 in dict.fromkeys(basis.ms2.tolist()):     # first-seen order
        idx = np.flatnonzero(basis.ms2 == ms2)
        comps = [multiplets[k].component(ms2) for k in basis.multiplet[idx]]
        space, C = comps[0].space, np.column_stack([c.coeffs for c in comps])
        blocks[ms2] = (idx, space, C, spin_transition_densities(space, C, C))
    return blocks


def soc_matrix(basis: SocStateBasis, blocks: dict,
               prop: PropertyIntegrals) -> np.ndarray:
    """Complex Hermitian H_SO (Hartree) over the `component_blocks` of basis.

    Couples blocks with |Delta S| <= 1 and |Delta M_S| <= 1; the
    Delta M_S = -1 and +1 elements are evaluated independently and the
    Hermiticity residual is checked against HERMITICITY_TOL before
    symmetrizing.
    """
    n = basis.size
    zx, zy, zz = prop.Z
    H = np.zeros((n, n), dtype=complex)
    for ms2, (idx, space, C, (ga, gb)) in blocks.items():
        H[np.ix_(idx, idx)] = 1j * np.einsum("pq,pqij->ij", zz, ga - gb)
        if ms2 - 2 not in blocks:
            continue
        low, low_space, D, _ = blocks[ms2 - 2]
        # <low|a+_pb a_qa|C> and <C|a+_pa a_qb|low>, from separate operands
        down = flip_transition_densities(flip_lower_links(space), D, C)
        H[np.ix_(low, idx)] = np.einsum("pq,pqij->ij", 1j * zx - zy, down)
        up = flip_transition_densities(flip_raise_links(low_space), C, D)
        H[np.ix_(idx, low)] = np.einsum("pq,pqij->ij", 1j * zx + zy, up)
    H[np.abs(basis.two_s[:, None] - basis.two_s) > 2] = 0.0
    resid = float(np.max(np.abs(H - H.conj().T)))
    if resid > HERMITICITY_TOL:
        raise PhaseConsistencyError(
            f"SOC Hermiticity residual {resid:.3e} exceeds "
            f"{HERMITICITY_TOL:.0e}; multiplet phases are inconsistent")
    return (H + H.conj().T) / 2.0


def time_reversal_matrix(basis: SocStateBasis) -> np.ndarray:
    """Antiunitary T as a signed permutation: T psi = Tmat @ conj(psi).

    T|S, M> = (-1)^(S-M) |S, -M> for ladder-phased components.
    """
    mult, two_s, ms2 = basis.multiplet, basis.two_s, basis.ms2
    partner = (mult[:, None] == mult) & (ms2[:, None] == -ms2)
    sign = np.where(((two_s - ms2) // 2) % 2, -1.0, 1.0)
    return np.where(partner, sign, 0.0)


@dataclass
class SoEigenstates:
    """QDPT eigenstates: diag(E_spin_free) + H_SO diagonalized exactly."""

    energies: np.ndarray
    vectors: np.ndarray                 # complex columns over the basis
    kramers_pairs: list[tuple[int, int]]
    basis: SocStateBasis


def qdpt(basis: SocStateBasis, energies: np.ndarray,
         soc: np.ndarray) -> SoEigenstates:
    """Diagonalize diag(energies) + soc and establish Kramers pairing.

    For odd-electron bases (half-integer spins) every eigenvalue must be
    two-fold degenerate (Kramers theorem); the pairing is located through
    time-reversal overlaps and its failure signals broken Hermiticity or
    phases.
    """
    energies = np.asarray(energies, dtype=float)
    if soc.shape != (basis.size, basis.size):
        raise ValueError("soc matrix does not match basis size")
    H = np.diag(energies).astype(complex) + soc
    w, V = np.linalg.eigh(H)
    pairs: list[tuple[int, int]] = []
    if basis.size and basis.two_s[0] % 2:
        T = time_reversal_matrix(basis)
        used = np.zeros(basis.size, dtype=bool)
        for i in range(basis.size):
            if used[i]:
                continue
            tpsi = T @ np.conj(V[:, i])
            overlaps = np.abs(V.conj().T @ tpsi)
            overlaps[used] = -1.0
            overlaps[i] = -1.0
            j = int(np.argmax(overlaps))
            if overlaps[j] < KRAMERS_OVERLAP_TOL:
                raise KramersPairingError(
                    f"no time-reversal partner for state {i} "
                    f"(best overlap {overlaps[j]:.3e})")
            if abs(w[i] - w[j]) > KRAMERS_SPLIT_TOL:
                raise KramersPairingError(
                    f"states {i},{j} are time-reversal partners but split "
                    f"by {abs(w[i] - w[j]):.3e} Hartree")
            used[i] = used[j] = True
            pairs.append((i, j))
    return SoEigenstates(energies=w, vectors=V, kramers_pairs=pairs,
                         basis=basis)
