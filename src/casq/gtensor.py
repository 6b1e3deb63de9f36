"""g-tensor extraction and doublet/quartet gap reporting.

Two routes to g are implemented and cross-checked:

EHA: the Zeeman operator mu = L + g_e S is evaluated over the ground
Kramers pair of the QDPT eigenstates, expanded in the Pauli basis
(Lambda_K = 1/2 sum_L g_KL sigma_L) and read off as g_KL = Tr(Lambda_K
sigma_L).  Principal values are the singular values of g, equivalently
the square roots of the eigenvalues of G = g g^T.

SOS: the second-order sum over same-spin states,

  Dg_KL = -(1/S) sum_b Delta_b^-1 [ <0|L_K|b><b|Z_L sigma_z|0>
                                   + <0|Z_K sigma_z|b><b|L_L|0> ],

evaluated in the M_S = S components, with sigma_z the Pauli matrix (the
stored Z couples to sigma, see the soc module).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import spin_transition_densities
from .casci import Multiplet
from .ingest import PropertyIntegrals
from .soc import SocStateBasis, SoEigenstates, time_reversal_matrix
from .units import G_E, HARTREE_TO_CM

# largest deviation of |<j|T|i>| from 1 accepted for the ground Kramers pair
TIME_REVERSAL_TOL = 1e-6

# SOS excited multiplets closer than this to the ground one (Hartree)
# make the perturbation sum diverge
SOS_MIN_GAP = 1e-8

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


@dataclass(frozen=True)
class GTensor:
    """3x3 Zeeman coupling with unsigned principal values."""

    matrix: np.ndarray
    principal: tuple[float, float, float]   # (g_x, g_y, g_z) by axis match
    method: str

    def __post_init__(self):
        if any(g < 0 for g in self.principal):
            raise ValueError("principal g values must be non-negative")


def _principal_from_g(g: np.ndarray, method: str) -> GTensor:
    G = g @ g.T
    w, vecs = np.linalg.eigh((G + G.T) / 2.0)
    vals = np.sqrt(np.clip(w, 0.0, None))
    # assign each principal direction to the lab axis it overlaps most
    assigned = [-1, -1, -1]
    order = np.argsort(-np.abs(vecs), axis=None)
    for flat in order:
        axis, col = int(flat // 3), int(flat % 3)
        if assigned[axis] < 0 and col not in assigned:
            assigned[axis] = col
        if all(a >= 0 for a in assigned):
            break
    principal = tuple(float(vals[assigned[ax]]) for ax in range(3))
    return GTensor(matrix=g, principal=principal, method=method)


def zeeman_basis_matrices(basis: SocStateBasis, blocks: dict,
                          prop: PropertyIntegrals) -> np.ndarray:
    """mu_K = L_K + g_e S_K, K in (x, y, z), over the basis of `blocks`."""
    n = basis.size
    mu = np.zeros((3, n, n), dtype=complex)
    # spin part: analytic within each multiplet (ladder-phased components),
    # bra entries along rows, ket entries along columns
    mult, two_s, ms2 = basis.multiplet, basis.two_s, basis.ms2
    same = mult[:, None] == mult
    step = ms2[:, None] - ms2
    s = two_s[:, None] / 2.0
    mj = ms2 / 2.0
    up = same & (step == 2)          # <M+1|S+|M>
    down = same & (step == -2)       # <M-1|S-|M>
    c_up = 0.5 * np.sqrt(np.where(up, s * (s + 1.0) - mj * (mj + 1.0), 0.0))
    c_down = 0.5 * np.sqrt(np.where(down, s * (s + 1.0) - mj * (mj - 1.0), 0.0))
    mu[0] += G_E * (c_up + c_down)
    mu[1] += 1.0j * (G_E * (c_down - c_up))
    mu[2] += np.where(same & (step == 0), G_E * mj, 0.0)
    # orbital part: spin-free, couples equal M_S (and equal S in practice)
    for idx, _, _, (ga, gb) in blocks.values():
        mu[:, idx[:, None], idx] += 1.0j * np.einsum("kpq,pqij->kij",
                                                     prop.L, ga + gb)
    return mu


def g_tensor_eha(so: SoEigenstates, blocks: dict,
                 prop: PropertyIntegrals) -> GTensor:
    """Effective-Hamiltonian g from the ground Kramers pair of QDPT
    eigenstates, with the `soc.component_blocks` of their basis."""
    if not so.kramers_pairs:
        raise ValueError("no Kramers pairs available (even-electron system?)")
    i, j = so.kramers_pairs[0]
    T = time_reversal_matrix(so.basis)
    overlap = abs(np.vdot(so.vectors[:, j], T @ np.conj(so.vectors[:, i])))
    if abs(overlap - 1.0) > TIME_REVERSAL_TOL:
        raise ValueError(
            f"states {i},{j} are not time-reversal conjugate "
            f"(|<j|T|i>| = {overlap:.6f})")
    V = so.vectors[:, [i, j]]
    mu = zeeman_basis_matrices(so.basis, blocks, prop)
    g = np.zeros((3, 3))
    for K in range(3):
        lam = V.conj().T @ mu[K] @ V
        for L in range(3):
            val = np.trace(lam @ _PAULI[L])
            g[K, L] = val.real
    return _principal_from_g(g, "EHA")


def g_tensor_sos(ground: Multiplet, excited: list[Multiplet],
                 prop: PropertyIntegrals) -> GTensor:
    """Sum-over-states g for the ground multiplet (Delta g from same-S
    excited states, evaluated in the top M_S = S components)."""
    s = ground.two_s / 2.0
    if s <= 0:
        raise ValueError("SOS g requires a spin-carrying ground state")
    top = ground.two_s
    v0 = ground.component(top)
    same = [m for m in excited if m.two_s == ground.two_s]
    gaps = np.array([m.energy - ground.energy for m in same])
    low = gaps < SOS_MIN_GAP
    if low.any():
        raise ValueError(
            f"excited multiplet gap {gaps[low][0]:.3e} Hartree below "
            f"{SOS_MIN_GAP:.0e}; degenerate ground manifold, use the effective "
            f"Hamiltonian")
    dg = np.zeros((3, 3))
    if same:
        V = np.column_stack([m.component(top).coeffs for m in same])
        ga, gb = spin_transition_densities(v0.space, v0.coeffs, V)
        # <b|O_pq|0> = <0|O_qp|b> for real CI vectors; all four factors
        # are i * (real contraction), i*i = -1 overall
        l_0b = np.einsum("kpq,pqb->kb", prop.L, ga + gb)
        z_0b = np.einsum("kpq,pqb->kb", prop.Z, ga - gb)
        l_b0 = np.einsum("kqp,pqb->kb", prop.L, ga + gb)
        z_b0 = np.einsum("kqp,pqb->kb", prop.Z, ga - gb)
        dg = ((l_0b / gaps) @ z_b0.T + (z_0b / gaps) @ l_b0.T) / s
    return _principal_from_g(G_E * np.eye(3) + dg, "SOS")


# ---------------------------------------------------------------------------
# Multiplet gap report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapReport:
    rows: tuple[dict, ...]
    quartet_below_doublet: bool


def gap_report(multiplets: list[Multiplet]) -> GapReport:
    """Energies and pairwise gaps (cm^-1) of the multiplet ladder.

    Flags the ordering whenever any quartet lies below any doublet.
    """
    ordered = sorted(multiplets, key=lambda m: m.energy)
    rows = []
    e0 = ordered[0].energy if ordered else 0.0
    prev = None
    for k, m in enumerate(ordered):
        rel = (m.energy - e0) * HARTREE_TO_CM
        gap = (m.energy - prev) * HARTREE_TO_CM if prev is not None else 0.0
        rows.append({
            "index": k,
            "multiplicity": m.multiplicity,
            "energy_hartree": m.energy,
            "rel_cm": rel,
            "gap_to_previous_cm": gap,
        })
        prev = m.energy
    doublets = [m.energy for m in ordered if m.multiplicity == 2]
    quartets = [m.energy for m in ordered if m.multiplicity == 4]
    flag = bool(doublets and quartets and min(quartets) < max(doublets))
    return GapReport(rows=tuple(rows), quartet_below_doublet=flag)


def format_gap_report(report: GapReport) -> str:
    lines = ["idx  2S+1    E (Hartree)        dE_0 (cm^-1)   gap (cm^-1)"]
    for r in report.rows:
        lines.append(f"{r['index']:>3d}  {r['multiplicity']:>4d}  "
                     f"{r['energy_hartree']:>16.10f}  {r['rel_cm']:>12.2f}  "
                     f"{r['gap_to_previous_cm']:>12.2f}")
    if report.quartet_below_doublet:
        lines.append("flag: quartet below doublet ordering detected")
    return "\n".join(lines)
