"""End-to-end workflows: multiplicity-resolved CASCI, QDPT and g-tensors.

Each multiplicity 2S+1 is solved once, for exactly the roots asked for, in
its top block M_S = S within the range of Löwdin's spin-S projector
(`spin.project_spin`), so the multiplicities do not depend on one another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .casci import (CiState, Multiplet, assemble_multiplets, enumerate_cas,
                    solve_davidson)
from .gtensor import GapReport, GTensor, g_tensor_eha, g_tensor_sos, gap_report
from .ingest import IntegralSet, PropertyIntegrals, RunConfig
from .soc import (SocStateBasis, SoEigenstates, component_blocks,
                  diagonal_energies, qdpt, soc_basis, soc_matrix)


def solve_multiplicity(ints: IntegralSet, config: RunConfig, mult: int,
                       count: int) -> list[CiState]:
    """The lowest `count` roots of multiplicity 2S+1 = mult, solved in one
    call at the top block M_S = S within the range of the spin-S projector."""
    n_elec, n_orb = config.cas
    if n_orb != ints.n_orb:
        raise ValueError(f"cas_norb={n_orb} does not match the "
                         f"{ints.n_orb}-orbital integral set")
    if not count:
        return []
    return solve_davidson(enumerate_cas(n_elec, n_orb, mult - 1), ints, count,
                          config.davidson)


def solve_multiplets(ints: IntegralSet, config: RunConfig) -> list[Multiplet]:
    """Solve every requested multiplicity into multiplets."""
    multiplets: list[Multiplet] = []
    for mult, count in sorted(config.roots_per_multiplicity.items()):
        multiplets += assemble_multiplets(solve_multiplicity(
            ints, config, mult, count), ints)
    return sorted(multiplets, key=lambda m: m.energy)


@dataclass
class MagneticResult:
    """QDPT + g-tensor bundle for one model."""

    multiplets: list[Multiplet]
    basis: SocStateBasis
    soc: np.ndarray
    so_states: SoEigenstates
    g_eha: GTensor
    g_sos: GTensor | None
    gaps: GapReport
    warnings: list[str] = field(default_factory=list)


def run_gtensor(ints: IntegralSet, prop: PropertyIntegrals,
                config: RunConfig, *,
                multiplets: list[Multiplet] | None = None) -> MagneticResult:
    """CASCI -> multiplets -> SOC -> QDPT -> EHA and SOS g-tensors."""
    n_elec = config.cas[0]
    if n_elec % 2 == 0:
        raise ValueError("g-tensor extraction needs an odd electron count "
                         "(no Kramers pair otherwise)")
    if multiplets is None:
        multiplets = solve_multiplets(ints, config)
    basis = soc_basis(multiplets)
    blocks = component_blocks(basis, multiplets)
    soc = soc_matrix(basis, blocks, prop)
    so_states = qdpt(basis, diagonal_energies(basis, multiplets), soc)
    g_eha = g_tensor_eha(so_states, blocks, prop)
    del blocks              # stacked CI columns, not needed by SOS
    warnings: list[str] = []
    ground = multiplets[0]
    try:
        g_sos = g_tensor_sos(ground, multiplets[1:], prop)
    except ValueError as exc:
        g_sos = None
        warnings.append(f"sum-over-states g unavailable: {exc}")
    return MagneticResult(multiplets=multiplets, basis=basis, soc=soc,
                          so_states=so_states, g_eha=g_eha, g_sos=g_sos,
                          gaps=gap_report(multiplets), warnings=warnings)
