"""End-to-end workflows: multiplicity-resolved CASCI, QDPT and g-tensors.

Each multiplicity 2S+1 is solved once, for exactly the roots asked for, in
its top block M_S = S within the range of Löwdin's spin-S projector
(`spin.project_spin`), so the multiplicities do not depend on one another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .casci import (CiState, Multiplet, assemble_multiplets, dense_solve,
                    enumerate_cas, solve_davidson)
from .detspace import cas_dimension
from .gtensor import GapReport, GTensor, g_tensor_eha, g_tensor_sos, gap_report
from .ingest import IntegralSet, PropertyIntegrals, RunConfig
from .soc import SocStateBasis, SoEigenstates, diagonal_energies, qdpt, soc_basis, soc_matrix


def solve_multiplicity(ints: IntegralSet, config: RunConfig, mult: int,
                       count: int, *, method: str = "davidson") -> list[CiState]:
    """The lowest `count` roots of multiplicity 2S+1 = mult, solved in one
    call at the top block M_S = S within the range of the spin-S projector."""
    n_elec, n_orb = config.cas
    if n_orb != ints.n_orb:
        raise ValueError(f"cas_norb={n_orb} does not match the "
                         f"{ints.n_orb}-orbital integral set")
    space = enumerate_cas(n_elec, n_orb, mult - 1)
    # the roots of spin S number dim(M_S = S) - dim(M_S = S + 1)
    exist = space.size - (cas_dimension(n_elec, n_orb, mult + 1)
                          if mult - 1 < min(n_elec, 2 * n_orb - n_elec) else 0)
    if count > exist:
        raise ValueError(f"only {exist} roots of multiplicity {mult} "
                         f"exist in CAS{config.cas} (requested {count})")
    if not count:
        return []
    if method == "dense":
        return dense_solve(space, ints, count)
    if method == "davidson":
        return solve_davidson(space, ints, count, config.davidson)
    raise ValueError(f"unknown solver method {method!r}")


def solve_multiplets(ints: IntegralSet, config: RunConfig, *,
                     method: str = "davidson") -> list[Multiplet]:
    """Solve every requested multiplicity into multiplets."""
    multiplets: list[Multiplet] = []
    for mult, count in sorted(config.roots_per_multiplicity.items()):
        multiplets += assemble_multiplets(solve_multiplicity(
            ints, config, mult, count, method=method), ints)
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
                config: RunConfig, *, method: str = "davidson",
                multiplets: list[Multiplet] | None = None) -> MagneticResult:
    """CASCI -> multiplets -> SOC -> QDPT -> EHA and SOS g-tensors."""
    n_elec = config.cas[0]
    if n_elec % 2 == 0:
        raise ValueError("g-tensor extraction needs an odd electron count "
                         "(no Kramers pair otherwise)")
    if multiplets is None:
        multiplets = solve_multiplets(ints, config, method=method)
    basis = soc_basis(multiplets)
    soc = soc_matrix(basis, multiplets, prop)
    so_states = qdpt(basis, diagonal_energies(basis, multiplets), soc)
    g_eha = g_tensor_eha(so_states, multiplets, prop)
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
