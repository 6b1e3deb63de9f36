"""End-to-end workflows: multiplicity-resolved CASCI, QDPT and g-tensors.

Multiplicities are solved from the highest down, each in its top block
M_S = S, where the higher-spin roots already known and every root a
solver pass returns are locked (projected out): none is solved twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .casci import (CiState, Multiplet, assemble_multiplets, dense_solve,
                    enumerate_cas, solve_davidson)
from .gtensor import GapReport, GTensor, g_tensor_eha, g_tensor_sos, gap_report
from .ingest import IntegralSet, PropertyIntegrals, RunConfig
from .soc import SocStateBasis, SoEigenstates, diagonal_energies, qdpt, soc_basis, soc_matrix
from .spin import apply_s_minus, apply_s_plus


def solve_multiplicity(ints: IntegralSet, config: RunConfig, mult: int,
                       count: int, higher: list[CiState] | None = None, *,
                       method: str = "davidson") -> list[CiState]:
    """The lowest `count` roots of multiplicity 2S+1 = mult, solved at
    the top block M_S = S on the complement of the `higher` states."""
    n_elec, n_orb = config.cas
    if n_orb != ints.n_orb:
        raise ValueError(f"cas_norb={n_orb} does not match the "
                         f"{ints.n_orb}-orbital integral set")
    space = enumerate_cas(n_elec, n_orb, mult - 1)
    found: list[CiState] = []
    locked = [s.coeffs for s in higher or ()]
    while len(found) < count:
        if len(locked) == space.size:
            raise ValueError(f"only {len(found)} roots of multiplicity {mult} "
                             f"exist in CAS{config.cas} (requested {count})")
        states = _solve(space, ints, min(count - len(found), space.size - len(locked)),
                        config, method, locked)
        found += [s for s in states if s.multiplicity == mult]
        # S-S+ cuts a higher-spin root's spin-S error, which would taint targets
        locked += [s.coeffs if s.multiplicity == mult else
                   apply_s_minus(*apply_s_plus(space, s.coeffs))[1] for s in states]
    return found


def _solve(space, ints, n_roots, config, method, locked):
    basis = (np.linalg.qr(np.column_stack(locked))[0],) if locked else ()
    if method == "dense":
        return dense_solve(space, ints, n_roots, basis)
    if method == "davidson":
        return solve_davidson(space, ints, n_roots, config.davidson, basis)
    raise ValueError(f"unknown solver method {method!r}")


def solve_multiplets(ints: IntegralSet, config: RunConfig, *,
                     method: str = "davidson") -> list[Multiplet]:
    """Solve every requested multiplicity, highest first, into multiplets."""
    multiplets: list[Multiplet] = []
    for mult, count in sorted(config.roots_per_multiplicity.items())[::-1]:
        higher = [m.component(mult - 1) for m in multiplets]
        multiplets += assemble_multiplets(solve_multiplicity(
            ints, config, mult, count, higher, method=method), ints)
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
