"""Oscillator strengths, stick spectra and broadened absorption curves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import spin_transition_densities
from .casci import CiState
from .ingest import PropertyIntegrals
from .units import FWHM_TO_SIGMA, HARTREE_TO_EV

# heuristic band tag threshold; tags carry an "(auto)" marker because the
# assignment is by intensity only, never by symmetry analysis
SORET_F_THRESHOLD = 0.5


@dataclass(frozen=True)
class SpectrumLine:
    """One absorption line of the stick spectrum."""

    delta_e_ev: float
    f_osc: float
    from_state: int
    to_state: int
    label: str = ""
    spin_forbidden: bool = False

    def __post_init__(self):
        if self.f_osc < 0:
            raise ValueError("oscillator strength must be non-negative")


def oscillator_strength(delta_e_hartree: float, mu: np.ndarray) -> float:
    """f = (2/3) dE |mu|^2 in atomic units."""
    if delta_e_hartree < 0:
        raise ValueError("negative excitation energy")
    mu = np.asarray(mu, dtype=float)
    return (2.0 / 3.0) * float(delta_e_hartree) * float(mu @ mu)


def transition_table(states: list[CiState],
                     prop: PropertyIntegrals) -> list[SpectrumLine]:
    """Stick spectrum from the first state to every higher one.

    Spin-forbidden transitions are listed with f = 0 rather than dropped.
    Strong lines get a marked heuristic tag.
    """
    if not states:
        return []
    ground = states[0]
    allowed = [k for k, state in enumerate(states[1:], start=1)
               if state.space is ground.space
               and state.multiplicity == ground.multiplicity]
    mu = np.zeros((len(states), 3))
    if allowed:
        C = np.column_stack([states[k].coeffs for k in allowed])
        ga, gb = spin_transition_densities(ground.space, ground.coeffs, C)
        mu[allowed] = np.einsum("kpq,pqj->jk", prop.D, ga + gb)
    lines = []
    for k, state in enumerate(states[1:], start=1):
        forbidden = k not in allowed
        de = state.energy - ground.energy
        f = 0.0 if forbidden else oscillator_strength(de, mu[k])
        label = ""
        if forbidden:
            label = "spin-forbidden"
        elif f >= SORET_F_THRESHOLD:
            label = "Soret-like (auto)"
        lines.append(SpectrumLine(delta_e_ev=de * HARTREE_TO_EV, f_osc=f,
                                  from_state=0, to_state=k, label=label,
                                  spin_forbidden=forbidden))
    return lines


def broaden(lines: list[SpectrumLine], fwhm_ev: float,
            grid: np.ndarray) -> np.ndarray:
    """Sum of Gaussians, each integrating to its oscillator strength."""
    if fwhm_ev <= 0:
        raise ValueError("fwhm must be positive")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty energy grid")
    sigma = fwhm_ev * FWHM_TO_SIGMA
    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    out = np.zeros_like(grid)
    for line in lines:
        if line.f_osc == 0.0:
            continue
        out += line.f_osc * norm * np.exp(
            -0.5 * ((grid - line.delta_e_ev) / sigma) ** 2)
    return out


def energy_grid(min_ev: float, max_ev: float, step_ev: float) -> np.ndarray:
    if step_ev <= 0 or max_ev <= min_ev:
        raise ValueError("spectrum grid requires max > min and step > 0")
    n = int(round((max_ev - min_ev) / step_ev)) + 1
    return min_ev + step_ev * np.arange(n)


def spectrum_csv(grid: np.ndarray, intensity: np.ndarray) -> str:
    rows = ["energy_eV,intensity"]
    rows.extend(f"{e:.6f},{i:.8e}" for e, i in zip(grid, intensity))
    return "\n".join(rows) + "\n"
