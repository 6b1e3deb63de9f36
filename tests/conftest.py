import numpy as np
import pytest
from hypothesis import settings

from casq.ingest import IntegralSet

# Property tests run a fixed example sequence, so the suite is
# deterministic and its runtime bounded.
settings.register_profile("casq", derandomize=True, deadline=None,
                          max_examples=25)
settings.load_profile("casq")


def make_random_integrals(n_orb: int, seed: int, scale_g: float = 0.5,
                          core: float | None = None) -> IntegralSet:
    """Seeded spin-free integral set with full 8-fold g2 symmetry."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_orb, n_orb))
    h = (a + a.T) / 2.0
    g = rng.standard_normal((n_orb,) * 4) * scale_g
    g = _symmetrize_8fold(g)
    if core is None:
        core = float(rng.standard_normal())
    return IntegralSet(h=h, g2=g, core_energy=core)


def make_model_integrals(n_orb: int, seed: int = 0) -> IntegralSet:
    """Diagonally dominant model set with a physically plausible gap
    structure (closed-shell-dominated low states); converges quickly
    under Davidson."""
    rng = np.random.default_rng(seed)
    h = np.diag(np.linspace(-4.0, 4.0, n_orb))
    a = rng.standard_normal((n_orb, n_orb)) * 0.02
    h = h + (a + a.T) / 2.0
    g = np.zeros((n_orb,) * 4)
    for p in range(n_orb):
        for q in range(n_orb):
            g[p, p, q, q] = 0.5 / (1.0 + 0.5 * abs(p - q))    # coulomb
            if p != q:
                g[p, q, q, p] = 0.02 * 0.6 ** abs(p - q)      # exchange
    noise = rng.standard_normal((n_orb,) * 4) * 0.005
    g = _symmetrize_8fold(g + noise)
    return IntegralSet(h=h, g2=g, core_energy=-1.5)


def _symmetrize_8fold(g: np.ndarray) -> np.ndarray:
    from casq.ingest import symmetrize_8fold

    return symmetrize_8fold(g)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
