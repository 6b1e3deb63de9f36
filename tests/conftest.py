from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from casq.ingest import IntegralSet

# Property tests run a fixed example sequence, so the suite is
# deterministic and its runtime bounded.
settings.register_profile("casq", derandomize=True, deadline=None,
                          max_examples=25)
settings.load_profile("casq")


@st.composite
def stacked_block(draw):
    """A CAS(n_e <= 5, n_o <= 4) M_S block, column counts for the bra and
    ket stacks (0 = one 1-D vector) and a seed for their entries."""
    n_orb = draw(st.integers(1, 4))
    n_elec = draw(st.integers(0, min(5, 2 * n_orb)))
    top = min(n_elec, 2 * n_orb - n_elec)
    ms2 = draw(st.sampled_from(range(-top, top + 1, 2)))
    return (n_elec, n_orb, ms2, draw(st.integers(0, 3)),
            draw(st.integers(0, 3)), draw(st.integers(0, 2 ** 16)))


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


def cas56_magnetic_problem(seed: int = 11):
    """(integrals, properties, config) of a seeded CAS(5,6): 3 doublets
    (the ground among them) and 2 quartets, so that the SOC basis has the
    M_S blocks +-1/2 and +-3/2, guess_dim 32 below both block sizes (300
    and 90 determinants), and random non-zero L, Z and D."""
    from casq.ingest import DavidsonOptions, PropertyIntegrals, RunConfig

    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, 3, 6, 6))
    anti = (m - m.transpose(0, 1, 3, 2)) / 2.0
    prop = PropertyIntegrals(L=anti[0], Z=0.01 * anti[1],
                             D=(m[2] + m[2].transpose(0, 2, 1)) / 2.0)
    config = RunConfig(cas=(5, 6), roots_per_multiplicity={2: 3, 4: 2},
                       davidson=DavidsonOptions(guess_dim=32))
    return make_random_integrals(6, seed), prop, config


def kramers_split_d5_model():
    """d5 with zeta ~ 700 cm^-1 (model 28 of np.random.default_rng((5, 0))
    under the benchmark's lf-scan recipe): at Davidson tol 1e-8 a Kramers
    pair splits by 1.5e-10 Eh, above qdpt's 1e-10 degeneracy check."""
    from casq.ligandfield import LigandFieldModel

    v = np.array([
        [2.1334089315760782, -0.2244292569529221, 0.27082821707669313,
         -0.2558684045317957, -0.7819151763578975],
        [-0.2244292569529221, 1.5409599213759901, 0.21145949036826503,
         0.28456473426814644, -0.5762353286846074],
        [0.27082821707669313, 0.21145949036826503, 2.711693703725817,
         0.18402161692547753, 0.534782154784134],
        [-0.2558684045317957, 0.28456473426814644, 0.18402161692547753,
         1.9082562256501545, -0.595574367693176],
        [-0.7819151763578975, -0.5762353286846074, 0.534782154784134,
         -0.595574367693176, 1.5174588326742988]])
    return LigandFieldModel(v_lf=v, racah_b=0.0707285492022398,
                            racah_c=0.40156214427329984,
                            zeta=699.9149704319854, n_elec=5)


def spin_purity_field(n_elec: int):
    """The d^n ligand field of acceptance criterion 2: seeded, zeta = 0 and
    Racah B = 0.1, so that higher-spin roots lie among the lowest."""
    from casq.ligandfield import LigandFieldModel

    rng = np.random.default_rng(7)
    for _ in range(n_elec):
        a = rng.standard_normal((5, 5)) * 0.3
    return LigandFieldModel(v_lf=(a + a.T) / 2.0, racah_b=0.1, racah_c=0.4,
                            zeta=0.0, n_elec=n_elec)


def spin_filtered_energies(ints, space, mult: int, count: int | None = None):
    """The lowest `count` energies of multiplicity mult in `space` (all of
    them by default): eigh of H within the S(S+1) eigenspace of the Fock
    oracle's S^2 block, exact in degenerate eigenspaces of H too."""
    from casq.casci import dense_hamiltonian

    s2, Q = np.linalg.eigh(_fock_s_squared_block(space))
    s = (mult - 1) / 2.0
    Q = Q[:, np.abs(s2 - s * (s + 1.0)) < 1e-6]
    return np.linalg.eigvalsh(Q.T @ dense_hamiltonian(space, ints) @ Q)[:count]


@lru_cache(maxsize=None)
def _fock_s_squared_block(space):
    from _oracles import fock_block, fock_s_squared

    return fock_block(fock_s_squared(space.n_orb), space)


def _symmetrize_8fold(g: np.ndarray) -> np.ndarray:
    from casq.ingest import symmetrize_8fold

    return symmetrize_8fold(g)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def davidson_runs(monkeypatch):
    """The block size of every davidson_lowest call that solve_davidson
    makes, recorded before the call (so a call that raises counts too)."""
    import casq.casci

    runs = []
    solve = casq.casci.davidson_lowest

    def spy(matvec, diagonal, *args, **kwargs):
        runs.append(diagonal.size)
        return solve(matvec, diagonal, *args, **kwargs)

    monkeypatch.setattr(casq.casci, "davidson_lowest", spy)
    return runs


@pytest.fixture
def negated_s_minus_entry(monkeypatch):
    """Negates the first entry of every ms2 = 1 -> -1 S- table, which no
    solve uses: only the ladder from M_S = 1/2 down to -1/2 reads it."""
    import casq.spin

    links = casq.spin._s_minus_links

    def negated(space):
        out = links(space)
        if space.ms2 != 1 or out is None:
            return out
        lower, table, raising = out
        data = table.data.copy()     # the cached table stays intact
        data[0] = -data[0]
        return lower, table._replace(data=data), raising

    monkeypatch.setattr(casq.spin, "_s_minus_links", negated)
