"""Independent brute-force oracles used only by the test suite.

Everything here is deliberately built from first principles (explicit
second quantization in the full Fock space, numerical quadrature on the
sphere) so it shares no code path with the package under test.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np
from scipy import sparse
from scipy.special import lpmv, roots_legendre

from casq.detspace import CasSpace


# ---------------------------------------------------------------------------
# Fock-space second quantization (Jordan-Wigner ordering: all alpha spin
# orbitals first, then all beta, each ascending).
# ---------------------------------------------------------------------------

def creation_matrix(n_so: int, k: int) -> np.ndarray:
    """Dense matrix of a+_k over the 2^n_so occupation basis."""
    dim = 1 << n_so
    mat = np.zeros((dim, dim))
    below = (1 << k) - 1
    for mask in range(dim):
        if mask & (1 << k):
            continue
        sign = -1.0 if (mask & below).bit_count() & 1 else 1.0
        mat[mask | (1 << k), mask] = sign
    return mat


def annihilation_matrix(n_so: int, k: int) -> np.ndarray:
    return creation_matrix(n_so, k).T


def so_index(p: int, spin: str, n_orb: int) -> int:
    return p if spin == "alpha" else n_orb + p


def fock_hamiltonian(h: np.ndarray, g2: np.ndarray, core: float = 0.0) -> np.ndarray:
    """Full many-body Hamiltonian over the 4^n_orb Fock space.

    H = sum h[p,q] a+_ps a_qs + 1/2 sum (pq|rs) a+_ps a+_rt a_st a_qs + core.
    """
    n_orb = h.shape[0]
    n_so = 2 * n_orb
    dim = 1 << n_so
    cre = [creation_matrix(n_so, k) for k in range(n_so)]
    ann = [m.T for m in cre]
    H = core * np.eye(dim)
    for p in range(n_orb):
        for q in range(n_orb):
            if h[p, q] == 0.0:
                continue
            for s in ("alpha", "beta"):
                H += h[p, q] * cre[so_index(p, s, n_orb)] @ ann[so_index(q, s, n_orb)]
    for p in range(n_orb):
        for q in range(n_orb):
            for r in range(n_orb):
                for s in range(n_orb):
                    val = g2[p, q, r, s]
                    if val == 0.0:
                        continue
                    for s1 in ("alpha", "beta"):
                        for s2 in ("alpha", "beta"):
                            i = so_index(p, s1, n_orb)
                            j = so_index(q, s1, n_orb)
                            k = so_index(r, s2, n_orb)
                            l = so_index(s, s2, n_orb)
                            H += 0.5 * val * cre[i] @ cre[k] @ ann[l] @ ann[j]
    return H


def fock_one_electron(coeff: np.ndarray, n_orb: int) -> np.ndarray:
    """General one-electron spin-orbital operator sum c[i,j] a+_i a_j.

    coeff is (2n, 2n) over spin orbitals in alpha-block-first order.
    """
    return _fock_one_electron(coeff, n_orb).toarray()


def _fock_one_electron(coeff: np.ndarray, n_orb: int) -> sparse.csr_array:
    """fock_one_electron as a sparse matrix: the products of the dense
    creation matrices, each stored sparse, are sparse too."""
    n_so = 2 * n_orb
    cre = _sparse_creators(n_so)
    H = sparse.csr_array((1 << n_so, 1 << n_so), dtype=complex)
    for i, j in zip(*np.nonzero(coeff)):
        H = H + coeff[i, j] * (cre[i] @ cre[j].T)
    return H


@lru_cache(maxsize=None)
def _sparse_creators(n_so: int) -> list:
    return [sparse.csr_array(creation_matrix(n_so, k)) for k in range(n_so)]


def fock_index(alpha: int, beta: int, n_orb: int) -> int:
    return alpha | (beta << n_orb)


def space_projector(space: CasSpace) -> np.ndarray:
    """Rectangular map from Fock basis onto the CasSpace ordering."""
    dim = 1 << (2 * space.n_orb)
    P = np.zeros((space.size, dim))
    for k in range(space.size):
        det = space.determinant(k)
        P[k, fock_index(det.alpha, det.beta, space.n_orb)] = 1.0
    return P


def fock_block(op: np.ndarray, space: CasSpace) -> np.ndarray:
    P = space_projector(space)
    return P @ op @ P.T


def fock_spin_ops(n_orb: int):
    """(S+, S-, Sz) over the Fock space."""
    return tuple(op.toarray() for op in _fock_spin_ops(n_orb))


def _fock_spin_ops(n_orb: int):
    n_so = 2 * n_orb
    cp = np.zeros((n_so, n_so))
    cm = np.zeros((n_so, n_so))
    cz = np.zeros((n_so, n_so))
    for p in range(n_orb):
        cp[p, n_orb + p] = 1.0            # a+_pa a_pb
        cm[n_orb + p, p] = 1.0            # a+_pb a_pa
        cz[p, p] = 0.5
        cz[n_orb + p, n_orb + p] = -0.5
    return tuple(_fock_one_electron(c, n_orb).real for c in (cp, cm, cz))


def fock_s_squared(n_orb: int) -> np.ndarray:
    sp, sm, sz = _fock_spin_ops(n_orb)
    return (sm @ sp + sz @ sz + sz).toarray()


# ---------------------------------------------------------------------------
# Spherical quadrature oracle for the d-shell Coulomb tensor.
# ---------------------------------------------------------------------------

_D_ORDER = ("z2", "xz", "yz", "x2-y2", "xy")


def _real_d_on_grid(x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Closed-form angular parts of the real d orbitals, order
    (z2, xz, yz, x2-y2, xy); x = cos(theta)."""
    st = np.sqrt(1.0 - x ** 2)
    vals = np.empty((5,) + np.broadcast_shapes(x.shape, phi.shape))
    vals[0] = np.sqrt(5.0 / (16 * np.pi)) * (3 * x ** 2 - 1)
    vals[1] = np.sqrt(15.0 / (4 * np.pi)) * st * x * np.cos(phi)
    vals[2] = np.sqrt(15.0 / (4 * np.pi)) * st * x * np.sin(phi)
    vals[3] = np.sqrt(15.0 / (16 * np.pi)) * st ** 2 * np.cos(2 * phi)
    vals[4] = np.sqrt(15.0 / (16 * np.pi)) * st ** 2 * np.sin(2 * phi)
    return vals


def _ylm_on_grid(l: int, m: int, x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Complex spherical harmonic with Condon-Shortley phase."""
    am = abs(m)
    norm = np.sqrt((2 * l + 1) / (4 * np.pi)
                   * factorial(l - am) / factorial(l + am))
    leg = lpmv(am, l, x)
    y = norm * leg * np.exp(1j * am * phi)
    if m < 0:
        y = (-1) ** am * np.conj(y)
    return y


def dshell_coulomb_quadrature(f0: float, f2: float, f4: float,
                              n_theta: int = 40, n_phi: int = 64) -> np.ndarray:
    """(pq|rs) over real d orbitals by multipole expansion + quadrature.

    f0, f2, f4 are the unreduced radial Slater integrals F^k.
    """
    xs, wx = roots_legendre(n_theta)
    phis = 2 * np.pi * np.arange(n_phi) / n_phi
    wphi = 2 * np.pi / n_phi
    X, PHI = np.meshgrid(xs, phis, indexing="ij")
    W = wx[:, None] * wphi
    d = _real_d_on_grid(X, PHI)

    fk = {0: f0, 2: f2, 4: f4}
    g2 = np.zeros((5, 5, 5, 5))
    for k, f in fk.items():
        if f == 0.0:
            continue
        pref = 4 * np.pi / (2 * k + 1) * f
        for mu in range(-k, k + 1):
            y = _ylm_on_grid(k, mu, X, PHI)
            # A1[p,q] = int d_p Y*_kmu d_q ; A2[r,s] = int d_r Y_kmu d_s
            a1 = np.einsum("pij,ij,qij,ij->pq", d, np.conj(y), d, W)
            a2 = np.einsum("pij,ij,qij,ij->pq", d, y, d, W)
            g2 = g2 + pref * np.real(a1[:, :, None, None] * a2[None, None, :, :])
    return g2


def racah_to_slater(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Racah A, B, C -> unreduced Slater integrals F^0, F^2, F^4."""
    f4 = 441.0 * c / 35.0
    f2 = 49.0 * (b + c / 7.0)
    f0 = a + 7.0 * c / 5.0
    return f0, f2, f4


def lz_quadrature(orbital_grid_fn=_real_d_on_grid, n_theta: int = 40,
                  n_phi: int = 64) -> np.ndarray:
    """Matrix of l_z = -i d/dphi over the real orbitals, by FFT derivative."""
    xs, wx = roots_legendre(n_theta)
    phis = 2 * np.pi * np.arange(n_phi) / n_phi
    X, PHI = np.meshgrid(xs, phis, indexing="ij")
    W = wx[:, None] * (2 * np.pi / n_phi)
    d = orbital_grid_fn(X, PHI)
    freqs = np.fft.fftfreq(n_phi, d=1.0 / n_phi)  # integer wavenumbers
    d_dphi = np.fft.ifft(1j * freqs * np.fft.fft(d, axis=-1), axis=-1)
    return np.einsum("pij,qij,ij->pq", d, -1j * d_dphi, W)
