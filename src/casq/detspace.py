"""Determinant basis for a complete active space at fixed M_S.

Determinants are pairs of occupation bitstrings (bit p set = spatial
orbital p occupied by that spin).  Python integers are used for the
bitstrings, so orbital counts well beyond 64 are supported.  The basis
ordering is lexicographic in the occupied-orbital tuples, with the
alpha string as the slow index: position = i_alpha * n_beta_strings + i_beta.

This module alone decides how a string operator is stored: the
annihilation maps a_p as one stacked (src, dst, sign) class
(`annihilators`), the same entries grouped by string (`string_slots`),
and E_pq as flat (group ids, src, dst, sign) arrays (`excitation_links`).
Sigma, the occupations, the spin ladders and flips and the transition
densities read these arrays as they are, in either direction (dst -> src
is the adjoint), and store no other copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np


@dataclass(frozen=True)
class Determinant:
    """Occupation-bitstring pair for one Slater determinant."""

    alpha: int
    beta: int
    n_orb: int

    @property
    def n_elec(self) -> int:
        return self.alpha.bit_count() + self.beta.bit_count()

    @property
    def ms2(self) -> int:
        return self.alpha.bit_count() - self.beta.bit_count()

    def conjugate(self) -> "Determinant":
        """Swap alpha and beta occupations (u <-> d on open shells)."""
        return Determinant(self.beta, self.alpha, self.n_orb)

    def to_string(self) -> str:
        """Render as space-separated per-orbital characters 2/u/d/0."""
        chars = []
        for p in range(self.n_orb):
            a = (self.alpha >> p) & 1
            b = (self.beta >> p) & 1
            chars.append("2" if a and b else "u" if a else "d" if b else "0")
        return " ".join(chars)

    def __str__(self) -> str:
        return self.to_string()


def occupied_orbitals(mask: int) -> tuple[int, ...]:
    orbs = []
    p = 0
    while mask:
        if mask & 1:
            orbs.append(p)
        mask >>= 1
        p += 1
    return tuple(orbs)


def parity_between(mask: int, p: int, q: int) -> int:
    """Number of set bits of mask strictly between orbitals p and q."""
    lo, hi = (p, q) if p < q else (q, p)
    between = ((1 << hi) - 1) ^ ((1 << (lo + 1)) - 1)
    return (mask & between).bit_count()


def single_excitation_sign(mask: int, from_orb: int, to_orb: int) -> int:
    """Fermionic sign of a+_to a_from applied to an occupation string."""
    return -1 if parity_between(mask, from_orb, to_orb) & 1 else 1


def relative_sign(mask_from: int, mask_to: int) -> int:
    """Sign relating two strings of equal popcount.

    Annihilated and created orbitals are paired in ascending order; the
    sign is the product of the single-move parities on the progressively
    updated string.
    """
    removed = occupied_orbitals(mask_from & ~mask_to)
    added = occupied_orbitals(mask_to & ~mask_from)
    sign = 1
    cur = mask_from
    for r, c in zip(removed, added):
        sign *= single_excitation_sign(cur, r, c)
        cur = (cur ^ (1 << r)) | (1 << c)
    return sign


def _strings(n_orb: int, n_occ: int) -> tuple[int, ...]:
    """All occupation strings in lexicographic occupied-tuple order."""
    out = []
    for occ in combinations(range(n_orb), n_occ):
        mask = 0
        for p in occ:
            mask |= 1 << p
        out.append(mask)
    return tuple(out)


@lru_cache(maxsize=None)
def annihilators(n_orb: int, k: int):
    """a_p on the k-electron strings of n_orb orbitals, stacked over p.

    Returns (src, dst, sign), each of shape (n_orb, C(n_orb-1, k-1)): row
    p holds the k-string indices with p occupied, the (k-1)-string index
    left by a_p, and (-1)^(electrons below p).  Removing one fixed orbital
    keeps the lexicographic string order, so src and dst both ascend along
    a row.  Read dst -> src, row p is a+_p on the (k-1)-strings with the
    same sign.
    """
    lower = {s: i for i, s in enumerate(_strings(n_orb, k - 1))} if k else {}
    maps = [([], [], []) for _ in range(n_orb)]
    for i, s in enumerate(_strings(n_orb, k)):
        for below, p in enumerate(occupied_orbitals(s)):
            src, dst, sign = maps[p]
            src.append(i)
            dst.append(lower[s ^ (1 << p)])
            sign.append(-1.0 if below & 1 else 1.0)
    shape = (n_orb, comb(n_orb - 1, k - 1) if k else 0)
    return tuple(np.array([m[j] for m in maps], dtype=dtype).reshape(shape)
                 for j, dtype in enumerate((np.int64, np.int64, float)))


@lru_cache(maxsize=None)
def string_slots(n_orb: int, k: int, by_dst: bool):
    """annihilators(n_orb, k) as (orb, other, sign), each (strings, slots),
    slots in ascending orbital p: by_dst by (k-1)-string, one slot per
    empty p, other the k-string a+_p reaches; else by k-string, one slot
    per occupied p, other the (k-1)-string a_p leaves."""
    src, dst, sign = annihilators(n_orb, k)
    key, other = (dst, src) if by_dst else (src, dst)
    orb = np.broadcast_to(np.arange(n_orb)[:, None], src.shape)
    order = np.lexsort((orb.ravel(), key.ravel()))
    shape = ((comb(n_orb, k - 1) if k else 0, n_orb - k + 1) if by_dst
             else (comb(n_orb, k), k))
    return tuple(a.ravel()[order].reshape(shape) for a in (orb, other, sign))


@lru_cache(maxsize=None)
def occupation_matrix(n_orb: int, k: int) -> np.ndarray:
    """(strings, n_orb) array, 1.0 where a k-electron string occupies p."""
    occ = np.zeros((comb(n_orb, k), n_orb))
    src = annihilators(n_orb, k)[0]
    occ[src, np.arange(n_orb)[:, None]] = 1.0
    return occ


@lru_cache(maxsize=None)
def excitation_links(n_orb: int, k: int):
    """E_pq = a+_p a_q on the k-electron strings as flat arrays (p*n_orb +
    q, src, dst, sign), one entry per ordered pair of slots (p, q) of a
    (k-1)-string in string_slots: a_q leaves it from src, a+_p reaches
    dst.  A group p*n_orb + q has C(n-1, k-1) entries when p = q (src =
    dst, sign 1), C(n-2, k-1) otherwise; none at k = 0."""
    orb, other, sign = string_slots(n_orb, k, True)
    return tuple(a.ravel() for a in np.broadcast_arrays(
        orb[:, :, None] * n_orb + orb[:, None], other[:, None],
        other[:, :, None], sign[:, :, None] * sign[:, None]))


@dataclass(frozen=True, eq=False)
class CasSpace:
    """Enumerated CAS(n_elec, n_orb) determinant basis at fixed M_S."""

    n_elec: int
    n_orb: int
    ms2: int
    alpha_strings: tuple[int, ...]
    beta_strings: tuple[int, ...]

    @property
    def n_alpha(self) -> int:
        return (self.n_elec + self.ms2) // 2

    @property
    def n_beta(self) -> int:
        return (self.n_elec - self.ms2) // 2

    @property
    def size(self) -> int:
        return len(self.alpha_strings) * len(self.beta_strings)

    @property
    def alpha_index(self) -> dict[int, int]:
        return _string_index(self.alpha_strings)

    @property
    def beta_index(self) -> dict[int, int]:
        return _string_index(self.beta_strings)

    def determinant(self, k: int) -> Determinant:
        nb = len(self.beta_strings)
        if not 0 <= k < self.size:
            raise IndexError(f"determinant index {k} outside space of size {self.size}")
        return Determinant(self.alpha_strings[k // nb], self.beta_strings[k % nb], self.n_orb)

    def index(self, det: Determinant) -> int:
        nb = len(self.beta_strings)
        try:
            return self.alpha_index[det.alpha] * nb + self.beta_index[det.beta]
        except KeyError:
            raise KeyError(f"determinant {det.to_string()!r} not in this space") from None

    def __contains__(self, det: Determinant) -> bool:
        return det.alpha in self.alpha_index and det.beta in self.beta_index

    def __repr__(self) -> str:
        return (f"CasSpace(n_elec={self.n_elec}, n_orb={self.n_orb}, "
                f"ms2={self.ms2}, size={self.size})")


@lru_cache(maxsize=None)
def _string_index(strings: tuple[int, ...]) -> dict[int, int]:
    return {s: i for i, s in enumerate(strings)}


def cas_dimension(n_elec: int, n_orb: int, ms2: int) -> int:
    """Determinant count of CAS(n_elec, n_orb) at M_S = ms2/2, no enumeration."""
    _check_cas_args(n_elec, n_orb, ms2)
    n_a = (n_elec + ms2) // 2
    n_b = (n_elec - ms2) // 2
    return comb(n_orb, n_a) * comb(n_orb, n_b)


def _check_cas_args(n_elec: int, n_orb: int, ms2: int) -> None:
    if n_orb < 0:
        raise ValueError(f"n_orb must be non-negative, got {n_orb}")
    if not 0 <= n_elec <= 2 * n_orb:
        raise ValueError(f"n_elec={n_elec} outside [0, {2 * n_orb}] for n_orb={n_orb}")
    if (n_elec - ms2) % 2 != 0:
        raise ValueError(f"ms2={ms2} and n_elec={n_elec} have different parity")
    if abs(ms2) > n_elec:
        raise ValueError(f"|ms2|={abs(ms2)} exceeds n_elec={n_elec}")
    n_a = (n_elec + ms2) // 2
    n_b = (n_elec - ms2) // 2
    if n_a > n_orb or n_b > n_orb:
        raise ValueError(
            f"ms2={ms2} infeasible: needs {max(n_a, n_b)} same-spin electrons "
            f"in {n_orb} orbitals")


@lru_cache(maxsize=None)
def enumerate_cas(n_elec: int, n_orb: int, ms2: int) -> CasSpace:
    """Enumerate the CAS determinant basis at fixed M_S.

    The returned space is cached, so repeated calls with equal arguments
    share one immutable instance.
    """
    _check_cas_args(n_elec, n_orb, ms2)
    n_a = (n_elec + ms2) // 2
    n_b = (n_elec - ms2) // 2
    return CasSpace(n_elec, n_orb, ms2, _strings(n_orb, n_a), _strings(n_orb, n_b))
