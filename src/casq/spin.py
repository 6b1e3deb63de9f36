"""Spin ladder operators, <S^2> and spin-flip transition tables.

Determinants are stored as (alpha ops ascending)(beta ops ascending)
acting on the vacuum, so a beta-string operator picks up one extra sign
per alpha electron it crosses.  Every table here is built from one
per-string annihilation map (a_p on the k-electron strings, read
backwards as a+_p on the (k-1)-electron strings) through the
factorization

    a+_pb a_qa = (beta a+_p) o (alpha a_q) . (-1)^(n_alpha - 1),

where the crossing sign counts the alphas left after a_qa.  The
spin-flip table of a block is the outer product of the two string maps
for each (p, q); S- is its p = q trace, and S+ of a block is the S-
table of the block above read with src and dst swapped.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .detspace import CasSpace, _strings, enumerate_cas, occupied_orbitals


class LadderAnnihilation(ValueError):
    """S- (or S+) maps the state to zero: M_S is already extremal."""


@lru_cache(maxsize=None)
def _annihilators(n_orb: int, k: int):
    """a_p on the k-electron strings of n_orb orbitals, one entry per p.

    Entry p is (src, dst, sign): the k-string indices with p occupied,
    the (k-1)-string index left by a_p, and (-1)^(electrons below p).
    Removing one fixed orbital keeps the lexicographic string order, so
    src and dst both ascend.
    """
    lower = {s: i for i, s in enumerate(_strings(n_orb, k - 1))}
    maps = [([], [], []) for _ in range(n_orb)]
    for i, s in enumerate(_strings(n_orb, k)):
        for below, p in enumerate(occupied_orbitals(s)):
            src, dst, sign = maps[p]
            src.append(i)
            dst.append(lower[s ^ (1 << p)])
            sign.append(-1.0 if below & 1 else 1.0)
    return tuple((np.asarray(src, dtype=np.int64),
                  np.asarray(dst, dtype=np.int64),
                  np.asarray(sign)) for src, dst, sign in maps)


def _flip_block(space: CasSpace, lower: CasSpace, p: int, q: int):
    """(src, dst, sign) of a+_pb a_qa from space into lower, src ascending."""
    a_src, a_dst, a_sign = _annihilators(space.n_orb, space.n_alpha)[q]
    # beta a+_p is a_p of the (n_beta+1)-strings read dst -> src
    b_dst, b_src, b_sign = _annihilators(space.n_orb, space.n_beta + 1)[p]
    nb = len(space.beta_strings)
    lb = len(lower.beta_strings)
    crossing = -1.0 if (space.n_alpha - 1) & 1 else 1.0
    return ((a_src[:, None] * nb + b_src).ravel(),
            (a_dst[:, None] * lb + b_dst).ravel(),
            (crossing * a_sign[:, None] * b_sign).ravel())


def _lower_space(space: CasSpace) -> CasSpace | None:
    if space.n_beta == space.n_orb or space.n_alpha == 0:
        return None
    return enumerate_cas(space.n_elec, space.n_orb, space.ms2 - 2)


@lru_cache(maxsize=None)
def _s_minus_links(space: CasSpace):
    """Entries (src, dst, sign) of S- = sum_p a+_pb a_pa into ms2-2.

    Sorted by src, then dst, so that np.add.at accumulates every output
    element in ascending input order whichever direction the table is read.
    """
    lower = _lower_space(space)
    if lower is None:
        return None
    parts = [_flip_block(space, lower, p, p) for p in range(space.n_orb)]
    src, dst, sign = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((dst, src))
    return lower, (src[order], dst[order], sign[order])


def _s_plus_links(space: CasSpace):
    """Entries (src, dst, sign) of S+ into ms2+2: the S- table of ms2+2."""
    if space.n_alpha == space.n_orb or space.n_beta == 0:
        return None
    upper = enumerate_cas(space.n_elec, space.n_orb, space.ms2 + 2)
    _, (src, dst, sign) = _s_minus_links(upper)
    return upper, (dst, src, sign)


def apply_s_plus(space: CasSpace, vec: np.ndarray):
    """Unnormalized S+ image; returns (upper space, vector)."""
    links = _s_plus_links(space)
    if links is None:
        raise LadderAnnihilation("S+ annihilates every state of this block")
    upper, (src, dst, sign) = links
    out = np.zeros(upper.size)
    np.add.at(out, dst, sign * np.asarray(vec)[src])
    return upper, out


def apply_s_minus(space: CasSpace, vec: np.ndarray, *, norm_tol: float = 1e-8):
    """Unnormalized S- image with norm^2 = S(S+1) - M(M-1).

    Raises LadderAnnihilation when the image norm falls below norm_tol,
    which signals M_S = -S.
    """
    links = _s_minus_links(space)
    if links is None:
        raise LadderAnnihilation("S- annihilates every state of this block")
    lower, (src, dst, sign) = links
    out = np.zeros(lower.size)
    np.add.at(out, dst, sign * np.asarray(vec)[src])
    if np.linalg.norm(out) < norm_tol:
        raise LadderAnnihilation("S- annihilated the state (M_S = -S)")
    return lower, out


def s_squared(space: CasSpace, vec: np.ndarray) -> float:
    """<v|S^2|v> via S^2 = S-S+ + Sz(Sz+1) for a normalized v."""
    ms = space.ms2 / 2.0
    base = ms * (ms + 1.0)
    links = _s_plus_links(space)
    if links is None:
        return base
    upper, (src, dst, sign) = links
    out = np.zeros(upper.size)
    np.add.at(out, dst, sign * np.asarray(vec)[src])
    return base + float(out @ out)


def s_squared_matrix(space: CasSpace, vecs: np.ndarray) -> np.ndarray:
    """<v_i|S^2|v_j> for the columns of vecs (all in the same space)."""
    vecs = np.asarray(vecs)
    k = vecs.shape[1]
    ms = space.ms2 / 2.0
    base = ms * (ms + 1.0) * (vecs.T @ vecs)
    links = _s_plus_links(space)
    if links is None:
        return base
    upper, (src, dst, sign) = links
    raised = np.zeros((upper.size, k))
    np.add.at(raised, dst, sign[:, None] * vecs[src, :])
    return base + raised.T @ raised


def multiplicity_label(s2: float, ms2: int, n_elec: int) -> int:
    """Nearest valid 2S+1 for an <S^2> value, honoring parity and |M_S|."""
    s_cont = 0.5 * (-1.0 + np.sqrt(max(0.0, 1.0 + 4.0 * s2)))
    two_s = round(2.0 * s_cont)
    if (two_s - n_elec) % 2:
        lower, upper = two_s - 1, two_s + 1
        two_s = lower if abs(lower / 2 * (lower / 2 + 1) - s2) <= \
            abs(upper / 2 * (upper / 2 + 1) - s2) else upper
    two_s = max(two_s, abs(ms2))
    return int(two_s + 1)


@lru_cache(maxsize=None)
def flip_lower_links(space: CasSpace):
    """Orbital-resolved spin-flip table a+_pb a_qa: ms2 -> ms2-2.

    Returns (lower_space, groups) with groups[p * n_orb + q] =
    (src, dst, sign) arrays.  Used for the Delta M_S = -1 blocks of the
    spin-orbit matrix.
    """
    lower = _lower_space(space)
    if lower is None:
        return None
    n = space.n_orb
    return lower, tuple(_flip_block(space, lower, p, q)
                        for p in range(n) for q in range(n))


@lru_cache(maxsize=None)
def flip_raise_links(space: CasSpace):
    """Orbital-resolved spin-flip table a+_pa a_qb: ms2 -> ms2+2.

    Returns (upper_space, groups) laid out as in flip_lower_links.  It is
    built from the annihilation maps directly, through

        a+_pa a_qb = (alpha a+_p) o (beta a_q) . (-1)^n_alpha,

    and never from the lowering table, so the Delta M_S = +1 blocks of the
    spin-orbit matrix are evaluated independently of the -1 blocks.
    """
    if space.n_alpha == space.n_orb or space.n_beta == 0:
        return None
    upper = enumerate_cas(space.n_elec, space.n_orb, space.ms2 + 2)
    n = space.n_orb
    nb = len(space.beta_strings)
    ub = len(upper.beta_strings)
    crossing = -1.0 if space.n_alpha & 1 else 1.0
    groups = []
    for p in range(n):
        # alpha a+_p is a_p of the (n_alpha+1)-strings read dst -> src
        a_dst, a_src, a_sign = _annihilators(n, space.n_alpha + 1)[p]
        for q in range(n):
            b_src, b_dst, b_sign = _annihilators(n, space.n_beta)[q]
            groups.append(((a_src[:, None] * nb + b_src).ravel(),
                           (a_dst[:, None] * ub + b_dst).ravel(),
                           (crossing * a_sign[:, None] * b_sign).ravel()))
    return upper, tuple(groups)
