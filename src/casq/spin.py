"""Spin ladder operators, <S^2> and spin-flip transition tables.

Determinants are stored as (alpha ops ascending)(beta ops ascending)
acting on the vacuum, so a beta-string operator picks up one extra sign
per alpha electron it crosses.  Every table here is built from the
per-string annihilation map `detspace.annihilators` (a_p on the
k-electron strings, read backwards as a+_p on the (k-1)-electron
strings) through the factorization

    a+_pb a_qa = (beta a+_p) o (alpha a_q) . (-1)^(n_alpha - 1),

where the crossing sign counts the alphas left after a_qa.  The
spin-flip table of a block is the outer product of the two string maps
for each (p, q); S- is its p = q trace, and S+ of a block is the S-
table of the block above read with src and dst swapped.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .detspace import CasSpace, annihilators, enumerate_cas


# apply_s_minus reads an image of smaller norm as zero: the state was M_S = -S
S_MINUS_NORM_TOL = 1e-8


class LadderAnnihilation(ValueError):
    """S- (or S+) maps the state to zero: M_S is already extremal."""


def _creators(n_orb: int, k: int):
    """a+_p on the k-electron strings: a_p of the (k+1)-strings read dst -> src."""
    return tuple((dst, src, sign) for src, dst, sign in annihilators(n_orb, k + 1))


def _flip_groups(space: CasSpace, target: CasSpace, alpha, beta, crossing, pairs):
    """Spin-flip table from space into target as its one size class,
    ((group ids, src, dst, sign),), each (n_pairs, E): row g is the product
    of the string maps alpha[i] and beta[j] for the g-th (i, j) of pairs.
    All maps of one side have the same length, so every row has the same
    E entries (C(n-1, n_alpha-1) * C(n-1, n_beta) for the lowering table),
    and the analysis kernel runs the table as stacked batches.  The alpha
    string is the slow index, so src ascends along a row.  The tables stay
    cached for the run, so they are stored as int32 indices and int8
    signs: both are exact, and a product with a float vector is the
    float64 one."""
    if max(space.size, target.size) > np.iinfo(np.int32).max:
        raise ValueError(f"{space} or {target}: too large for int32 tables")
    nb, tb = len(space.beta_strings), len(target.beta_strings)
    pairs = list(pairs)
    shape = (len(pairs), alpha[0][0].size * beta[0][0].size)
    src, dst = np.empty(shape, dtype=np.int32), np.empty(shape, dtype=np.int32)
    sign = np.empty(shape, dtype=np.int8)
    for g, (i, j) in enumerate(pairs):
        (a_src, a_dst, a_sign), (b_src, b_dst, b_sign) = alpha[i], beta[j]
        src[g] = (a_src[:, None] * nb + b_src).ravel()
        dst[g] = (a_dst[:, None] * tb + b_dst).ravel()
        sign[g] = (crossing * a_sign[:, None] * b_sign).ravel()
    return ((np.arange(len(pairs)), src, dst, sign),)


def _lowering(space: CasSpace, lower: CasSpace, pairs):
    """a+_pb a_qa groups from space into lower, one per (p, q) of pairs."""
    n = space.n_orb
    crossing = -1.0 if (space.n_alpha - 1) & 1 else 1.0
    return _flip_groups(space, lower, annihilators(n, space.n_alpha),
                        _creators(n, space.n_beta), crossing,
                        ((q, p) for p, q in pairs))


def _lower_space(space: CasSpace) -> CasSpace | None:
    if space.n_beta == space.n_orb or space.n_alpha == 0:
        return None
    return enumerate_cas(space.n_elec, space.n_orb, space.ms2 - 2)


@lru_cache(maxsize=None)
def _s_minus_links(space: CasSpace):
    """Entries (src, dst, sign) of S- = sum_p a+_pb a_pa into ms2-2.

    Sorted by src, then dst, so that _ladder accumulates every output
    element in ascending input order whichever direction the table is read.
    Widened back to intp indices and float signs from _flip_groups' int32
    and int8: _ladder's gather, product and bincount would otherwise
    convert them on every call (projecting 4 CAS(11,10) vectors took
    25 ms with the wide table and 33 ms with the narrow one).
    """
    lower = _lower_space(space)
    if lower is None:
        return None
    (_, *rows), = _lowering(space, lower, [(p, p) for p in range(space.n_orb)])
    src, dst, sign = (x.ravel() for x in rows)
    order = np.lexsort((dst, src))
    return lower, (src[order].astype(np.intp), dst[order].astype(np.intp),
                   sign[order].astype(float))


def _s_plus_links(space: CasSpace):
    """Entries (src, dst, sign) of S+ into ms2+2: the S- table of ms2+2."""
    if space.n_alpha == space.n_orb or space.n_beta == 0:
        return None
    upper = enumerate_cas(space.n_elec, space.n_orb, space.ms2 + 2)
    _, (src, dst, sign) = _s_minus_links(upper)
    return upper, (dst, src, sign)


def _ladder(links, vecs: np.ndarray):
    """(target space, image) of (N,) or (N, k) vecs under a ladder table:
    one bincount per column, which sums in table order as np.add.at does."""
    target, (src, dst, sign) = links
    vecs = np.asarray(vecs)
    out = np.empty((vecs.size // vecs.shape[0], target.size))
    for row, col in zip(out, vecs.reshape(vecs.shape[0], -1).T):
        row[:] = np.bincount(dst, weights=sign * col[src], minlength=target.size)
    return target, out.T.reshape((target.size,) + vecs.shape[1:])


def apply_s_plus(space: CasSpace, vec: np.ndarray):
    """Unnormalized S+ image; returns (upper space, vector)."""
    links = _s_plus_links(space)
    if links is None:
        raise LadderAnnihilation("S+ annihilates every state of this block")
    return _ladder(links, vec)


def apply_s_minus(space: CasSpace, vec: np.ndarray):
    """Unnormalized S- image with norm^2 = S(S+1) - M(M-1).

    Raises LadderAnnihilation when the image norm falls below
    S_MINUS_NORM_TOL, which signals M_S = -S.
    """
    links = _s_minus_links(space)
    if links is None:
        raise LadderAnnihilation("S- annihilates every state of this block")
    lower, out = _ladder(links, vec)
    if np.linalg.norm(out) < S_MINUS_NORM_TOL:
        raise LadderAnnihilation("S- annihilated the state (M_S = -S)")
    return lower, out


def s_squared(space: CasSpace, vec: np.ndarray) -> float:
    """<v|S^2|v> for a normalized v."""
    return float(s_squared_matrix(space, np.reshape(vec, (-1, 1)))[0, 0])


def s_squared_matrix(space: CasSpace, vecs: np.ndarray) -> np.ndarray:
    """<v_i|S^2|v_j> for the columns of vecs (all in the same space)."""
    vecs = np.asarray(vecs)
    ms = space.ms2 / 2.0
    base = ms * (ms + 1.0) * (vecs.T @ vecs)
    links = _s_plus_links(space)
    if links is None:
        return base
    _, raised = _ladder(links, vecs)
    return base + raised.T @ raised


def project_spin(space: CasSpace, vecs: np.ndarray) -> np.ndarray:
    """Löwdin's projector onto spin S = M_S of a top block, applied to (N,)
    or (N, k) vecs (P.-O. Löwdin, Phys. Rev. 97, 1509 (1955)):
    P_S = prod_{S' > S} (1 - S-S+ / (S'(S'+1) - S(S+1))).  Each factor is
    one S+ and one S- scatter by _ladder, since apply_s_minus refuses the
    zero S+ image of a pure spin-S vector."""
    out = np.array(vecs, dtype=float)
    ms2, top = space.ms2, min(space.n_elec, 2 * space.n_orb - space.n_elec)
    for two_s in range(ms2 + 2, top + 1, 2):     # 2S' of each higher spin
        upper, raised = _ladder(_s_plus_links(space), out)
        gap = (two_s * (two_s + 2) - ms2 * (ms2 + 2)) / 4.0
        out -= _ladder(_s_minus_links(upper), raised)[1] / gap
    return out


@lru_cache(maxsize=None)
def flip_lower_links(space: CasSpace):
    """Orbital-resolved spin-flip table a+_pb a_qa: ms2 -> ms2-2.

    Returns (lower_space, classes), classes the one size class
    ((group ids, src, dst, sign),) of _flip_groups, whose row g = p * n_orb
    + q holds the (p, q) entries.  Used for the Delta M_S = -1 blocks of
    the spin-orbit matrix.
    """
    lower = _lower_space(space)
    if lower is None:
        return None
    return lower, _lowering(space, lower, product(range(space.n_orb), repeat=2))


@lru_cache(maxsize=None)
def flip_raise_links(space: CasSpace):
    """Orbital-resolved spin-flip table a+_pa a_qb: ms2 -> ms2+2.

    Returns (upper_space, classes) laid out as in flip_lower_links.  It is
    built from the annihilation maps directly, through

        a+_pa a_qb = (alpha a+_p) o (beta a_q) . (-1)^n_alpha,

    and never from the lowering table, so the Delta M_S = +1 blocks of the
    spin-orbit matrix are evaluated independently of the -1 blocks.
    """
    if space.n_alpha == space.n_orb or space.n_beta == 0:
        return None
    upper = enumerate_cas(space.n_elec, space.n_orb, space.ms2 + 2)
    n = space.n_orb
    crossing = -1.0 if space.n_alpha & 1 else 1.0
    return upper, _flip_groups(space, upper, _creators(n, space.n_alpha),
                               annihilators(n, space.n_beta), crossing,
                               product(range(n), repeat=2))
