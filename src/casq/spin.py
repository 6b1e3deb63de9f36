"""Spin ladder operators, <S^2> and the string operands of spin flips.

Determinants are stored as (alpha ops ascending)(beta ops ascending)
acting on the vacuum, so a beta-string operator picks up one extra sign
per alpha electron it crosses.  Every operator here is built from the
per-string annihilation map `detspace.annihilators` (a_p on the
k-electron strings, read backwards as a+_p on the (k-1)-electron
strings) through the factorization

    a+_pb a_qa = (beta a+_p) o (alpha a_q) . (-1)^(n_alpha - 1),

where the crossing sign counts the alphas left after a_qa.  A spin flip
is kept as its string factors; S- is their p = q trace, one table over
determinants, and S+ of a block is the S- table of the block above read
with src and dst swapped.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .analysis import _creator_classes
from .detspace import CasSpace, annihilators, enumerate_cas


# apply_s_minus reads an image of smaller norm as zero: the state was M_S = -S
S_MINUS_NORM_TOL = 1e-8


class LadderAnnihilation(ValueError):
    """S- (or S+) maps the state to zero: M_S is already extremal."""


def _lower_space(space: CasSpace) -> CasSpace | None:
    if space.n_beta == space.n_orb or space.n_alpha == 0:
        return None
    return enumerate_cas(space.n_elec, space.n_orb, space.ms2 - 2)


@lru_cache(maxsize=None)
def _s_minus_links(space: CasSpace):
    """Entries (src, dst, sign) of S- = sum_p a+_pb a_pa into ms2-2: for
    each p the outer product of the alpha a_p and beta a+_p string maps
    (the creator classes of n_alpha - 1 read dst -> src, and of n_beta).

    Sorted by src, then dst, so that _ladder accumulates every output
    element in ascending input order whichever direction the table is read.
    """
    lower = _lower_space(space)
    if lower is None:
        return None
    n, nb, tb = space.n_orb, len(space.beta_strings), len(lower.beta_strings)
    (_, a_dst, a_src, a_sign), = _creator_classes(n, space.n_alpha - 1)
    (_, b_src, b_dst, b_sign), = _creator_classes(n, space.n_beta)
    src = (a_src[:, :, None] * nb + b_src[:, None]).ravel()
    dst = (a_dst[:, :, None] * tb + b_dst[:, None]).ravel()
    sign = ((-1.0) ** (space.n_alpha - 1) * a_sign[:, :, None]
            * b_sign[:, None]).ravel()
    order = np.lexsort((dst, src))
    return lower, (src[order], dst[order], sign[order])


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
    if space.ms2 < 0:
        raise ValueError(f"spin projection needs a top block ms2 >= 0, "
                         f"got ms2={space.ms2}")
    out = np.array(vecs, dtype=float)
    ms2, top = space.ms2, min(space.n_elec, 2 * space.n_orb - space.n_elec)
    for two_s in range(ms2 + 2, top + 1, 2):     # 2S' of each higher spin
        upper, raised = _ladder(_s_plus_links(space), out)
        gap = (two_s * (two_s + 2) - ms2 * (ms2 + 2)) / 4.0
        out -= _ladder(_s_minus_links(upper), raised)[1] / gap
    return out


@lru_cache(maxsize=None)
def flip_lower_links(space: CasSpace):
    """String operands of the spin flip a+_pb a_qa: ms2 -> ms2-2.

    Returns (lower space, space, "beta", alpha classes, beta maps,
    crossing): a_q on the alpha strings as one size class of n_orb groups
    (analysis._creator_classes read dst -> src), a+_p on the beta strings
    as n_orb (src, dst, sign) maps, and the sign (-1)^(n_alpha - 1).  Used
    for the Delta M_S = -1 blocks of the spin-orbit matrix.
    """
    lower = _lower_space(space)
    if lower is None:
        return None
    n = space.n_orb
    alpha = tuple((gid, dst, src, sign) for gid, src, dst, sign
                  in _creator_classes(n, space.n_alpha - 1))
    beta = tuple((dst, src, sign) for src, dst, sign
                 in annihilators(n, space.n_beta + 1))
    return lower, space, "beta", alpha, beta, (-1.0) ** (space.n_alpha - 1)


@lru_cache(maxsize=None)
def flip_raise_links(space: CasSpace):
    """String operands of the spin flip a+_pa a_qb: ms2 -> ms2+2.

    Returns (upper space, space, "alpha", alpha classes, beta maps,
    crossing) as in flip_lower_links: a+_p on the alpha strings as
    analysis._creator_classes, a_q on the beta strings as
    detspace.annihilators, from

        a+_pa a_qb = (alpha a+_p) o (beta a_q) . (-1)^n_alpha,

    never from the lowering operands, so the Delta M_S = +1 blocks of the
    spin-orbit matrix are evaluated independently of the -1 blocks.
    """
    if space.n_alpha == space.n_orb or space.n_beta == 0:
        return None
    upper = enumerate_cas(space.n_elec, space.n_orb, space.ms2 + 2)
    n = space.n_orb
    return (upper, space, "alpha", _creator_classes(n, space.n_alpha),
            annihilators(n, space.n_beta), (-1.0) ** space.n_alpha)
