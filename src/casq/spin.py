"""Spin ladder operators, <S^2> and the string operands of spin flips.

Determinants are stored as (alpha ops ascending)(beta ops ascending)
acting on the vacuum, so a beta-string operator picks up one extra sign
per alpha electron it crosses.  Every operator here reads the stacked
string maps of `detspace.annihilators` as stored (a_p on the k-electron
strings, read backwards as a+_p on the (k-1)-electron strings) through
the factorization

    a+_pb a_qa = (beta a+_p) o (alpha a_q) . (-1)^(n_alpha - 1),

where the crossing sign counts the alphas left after a_qa.  A spin flip
is kept as its two string maps; S- is their p = q trace, one CSR table
over determinants, and S+ of a block is the S- table of the block above
read transposed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .csr import csr_add, csr_from_coo, csr_rows
from .detspace import CasSpace, annihilators, enumerate_cas


# apply_s_minus reads an image of smaller norm as zero: the state was M_S = -S
S_MINUS_NORM_TOL = 1e-8

# project_spin forms and subtracts each factor's S- image by row blocks of
# about this many bytes, not as one (N, k) image: 12 columns of CAS(11,10)
# M_S = 1/2 projected in 13.6 ms by blocks of 2**18 bytes, 14.0 ms by
# 2**20, 16.2 ms by 2**16 and 14.9 ms in one image (one BLAS thread)
BLOCK_BYTES = 2**18


class LadderAnnihilation(ValueError):
    """S- (or S+) maps the state to zero: M_S is already extremal."""


def _lower_space(space: CasSpace) -> CasSpace | None:
    if space.n_beta == space.n_orb or space.n_alpha == 0:
        return None
    return enumerate_cas(space.n_elec, space.n_orb, space.ms2 - 2)


@lru_cache(maxsize=None)
def _s_minus_links(space: CasSpace):
    """(lower space, table, False): S- = sum_p a+_pb a_pa into ms2-2 as one
    CSR table, rows the lower block's determinants and columns this
    block's.  Its entries are, for each p, the outer product of the alpha
    a_p and beta a+_p string maps (row p of annihilators(n, n_alpha), and
    of annihilators(n, n_beta + 1) read dst -> src).  Column indices
    ascend within each row, so that _ladder sums every image element in
    ascending source order whichever direction the table is read.
    """
    lower = _lower_space(space)
    if lower is None:
        return None
    n, nb, tb = space.n_orb, len(space.beta_strings), len(lower.beta_strings)
    a_src, a_dst, a_sign = annihilators(n, space.n_alpha)
    b_dst, b_src, b_sign = annihilators(n, space.n_beta + 1)
    src = (a_src[:, :, None] * nb + b_src[:, None]).ravel()
    dst = (a_dst[:, :, None] * tb + b_dst[:, None]).ravel()
    sign = ((-1.0) ** (space.n_alpha - 1) * a_sign[:, :, None]
            * b_sign[:, None]).ravel()
    return lower, csr_from_coo(sign, dst, src, (lower.size, space.size)), False


def _s_plus_links(space: CasSpace):
    """(upper space, table, True): S+ into ms2+2, the S- table of ms2+2
    read transposed (the same object)."""
    if space.n_alpha == space.n_orb or space.n_beta == 0:
        return None
    upper = enumerate_cas(space.n_elec, space.n_orb, space.ms2 + 2)
    return upper, _s_minus_links(upper)[1], True


def _ladder(links, vecs: np.ndarray, out: np.ndarray | None = None):
    """(target space, image) of (N,) or (N, k) vecs under a ladder table,
    written into out, a C-contiguous (target size, k) buffer, if given.

    One compiled sparse product (csr_add; S+ as the transpose), which sums
    every image element over its sources in ascending order.
    """
    target, table, raising = links
    vecs = np.asarray(vecs, dtype=float)
    X = np.ascontiguousarray(vecs.reshape(vecs.shape[0], -1))
    if out is None:
        out = np.zeros((target.size, X.shape[1]))
    else:
        out.fill(0.0)
    csr_add(table, X, out, transpose=raising)
    return target, out.reshape((target.size,) + vecs.shape[1:])


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
    """Löwdin's projector onto spin S = M_S of a top block, applied in
    place to vecs, a C-contiguous float64 (N,) or (N, k) block, which is
    returned (P.-O. Löwdin, Phys. Rev. 97, 1509 (1955)):
    P_S = prod_{S' > S} (1 - S-S+ / (S'(S'+1) - S(S+1))).  Each factor is
    one S+ and one S- scatter by csr_add through the one table between
    this block and the block above, since apply_s_minus refuses the zero
    S+ image of a pure spin-S vector.  Every factor reuses one buffer for
    the S+ image and one of BLOCK_BYTES for the S- image, which is formed
    and subtracted by row blocks of the table (csr_rows), each element
    summed over its sources in the same order as in one product."""
    if space.ms2 < 0:
        raise ValueError(f"spin projection needs a top block ms2 >= 0, "
                         f"got ms2={space.ms2}")
    if vecs.dtype != np.float64 or not vecs.flags.c_contiguous:
        raise ValueError(f"{vecs.dtype} array of shape {vecs.shape} to "
                         f"project in place: need C-contiguous float64")
    ms2, top = space.ms2, min(space.n_elec, 2 * space.n_orb - space.n_elec)
    if ms2 == top:
        return vecs
    upper, table, _ = raising = _s_plus_links(space)
    X = vecs.reshape(space.size, -1)             # a view of vecs
    raised = np.empty((upper.size, X.shape[1]))
    rows = max(1, BLOCK_BYTES // (8 * X.shape[1]))
    blocks = [(r0, csr_rows(table, r0, min(space.size, r0 + rows)))
              for r0 in range(0, space.size, rows)]
    lowered = np.empty((min(rows, space.size), X.shape[1]))
    for two_s in range(ms2 + 2, top + 1, 2):     # 2S' of each higher spin
        _ladder(raising, X, raised)
        gap = (two_s * (two_s + 2) - ms2 * (ms2 + 2)) / 4.0
        for r0, part in blocks:
            low = lowered[:part.indptr.size - 1]
            low.fill(0.0)
            csr_add(part, raised, low)
            low /= gap
            X[r0:r0 + low.shape[0]] -= low
    return vecs


@lru_cache(maxsize=None)
def flip_lower_links(space: CasSpace):
    """String operands of the spin flip a+_pb a_qa: ms2 -> ms2-2, for
    analysis.flip_transition_densities: (lower space, space, the key
    (n_alpha, True) of a_q in detspace.string_slots, and for each p the
    row of a_p on the (n_beta + 1)-strings as (lower block's beta
    strings, this block's, sign times (-1)^(n_alpha - 1))).
    """
    lower = _lower_space(space)
    if lower is None:
        return None
    src, dst, sign = annihilators(space.n_orb, space.n_beta + 1)
    return (lower, space, (space.n_alpha, True),
            (src, dst, (-1.0) ** (space.n_alpha - 1) * sign))


@lru_cache(maxsize=None)
def flip_raise_links(space: CasSpace):
    """String operands of the spin flip a+_pa a_qb: ms2 -> ms2+2, as in
    flip_lower_links: a+_p by the key (n_alpha + 1, False), and for each q
    the row of a_q on this block's beta strings, (upper block's, this
    block's, sign times (-1)^n_alpha), from a+_pa a_qb = (alpha a+_p) o
    (beta a_q) . (-1)^n_alpha; never from the lowering operands, so the
    two directions are independent evaluations.
    """
    if space.n_alpha == space.n_orb or space.n_beta == 0:
        return None
    upper = enumerate_cas(space.n_elec, space.n_orb, space.ms2 + 2)
    src, dst, sign = annihilators(space.n_orb, space.n_beta)
    return (upper, space, (space.n_alpha + 1, False),
            (dst, src, (-1.0) ** space.n_alpha * sign))
