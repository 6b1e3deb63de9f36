"""One-particle densities, natural occupations and wave-function analysis.

Every density runs one kernel, _link_densities, over link tables in the
size-class form that detspace stores: the E_pq classes of
excitation_links, or a spin flip's alpha map as one class of n groups.
"""

from __future__ import annotations

import numpy as np

from .casci import CiState
from .detspace import CasSpace, excitation_links


# bytes of bra and ket rows that one batch of link groups gathers; a group
# larger than this runs alone.  A d-shell call is one batch per size class,
# a CAS(9,9) call with 16 columns one group per batch, same-spin or an alpha
# group of a spin flip over one beta map row; caps of 0.25-2 MiB ran the
# same-spin call alike, 8 and 32 MiB 1.1-2x slower.
BATCH_BYTES = 2 * 2**20


def _link_densities(classes, n_groups: int, bra: np.ndarray,
                    ket: np.ndarray) -> np.ndarray:
    """out[g, i, j] = sum_e sign_e bra[dst_e, :, i] . ket[src_e, :, j].

    bra (rows, m, k_b) and ket (rows', m, k_k) are indexed along their
    first axis by a link table's dst and src; the middle axis is summed
    over.  The table is given by size class as detspace stores it,
    (group ids, src, dst, sign) with (n_class, E) entries, for n_groups
    groups in all; absent groups give zeros.  Each batch of a class is one gather of bra rows, one of
    ket rows and one stacked GEMM (b, k_b, E*m) @ (b, E*m, k_k), each
    slice the same BLAS call as a GEMM per group, so the result does not
    depend on the batching.  A batch gathers at most BATCH_BYTES, or one
    group.
    """
    m, kb, kk = bra.shape[1], bra.shape[-1], ket.shape[-1]
    out = np.zeros((n_groups, kb, kk))
    for gid, src, dst, sign in classes:
        n_class, e = src.shape
        step = max(1, BATCH_BYTES // max(1, e * m * (kb + kk) * bra.itemsize))
        for b in range(0, n_class, step):
            batch = slice(b, b + step)
            rows = bra[dst[batch]]
            rows *= sign[batch, :, None, None]
            n_b = len(rows)
            out[gid[batch]] = np.matmul(
                rows.reshape(n_b, e * m, kb).transpose(0, 2, 1),
                ket[src[batch]].reshape(n_b, e * m, kk))
    return out


def _spin_densities(space: CasSpace, bra: np.ndarray,
                    ket: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gamma_alpha, gamma_beta) as (n*n, k_b, k_k) arrays.

    bra (n_alpha, n_beta, s, k_b) and ket (n_alpha, n_beta, s, k_k) are
    summed over their determinant axes and their third axis s: alpha
    works on the (n_alpha, n_beta * s) view, beta on a transposed copy,
    each over the size classes of its string count's excitation table.
    """
    n = space.n_orb
    na, nb = bra.shape[:2]
    kb, kk = bra.shape[-1], ket.shape[-1]
    ga = _link_densities(excitation_links(n, space.n_alpha), n * n,
                         bra.reshape(na, -1, kb), ket.reshape(na, -1, kk))
    gb = _link_densities(excitation_links(n, space.n_beta), n * n,
                         bra.transpose(1, 0, 2, 3).reshape(nb, -1, kb),
                         ket.transpose(1, 0, 2, 3).reshape(nb, -1, kk))
    return ga, gb


def spin_transition_densities(space: CasSpace, bra: np.ndarray,
                              ket: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gamma_alpha, gamma_beta) with gamma_s[p,q,i,j] = <bra_i|a+_ps a_qs|ket_j>.

    bra and ket are one vector or a stack of columns, both in space; the
    output axis of a 1-D argument is dropped, so two vectors give (n, n).
    """
    n = space.n_orb
    na = len(space.alpha_strings)
    bra = np.asarray(bra)
    ket = np.asarray(ket)
    shape = (n, n) + bra.shape[1:] + ket.shape[1:]
    ga, gb = _spin_densities(space, bra.reshape(na, -1, 1, bra[0].size),
                             ket.reshape(na, -1, 1, ket[0].size))
    return ga.reshape(shape), gb.reshape(shape)


def transition_density(space: CasSpace, bra: np.ndarray,
                       ket: np.ndarray) -> np.ndarray:
    """Spin-traced transition density <bra|E_pq|ket> (columns as above)."""
    ga, gb = spin_transition_densities(space, bra, ket)
    return ga + gb


def one_rdm(space: CasSpace, states: list[CiState] | list[np.ndarray],
            weights) -> np.ndarray:
    """Weighted spin-traced one-particle density over states of one space."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-8:
        raise ValueError("weights must be non-negative and sum to 1")
    if len(states) != weights.size:
        raise ValueError("one weight per state required")
    keep = weights > 0
    vecs = np.column_stack([getattr(st, "coeffs", st)
                            for st in states])[:, keep]
    # the state axis joins the summed axis: sum_i w_i <v_i|E_pq|v_i>
    ket = vecs.reshape(len(space.alpha_strings), -1, vecs.shape[1], 1)
    ga, gb = _spin_densities(space, ket * weights[keep][:, None], ket)
    dm = (ga + gb).reshape(space.n_orb, space.n_orb)
    dm = (dm + dm.T) / 2.0
    trace_err = abs(np.trace(dm) - space.n_elec)
    if trace_err > 1e-10:
        raise ValueError(f"density trace off by {trace_err:.3e}")
    return dm


def natural_occupations(dm: np.ndarray) -> np.ndarray:
    """Eigenvalues of the one-particle density, descending, clipped to [0, 2]."""
    dm = np.asarray(dm)
    if np.max(np.abs(dm - dm.T), initial=0.0) > 1e-10:
        raise ValueError("density matrix is not symmetric")
    occ = np.linalg.eigvalsh(dm)[::-1]
    overshoot = max(np.max(occ, initial=0.0) - 2.0, -np.min(occ, initial=0.0))
    if overshoot > 1e-10:
        raise ValueError(f"occupation outside [0, 2] by {overshoot:.3e}")
    return np.clip(occ, 0.0, 2.0)


# weights closer than this (in |c|^2) count as a conjugate pair
CONJUGATE_WEIGHT_TOL = 1e-6


def decompose(state: CiState, threshold_percent: float = 1.0):
    """Leading determinants of a CI vector as (rendered string, percent).

    Alpha/beta-conjugate partners of equal weight are merged into one
    line; the representative with the smaller basis index is printed, and
    the reported weight is the pair sum.  Sorted descending, truncated
    below threshold_percent.
    """
    space = state.space
    c2 = np.asarray(state.coeffs) ** 2
    entries: list[tuple[int, float]] = []
    merged: set[int] = set()
    for k in np.argsort(-c2, kind="stable"):
        k = int(k)
        if 200.0 * c2[k] < threshold_percent:
            break   # no later entry reaches it, even merged with a partner
        if k in merged:
            continue
        det = space.determinant(k)
        weight = c2[k]
        conj = det.conjugate()
        if conj in space:
            kc = space.index(conj)
            if kc != k and kc not in merged and \
                    abs(c2[kc] - c2[k]) <= CONJUGATE_WEIGHT_TOL:
                weight += c2[kc]
                merged.add(kc)
                k = min(k, kc)
        merged.add(k)
        entries.append((k, 100.0 * weight))
    entries.sort(key=lambda e: (-e[1], e[0]))
    return [(space.determinant(k).to_string(), w)
            for k, w in entries if w >= threshold_percent]


def format_decomposition(lines) -> list[str]:
    """Render decomposition entries as '2 2 u 2 0 d 0 (49%)' strings."""
    return [f"{det} ({weight:.0f}%)" for det, weight in lines]
