"""One-particle densities, natural occupations and wave-function analysis.

Every transition density runs one kernel, _ri_densities, on a resolution
of the identity over the strings with one electron fewer or more (J. Olsen
et al., J. Chem. Phys. 89, 2185 (1988)), as sigma does:

    same-spin       <bra|a+_p a_q|ket>  =  <a_p bra|a_q ket>
    lowering flip   <D|a+_pb a_qa|C>    =  <a_pb D|a_qa C>
    raising flip    <C|a+_pa a_qb|D>    = -<a+_qb C|a+_pa D>

A raising flip's intermediates hold one electron more than a lowering
flip's, so the two directions of a spin flip are separate evaluations.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .casci import CiState
from .csr import Csr, csr_add, csr_from_coo
from .detspace import CasSpace, string_slots


# bytes of bra and ket intermediates that one chunk of strings gathers (at
# least one string).  On one BLAS thread, same-spin calls of 16 columns on
# CAS(9,9) and CAS(11,10) ran alike at 0.25-1 MiB and up to 2x slower at
# 4-64 MiB; unchunked, CAS(13,13) with 4 columns took 2.7 GB.
CHUNK_BYTES = 2**20


@lru_cache(maxsize=None)
def _slot_table(n_orb: int, k: int, by_dst: bool, pairs: bool) -> Csr:
    """One row per (string, slot, slot) of string_slots(n_orb, k, by_dst),
    (string, slot) unless pairs, with one entry, the slots' sign product,
    in the column p*n_orb + q of their orbitals, or p."""
    orb, _, sign = string_slots(n_orb, k, by_dst)
    if pairs:
        orb = orb[:, :, None] * n_orb + orb[:, None]
        sign = sign[:, :, None] * sign[:, None]
    return csr_from_coo(sign.ravel(), np.arange(orb.size), orb.ravel(),
                        (orb.size, n_orb ** (1 + pairs)))


def _ri_densities(n_orb: int, k: int, by_dst: bool, bra: np.ndarray,
                  ket: np.ndarray, rows=None) -> np.ndarray:
    """out[l, u, i*k_k + j], summed over the strings g of string_slots(
    n_orb, k, by_dst) and the first axes of bra (R, strings, k_b) and ket
    (R', strings', k_k).  Each g gathers the ket strings its slots reach
    and, without rows (same-spin, u = p*n_orb + q), the bra strings alike;
    with rows, its own bra string, and per l the rows (bra r, ket r', sign
    on the bra) of rows[l], u the slot's orbital.  A chunk of strings
    gathers at most CHUNK_BYTES for one batched matmul per l; the
    _slot_table, read transposed by csr_add, adds the products in
    ascending g, so the sums do not depend on the chunking."""
    pairs, (kb, kk) = rows is None, (bra.shape[-1], ket.shape[-1])
    rows = [(slice(None), slice(None), None)] if pairs else rows
    strings = string_slots(n_orb, k, by_dst)[1]
    table = _slot_table(n_orb, k, by_dst, pairs)
    (n_g, sk), sb = strings.shape, strings.shape[1] if pairs else 1
    out = np.zeros((len(rows), table.n_col, kb * kk))
    size = (bra.shape[0] * sb * kb + ket.shape[0] * sk * kk) * bra.itemsize
    step = max(1, CHUNK_BYTES // max(1, size))
    for g0 in range(0, n_g, step):
        g = strings[g0:g0 + step]
        c, r0, r1 = len(g), g0 * sb * sk, (g0 + len(g)) * sb * sk
        B, K = bra[:, g] if pairs else bra[:, g0:g0 + c, None], ket[:, g]
        part = Csr(table.indptr[r0:r1 + 1] - r0, table.indices[r0:r1],
                   table.data[r0:r1], table.n_col)
        for l, (r_bra, r_ket, sign) in enumerate(rows):
            x, y = B[r_bra], K[r_ket]
            if sign is not None:
                x *= sign[:, None, None, None]
            prod = np.matmul(x.transpose(1, 2, 3, 0).reshape(c, sb * kb, -1),
                             y.transpose(1, 0, 2, 3).reshape(c, -1, sk * kk))
            prod = prod.reshape(c, sb, kb, sk, kk).transpose(0, 1, 3, 2, 4)
            csr_add(part, np.ascontiguousarray(prod).reshape(-1, kb * kk),
                    out[l], transpose=True)
    return out


def spin_transition_densities(space: CasSpace, bra: np.ndarray,
                              ket: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gamma_alpha, gamma_beta) with gamma_s[p,q,i,j] = <bra_i|a+_ps a_qs|ket_j>.

    bra and ket are one vector or a stack of columns, both in space; the
    output axis of a 1-D argument is dropped, so two vectors give (n, n).
    """
    n, na = space.n_orb, len(space.alpha_strings)
    bra, ket = np.asarray(bra), np.asarray(ket)
    shape = (n, n) + bra.shape[1:] + ket.shape[1:]
    bra, ket = (v.reshape(na, -1, v[0].size) for v in (bra, ket))
    ga = _ri_densities(n, space.n_alpha, True, bra.transpose(1, 0, 2),
                       ket.transpose(1, 0, 2))
    gb = _ri_densities(n, space.n_beta, True, bra, ket)
    return ga.reshape(shape), gb.reshape(shape)


def flip_transition_densities(links, bra: np.ndarray,
                              ket: np.ndarray) -> np.ndarray:
    """gamma[p,q,i,j] = <bra_i|a+_p a_q|ket_j> of a spin flip from its
    operands (spin.flip_lower_links or flip_raise_links), ket columns in
    its source space and bra columns in its target."""
    target, source, (k, by_dst), beta = links
    n = source.n_orb
    bra, ket = (np.asarray(v).reshape(-1, len(s.beta_strings), len(v[0]))
                .transpose(1, 0, 2) for v, s in ((bra, target), (ket, source)))
    out = _ri_densities(n, k, by_dst, bra, ket, list(zip(*beta)))
    out = out.reshape(n, n, bra.shape[2], ket.shape[2])
    # rows run over the beta orbital: p of a lowering, q of a raising
    return out if by_dst else out.transpose(1, 0, 2, 3)


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
    n, na = space.n_orb, len(space.alpha_strings)
    ket = vecs.reshape(na, -1, vecs.shape[1])
    bra = ket * weights[keep]
    dm = _ri_densities(n, space.n_alpha, True, bra.reshape(na, -1).T[..., None],
                       ket.reshape(na, -1).T[..., None])
    dm += _ri_densities(n, space.n_beta, True, *(v.transpose(0, 2, 1).reshape(
        -1, v.shape[1], 1) for v in (bra, ket)))
    dm = dm.reshape(n, n)
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
