"""Two-level head alignment for multi-head attention.

Treating the concatenated q/k/v projections as one big linear layer lets a
matcher mix rows across head boundaries ("head contamination"), after which
the permutation can no longer be undone through the attention block.  The
alignment here never does that: it first matches whole heads using a spectral
distance that ignores any row/column reordering inside a head, then permutes
units only within each matched pair.  The result composes into a single
block permutation that commutes exactly with the attention computation.
"""

from __future__ import annotations

import numpy as np

from .lap import solve_max, solve_min
from .linalg import as_matrix, singular_values, vector_pnorm
from .perms import BlockPermutation, Perm, check_permutation


def split_heads(w: np.ndarray, n_heads: int) -> np.ndarray:
    """View a (d_m, d') projection as (H, d_k, d'): head i owns row block i."""
    w = as_matrix(w)
    d_m = w.shape[0]
    if d_m % n_heads != 0:
        raise ValueError(f"cannot split {d_m} rows into {n_heads} heads")
    return w.reshape(n_heads, d_m // n_heads, w.shape[1])


def spectral_head_distance(h_a: np.ndarray, h_b: np.ndarray, p: float = 2.0) -> float:
    """p-norm between the sorted singular-value vectors of two heads.

    Zero whenever the heads differ only by row/column permutations, which is
    what makes this usable before any unit-level alignment exists.
    """
    h_a = as_matrix(h_a)
    h_b = as_matrix(h_b)
    if h_a.shape != h_b.shape:
        raise ValueError(f"head shape mismatch: {h_a.shape} vs {h_b.shape}")
    return vector_pnorm(singular_values(h_a), singular_values(h_b), p)


def inter_head_distance_matrix(heads_b, heads_a, p: float = 2.0) -> np.ndarray:
    """H x H cost matrix: entry (i, j) sums the q/k/v spectral distances
    between head i of model B and head j of model A.

    Each argument is a (q, k, v) triple of (H, d_k, d') head stacks; the
    spectra of a whole stack come from one batched SVD.
    """
    hb_q, hb_k, hb_v = heads_b
    ha_q, ha_k, ha_v = heads_a
    n_heads = hb_q.shape[0]
    if ha_q.shape != hb_q.shape:
        raise ValueError(f"head tensors disagree: {ha_q.shape} vs {hb_q.shape}")
    spectra_b = [singular_values(m) for m in (hb_q, hb_k, hb_v)]
    spectra_a = [singular_values(m) for m in (ha_q, ha_k, ha_v)]
    d = np.zeros((n_heads, n_heads))
    for i in range(n_heads):
        for j in range(n_heads):
            d[i, j] = sum(
                vector_pnorm(spectra_b[m][i], spectra_a[m][j], p) for m in range(3)
            )
    return d


def pair_heads(
    a_qkv: tuple[np.ndarray, np.ndarray, np.ndarray],
    b_qkv: tuple[np.ndarray, np.ndarray, np.ndarray],
    n_heads: int,
    p: float = 2.0,
) -> Perm:
    """Stage 1: match whole heads by minimizing summed q/k/v spectral
    distances.  Destination head i of B pairs with source head ``inter[i]``
    of A.

    Singular values ignore any row/column reordering, so the pairing is the
    same whether or not ``a_qkv`` carries an incoming column permutation.
    """
    a_heads = tuple(split_heads(m, n_heads) for m in a_qkv)
    b_heads = tuple(split_heads(m, n_heads) for m in b_qkv)
    inter, _ = solve_min(inter_head_distance_matrix(b_heads, a_heads, p))
    return inter


def align_within_heads(
    a_qkv: tuple[np.ndarray, np.ndarray, np.ndarray],
    b_qkv: tuple[np.ndarray, np.ndarray, np.ndarray],
    n_heads: int,
    inter: Perm,
    extra_value: np.ndarray | None = None,
) -> BlockPermutation:
    """Stage 2: per head pair (i, inter[i]), maximize the summed q/k/v row
    inner products over unit permutations within the head.

    ``a_qkv`` must already carry the incoming column permutation, since rows
    are compared raw.  ``extra_value`` optionally adds a d_m x d_m value
    matrix - e.g. the output-projection coupling - whose matched d_k x d_k
    sub-blocks join the within-head objective.
    """
    inter = check_permutation(inter, size=n_heads)
    a_heads = tuple(split_heads(m, n_heads) for m in a_qkv)
    b_heads = tuple(split_heads(m, n_heads) for m in b_qkv)
    d_k = b_heads[0].shape[1]

    intras = []
    for i in range(n_heads):
        src = int(inter[i])
        value = np.zeros((d_k, d_k))
        for m in range(3):
            value += b_heads[m][i] @ a_heads[m][src].T
        if extra_value is not None:
            value = value + extra_value[i * d_k : (i + 1) * d_k, src * d_k : (src + 1) * d_k]
        intra, _ = solve_max(value)
        intras.append(intra)
    return BlockPermutation(inter, tuple(intras))

