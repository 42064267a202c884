"""Two-level head alignment for multi-head attention.

Treating the concatenated q/k/v projections as one big linear layer lets a
matcher mix rows across head boundaries ("head contamination"), after which
the permutation can no longer be undone through the attention block.  The
alignment here never does that: it first matches whole heads using a spectral
distance that ignores any row/column reordering inside a head, then permutes
units only within each matched pair.  The two levels compose into a single
permutation of the attention width that commutes exactly with the attention
computation.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalFailureError
from .lap import solve_max, solve_min
from .perms import Perm, check_permutation, join_heads


def singular_values(m: np.ndarray) -> np.ndarray:
    """Descending singular values of a matrix, or of each matrix of a stack
    ``(..., rows, cols)``: numpy's LAPACK SVD without the singular vectors."""
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as e:
        raise NumericalFailureError(f"SVD did not converge on shape {m.shape}: {e}") from e


def split_heads(w: np.ndarray, n_heads: int) -> np.ndarray:
    """View a (d_m, d') projection as (H, d_k, d'): head i owns row block i."""
    d_m = w.shape[0]
    if d_m % n_heads != 0:
        raise ValueError(f"cannot split {d_m} rows into {n_heads} heads")
    return w.reshape(n_heads, d_m // n_heads, w.shape[1])


def inter_head_distance_matrix(heads_b, heads_a) -> np.ndarray:
    """H x H cost matrix: entry (i, j) sums the q/k/v spectral distances
    between head i of model B and head j of model A.  A spectral distance is
    the Euclidean distance between two sorted singular-value vectors, which
    is zero whenever the heads differ only by row/column permutations.

    Each argument is a (q, k, v) triple of (H, d_k, d') head stacks; the
    spectra of a whole stack come from one batched SVD.
    """
    if heads_a[0].shape != heads_b[0].shape:
        raise ValueError(f"head tensors disagree: {heads_a[0].shape} vs {heads_b[0].shape}")
    s_b = np.stack([singular_values(m) for m in heads_b])  # (3, H, k)
    s_a = np.stack([singular_values(m) for m in heads_a])
    d = s_b[:, :, None, :] - s_a[:, None, :, :]  # (3, H_b, H_a, k)
    return np.sqrt(np.sum(d * d, axis=-1)).sum(axis=0)


def pair_heads(
    a_qkv: tuple[np.ndarray, np.ndarray, np.ndarray],
    b_qkv: tuple[np.ndarray, np.ndarray, np.ndarray],
    n_heads: int,
) -> Perm:
    """Stage 1: match whole heads by minimizing summed q/k/v spectral
    distances.  Destination head i of B pairs with source head ``inter[i]``
    of A.

    Singular values ignore any row/column reordering, so the pairing is the
    same whether or not ``a_qkv`` carries an incoming column permutation.
    """
    a_heads = tuple(split_heads(m, n_heads) for m in a_qkv)
    b_heads = tuple(split_heads(m, n_heads) for m in b_qkv)
    inter, _ = solve_min(inter_head_distance_matrix(b_heads, a_heads))
    return inter


def align_within_heads(value: np.ndarray, n_heads: int, inter: Perm) -> Perm:
    """Stage 2: per head pair (i, inter[i]), the unit permutation within the
    head that maximizes ``value`` restricted to the pair's d_k x d_k block
    ``value[i*d_k:(i+1)*d_k, inter[i]*d_k:(inter[i]+1)*d_k]``.

    ``value`` is the d_m x d_m value matrix of the attention variable: entry
    (r, c) prices sending model A's unit c to model B's unit r.  Returns the
    two levels joined into one index vector (``join_heads``).
    """
    inter = check_permutation(inter, size=n_heads)
    rows = split_heads(value, n_heads)
    d_k = rows.shape[1]
    intras = []
    for i in range(n_heads):
        src = int(inter[i])
        intra, _ = solve_max(rows[i][:, src * d_k : (src + 1) * d_k])
        intras.append(intra)
    return join_heads(inter, intras)
