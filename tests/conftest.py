"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths: assignment
problems are enumerated, singular values come from characteristic-polynomial
roots of the Gram matrix, permutation application is cross-checked with
dense 0/1 matrices, attention equivariance is checked on a row-vector
single-layer attention written out here, and the model forward is checked
against a token-at-a-time loop.
"""

import itertools

import numpy as np
import pytest

from taskport.checkpoint import ArchSpec
from taskport.model import EvalBatch
from taskport.perms import BlockPermutation


@pytest.fixture
def toy_arch():
    """The standard desk-scale architecture used across the suite."""
    return ArchSpec(
        n_blocks=2, n_heads=4, embed_dim=32, mlp_hidden=64,
        input_dim=10, output_dim=4, has_layernorm=True,
    )


@pytest.fixture
def small_arch():
    return ArchSpec(
        n_blocks=1, n_heads=2, embed_dim=8, mlp_hidden=12,
        input_dim=5, output_dim=3, has_layernorm=False,
    )


def make_random_batch(arch: ArchSpec, n: int, seq_len: int, seed: int) -> EvalBatch:
    """Gaussian inputs with uniformly drawn class targets."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, seq_len, arch.input_dim))
    y = rng.integers(0, arch.output_dim, size=n)
    return EvalBatch(X, y)


def brute_force_min_assignment(cost: np.ndarray):
    """Enumerate all n! permutations in lexicographic order; strict
    improvement keeps the earliest, so ties resolve exactly like the
    solver's contract."""
    n = cost.shape[0]
    rows = np.arange(n)
    best_perm, best_cost = None, np.inf
    for perm in itertools.permutations(range(n)):
        total = float(np.sum(cost[rows, perm]))
        if total < best_cost:
            best_cost = total
            best_perm = perm
    return np.array(best_perm, dtype=np.int64), best_cost


def charpoly_singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values via Faddeev-LeVerrier characteristic-polynomial roots
    of the smaller Gram matrix.  Independent of any SVD routine."""
    m = np.asarray(m, dtype=np.float64)
    gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    n = gram.shape[0]
    coeffs = [1.0]
    mk = np.eye(n)
    for k in range(1, n + 1):
        mk = gram @ mk
        ck = -np.trace(mk) / k
        coeffs.append(ck)
        mk = mk + ck * np.eye(n)
    eigs = np.roots(coeffs)
    eigs = np.real(eigs)
    eigs[eigs < 0] = 0.0
    sv = np.sqrt(np.sort(eigs)[::-1])
    return sv


def token_loop_forward(ws, X: np.ndarray) -> np.ndarray:
    """Logits of the identity-skip model, one sample and one token at a time.

    Every layer is a matrix-vector product on a single token's features and
    every attention weight a dot product of two head slices, so no batching,
    reshaping or transposing of activations is shared with ``model.forward``.
    """
    arch = ws.arch
    d_k = arch.head_dim

    def dense(t, layer):
        return ws[f"{layer}.weight"] @ t + ws[f"{layer}.bias"]

    def layernorm(t, layer):
        centered = t - t.mean()
        return ws[f"{layer}.gain"] * centered / np.sqrt(np.mean(centered**2) + 1e-5) + ws[f"{layer}.bias"]

    logits = []
    for sample in X:
        z = [ws["embed.weight"] @ token for token in sample]
        for i in range(arch.n_blocks):
            b = f"block.{i}"
            q, k, v = ([dense(t, f"{b}.attn.{p}") for t in z] for p in ("q", "k", "v"))
            z_mid = []
            for t in range(len(z)):
                heads = []
                for h in range(arch.n_heads):
                    sl = slice(h * d_k, (h + 1) * d_k)
                    scores = np.array([q[t][sl] @ k_u[sl] for k_u in k]) / np.sqrt(d_k)
                    w = np.exp(scores - scores.max())
                    w /= w.sum()
                    heads.append(sum(w_u * v_u[sl] for w_u, v_u in zip(w, v)))
                z_mid.append(dense(np.concatenate(heads), f"{b}.attn.out") + z[t])
            if arch.has_layernorm:
                z_mid = [layernorm(t, f"{b}.ln1") for t in z_mid]
            z = [dense(np.maximum(dense(t, f"{b}.mlp.fc1"), 0.0), f"{b}.mlp.fc2") + t for t in z_mid]
            if arch.has_layernorm:
                z = [layernorm(t, f"{b}.ln2") for t in z]
        logits.append(ws["head.weight"] @ (sum(z) / len(z)))
    return np.array(logits)


def dense_perm_matrix(p) -> np.ndarray:
    """0/1 matrix with ones at (i, p[i]); left-multiplying permutes rows by p."""
    p = np.asarray(p, dtype=np.int64)
    m = np.zeros((p.size, p.size))
    m[np.arange(p.size), p] = 1.0
    return m


def dense_block_permutation(bp: BlockPermutation) -> np.ndarray:
    """Kronecker-structured dense form: sum_i E(i, inter[i]) x intra_i."""
    h, d_k = bp.n_heads, bp.head_dim
    out = np.zeros((h * d_k, h * d_k))
    for i in range(h):
        e = np.zeros((h, h))
        e[i, bp.inter[i]] = 1.0
        out += np.kron(e, dense_perm_matrix(bp.intras[i]))
    return out


def attention_forward(wq, wk, wv, n_heads: int, x: np.ndarray):
    """Row-vector-convention attention used for the equivariance check.

    ``x`` is (S, d_m); projections multiply on the right.  Returns the
    concatenated output (S, d_m) and the per-head score tensor (H, S, S).
    """
    d_m = wq.shape[0]
    d_k = d_m // n_heads
    q, k, v = x @ wq, x @ wk, x @ wv
    outs = []
    scores = []
    for i in range(n_heads):
        sl = slice(i * d_k, (i + 1) * d_k)
        s = _softmax_rows(q[:, sl] @ k[:, sl].T / np.sqrt(d_k))
        scores.append(s)
        outs.append(s @ v[:, sl])
    return np.concatenate(outs, axis=1), np.stack(scores)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def verify_attention_equivariance(wq, wk, wv, perm, n_heads: int, x: np.ndarray, score_tol: float = 1e-12) -> float:
    """Max |O' - O P| where O' is the output after permuting each projection's
    output columns by ``perm``.

    For a structured BlockPermutation this deviation is float noise and the
    per-head scores of the permuted model equal the source head's scores
    (asserted against ``score_tol``); for an arbitrary d_m permutation that
    crosses head boundaries it is large - that failure mode is the point of
    keeping head structure.
    """
    if isinstance(perm, BlockPermutation):
        flat = perm.flattened()
        inter = perm.inter
    else:
        flat = np.asarray(perm, dtype=np.int64)
        inter = None
    inv = np.argsort(flat)

    out_ref, scores_ref = attention_forward(wq, wk, wv, n_heads, x)
    out_perm, scores_perm = attention_forward(wq[:, inv], wk[:, inv], wv[:, inv], n_heads, x)
    deviation = float(np.max(np.abs(out_perm - out_ref[:, inv])))

    if inter is not None:
        inv_inter = np.argsort(inter)
        score_dev = float(
            max(
                np.max(np.abs(scores_perm[i] - scores_ref[inv_inter[i]]))
                for i in range(n_heads)
            )
        )
        if score_dev > score_tol:
            raise AssertionError(
                f"per-head scores deviate by {score_dev:g} despite structured permutation"
            )
    return deviation
