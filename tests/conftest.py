"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths: assignment
problems are enumerated (and larger ones solved by a pinned copy of the
earlier solver), the matcher's sweep loop is re-run without its skip rule,
singular values come from characteristic-polynomial roots of the Gram
matrix, permutation application is cross-checked with dense 0/1 matrices,
attention equivariance is checked on a row-vector single-layer attention
written out here, and the model forward is checked against a
token-at-a-time loop.

Every test must leave no more threads alive than it found.
"""

import itertools
import threading

import numpy as np
import pytest

from taskport.checkpoint import ArchSpec, WeightSet
from taskport.matching import (
    matching_objective,
    pair_heads,
    solve_attention_variable,
    solve_plain_variable,
)
from taskport.model import EvalBatch


@pytest.fixture(autouse=True)
def no_stray_threads():
    """Fail a test that leaves more threads alive than it started with."""
    before = threading.active_count()
    yield
    after = threading.active_count()
    if after > before:
        pytest.fail(f"{after - before} thread(s) left alive: {threading.enumerate()}")


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


def overflowing_model(threshold: float) -> WeightSet:
    """A 5-block model, float32-representable, whose activations overflow
    float64 for exactly the samples that hold an input token above
    ``threshold`` (|threshold| < 3.4).

    Attention is all zeros.  Each block's ReLU opens on stream unit 0 only
    above ``threshold``; once open, each block multiplies that unit by about
    8e76, which passes float64's range in the fifth block.
    """
    arch = ArchSpec(5, 1, 2, 8, 1, 2, has_layernorm=False)
    tensors = {name: np.zeros(shape) for name, shape in arch.tensor_shapes().items()}
    tensors["embed.weight"][0, 0] = 1.0
    for i in range(arch.n_blocks):
        tensors[f"block.{i}.mlp.fc1.weight"][:, 0] = 1e38
        tensors[f"block.{i}.mlp.fc1.bias"][:] = -1e38 * threshold
        tensors[f"block.{i}.mlp.fc2.weight"][0, :] = 1e38
    return WeightSet(arch, tensors)


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


# The assignment solver as it stood before its row-reduction start and its
# tied-rows-only refinement, pinned verbatim: every optimization of
# ``taskport.lap`` must return what it returns, bit for bit.
REFERENCE_TIGHT_RTOL = 1e-10


def reference_shortest_augmenting_paths(cost: np.ndarray):
    """Solve min-cost assignment; return (col_of_row, u, v) with optimal duals."""
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n)
    col_of_row = [-1] * n
    row_of_col = [-1] * n
    free = np.ones(n, dtype=bool)  # columns no row holds yet
    dist = np.empty(n)

    for cur in range(n):
        # Dijkstra over columns, growing an alternating tree from row `cur`.
        # `key` is an unscanned column's tentative distance and +inf once the
        # column is scanned; `dist` keeps the distance it was scanned at.
        key = np.full(n, np.inf)
        pred = np.full(n, cur, dtype=np.int64)
        unscanned = np.ones(n, dtype=bool)
        scanned_rows = [cur]
        min_val = 0.0
        i = cur
        while True:
            cand = (min_val - u[i]) + cost[i] - v
            better = (cand < key) & unscanned  # scanned columns keep +inf
            np.copyto(key, cand, where=better)
            np.copyto(pred, i, where=better)
            j = int(key.argmin())
            min_val = key[j]
            if row_of_col[j] >= 0:
                # Of equally near columns, a free one ends the search now.
                tied_free = (key == min_val) & free
                k = int(tied_free.argmax())
                j = k if tied_free[k] else j
            dist[j] = min_val
            key[j] = np.inf
            unscanned[j] = False
            i = row_of_col[j]
            if i < 0:
                break
            scanned_rows.append(i)
        free[j] = False

        # Dual update keeps reduced costs non-negative and tight on the tree.
        u[cur] += min_val
        for r in scanned_rows[1:]:
            u[r] += min_val - dist[col_of_row[r]]
        scanned_cols = np.flatnonzero(~unscanned)
        v[scanned_cols] -= min_val - dist[scanned_cols]

        # Augment backwards along the predecessor chain from the free column j.
        while True:
            i = int(pred[j])
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == cur:
                break

    return np.array(col_of_row, dtype=np.int64), u, v


def _reference_augment(start_row: int, tight: list, row_of: list, col_of: list, visited: bytearray) -> bool:
    """Kuhn-style alternating path over tight edges from the unmatched
    ``start_row``, skipping columns already marked in ``visited``.

    Depth-first in column order, like the textbook recursion, but on an
    explicit stack so path length is not bounded by the interpreter's
    recursion limit.  Flips the matching along the path it finds and leaves
    it untouched when there is none.
    """
    rows = [start_row]
    cols: list[int] = []
    scans = [iter(tight[start_row])]
    while scans:
        for j in scans[-1]:
            if visited[j]:
                continue
            visited[j] = 1
            holder = row_of[j]
            if holder < 0:
                cols.append(j)
                for r, c in zip(rows, cols):
                    row_of[c] = r
                    col_of[r] = c
                return True
            rows.append(holder)
            cols.append(j)
            scans.append(iter(tight[holder]))
            break
        else:
            # Every tight column of the deepest row is spent: backtrack.
            scans.pop()
            rows.pop()
            if cols:
                cols.pop()
    return False


def reference_lex_smallest_on_tight(cost: np.ndarray, col_of_row: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Refine an optimal assignment to the lexicographically smallest one.

    Operates on the bipartite graph of tight edges (reduced cost ~ 0); any
    perfect matching there is optimal, so committing the smallest feasible
    column per row, in row order, yields the lexicographic minimum.
    """
    n = cost.shape[0]
    reduced = cost - u[:, None] - v[None, :]
    scale = max(1.0, float(np.abs(cost).max()))
    tight = [np.flatnonzero(row).tolist() for row in reduced <= REFERENCE_TIGHT_RTOL * scale]

    col_of = col_of_row.tolist()
    row_of = [-1] * n
    for r, c in enumerate(col_of):
        row_of[c] = r
    frozen = bytearray(n)  # columns committed to rows already walked

    for i in range(n):
        current = col_of[i]
        for j in tight[i]:
            if j >= current:
                break  # ascending scan; the current column wins from here on
            if frozen[j]:
                continue
            holder = row_of[j]
            # Tentatively hand j to row i; the displaced row must re-augment.
            col_of[i] = j
            row_of[j] = i
            row_of[current] = -1
            col_of[holder] = -1
            visited = bytearray(frozen)  # the path may not take j back
            visited[j] = 1
            if _reference_augment(holder, tight, row_of, col_of, visited):
                current = j
                break
            # Roll back.
            col_of[i] = current
            row_of[current] = i
            row_of[j] = holder
            col_of[holder] = j
        frozen[current] = 1

    return np.array(col_of, dtype=np.int64)


def reference_solve_min(cost: np.ndarray):
    """``solve_min`` of the pinned reference solver (no input checks)."""
    col_of_row, u, v = reference_shortest_augmenting_paths(cost)
    p = reference_lex_smallest_on_tight(cost, col_of_row, u, v)
    return p, float(np.sum(cost[np.arange(cost.shape[0]), p]))


def reference_weight_match(ws_a, ws_b, graph, *, max_sweeps=50, seed=0):
    """The matcher's sweep loop without its skip rule: every free variable
    is re-solved on every visit.  Returns (assignment, trace, changed,
    n_sweeps)."""
    assignment = graph.identity_assignment()
    rng = np.random.default_rng(seed)
    free = graph.free_variables()
    pairings = {
        var_id: pair_heads(
            tuple(ws_a[f"{var_id}.{proj}.weight"] for proj in ("q", "k", "v")),
            tuple(ws_b[f"{var_id}.{proj}.weight"] for proj in ("q", "k", "v")),
            graph.arch.n_heads,
        )
        for var_id in free
        if graph.variables[var_id].is_attention
    }
    trace, changed_per_sweep = [], []
    for _ in range(max_sweeps):
        changed = 0
        for var_id in [free[i] for i in rng.permutation(len(free))]:
            if var_id in pairings:
                perm = solve_attention_variable(var_id, ws_a, ws_b, graph, assignment, pairings[var_id])
            else:
                perm = solve_plain_variable(var_id, ws_a, ws_b, graph, assignment)
            changed += not np.array_equal(perm, assignment.perms[var_id])
            assignment.perms[var_id] = perm
        trace.append(matching_objective(ws_a, ws_b, assignment, graph))
        changed_per_sweep.append(changed)
        if changed == 0:
            break
    return assignment, trace, changed_per_sweep, len(trace)


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


def dense_block_permutation(inter, intras) -> np.ndarray:
    """Kronecker-structured dense form: sum_i E(i, inter[i]) x intra_i."""
    h, d_k = len(inter), len(intras[0])
    out = np.zeros((h * d_k, h * d_k))
    for i in range(h):
        e = np.zeros((h, h))
        e[i, inter[i]] = 1.0
        out += np.kron(e, dense_perm_matrix(intras[i]))
    return out


def block_lists(parts):
    """A ``PermutationAssignment.block`` result as plain lists, so that two
    results compare with ``==``; None stays None."""
    if parts is None:
        return None
    inter, intras = parts
    return list(map(int, inter)), [list(map(int, intra)) for intra in intras]


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


def verify_attention_equivariance(
    wq, wk, wv, perm, n_heads: int, x: np.ndarray, inter=None, score_tol: float = 1e-12
) -> float:
    """Max |O' - O P| where O' is the output after permuting each projection's
    output columns by ``perm``.

    For a permutation that keeps each head's units together this deviation
    is float noise.  Given its head pairing ``inter``, the per-head scores of
    the permuted model must also equal the source head's scores (asserted
    against ``score_tol``).  For an arbitrary d_m permutation that crosses
    head boundaries the deviation is large - that failure mode is the point
    of keeping head structure.
    """
    inv = np.argsort(np.asarray(perm, dtype=np.int64))

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
