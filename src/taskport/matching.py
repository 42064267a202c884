"""Coordinate-descent weight matching over a coupling graph.

One variable is re-solved at a time with every other permutation held fixed.
Every variable has one value matrix, which sums the row/column couplings of
every weight tensor the variable touches: a plain variable solves it as one
assignment problem, an attention variable solves its d_k x d_k blocks of the
head pairs that the spectral stage matched.  Sweeps repeat in seeded random
order until a full sweep changes nothing (or a cap is hit).
The objective being ascended is the summed Frobenius inner product between
model B's weight matrices and the fully permuted model A.

A value matrix reads only A, B and the permutations of the variable's
neighbours (the other variables acting on one of its 2-D tensors), so a visit
that finds no neighbour changed since the variable's last solve is skipped:
the solve would rebuild a bit-identical matrix and return the same answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import align_within_heads, pair_heads
from .checkpoint import WeightSet, require_finite, require_same_arch
from .coupling import CouplingGraph, permuted_tensor
from .lap import solve_max
from .perms import Perm, PermutationAssignment


@dataclass
class MatchResult:
    assignment: PermutationAssignment
    trace: list[float]
    changed: list[int]
    converged: bool
    n_sweeps: int


def _value_matrix(
    var_id: str,
    ws_a: WeightSet,
    ws_b: WeightSet,
    graph: CouplingGraph,
    assignment: PermutationAssignment,
) -> np.ndarray:
    """Value matrix of ``var_id`` with all other permutations fixed: entry
    (i, j) is the objective's gain from gathering A's unit j into B's unit i.
    Sums B W-tilde^T over row couplings and B^T W-tilde over column couplings
    (W-tilde carries the fixed neighbors); 1-D tensors are never priced."""
    value = None  # every variable indexes a 2-D tensor, so the first product starts the sum
    for name, (rows, cols) in graph.matrices.items():
        if var_id not in (rows, cols):
            continue
        tilde = permuted_tensor(ws_a, graph, assignment, name, var_id)
        term = ws_b[name] @ tilde.T if rows == var_id else ws_b[name].T @ tilde
        if value is None:
            value = term
        else:
            value += term
    return value


def _neighbours(var_id: str, graph: CouplingGraph) -> list[str]:
    """The other variables acting on one of ``var_id``'s 2-D tensors: the
    only permutations its value matrix reads."""
    owners = (v for pair in graph.matrices.values() if var_id in pair for v in pair)
    return list(dict.fromkeys(v for v in owners if v not in (None, var_id)))


def solve_plain_variable(
    var_id: str,
    ws_a: WeightSet,
    ws_b: WeightSet,
    graph: CouplingGraph,
    assignment: PermutationAssignment,
) -> Perm:
    """Best permutation for one non-attention variable, all others fixed."""
    perm, _ = solve_max(_value_matrix(var_id, ws_a, ws_b, graph, assignment))
    return perm


def solve_attention_variable(
    var_id: str,
    ws_a: WeightSet,
    ws_b: WeightSet,
    graph: CouplingGraph,
    assignment: PermutationAssignment,
    inter: Perm,
) -> Perm:
    """Best within-head permutations for one attention variable under the
    head pairing ``inter`` (from ``pair_heads``), all others fixed: an exact
    coordinate ascent on the matched head blocks of its value matrix."""
    value = _value_matrix(var_id, ws_a, ws_b, graph, assignment)
    return align_within_heads(value, graph.arch.n_heads, inter)


def matching_objective(
    ws_a: WeightSet,
    ws_b: WeightSet,
    assignment: PermutationAssignment,
    graph: CouplingGraph,
) -> float:
    """Sum of Frobenius inner products between B's weight matrices and the
    fully permuted A, one tensor at a time in canonical order.  Biases and
    layernorm vectors stay out, matching the per-variable value matrices."""
    require_same_arch(ws_a.arch, ws_b.arch, "models to score")
    require_same_arch(ws_a.arch, graph.arch, "model and coupling graph")
    graph.check_assignment(assignment)
    total = 0.0
    for name in graph.matrices:
        total += float(np.sum(ws_b[name] * permuted_tensor(ws_a, graph, assignment, name)))
    return total


def weight_match(
    ws_a: WeightSet,
    ws_b: WeightSet,
    graph: CouplingGraph,
    *,
    max_sweeps: int = 50,
    seed: int = 0,
    initial: PermutationAssignment | None = None,
) -> MatchResult:
    """Align model A's hidden units onto model B's.

    Visits the free variables in a fresh order drawn from ``seed`` each
    sweep, re-solving each against the others' current values; stops after
    the first sweep with zero changes, or after ``max_sweeps`` (at least 1).  A visit is skipped when no neighbour of
    the variable has changed since its last solve, which would return the
    same answer.  Head pairing depends only on the raw weights (spectra
    ignore the incoming column permutation), so it is solved once per
    attention variable before the first sweep; with it fixed, the per-sweep
    objective trace is non-decreasing.
    """
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    require_same_arch(ws_a.arch, ws_b.arch, "models to match")
    require_same_arch(ws_a.arch, graph.arch, "model and coupling graph")
    for ws in (ws_a, ws_b):
        for name, arr in ws.tensors.items():
            require_finite(name, arr)

    assignment = graph.identity_assignment() if initial is None else initial.copy()
    graph.check_assignment(assignment)
    rng = np.random.default_rng(seed)
    free = graph.free_variables()
    pairings = {}
    for var_id in free:
        if graph.variables[var_id].is_attention:
            # the matrices whose rows the variable permutes, in graph order: q, k, v
            qkv = [name for name, (rows, _) in graph.matrices.items() if rows == var_id]
            pairings[var_id] = pair_heads(
                tuple(ws_a[name] for name in qkv),
                tuple(ws_b[name] for name in qkv),
                graph.arch.n_heads,
            )
            assignment.heads[var_id] = graph.arch.n_heads

    neighbours = {var_id: _neighbours(var_id, graph) for var_id in free}
    version = dict.fromkeys(graph.variables, 0)  # how often each variable changed
    solved_at: dict[str, tuple[int, ...]] = {}  # neighbour versions at the last solve

    trace: list[float] = []
    changed_per_sweep: list[int] = []
    converged = False
    sweeps_done = 0
    for _ in range(max_sweeps):
        order = [free[i] for i in rng.permutation(len(free))]
        changed = 0
        for var_id in order:
            stamp = tuple(version[other] for other in neighbours[var_id])
            if solved_at.get(var_id) == stamp:
                continue
            solved_at[var_id] = stamp
            if var_id in pairings:
                perm = solve_attention_variable(var_id, ws_a, ws_b, graph, assignment, pairings[var_id])
            else:
                perm = solve_plain_variable(var_id, ws_a, ws_b, graph, assignment)
            moved = not np.array_equal(perm, assignment.perms[var_id])
            assignment.perms[var_id] = perm
            if moved:
                changed += 1
                version[var_id] += 1
        sweeps_done += 1
        trace.append(matching_objective(ws_a, ws_b, assignment, graph))
        changed_per_sweep.append(changed)
        if changed == 0:
            converged = True
            break

    return MatchResult(
        assignment=assignment,
        trace=trace,
        changed=changed_per_sweep,
        converged=converged,
        n_sweeps=sweeps_done,
    )


def recovery_fraction(
    recovered: PermutationAssignment,
    planted: PermutationAssignment,
    graph: CouplingGraph,
) -> float:
    """Fraction of permuted indices of the free variables recovered exactly."""
    graph.check_assignment(recovered)
    graph.check_assignment(planted)
    total = 0
    hits = 0
    for var_id in graph.free_variables():
        got = recovered.perms[var_id]
        want = planted.perms[var_id]
        total += len(want)
        hits += int(np.sum(got == want))
    return hits / total if total else 1.0


def format_trace(result: MatchResult) -> str:
    """Per-sweep text trace: sweep index, objective, changed variables."""
    lines = ["# sweep objective changed"]
    for idx, (obj, chg) in enumerate(zip(result.trace, result.changed), start=1):
        lines.append(f"{idx} {obj:.17g} {chg}")
    return "\n".join(lines) + "\n"
