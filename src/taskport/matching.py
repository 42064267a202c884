"""Coordinate-descent weight matching over a coupling graph.

One variable is re-solved at a time with every other permutation held fixed:
plain variables reduce to a square assignment problem whose value matrix sums
the row/column couplings of every weight tensor the variable touches;
attention variables go through the two-level head alignment.  Sweeps repeat
in seeded random order until a full sweep changes nothing (or a cap is hit).
The objective being ascended is the summed Frobenius inner product between
model B's weight matrices and the fully permuted model A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import align_within_heads, pair_heads
from .checkpoint import WeightSet, require_same_arch
from .coupling import Axis, CouplingGraph, apply_assignment, permuted_tensor
from .errors import NonFiniteTensorError, UnknownVariableError
from .lap import solve_max
from .linalg import frobenius_inner
from .perms import BlockPermutation, Perm, PermutationAssignment


@dataclass(frozen=True)
class MatchOptions:
    """Knobs for the sweep.

    ``include_w0_in_intra`` adds the output-projection column coupling to the
    within-head value matrices.  With it on, every within-head solve is an
    exact coordinate ascent of the global objective, which keeps the sweep
    trace monotone; off reproduces the bare two-input head-alignment cost.
    """

    max_sweeps: int = 50
    seed: int = 0
    p_norm: float = 2.0
    include_w0_in_intra: bool = True

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")


@dataclass
class MatchResult:
    assignment: PermutationAssignment
    trace: list[float]
    changed: list[int]
    converged: bool
    n_sweeps: int


def solve_plain_variable(
    var_id: str,
    ws_a: WeightSet,
    ws_b: WeightSet,
    graph: CouplingGraph,
    assignment: PermutationAssignment,
) -> Perm:
    """Best permutation for one non-attention variable, all others fixed.

    Sums one value matrix per coupled weight matrix: B W-tilde^T for row
    couplings, B^T W-tilde for column couplings (W-tilde carries the fixed
    neighbors).  Biases and layernorm vectors are applied by the variable but
    never priced.
    """
    var = graph.variables.get(var_id)
    if var is None:
        raise UnknownVariableError(f"variable {var_id!r} is not in the coupling graph")
    value = np.zeros((var.size, var.size))
    for app in graph.applications_of(var_id):
        if ws_a[app.tensor].ndim != 2:
            continue
        tilde = permuted_tensor(ws_a, graph, assignment, app.tensor, var_id)
        b = ws_b[app.tensor]
        if app.axis is Axis.ROWS:
            value += b @ tilde.T
        else:
            value += b.T @ tilde
    perm, _ = solve_max(value)
    return perm


def solve_attention_variable(
    var_id: str,
    ws_a: WeightSet,
    ws_b: WeightSet,
    graph: CouplingGraph,
    assignment: PermutationAssignment,
    opts: MatchOptions,
    inter: Perm,
) -> BlockPermutation:
    """Within-head alignment for one block under the head pairing ``inter``
    (from ``pair_heads``), with the current incoming stream permutation
    folded into model A's projection columns first."""
    *names, out_name = _attention_weight_names(var_id)
    a_qkv = tuple(
        permuted_tensor(ws_a, graph, assignment, name, var_id) for name in names
    )
    b_qkv = tuple(ws_b[name] for name in names)

    extra = None
    if opts.include_w0_in_intra:
        tilde = permuted_tensor(ws_a, graph, assignment, out_name, var_id)
        extra = ws_b[out_name].T @ tilde
    return align_within_heads(a_qkv, b_qkv, graph.arch.n_heads, inter, extra_value=extra)


def _attention_weight_names(var_id: str) -> list[str]:
    """The q, k, v and output-projection weight names of an attention variable."""
    block = int(var_id.split(".")[1])
    return [f"block.{block}.attn.{proj}.weight" for proj in ("q", "k", "v", "out")]


def matching_objective(
    ws_a: WeightSet,
    ws_b: WeightSet,
    assignment: PermutationAssignment,
    graph: CouplingGraph,
) -> float:
    """Sum of Frobenius inner products between B's weight matrices and the
    fully permuted A.  Biases and layernorm vectors stay out, matching the
    per-variable value matrices."""
    permuted = apply_assignment(ws_a, graph, assignment)
    total = 0.0
    for name, arr in permuted.tensors.items():
        if arr.ndim == 2:
            total += frobenius_inner(ws_b[name], arr)
    return total


def weight_match(
    ws_a: WeightSet,
    ws_b: WeightSet,
    graph: CouplingGraph,
    opts: MatchOptions = MatchOptions(),
    initial: PermutationAssignment | None = None,
) -> MatchResult:
    """Align model A's hidden units onto model B's.

    Visits the free variables in a fresh seeded-random order each sweep,
    re-solving each against the others' current values; stops after the
    first sweep with zero changes.  Head pairing depends only on the raw
    weights (spectra ignore the incoming column permutation), so it is
    solved once per attention variable before the first sweep; with it
    fixed, the per-sweep objective trace is non-decreasing.
    """
    require_same_arch(ws_a.arch, ws_b.arch, "models to match")
    require_same_arch(ws_a.arch, graph.arch, "model and coupling graph")
    for ws in (ws_a, ws_b):
        for name, arr in ws.tensors.items():
            if not np.all(np.isfinite(arr)):
                raise NonFiniteTensorError(name)

    assignment = graph.identity_assignment() if initial is None else initial.copy()
    graph.check_assignment(assignment)
    rng = np.random.default_rng(opts.seed)
    free = graph.free_variables()
    pairings = {}
    for var_id in free:
        if graph.variables[var_id].is_attention:
            qkv = _attention_weight_names(var_id)[:3]
            pairings[var_id] = pair_heads(
                tuple(ws_a[name] for name in qkv),
                tuple(ws_b[name] for name in qkv),
                graph.arch.n_heads,
                p=opts.p_norm,
            )

    trace: list[float] = []
    changed_per_sweep: list[int] = []
    converged = False
    sweeps_done = 0
    for _ in range(opts.max_sweeps):
        order = [free[i] for i in rng.permutation(len(free))]
        changed = 0
        for var_id in order:
            if graph.variables[var_id].is_attention:
                bp = solve_attention_variable(
                    var_id, ws_a, ws_b, graph, assignment, opts, pairings[var_id]
                )
                if not np.array_equal(bp.flattened(), assignment.perms[var_id]):
                    changed += 1
                assignment.set_block(var_id, bp)
            else:
                perm = solve_plain_variable(var_id, ws_a, ws_b, graph, assignment)
                if not np.array_equal(perm, assignment.perms[var_id]):
                    changed += 1
                assignment.perms[var_id] = perm
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
