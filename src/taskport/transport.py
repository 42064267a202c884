"""Task-vector arithmetic: compute, merge, and transport onto a new base.

A task vector is the elementwise difference between a fine-tuned model and
the base it was tuned from.  Transport permutes that vector with an
assignment matched between the old and new bases and adds it, scaled, to the
new base.  Because permutation application is linear and index-exact,
permuting the difference equals differencing the permuted models, and one
matched assignment can carry any number of task vectors.

Computing and transporting are each written once per tensor
(``task_vector_tensor``, ``transported_tensor``) and read their inputs only
as ``ws[name]``, so whole weight sets and the command line's
one-tensor-at-a-time readers share them.
"""

from __future__ import annotations

import math

import numpy as np

from .checkpoint import TaskVector, WeightSet, require_same_arch
from .coupling import CouplingGraph, permuted_tensor
from .perms import PermutationAssignment


def block_factors(scaling, n_blocks: int) -> list[float]:
    """``scaling`` - one finite factor >= 0, or a sequence of one such
    factor per block - as one factor per block."""
    factors = [float(scaling)] * n_blocks if np.ndim(scaling) == 0 else [float(f) for f in scaling]
    if len(factors) != n_blocks:
        raise ValueError(f"per-block scaling needs {n_blocks} factors, got {len(factors)}")
    if not all(math.isfinite(f) and f >= 0 for f in factors):
        raise ValueError(f"scaling factors must be finite and non-negative, got {scaling}")
    return factors


def task_vector_tensor(ws_finetuned, ws_base, name: str) -> np.ndarray:
    """Tensor ``name`` of fine-tuned minus base, as a new array."""
    return ws_finetuned[name] - ws_base[name]


def transported_tensor(ws_base, tv, graph: CouplingGraph, assignment: PermutationAssignment,
                       factors: list[float], name: str) -> np.ndarray:
    """Tensor ``name`` of ``base + factor * pi(tv)``, as a new array, with
    the factor of its block (the first for the embedding, the last for the
    classifier)."""
    if name.startswith("block."):
        factor = factors[int(name.split(".")[1])]
    else:
        factor = factors[-1] if name.startswith("head.") else factors[0]
    out = factor * permuted_tensor(tv, graph, assignment, name)
    out += ws_base[name]  # the same sum as base + out: float addition commutes
    return out


def compute_task_vector(ws_finetuned: WeightSet, ws_base: WeightSet) -> TaskVector:
    """Elementwise difference fine-tuned minus base."""
    require_same_arch(ws_finetuned.arch, ws_base.arch, "fine-tuned and base models")
    return TaskVector(
        ws_base.arch, {name: task_vector_tensor(ws_finetuned, ws_base, name) for name in ws_base.tensors}
    )


def transport(
    ws_base: WeightSet,
    tv: TaskVector,
    graph: CouplingGraph,
    assignment: PermutationAssignment,
    scaling=1.0,
) -> WeightSet:
    """New base plus the permuted task vector scaled by ``scaling``: one
    finite factor >= 0, or a sequence of one such factor per block.  Per
    block, the embedding scales with the first block and the classifier with
    the last.

    Never re-matches: the assignment is taken as given, so a single matching
    run serves any number of vectors.
    """
    require_same_arch(ws_base.arch, tv.arch, "base model and task vector")
    require_same_arch(ws_base.arch, graph.arch, "base model and coupling graph")
    factors = block_factors(scaling, ws_base.arch.n_blocks)
    graph.check_assignment(assignment)
    return WeightSet(
        ws_base.arch,
        {name: transported_tensor(ws_base, tv, graph, assignment, factors, name) for name in ws_base.tensors},
    )


def merge_task_vectors(task_vectors: list[TaskVector], weights: list[float]) -> TaskVector:
    """Weighted elementwise sum of task vectors sharing one key space."""
    if not task_vectors:
        raise ValueError("need at least one task vector")
    if len(task_vectors) != len(weights):
        raise ValueError(f"{len(task_vectors)} vectors but {len(weights)} weights")
    arch = task_vectors[0].arch
    for tv in task_vectors[1:]:
        require_same_arch(arch, tv.arch, "task vectors to merge")
    merged = {
        name: sum(w * tv.tensors[name] for tv, w in zip(task_vectors, weights))
        for name in task_vectors[0].tensors
    }
    return TaskVector(arch, merged)
