"""Task-vector arithmetic: compute, merge, and transport onto a new base.

A task vector is the elementwise difference between a fine-tuned model and
the base it was tuned from.  Transport permutes that vector with an
assignment matched between the old and new bases and adds it, scaled, to the
new base.  Because permutation application is linear and index-exact,
permuting the difference equals differencing the permuted models, and one
matched assignment can carry any number of task vectors.
"""

from __future__ import annotations

import math

import numpy as np

from .checkpoint import TaskVector, WeightSet, require_same_arch
from .coupling import CouplingGraph, apply_assignment
from .perms import PermutationAssignment


def compute_task_vector(ws_finetuned: WeightSet, ws_base: WeightSet) -> TaskVector:
    """Elementwise difference fine-tuned minus base."""
    require_same_arch(ws_finetuned.arch, ws_base.arch, "fine-tuned and base models")
    deltas = {
        name: ws_finetuned.tensors[name] - ws_base.tensors[name] for name in ws_base.tensors
    }
    return TaskVector(ws_base.arch, deltas)


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
    n_blocks = ws_base.arch.n_blocks
    if np.ndim(scaling) == 0:
        factors = [float(scaling)] * n_blocks
    else:
        factors = [float(f) for f in scaling]
        if len(factors) != n_blocks:
            raise ValueError(f"per-block scaling needs {n_blocks} factors, got {len(factors)}")
    if not all(math.isfinite(f) and f >= 0 for f in factors):
        raise ValueError(f"scaling factors must be finite and non-negative, got {scaling}")
    # apply_assignment returns arrays nobody else holds, so the scaled sum is
    # formed in them: the same operations in the same order as
    # ``base + factor * delta``, without two more model-sized buffers.
    out = apply_assignment(tv, graph, assignment).tensors
    for name, delta in out.items():
        if name.startswith("block."):
            factor = factors[int(name.split(".")[1])]
        else:
            factor = factors[-1] if name.startswith("head.") else factors[0]
        np.multiply(factor, delta, out=delta)
        np.add(ws_base.tensors[name], delta, out=delta)
    return WeightSet(ws_base.arch, out)


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
