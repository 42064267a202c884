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
from dataclasses import dataclass

import numpy as np

from .checkpoint import ArchSpec, TaskVector, WeightSet, require_same_arch
from .coupling import CouplingGraph, apply_assignment
from .perms import PermutationAssignment


@dataclass(frozen=True)
class ScalingSpec:
    """Scalar or per-block finite, non-negative scaling for a transported vector.

    In per-block form, tensors of block i scale by ``factors[i]``; the
    embedding scales with the first block and the classifier with the last.
    """

    factors: tuple[float, ...]
    per_block: bool

    def __post_init__(self):
        if not all(math.isfinite(f) and f >= 0 for f in self.factors):
            raise ValueError(f"scaling factors must be finite and non-negative, got {self.factors}")
        if not self.per_block and len(self.factors) != 1:
            raise ValueError("scalar scaling takes exactly one factor")

    @staticmethod
    def uniform(alpha: float) -> "ScalingSpec":
        return ScalingSpec((float(alpha),), per_block=False)

    @staticmethod
    def per_block_factors(alphas) -> "ScalingSpec":
        return ScalingSpec(tuple(float(a) for a in alphas), per_block=True)

    def validate_for(self, arch: ArchSpec) -> None:
        if self.per_block and len(self.factors) != arch.n_blocks:
            raise ValueError(
                f"per-block scaling needs {arch.n_blocks} factors, got {len(self.factors)}"
            )

    def factor_for(self, tensor_name: str, arch: ArchSpec) -> float:
        if not self.per_block:
            return self.factors[0]
        if tensor_name.startswith("embed."):
            return self.factors[0]
        if tensor_name.startswith("head."):
            return self.factors[-1]
        block = int(tensor_name.split(".")[1])
        return self.factors[block]


def _as_scaling(s) -> ScalingSpec:
    if isinstance(s, ScalingSpec):
        return s
    return ScalingSpec.uniform(float(s))


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
    """New base plus the permuted, scaled task vector.

    Never re-matches: the assignment is taken as given, so a single matching
    run serves any number of vectors.
    """
    require_same_arch(ws_base.arch, tv.arch, "base model and task vector")
    require_same_arch(ws_base.arch, graph.arch, "base model and coupling graph")
    spec = _as_scaling(scaling)
    spec.validate_for(ws_base.arch)
    # apply_assignment returns arrays nobody else holds, so the scaled sum is
    # formed in them: the same operations in the same order as
    # ``base + factor * delta``, without two more model-sized buffers.
    out = apply_assignment(tv, graph, assignment).tensors
    for name, delta in out.items():
        np.multiply(spec.factor_for(name, ws_base.arch), delta, out=delta)
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
