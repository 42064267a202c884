"""Data-free transformer re-basin and task-vector transport.

Permutes the hidden units of one transformer checkpoint onto another's basin
by structured matching - spectrally paired attention heads, within-head unit
assignment, residual-aware propagation - then carries fine-tuning deltas
(task vectors) from the old base to the new one without any data.
"""

from .checkpoint import (
    ArchSpec,
    TaskVector,
    WeightSet,
    read_checkpoint,
    read_permutation_assignment,
    read_task_vector,
    write_checkpoint,
    write_permutation_assignment,
    write_task_vector,
)
from .coupling import (
    CouplingGraph,
    apply_assignment,
    build_coupling_graph,
    inverse_assignment,
)
from .attention import (
    align_within_heads,
    inter_head_distance_matrix,
    pair_heads,
    split_heads,
)
from .lap import solve_max, solve_min
from .matching import MatchResult, matching_objective, recovery_fraction, weight_match
from .model import (
    EvalBatch,
    LmcCurve,
    batch_loss,
    forward,
    init_random,
    lmc_curve,
    loss_and_grads,
    make_blob_batch,
    read_eval_batch,
    train_toy,
    verify_equivalence,
    write_eval_batch,
)
from .perms import PermutationAssignment, compose, identity, inverse, join_heads
from .transport import compute_task_vector, merge_task_vectors, transport

__version__ = "0.1.0"

__all__ = [
    "ArchSpec",
    "CouplingGraph",
    "EvalBatch",
    "LmcCurve",
    "MatchResult",
    "PermutationAssignment",
    "TaskVector",
    "WeightSet",
    "align_within_heads",
    "apply_assignment",
    "batch_loss",
    "build_coupling_graph",
    "compose",
    "compute_task_vector",
    "forward",
    "identity",
    "init_random",
    "inter_head_distance_matrix",
    "inverse",
    "inverse_assignment",
    "join_heads",
    "lmc_curve",
    "loss_and_grads",
    "make_blob_batch",
    "matching_objective",
    "merge_task_vectors",
    "pair_heads",
    "read_checkpoint",
    "read_eval_batch",
    "read_permutation_assignment",
    "read_task_vector",
    "recovery_fraction",
    "solve_max",
    "solve_min",
    "split_heads",
    "train_toy",
    "transport",
    "verify_equivalence",
    "weight_match",
    "write_checkpoint",
    "write_eval_batch",
    "write_permutation_assignment",
    "write_task_vector",
]
