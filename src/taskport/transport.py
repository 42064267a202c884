"""Task-vector arithmetic: compute a task vector and transport it onto a new base.

A task vector is the elementwise difference between a fine-tuned model and
the base it was tuned from, a ``WeightSet`` in the weights' own key space;
on disk only its container's kind marks it.  Transport permutes that vector
with an assignment matched between the old and new bases and adds it,
scaled, to the new base.  Because permutation application is linear and
index-exact, permuting the difference equals differencing the permuted
models, and one matched assignment can carry any number of task vectors.

Computing and transporting are each written once (``task_vector_tensors``,
``transported_tensors``): checked on the call, then one tensor at a time in
canonical order, reading only ``ws.arch`` and ``ws[name]``.  The in-memory
API collects them in float64, promoting a float32 weight set one tensor at a
time; the command line streams them from the float32 records of open
containers to disk, to the same bytes.  It subtracts, and adds at a factor
of 1, in float32, which gives float64's answer rounded to float32; any other
factor is applied in float64.
"""

from __future__ import annotations

import math

import numpy as np

from .checkpoint import WeightSet, require_same_arch
from .coupling import CouplingGraph, permuted_tensors
from .perms import PermutationAssignment


def task_vector_tensors(ws_finetuned, ws_base):
    """Fine-tuned minus base, one new array per tensor in canonical order,
    each computed when asked for; the architectures are checked on the call.
    Two containers' float32 records give float64's difference rounded to
    float32, bit for bit: 53 >= 2 * 24 + 2 bits (Figueroa 1995)."""
    require_same_arch(ws_finetuned.arch, ws_base.arch, "fine-tuned and base models")
    return (ws_finetuned[name] - ws_base[name] for name in ws_base.arch.tensor_shapes())


class _InFloat64:
    """A weight set read one tensor at a time, promoted to float64."""

    def __init__(self, ws: WeightSet):
        self.arch, self._ws = ws.arch, ws

    def __getitem__(self, name: str) -> np.ndarray:
        return np.asarray(self._ws[name], dtype=np.float64)


def compute_task_vector(ws_finetuned: WeightSet, ws_base: WeightSet) -> WeightSet:
    """Elementwise difference fine-tuned minus base, in float64."""
    diffs = task_vector_tensors(_InFloat64(ws_finetuned), _InFloat64(ws_base))
    return WeightSet(ws_base.arch, dict(zip(ws_base.tensors, diffs)))


def transported_tensors(ws_base, tv, graph: CouplingGraph, assignment: PermutationAssignment, scaling=1.0):
    """``base + factor * pi(tv)``, one new array per tensor in canonical order.
    ``scaling`` is one finite factor >= 0, or one per block; the embedding
    takes the first block's and the classifier the last's.  Every input is
    checked on the call, before any tensor is read.  A factor of 1 adds in
    the inputs' dtype, which for float32 records is float64's sum rounded to
    float32, bit for bit; any other factor multiplies and adds in float64."""
    require_same_arch(ws_base.arch, tv.arch, "base model and task vector")
    n_blocks = ws_base.arch.n_blocks
    factors = [float(scaling)] * n_blocks if np.ndim(scaling) == 0 else [float(f) for f in scaling]
    if len(factors) != n_blocks:
        raise ValueError(f"per-block scaling needs {n_blocks} factors, got {len(factors)}")
    if not all(math.isfinite(f) and f >= 0 for f in factors):
        raise ValueError(f"scaling factors must be finite and non-negative, got {scaling}")
    moved = permuted_tensors(tv, graph, assignment, scratch={})  # checks the graph's arch and the assignment

    def tensors():
        for name in ws_base.arch.tensor_shapes():  # next(): no reference to the moved tensor outlives the sum
            part = name.split(".")
            factor = factors[int(part[1]) if part[0] == "block" else -1 if part[0] == "head" else 0]
            if factor == 1.0:  # as exact as the difference: 53 >= 2 * 24 + 2 bits (Figueroa 1995)
                out = np.add(next(moved), ws_base[name])
            else:
                out = np.multiply(next(moved), factor, dtype=np.float64)  # float64 for a float32 record too (NEP 50)
                out += ws_base[name]  # the same sum as base + out: float addition commutes
            yield out
            del out  # the writer has written it: free it before the next sum

    return tensors()


def transport(
    ws_base: WeightSet,
    tv: WeightSet,
    graph: CouplingGraph,
    assignment: PermutationAssignment,
    scaling=1.0,
) -> WeightSet:
    """New base plus the permuted task vector scaled by ``scaling``, as
    ``transported_tensors`` defines it, in float64.

    Never re-matches: the assignment is taken as given, so a single matching
    run serves any number of vectors.
    """
    ported = transported_tensors(_InFloat64(ws_base), _InFloat64(tv), graph, assignment, scaling)
    return WeightSet(ws_base.arch, dict(zip(ws_base.tensors, ported)))
