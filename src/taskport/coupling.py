"""Coupling graph: which permutation variable acts on which tensor axis.

The graph fixes, for a given architecture, the complete bookkeeping needed to
permute a weight set without changing its function:

* each 2-D tensor has its rows owned by at most one variable (applied as the
  forward matrix ``P``) and its columns by at most one variable (applied as
  the transpose ``P^T``);
* 1-D tensors (biases, layernorm gains) ride along with their row variable;
* the classifier rows and the model input columns are never permuted.

The graph is a policy over the one tensor table, ``ArchSpec.tensor_axes()``,
and is itself a wiring table built in one pass over it: ``axes`` gives every
axis that the tensor table labels with a hidden-unit set its one owning
variable, chosen by the residual mode, and ``matrices`` is its 2-D part.
Every reader - the index moves, the matcher, the skip permutations and the
printed table - uses that table.

``permuted_tensor`` is the one place that rule is turned into index moves:
the matcher's value matrices go through it, and so does ``permuted_tensors``,
which ``apply_assignment`` (so verification) collects and the command line's
``apply`` streams to disk.  A task vector moves exactly as the weights do.

Residual handling comes in two modes.  ``compose`` keeps an independent
variable for the attention output and the MLP output of every block and
derives, per block, the two skip-connection permutations that keep both
residual addends coherent.  ``tie`` aliases the whole residual stream -
embedding output, attention output, MLP output, block after block - to one
shared variable, so the permuted model keeps plain identity skips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import ArchSpec, WeightSet, require_same_arch
from .errors import ArchMismatchError, IncompleteAssignmentError, UnknownVariableError
from .perms import (
    Perm,
    PermutationAssignment,
    check_permutation,
    compose,
    identity,
    inverse,
    join_heads,
    random_permutation,
)

RESIDUAL_COMPOSE = "compose"
RESIDUAL_TIE = "tie"


@dataclass(frozen=True)
class PermutationVariable:
    id: str
    size: int
    is_attention: bool = False


@dataclass
class CouplingGraph:
    """The variables and one wiring table: ``axes[tensor]`` names, for every
    tensor of ``arch.tensor_axes()`` in manifest order, the variable acting
    on each axis (``None`` where the axis is fixed); ``matrices`` holds its
    2-D entries as ``(row variable, column variable)``."""

    arch: ArchSpec
    residual_mode: str
    variables: dict[str, PermutationVariable]
    axes: dict[str, tuple[str | None, ...]]
    pinned: frozenset[str]

    def __post_init__(self):
        self.matrices = {name: owners for name, owners in self.axes.items() if len(owners) == 2}

    # -- structure queries ---------------------------------------------------

    def free_variables(self) -> list[str]:
        return [v for v in self.variables if v not in self.pinned]

    # -- assignments -----------------------------------------------------------

    def identity_assignment(self) -> PermutationAssignment:
        a = PermutationAssignment()
        for var in self.variables.values():
            a.perms[var.id] = identity(var.size)
            if var.is_attention:
                a.heads[var.id] = self.arch.n_heads
        return a

    def random_assignment(self, rng: np.random.Generator) -> PermutationAssignment:
        """Random structured assignment; pinned variables stay identity."""
        a = self.identity_assignment()
        for var in self.variables.values():
            if var.id in self.pinned:
                continue
            if var.is_attention:
                inter = random_permutation(self.arch.n_heads, rng)
                intras = [random_permutation(self.arch.head_dim, rng) for _ in range(self.arch.n_heads)]
                a.perms[var.id] = join_heads(inter, intras)
            else:
                a.perms[var.id] = random_permutation(var.size, rng)
        return a

    def check_assignment(self, assignment: PermutationAssignment) -> None:
        missing = [v for v in self.variables if v not in assignment.perms]
        if missing:
            raise IncompleteAssignmentError(f"assignment is missing variables: {missing}")
        unknown = [v for v in assignment.perms if v not in self.variables]
        if unknown:
            raise UnknownVariableError(f"assignment names unknown variables: {unknown}")
        for var_id, var in self.variables.items():
            p = check_permutation(assignment.perms[var_id], size=var.size)
            if var.is_attention and np.diff(p.reshape(self.arch.n_heads, -1) // self.arch.head_dim, axis=1).any():
                raise ArchMismatchError(f"{var_id!r} mixes units across its {self.arch.n_heads} attention heads")
        for var_id, n_heads in assignment.heads.items():
            var = self.variables.get(var_id)
            if var is None or not var.is_attention or n_heads != self.arch.n_heads:
                raise ArchMismatchError(f"{var_id!r} has {n_heads} heads; attention has {self.arch.n_heads}")

    def residual_perms(self, assignment: PermutationAssignment) -> list[tuple[Perm, Perm]]:
        """Per block, the two skip permutations of the permuted model.

        The first skip becomes ``p_in^-1 ∘ p_w0`` (undo the incoming stream
        permutation, then re-apply the attention-output one) and the second
        ``p_w0^-1 ∘ p_w2``.  The wiring is read off the table: p_in
        permutes the columns of the block's q projection, p_w0 the rows of
        its attention output and p_w2 the rows of fc2.  In tie mode all three
        are the one stream variable, so both skips are identities.
        """
        perms = []
        for i in range(self.arch.n_blocks):
            b = f"block.{i}"
            p_in = assignment.perms[self.matrices[f"{b}.attn.q.weight"][1]]
            p_w0 = assignment.perms[self.matrices[f"{b}.attn.out.weight"][0]]
            p_w2 = assignment.perms[self.matrices[f"{b}.mlp.fc2.weight"][0]]
            skip_attn = compose(inverse(p_in), p_w0)
            skip_mlp = compose(inverse(p_w0), p_w2)
            perms.append((skip_attn, skip_mlp))
        return perms

    def dump_table(self) -> str:
        """Human-readable wiring table, one line per wired (tensor, axis)."""
        lines = [f"# residual_mode={self.residual_mode} arch={self.arch.to_json_dict()}"]
        for var in self.variables.values():
            tag = " pinned" if var.id in self.pinned else ""
            kind = " attention" if var.is_attention else ""
            lines.append(f"var {var.id} size={var.size}{kind}{tag}")
        for name, owners in self.axes.items():
            for (axis, op), var in zip((("rows", "P"), ("cols", "PT")), owners):
                if var is not None:
                    lines.append(f"{name:<28} {axis:<4} <- {op:<2} {var}")
        return "\n".join(lines)


def build_coupling_graph(
    arch: ArchSpec,
    residual_mode: str = RESIDUAL_COMPOSE,
    pin_embedding: bool = True,
) -> CouplingGraph:
    """Wire the permutation variables of a transformer weight set: one
    variable per unit id of ``arch.tensor_axes()``, except that ``tie`` maps
    every ``stream`` unit set to the one ``stream`` variable.

    ``pin_embedding`` keeps the matcher from moving the embedding output (the
    model's first hidden representation), which is what transport onto a
    positionally meaningful input expects; unpin it for pure re-basin
    experiments.  Pinning decides only what ``weight_match`` may move, what
    ``random_assignment`` plants, which variables ``recovery_fraction`` counts
    and the ``pinned`` tag of ``dump_table``: every application of an
    assignment applies whatever permutation it holds for every variable.
    """
    if residual_mode not in (RESIDUAL_COMPOSE, RESIDUAL_TIE):
        raise ValueError(f"residual_mode must be 'compose' or 'tie', got {residual_mode!r}")
    variables: dict[str, PermutationVariable] = {}
    axes: dict[str, tuple[str | None, ...]] = {}
    for name, shape, units in arch.tensor_axes():
        owners = []
        for length, unit in zip(shape, units):
            var_id = None
            if unit is not None:
                var_id, kind = unit
                if kind == "stream" and residual_mode == RESIDUAL_TIE:
                    var_id = "stream"
                variables.setdefault(var_id, PermutationVariable(var_id, length, kind == "attn"))
            owners.append(var_id)
        axes[name] = tuple(owners)
    pinned = frozenset({axes["embed.weight"][0]} if pin_embedding else set())  # the embedding's rows
    return CouplingGraph(arch, residual_mode, variables, axes, pinned)


def permuted_tensor(
    ws,
    graph: CouplingGraph,
    assignment: PermutationAssignment,
    name: str,
    skip_variable: str | None = None,
    scratch: dict | None = None,
) -> np.ndarray:
    """Tensor ``name`` of ``ws`` with every coupled permutation applied except
    those of ``skip_variable``.

    Rows are gathered by ``p`` (``P @ W``) and so are columns (``W @ P^T``),
    where ``P`` has a one at ``(i, p[i])``; 1-D tensors only have rows.  The
    result may share memory with ``ws``.  Given a ``scratch`` dict, the last
    move writes into the buffer kept there for the tensor's dtype, which the
    next such call overwrites; only a checked assignment may be given one.
    """
    arr = ws[name]
    moves = [(axis, var) for axis, var in enumerate(graph.axes[name]) if var is not None and var != skip_variable]
    for k, (axis, var) in enumerate(moves):
        last = scratch is not None and k == len(moves) - 1
        if last and scratch.get(arr.dtype, np.empty(0)).size < arr.size:
            scratch[arr.dtype] = np.empty(arr.size, arr.dtype)
        out = scratch[arr.dtype][: arr.size].reshape(arr.shape) if last else None
        # "clip" fills ``out`` in place; "raise" would buffer a copy
        arr = np.take(arr, assignment.perms[var], axis=axis, out=out, mode="raise" if out is None else "clip")
    return arr


def permuted_tensors(ws, graph: CouplingGraph, assignment: PermutationAssignment, scratch: dict | None = None):
    """Every tensor of ``ws`` permuted, in canonical order, each computed when
    asked for; the architecture and the assignment are checked on the call.
    ``ws`` is read only as ``ws.arch`` and ``ws[name]``, so an open
    ``ContainerReader`` serves too; its float32 records move exactly.  With a
    ``scratch`` dict, each tensor is a reused buffer, valid until the next."""
    require_same_arch(ws.arch, graph.arch, "weights and coupling graph")
    graph.check_assignment(assignment)
    return (permuted_tensor(ws, graph, assignment, name, scratch=scratch) for name in ws.arch.tensor_shapes())


def apply_assignment(ws: WeightSet, graph: CouplingGraph, assignment: PermutationAssignment) -> WeightSet:
    """Permute a model or a task vector according to the graph's wiring.

    Pure index moves: exact, invertible, and linear over the tensor values.
    Every tensor has an axis that a variable owns, so ``np.take`` makes each
    tensor of the result a new array the caller owns.
    """
    return WeightSet(ws.arch, dict(zip(ws.arch.tensor_shapes(), permuted_tensors(ws, graph, assignment))))


def inverse_assignment(graph: CouplingGraph, assignment: PermutationAssignment) -> PermutationAssignment:
    """Variable-wise inverse; applying it after the original restores any
    input.  The inverse of a vector that keeps each head's units together
    keeps them together too, so the head counts carry over."""
    graph.check_assignment(assignment)
    perms = {var_id: inverse(p) for var_id, p in assignment.perms.items()}
    return PermutationAssignment(perms, dict(assignment.heads))
