"""Coupling graph: which permutation variable acts on which tensor axis.

The graph fixes, for a given architecture, the complete bookkeeping needed to
permute a weight set without changing its function:

* each 2-D tensor has its rows owned by at most one variable (applied as the
  forward matrix ``P``) and its columns by at most one variable (applied as
  the transpose ``P^T``);
* 1-D tensors (biases, layernorm gains) ride along with their row variable;
* the classifier rows and the model input columns are never permuted.

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

import enum
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import ArchSpec, require_same_arch
from .errors import IncompleteAssignmentError, UnknownVariableError
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


class Axis(enum.Enum):
    ROWS = "rows"
    COLS = "cols"


@dataclass(frozen=True)
class PermutationVariable:
    id: str
    size: int
    is_attention: bool = False


@dataclass(frozen=True)
class Application:
    tensor: str
    axis: Axis
    variable: str


@dataclass
class CouplingGraph:
    arch: ArchSpec
    residual_mode: str
    variables: dict[str, PermutationVariable]
    applications: list[Application]
    pinned: frozenset[str]
    _by_tensor: dict[str, list[Application]] = field(default_factory=dict, repr=False)
    _by_variable: dict[str, list[Application]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._by_tensor = {}
        self._by_variable = {}
        for app in self.applications:
            self._by_tensor.setdefault(app.tensor, []).append(app)
            self._by_variable.setdefault(app.variable, []).append(app)

    # -- structure queries ---------------------------------------------------

    def applications_on(self, tensor: str) -> list[Application]:
        return self._by_tensor.get(tensor, [])

    def applications_of(self, variable: str) -> list[Application]:
        return self._by_variable.get(variable, [])

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
            check_permutation(assignment.perms[var_id], size=var.size)

    def residual_perms(self, assignment: PermutationAssignment) -> list[tuple[Perm, Perm]]:
        """Per block, the two skip permutations of the permuted model.

        The first skip becomes ``p_in^-1 ∘ p_w0`` (undo the incoming stream
        permutation, then re-apply the attention-output one) and the second
        ``p_w0^-1 ∘ p_w2``.  The wiring is read off the applications: p_in
        permutes the columns of the block's q projection, p_w0 the rows of
        its attention output and p_w2 the rows of fc2.  In tie mode all three
        are the one stream variable, so both skips are identities.
        """

        def perm(tensor: str, axis: Axis) -> Perm:
            var_id = next(a.variable for a in self.applications_on(tensor) if a.axis is axis)
            return assignment.perms[var_id]

        perms = []
        for i in range(self.arch.n_blocks):
            b = f"block.{i}"
            p_in = perm(f"{b}.attn.q.weight", Axis.COLS)
            p_w0 = perm(f"{b}.attn.out.weight", Axis.ROWS)
            p_w2 = perm(f"{b}.mlp.fc2.weight", Axis.ROWS)
            skip_attn = compose(inverse(p_in), p_w0)
            skip_mlp = compose(inverse(p_w0), p_w2)
            perms.append((skip_attn, skip_mlp))
        return perms

    def dump_table(self) -> str:
        """Human-readable application table, one line per (tensor, axis)."""
        lines = [f"# residual_mode={self.residual_mode} arch={self.arch.to_json_dict()}"]
        for var in self.variables.values():
            tag = " pinned" if var.id in self.pinned else ""
            kind = " attention" if var.is_attention else ""
            lines.append(f"var {var.id} size={var.size}{kind}{tag}")
        for app in self.applications:
            op = "P" if app.axis is Axis.ROWS else "PT"
            lines.append(f"{app.tensor:<28} {app.axis.value:<4} <- {op:<2} {app.variable}")
        return "\n".join(lines)


def build_coupling_graph(
    arch: ArchSpec,
    residual_mode: str = RESIDUAL_COMPOSE,
    pin_embedding: bool = True,
) -> CouplingGraph:
    """Wire the permutation variables of a transformer weight set.

    ``pin_embedding`` keeps the permutation of the embedding output (the
    model's first hidden representation) at identity, which is what transport
    onto a positionally meaningful input expects; unpin it for pure
    re-basin experiments.
    """
    if residual_mode not in (RESIDUAL_COMPOSE, RESIDUAL_TIE):
        raise ValueError(f"residual_mode must be 'compose' or 'tie', got {residual_mode!r}")
    d_m, d_h = arch.embed_dim, arch.mlp_hidden
    variables: dict[str, PermutationVariable] = {}
    apps: list[Application] = []

    def add_var(var_id: str, size: int, is_attention: bool = False) -> str:
        if var_id not in variables:
            variables[var_id] = PermutationVariable(var_id, size, is_attention)
        return var_id

    def rows(tensor: str, var_id: str) -> None:
        apps.append(Application(tensor, Axis.ROWS, var_id))

    def cols(tensor: str, var_id: str) -> None:
        apps.append(Application(tensor, Axis.COLS, var_id))

    tie = residual_mode == RESIDUAL_TIE
    if tie:
        stream = add_var("stream", d_m)
    else:
        stream = add_var("embed.out", d_m)
    rows("embed.weight", stream)

    in_var = stream
    for i in range(arch.n_blocks):
        b = f"block.{i}"
        attn = add_var(f"{b}.attn", d_m, is_attention=True)
        w0 = stream if tie else add_var(f"{b}.attn_out", d_m)
        hidden = add_var(f"{b}.mlp_hidden", d_h)
        w2 = stream if tie else add_var(f"{b}.mlp_out", d_m)

        for proj in ("q", "k", "v"):
            rows(f"{b}.attn.{proj}.weight", attn)
            cols(f"{b}.attn.{proj}.weight", in_var)
            rows(f"{b}.attn.{proj}.bias", attn)
        rows(f"{b}.attn.out.weight", w0)
        cols(f"{b}.attn.out.weight", attn)
        rows(f"{b}.attn.out.bias", w0)
        if arch.has_layernorm:
            rows(f"{b}.ln1.gain", w0)
            rows(f"{b}.ln1.bias", w0)
        rows(f"{b}.mlp.fc1.weight", hidden)
        cols(f"{b}.mlp.fc1.weight", w0)
        rows(f"{b}.mlp.fc1.bias", hidden)
        rows(f"{b}.mlp.fc2.weight", w2)
        cols(f"{b}.mlp.fc2.weight", hidden)
        rows(f"{b}.mlp.fc2.bias", w2)
        if arch.has_layernorm:
            rows(f"{b}.ln2.gain", w2)
            rows(f"{b}.ln2.bias", w2)
        in_var = w2

    cols("head.weight", in_var)  # classifier rows stay fixed: class order is meaningful

    pinned = frozenset({stream} if pin_embedding else set())
    return CouplingGraph(arch, residual_mode, variables, apps, pinned)


def permuted_tensor(
    ws,
    graph: CouplingGraph,
    assignment: PermutationAssignment,
    name: str,
    skip_variable: str | None = None,
) -> np.ndarray:
    """Tensor ``name`` of ``ws`` with every coupled permutation applied except
    those of ``skip_variable``.

    Rows are gathered by ``p`` (``P @ W``) and so are columns (``W @ P^T``),
    where ``P`` has a one at ``(i, p[i])``; 1-D tensors only have rows.  The
    result may share memory with ``ws``.
    """
    arr = ws[name]
    for app in graph.applications_on(name):
        if app.variable != skip_variable:
            axis = 0 if app.axis is Axis.ROWS else 1
            arr = np.take(arr, assignment.perms[app.variable], axis=axis)
    return arr


def permuted_tensors(ws, graph: CouplingGraph, assignment: PermutationAssignment):
    """Every tensor of ``ws`` permuted, in canonical order, each computed when
    asked for; the architecture and the assignment are checked on the call.
    ``ws`` is read only as ``ws.arch`` and ``ws[name]``, so an open
    ``ContainerReader`` serves too."""
    require_same_arch(ws.arch, graph.arch, "weights and coupling graph")
    graph.check_assignment(assignment)
    return (permuted_tensor(ws, graph, assignment, name) for name in ws.arch.tensor_shapes())


def apply_assignment(ws, graph: CouplingGraph, assignment: PermutationAssignment):
    """Permute a WeightSet or TaskVector according to the graph's wiring.

    Pure index moves: exact, invertible, and linear over the tensor values.
    Every tensor of the result is a new array the caller owns; ``np.take``
    already made one for each permuted tensor, so only the rest are copied.
    """
    moved = zip(ws.tensors.items(), permuted_tensors(ws, graph, assignment), strict=True)
    return type(ws)(ws.arch, {name: arr.copy() if out is arr else out for (name, arr), out in moved})


def inverse_assignment(graph: CouplingGraph, assignment: PermutationAssignment) -> PermutationAssignment:
    """Variable-wise inverse; applying it after the original restores any
    input.  The inverse of a vector that keeps each head's units together
    keeps them together too, so the head counts carry over."""
    graph.check_assignment(assignment)
    perms = {var_id: inverse(p) for var_id, p in assignment.perms.items()}
    return PermutationAssignment(perms, dict(assignment.heads))
