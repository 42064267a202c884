"""Coupling-graph construction and assignment application."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import block_lists, dense_perm_matrix
from taskport.checkpoint import (
    KIND_WEIGHT_SET,
    ArchSpec,
    ContainerReader,
    WeightSet,
    read_checkpoint,
    read_permutation_assignment,
    write_checkpoint,
    write_permutation_assignment,
)
from taskport.coupling import (
    apply_assignment,
    build_coupling_graph,
    inverse_assignment,
    permuted_tensor,
    permuted_tensors,
)
from taskport.errors import (
    ArchMismatchError,
    AssignmentFormatError,
    IncompleteAssignmentError,
    UnknownVariableError,
)
from taskport.model import init_random
from taskport.perms import PermutationAssignment, inverse, join_heads

GOLDEN_TABLE = """\
# residual_mode=compose arch={'n_blocks': 1, 'n_heads': 2, 'embed_dim': 4, 'mlp_hidden': 8, 'input_dim': 3, 'output_dim': 2, 'has_layernorm': True}
var embed.out size=4 pinned
var block.0.attn size=4 attention
var block.0.attn_out size=4
var block.0.mlp_hidden size=8
var block.0.mlp_out size=4
embed.weight                 rows <- P  embed.out
block.0.attn.q.weight        rows <- P  block.0.attn
block.0.attn.q.weight        cols <- PT embed.out
block.0.attn.q.bias          rows <- P  block.0.attn
block.0.attn.k.weight        rows <- P  block.0.attn
block.0.attn.k.weight        cols <- PT embed.out
block.0.attn.k.bias          rows <- P  block.0.attn
block.0.attn.v.weight        rows <- P  block.0.attn
block.0.attn.v.weight        cols <- PT embed.out
block.0.attn.v.bias          rows <- P  block.0.attn
block.0.attn.out.weight      rows <- P  block.0.attn_out
block.0.attn.out.weight      cols <- PT block.0.attn
block.0.attn.out.bias        rows <- P  block.0.attn_out
block.0.ln1.gain             rows <- P  block.0.attn_out
block.0.ln1.bias             rows <- P  block.0.attn_out
block.0.mlp.fc1.weight       rows <- P  block.0.mlp_hidden
block.0.mlp.fc1.weight       cols <- PT block.0.attn_out
block.0.mlp.fc1.bias         rows <- P  block.0.mlp_hidden
block.0.mlp.fc2.weight       rows <- P  block.0.mlp_out
block.0.mlp.fc2.weight       cols <- PT block.0.mlp_hidden
block.0.mlp.fc2.bias         rows <- P  block.0.mlp_out
block.0.ln2.gain             rows <- P  block.0.mlp_out
block.0.ln2.bias             rows <- P  block.0.mlp_out
head.weight                  cols <- PT block.0.mlp_out"""



GOLDEN_TIE_TABLE = """\
# residual_mode=tie arch={'n_blocks': 2, 'n_heads': 2, 'embed_dim': 4, 'mlp_hidden': 8, 'input_dim': 3, 'output_dim': 2, 'has_layernorm': False}
var stream size=4 pinned
var block.0.attn size=4 attention
var block.0.mlp_hidden size=8
var block.1.attn size=4 attention
var block.1.mlp_hidden size=8
embed.weight                 rows <- P  stream
block.0.attn.q.weight        rows <- P  block.0.attn
block.0.attn.q.weight        cols <- PT stream
block.0.attn.q.bias          rows <- P  block.0.attn
block.0.attn.k.weight        rows <- P  block.0.attn
block.0.attn.k.weight        cols <- PT stream
block.0.attn.k.bias          rows <- P  block.0.attn
block.0.attn.v.weight        rows <- P  block.0.attn
block.0.attn.v.weight        cols <- PT stream
block.0.attn.v.bias          rows <- P  block.0.attn
block.0.attn.out.weight      rows <- P  stream
block.0.attn.out.weight      cols <- PT block.0.attn
block.0.attn.out.bias        rows <- P  stream
block.0.mlp.fc1.weight       rows <- P  block.0.mlp_hidden
block.0.mlp.fc1.weight       cols <- PT stream
block.0.mlp.fc1.bias         rows <- P  block.0.mlp_hidden
block.0.mlp.fc2.weight       rows <- P  stream
block.0.mlp.fc2.weight       cols <- PT block.0.mlp_hidden
block.0.mlp.fc2.bias         rows <- P  stream
block.1.attn.q.weight        rows <- P  block.1.attn
block.1.attn.q.weight        cols <- PT stream
block.1.attn.q.bias          rows <- P  block.1.attn
block.1.attn.k.weight        rows <- P  block.1.attn
block.1.attn.k.weight        cols <- PT stream
block.1.attn.k.bias          rows <- P  block.1.attn
block.1.attn.v.weight        rows <- P  block.1.attn
block.1.attn.v.weight        cols <- PT stream
block.1.attn.v.bias          rows <- P  block.1.attn
block.1.attn.out.weight      rows <- P  stream
block.1.attn.out.weight      cols <- PT block.1.attn
block.1.attn.out.bias        rows <- P  stream
block.1.mlp.fc1.weight       rows <- P  block.1.mlp_hidden
block.1.mlp.fc1.weight       cols <- PT stream
block.1.mlp.fc1.bias         rows <- P  block.1.mlp_hidden
block.1.mlp.fc2.weight       rows <- P  stream
block.1.mlp.fc2.weight       cols <- PT block.1.mlp_hidden
block.1.mlp.fc2.bias         rows <- P  stream
head.weight                  cols <- PT stream"""

def _oracle_axes(arch, mode):
    """The owners the graph must give each axis, read straight off
    ``arch.tensor_axes()``: a labelled axis belongs to its unit id, except
    that tie mode gives every ``stream`` unit to the one ``stream`` variable."""
    def owner(unit):
        if unit is None:
            return None
        var_id, kind = unit
        return "stream" if mode == "tie" and kind == "stream" else var_id
    return {name: tuple(map(owner, units)) for name, _, units in arch.tensor_axes()}


def _gaussian_weights(arch, seed):
    """Every tensor Gaussian, biases and gains included: ``init_random``'s
    zero biases and unit gains look the same under any permutation."""
    rng = np.random.default_rng(seed)
    return WeightSet(arch, {name: rng.normal(size=shape) for name, shape in arch.tensor_shapes().items()})


def _swap_first_two(graph):
    """Every variable swaps its units 0 and 1 and keeps the rest in place."""
    a = PermutationAssignment()
    for var_id, var in graph.variables.items():
        a.perms[var_id] = np.r_[1, 0, 2 : var.size]
    return a


class TestGraphConstruction:
    def test_tie_mode_variable_count_one_block(self):
        arch = ArchSpec(1, 2, 8, 16, 4, 3)
        graph = build_coupling_graph(arch, "tie")
        # stream, composed attention, mlp hidden
        assert sorted(graph.variables) == ["block.0.attn", "block.0.mlp_hidden", "stream"]

    def test_compose_mode_variable_count_one_block(self):
        arch = ArchSpec(1, 2, 8, 16, 4, 3)
        graph = build_coupling_graph(arch, "compose")
        assert sorted(graph.variables) == [
            "block.0.attn",
            "block.0.attn_out",
            "block.0.mlp_hidden",
            "block.0.mlp_out",
            "embed.out",
        ]

    def test_unknown_residual_mode_rejected(self, toy_arch):
        with pytest.raises(ValueError, match="residual_mode must be 'compose' or 'tie', got 'bogus'"):
            build_coupling_graph(toy_arch, "bogus")

    def test_classifier_rows_never_permuted(self, toy_arch):
        for mode in ("compose", "tie"):
            graph = build_coupling_graph(toy_arch, mode)
            rows, cols = graph.axes["head.weight"]
            assert rows is None and cols is not None

    def test_model_input_columns_never_permuted(self, toy_arch):
        graph = build_coupling_graph(toy_arch, "compose")
        assert graph.axes["embed.weight"] == ("embed.out", None)

    def test_every_axis_single_owner(self, toy_arch):
        """Each tensor has one table slot per axis, holding one known
        variable or ``None``."""
        for mode in ("compose", "tie"):
            graph = build_coupling_graph(toy_arch, mode)
            for name, shape in toy_arch.tensor_shapes().items():
                assert len(graph.axes[name]) == len(shape), name
                assert all(var is None or var in graph.variables for var in graph.axes[name]), name

    def test_pinning_flag(self, toy_arch):
        assert "embed.out" in build_coupling_graph(toy_arch, "compose").pinned
        graph = build_coupling_graph(toy_arch, "compose", pin_embedding=False)
        assert not graph.pinned

    def test_stream_chains_blocks_in_compose_mode(self, toy_arch):
        graph = build_coupling_graph(toy_arch, "compose")
        assert graph.matrices["block.1.attn.q.weight"][1] == "block.0.mlp_out"

    def test_dump_table_mentions_every_tensor(self, toy_arch):
        graph = build_coupling_graph(toy_arch, "compose")
        table = graph.dump_table()
        for name in toy_arch.tensor_shapes():
            if name.endswith(".weight"):
                assert name in table

    def test_dump_table_golden(self):
        graph = build_coupling_graph(ArchSpec(1, 2, 4, 8, 3, 2, True), "compose")
        assert graph.dump_table() == GOLDEN_TABLE

    def test_dump_table_golden_tie(self):
        """Tie mode's variable order is the matcher's sweep order, so pin it too."""
        graph = build_coupling_graph(ArchSpec(2, 2, 4, 8, 3, 2), "tie")
        assert graph.dump_table() == GOLDEN_TIE_TABLE

    @pytest.mark.parametrize("mode", ["compose", "tie"])
    @pytest.mark.parametrize("has_layernorm", [False, True])
    @pytest.mark.parametrize("n_blocks", [1, 2, 3])
    def test_one_application_per_labelled_axis(self, n_blocks, has_layernorm, mode):
        """``axes`` lists every tensor of the tensor table in manifest order
        and gives each labelled axis the one owner the oracle reads off that
        table, a variable as long as the axis and of its kind; an unlabelled
        axis gets ``None``.  ``matrices`` is the table's 2-D part."""
        arch = ArchSpec(n_blocks, 2, 4, 6, 3, 5, has_layernorm)
        graph = build_coupling_graph(arch, mode)
        expect = _oracle_axes(arch, mode)
        assert list(graph.axes) == list(expect) and graph.axes == expect
        for name, shape, units in arch.tensor_axes():
            for length, unit, var_id in zip(shape, units, graph.axes[name], strict=True):
                if unit is not None:
                    assert graph.variables[var_id].size == length
                    assert graph.variables[var_id].is_attention == (unit[1] == "attn")
        assert set(graph.variables) == {var for owners in expect.values() for var in owners} - {None}
        shapes = arch.tensor_shapes()
        assert list(graph.matrices) == [name for name in shapes if len(shapes[name]) == 2]
        assert graph.matrices == {name: graph.axes[name] for name in graph.matrices}


class TestApplyAssignment:
    def test_identity_is_noop(self, toy_arch):
        ws = init_random(toy_arch, 0)
        for mode in ("compose", "tie"):
            graph = build_coupling_graph(toy_arch, mode, pin_embedding=False)
            out = apply_assignment(ws, graph, graph.identity_assignment())
            for name in ws.tensors:
                np.testing.assert_array_equal(out.tensors[name], ws.tensors[name])
                assert not np.shares_memory(out.tensors[name], ws.tensors[name])

    @pytest.mark.parametrize("mode", ["compose", "tie"])
    @pytest.mark.parametrize("pin", [True, False], ids=["pinned", "unpinned"])
    def test_every_tensor_is_moved_into_a_new_array(self, toy_arch, mode, pin):
        """Pinning does not unwire an axis: every tensor has one that a
        variable owns, so ``np.take`` makes each result tensor a new array,
        and none shares memory with its input."""
        ws = init_random(toy_arch, 16)
        graph = build_coupling_graph(toy_arch, mode, pin_embedding=pin)
        assert all(any(var is not None for var in owners) for owners in graph.axes.values())
        out = apply_assignment(ws, graph, graph.random_assignment(np.random.default_rng(17)))
        assert list(out.tensors) == list(ws.tensors)
        for name in ws.tensors:
            assert not np.shares_memory(out.tensors[name], ws.tensors[name])

    def test_inverse_restores_exactly(self, toy_arch):
        ws = init_random(toy_arch, 1)
        rng = np.random.default_rng(2)
        for mode in ("compose", "tie"):
            graph = build_coupling_graph(toy_arch, mode, pin_embedding=False)
            for assignment in (graph.random_assignment(rng), _swap_first_two(graph)):
                permuted = apply_assignment(ws, graph, assignment)
                restored = apply_assignment(permuted, graph, inverse_assignment(graph, assignment))
                for name in ws.tensors:
                    np.testing.assert_array_equal(restored.tensors[name], ws.tensors[name])

    def test_inverse_keeps_head_structure(self, tmp_path, toy_arch):
        """The inverse of a structured assignment is structured too, and its
        file form keeps the per-head records."""
        graph = build_coupling_graph(toy_arch, "compose", pin_embedding=False)
        assignment = graph.random_assignment(np.random.default_rng(20))
        inv = inverse_assignment(graph, assignment)
        attention = [v.id for v in graph.variables.values() if v.is_attention]
        for var_id in attention:
            flat = assignment.perms[var_id]
            inter, intras = assignment.block(var_id)
            ii = inverse(inter)
            want = (ii, [inverse(intras[h]) for h in ii])
            assert block_lists(inv.block(var_id)) == block_lists(want)
            assert np.array_equal(join_heads(*want), np.argsort(flat))
            assert np.array_equal(inv.perms[var_id][flat], np.arange(flat.size))
        path = str(tmp_path / "inv.perm")
        write_permutation_assignment(inv, path)
        text = Path(path).read_text(encoding="utf-8")
        for var_id in attention:
            assert f"{var_id}.inter : " in text
            assert f"{var_id}.intra.{toy_arch.n_heads - 1} : " in text
        back = read_permutation_assignment(path)
        assert back == inv
        assert all(block_lists(back.block(v)) == block_lists(inv.block(v)) for v in attention)

        # a vector that mixes units across heads is no symmetry of the
        # model, so it has no inverse assignment either
        mixed = assignment.copy()
        mixed.perms["block.0.attn"] = np.roll(np.arange(toy_arch.embed_dim), 1)
        with pytest.raises(ArchMismatchError, match="mixes units across its 4 attention heads"):
            inverse_assignment(graph, mixed)

    def test_linearity_over_weight_space(self, toy_arch):
        """apply(x - y) == apply(x) - apply(y), exactly: this is what makes
        permuting a task vector equal to differencing permuted models."""
        a = init_random(toy_arch, 3)
        b = init_random(toy_arch, 4)
        graph = build_coupling_graph(toy_arch, "compose")
        assignment = graph.random_assignment(np.random.default_rng(5))
        diff = WeightSet(toy_arch, {n: a.tensors[n] - b.tensors[n] for n in a.tensors})
        moved_diff = apply_assignment(diff, graph, assignment)
        pa = apply_assignment(a, graph, assignment)
        pb = apply_assignment(b, graph, assignment)
        assert type(pa) is WeightSet and type(a.copy()) is WeightSet
        for name in a.tensors:
            np.testing.assert_array_equal(
                moved_diff.tensors[name], pa.tensors[name] - pb.tensors[name]
            )

    @pytest.mark.parametrize("layernorm", [False, True])
    @pytest.mark.parametrize("n_blocks", [1, 2, 3])
    def test_matches_dense_matrix_oracle(self, small_arch, n_blocks, layernorm):
        """The tensor table's owners, replayed with dense permutation
        matrices (ones at ``(i, p[i])``), must reproduce apply_assignment
        tensor by tensor: rows go as ``P @ W``, columns as ``W @ P^T``."""
        arch = dataclasses.replace(small_arch, n_blocks=n_blocks, has_layernorm=layernorm)
        ws = _gaussian_weights(arch, 6)
        for mode in ("compose", "tie"):
            graph = build_coupling_graph(arch, mode, pin_embedding=False)
            owners = _oracle_axes(arch, mode)
            random = graph.random_assignment(np.random.default_rng(7))
            for assignment in (random, _swap_first_two(graph)):
                out = apply_assignment(ws, graph, assignment)
                for name, arr in ws.tensors.items():
                    expect = arr.copy()
                    for axis, var_id in enumerate(owners[name]):
                        if var_id is not None:
                            p = dense_perm_matrix(assignment.perms[var_id])
                            expect = p @ expect if axis == 0 else expect @ p.T
                    np.testing.assert_array_equal(out.tensors[name], expect)

        # by hand: swapping units 0 and 1 swaps the embedding's rows and the
        # classifier's columns
        out = apply_assignment(ws, graph, _swap_first_two(graph))
        embed, head = ws["embed.weight"], ws["head.weight"]
        np.testing.assert_array_equal(out["embed.weight"][:2], embed[[1, 0]])
        np.testing.assert_array_equal(out["embed.weight"][2:], embed[2:])
        np.testing.assert_array_equal(out["head.weight"][:, :2], head[:, [1, 0]])
        np.testing.assert_array_equal(out["head.weight"][:, 2:], head[:, 2:])

    @pytest.mark.parametrize("mode", ["compose", "tie"])
    def test_skip_variable_then_reapply_matches_full_application(self, mode):
        """For every (tensor, coupled variable) pair, leaving the variable
        out and then gathering its axes by hand gives apply_assignment's
        tensor bit for bit."""
        arch = ArchSpec(2, 2, 8, 12, 5, 3, has_layernorm=True)
        ws = _gaussian_weights(arch, 21)
        graph = build_coupling_graph(arch, mode, pin_embedding=False)
        assignment = graph.random_assignment(np.random.default_rng(22))
        full = apply_assignment(ws, graph, assignment)
        pairs = 0
        for name, owners in _oracle_axes(arch, mode).items():
            for var_id in set(owners) - {None}:
                got = permuted_tensor(ws, graph, assignment, name, skip_variable=var_id)
                p = assignment.perms[var_id]
                for axis, owner in enumerate(owners):
                    if owner == var_id:
                        got = got[p] if axis == 0 else got[:, p]
                np.testing.assert_array_equal(got, full[name])
                pairs += 1
        assert pairs == sum(len(set(owners) - {None}) for owners in graph.axes.values())

    def test_wrong_length_permutation_rejected(self, toy_arch):
        ws = init_random(toy_arch, 23)
        graph = build_coupling_graph(toy_arch, "compose")
        for var_id in ("block.0.mlp_hidden", "block.1.attn"):
            assignment = graph.identity_assignment()
            assignment.perms[var_id] = np.arange(graph.variables[var_id].size - 1)
            with pytest.raises(AssignmentFormatError, match="length"):
                apply_assignment(ws, graph, assignment)

    def test_non_integer_permutation_rejected(self, toy_arch):
        ws = init_random(toy_arch, 24)
        graph = build_coupling_graph(toy_arch, "compose")
        assignment = graph.identity_assignment()
        size = graph.variables["block.0.mlp_hidden"].size
        assignment.perms["block.0.mlp_hidden"] = np.arange(size) + np.eye(1, size, size - 1)[0] * 0.5
        with pytest.raises(AssignmentFormatError, match="integers"):
            graph.check_assignment(assignment)
        with pytest.raises(AssignmentFormatError, match="integers"):
            apply_assignment(ws, graph, assignment)

    def test_incomplete_assignment_rejected(self, toy_arch):
        ws = init_random(toy_arch, 8)
        graph = build_coupling_graph(toy_arch, "compose")
        partial = graph.identity_assignment()
        del partial.perms["block.0.mlp_hidden"]
        with pytest.raises(IncompleteAssignmentError):
            apply_assignment(ws, graph, partial)

    def test_unknown_variable_rejected(self, toy_arch):
        ws = init_random(toy_arch, 9)
        graph = build_coupling_graph(toy_arch, "compose")
        assignment = graph.identity_assignment()
        assignment.perms["block.7.nope"] = np.arange(4)
        with pytest.raises(UnknownVariableError):
            apply_assignment(ws, graph, assignment)

    @pytest.mark.parametrize("width", [16, 64])
    def test_graph_for_another_arch_rejected(self, toy_arch, width):
        """A graph wired for a narrower or wider model is an architecture
        mismatch, not an index error or a shape mismatch on some tensor."""
        ws = init_random(toy_arch, 12)
        other = ArchSpec(toy_arch.n_blocks, toy_arch.n_heads, width, 2 * width,
                         toy_arch.input_dim, toy_arch.output_dim, toy_arch.has_layernorm)
        graph = build_coupling_graph(other, "compose")
        with pytest.raises(ArchMismatchError, match="weights and coupling graph"):
            apply_assignment(ws, graph, graph.random_assignment(np.random.default_rng(13)))

    def test_preserves_key_set_and_shapes(self, toy_arch):
        ws = init_random(toy_arch, 10)
        graph = build_coupling_graph(toy_arch, "tie")
        out = apply_assignment(ws, graph, graph.random_assignment(np.random.default_rng(11)))
        assert set(out.tensors) == set(ws.tensors)
        for name in ws.tensors:
            assert out.tensors[name].shape == ws.tensors[name].shape


    @pytest.mark.parametrize("source", ["weights", "container"])
    def test_scratch_reuses_one_buffer(self, tmp_path, toy_arch, source):
        """With a ``scratch`` dict every tensor is a view of one buffer for the
        source's dtype (float64 weights, float32 records), grown to the largest
        tensor and overwritten by the next; the values are the owned arrays'."""
        ws = init_random(toy_arch, 14)
        path = str(tmp_path / "ckpt")
        write_checkpoint(ws, path)
        graph = build_coupling_graph(toy_arch, "compose")
        assignment = graph.random_assignment(np.random.default_rng(15))
        with ContainerReader(path, KIND_WEIGHT_SET) as reader:
            src, dtype = (ws, np.dtype(np.float64)) if source == "weights" else (reader, np.dtype(np.float32))
            expected = apply_assignment(ws if source == "weights" else read_checkpoint(path), graph, assignment)
            scratch = {}
            for name, view in zip(toy_arch.tensor_shapes(), permuted_tensors(src, graph, assignment, scratch)):
                assert view.dtype == dtype and np.shares_memory(view, scratch[dtype])
                np.testing.assert_array_equal(view, expected[name])
            assert list(scratch) == [dtype]
            assert scratch[dtype].size == max(math.prod(shape) for shape in toy_arch.tensor_shapes().values())


class TestResidualPerms:
    def test_tie_mode_gives_identities(self, toy_arch):
        graph = build_coupling_graph(toy_arch, "tie")
        skips = graph.residual_perms(graph.random_assignment(np.random.default_rng(12)))
        for skip_attn, skip_mlp in skips:
            assert np.array_equal(skip_attn, np.arange(toy_arch.embed_dim))
            assert np.array_equal(skip_mlp, np.arange(toy_arch.embed_dim))

    def test_compose_skips_reconcile_the_two_addends(self, toy_arch):
        """skip1 applied after the incoming stream permutation must equal the
        attention-output permutation, and likewise for the second skip."""
        graph = build_coupling_graph(toy_arch, "compose", pin_embedding=False)
        assignment = graph.random_assignment(np.random.default_rng(13))
        rng = np.random.default_rng(14)
        z = rng.normal(size=toy_arch.embed_dim)
        for i, (skip_attn, skip_mlp) in enumerate(graph.residual_perms(assignment)):
            p_in = assignment.perms["embed.out" if i == 0 else f"block.{i - 1}.mlp_out"]
            p_w0 = assignment.perms[f"block.{i}.attn_out"]
            p_w2 = assignment.perms[f"block.{i}.mlp_out"]
            np.testing.assert_array_equal(z[p_in][skip_attn], z[p_w0])
            np.testing.assert_array_equal(z[p_w0][skip_mlp], z[p_w2])
