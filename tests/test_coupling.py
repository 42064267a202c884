"""Coupling-graph construction and assignment application."""

import numpy as np
import pytest

from conftest import dense_perm_matrix
from taskport.checkpoint import ArchSpec, TaskVector, WeightSet
from taskport.coupling import (
    Axis,
    Direction,
    apply_assignment,
    build_coupling_graph,
    inverse_assignment,
)
from taskport.errors import IncompleteAssignmentError, UnknownVariableError
from taskport.model import init_random


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

    def test_classifier_rows_never_permuted(self, toy_arch):
        for mode in ("compose", "tie"):
            graph = build_coupling_graph(toy_arch, mode)
            for app in graph.applications_on("head.weight"):
                assert app.axis is Axis.COLS

    def test_model_input_columns_never_permuted(self, toy_arch):
        graph = build_coupling_graph(toy_arch, "compose")
        for app in graph.applications_on("embed.weight"):
            assert app.axis is Axis.ROWS

    def test_every_axis_single_owner(self, toy_arch):
        for mode in ("compose", "tie"):
            graph = build_coupling_graph(toy_arch, mode)
            seen = set()
            for app in graph.applications:
                key = (app.tensor, app.axis)
                assert key not in seen, f"{key} wired twice"
                seen.add(key)

    def test_pinning_flag(self, toy_arch):
        assert "embed.out" in build_coupling_graph(toy_arch, "compose").pinned
        graph = build_coupling_graph(toy_arch, "compose", pin_embedding=False)
        assert not graph.pinned

    def test_stream_chains_blocks_in_compose_mode(self, toy_arch):
        graph = build_coupling_graph(toy_arch, "compose")
        cols_of_q1 = [
            app
            for app in graph.applications_on("block.1.attn.q.weight")
            if app.axis is Axis.COLS
        ]
        assert cols_of_q1[0].variable == "block.0.mlp_out"
        assert cols_of_q1[0].direction is Direction.TRANSPOSE

    def test_dump_table_mentions_every_tensor(self, toy_arch):
        graph = build_coupling_graph(toy_arch, "compose")
        table = graph.dump_table()
        for name in toy_arch.tensor_shapes():
            if name.endswith(".weight"):
                assert name in table


class TestApplyAssignment:
    def test_identity_is_noop(self, toy_arch):
        ws = init_random(toy_arch, 0)
        graph = build_coupling_graph(toy_arch, "compose")
        out = apply_assignment(ws, graph, graph.identity_assignment())
        for name in ws.tensors:
            np.testing.assert_array_equal(out.tensors[name], ws.tensors[name])

    def test_inverse_restores_exactly(self, toy_arch):
        ws = init_random(toy_arch, 1)
        rng = np.random.default_rng(2)
        for mode in ("compose", "tie"):
            graph = build_coupling_graph(toy_arch, mode, pin_embedding=False)
            assignment = graph.random_assignment(rng, include_pinned=True)
            permuted = apply_assignment(ws, graph, assignment)
            restored = apply_assignment(permuted, graph, inverse_assignment(graph, assignment))
            for name in ws.tensors:
                np.testing.assert_array_equal(restored.tensors[name], ws.tensors[name])

    def test_linearity_over_weight_space(self, toy_arch):
        """apply(x - y) == apply(x) - apply(y), exactly: this is what makes
        permuting a task vector equal to differencing permuted models."""
        a = init_random(toy_arch, 3)
        b = init_random(toy_arch, 4)
        graph = build_coupling_graph(toy_arch, "compose")
        assignment = graph.random_assignment(np.random.default_rng(5))
        diff = TaskVector(toy_arch, {n: a.tensors[n] - b.tensors[n] for n in a.tensors})
        moved_diff = apply_assignment(diff, graph, assignment)
        pa = apply_assignment(a, graph, assignment)
        pb = apply_assignment(b, graph, assignment)
        assert type(moved_diff) is TaskVector and type(diff.copy()) is TaskVector
        assert type(pa) is WeightSet and type(a.copy()) is WeightSet
        for name in a.tensors:
            np.testing.assert_array_equal(
                moved_diff.tensors[name], pa.tensors[name] - pb.tensors[name]
            )

    def test_matches_dense_matrix_oracle(self, small_arch):
        """Every application record, replayed with dense permutation
        matrices, must reproduce apply_assignment tensor by tensor."""
        ws = init_random(small_arch, 6)
        graph = build_coupling_graph(small_arch, "compose", pin_embedding=False)
        assignment = graph.random_assignment(np.random.default_rng(7), include_pinned=True)
        out = apply_assignment(ws, graph, assignment)
        for name, arr in ws.tensors.items():
            expect = arr.copy()
            for app in graph.applications_on(name):
                p = dense_perm_matrix(assignment.perms[app.variable])
                if expect.ndim == 1:
                    expect = p @ expect
                elif app.axis is Axis.ROWS:
                    expect = p @ expect
                else:
                    expect = expect @ p.T
            np.testing.assert_array_equal(out.tensors[name], expect)

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

    def test_preserves_key_set_and_shapes(self, toy_arch):
        ws = init_random(toy_arch, 10)
        graph = build_coupling_graph(toy_arch, "tie")
        out = apply_assignment(ws, graph, graph.random_assignment(np.random.default_rng(11)))
        assert set(out.tensors) == set(ws.tensors)
        for name in ws.tensors:
            assert out.tensors[name].shape == ws.tensors[name].shape


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
        assignment = graph.random_assignment(np.random.default_rng(13), include_pinned=True)
        rng = np.random.default_rng(14)
        z = rng.normal(size=toy_arch.embed_dim)
        for i, (skip_attn, skip_mlp) in enumerate(graph.residual_perms(assignment)):
            p_in = assignment.perms[graph.stream_in_variable(i)]
            p_w0 = assignment.perms[graph.attn_out_variable(i)]
            p_w2 = assignment.perms[graph.mlp_out_variable(i)]
            np.testing.assert_array_equal(z[p_in][skip_attn], z[p_w0])
            np.testing.assert_array_equal(z[p_w0][skip_mlp], z[p_w2])
