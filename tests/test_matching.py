"""Coordinate-descent matcher: recovery, monotonicity, determinism."""

import dataclasses
import itertools

import numpy as np
import pytest

import taskport.matching
from conftest import reference_weight_match
from taskport.coupling import CouplingGraph, apply_assignment, build_coupling_graph
from taskport.errors import ArchMismatchError, NonFiniteTensorError, TaskportError, UnknownVariableError
from taskport.matching import (
    matching_objective,
    recovery_fraction,
    solve_attention_variable,
    solve_plain_variable,
    weight_match,
)
from taskport.checkpoint import ArchSpec
from taskport.model import init_random, verify_equivalence
from taskport.perms import join_heads


def _noisy_copy(ws, sigma, seed):
    """Additive Gaussian noise scaled per tensor to sigma times its std."""
    rng = np.random.default_rng(seed)
    out = ws.copy()
    for name, arr in out.tensors.items():
        std = float(arr.std())
        if std > 0:
            out.tensors[name] = arr + rng.normal(0.0, sigma * std, arr.shape)
    return out


class TestObjective:
    def test_self_match_identity_gives_norm_squared(self, toy_arch):
        ws = init_random(toy_arch, 0)
        graph = build_coupling_graph(toy_arch, "compose")
        obj = matching_objective(ws, ws, graph.identity_assignment(), graph)
        norm_sq = sum(
            float(np.sum(a * a)) for a in ws.tensors.values() if a.ndim == 2
        )
        assert obj == pytest.approx(norm_sq, rel=1e-12)

    def test_matching_beats_identity_on_random_pair(self, toy_arch):
        a = init_random(toy_arch, 1)
        b = init_random(toy_arch, 2)
        graph = build_coupling_graph(toy_arch, "compose")
        identity_obj = matching_objective(a, b, graph.identity_assignment(), graph)
        result = weight_match(a, b, graph, seed=0)
        assert result.trace[-1] >= identity_obj

    def test_invariant_under_joint_permutation(self, toy_arch):
        """Permuting both models identically cannot change the objective."""
        a = init_random(toy_arch, 3)
        b = init_random(toy_arch, 4)
        graph = build_coupling_graph(toy_arch, "compose")
        assignment = graph.random_assignment(np.random.default_rng(5))
        joint = graph.random_assignment(np.random.default_rng(6))
        obj = matching_objective(a, b, assignment, graph)
        obj_joint = matching_objective(
            apply_assignment(a, graph, joint), apply_assignment(b, graph, joint),
            assignment, graph,
        )
        # same multiset of row/col pairings only when assignment commutes;
        # the guaranteed invariance is for the identity assignment
        ident = graph.identity_assignment()
        lhs = matching_objective(a, b, ident, graph)
        rhs = matching_objective(
            apply_assignment(a, graph, joint), apply_assignment(b, graph, joint), ident, graph
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert np.isfinite(obj) and np.isfinite(obj_joint)

    def test_models_of_another_arch_rejected(self, toy_arch):
        a = init_random(toy_arch, 8)
        wide = dataclasses.replace(toy_arch, mlp_hidden=2 * toy_arch.mlp_hidden)
        b = init_random(wide, 9)
        graph = build_coupling_graph(toy_arch, "compose")
        wide_graph = build_coupling_graph(wide, "compose")
        with pytest.raises(ArchMismatchError, match="models to score"):
            matching_objective(a, b, graph.identity_assignment(), graph)
        with pytest.raises(ArchMismatchError, match="model and coupling graph"):
            matching_objective(b, b, wide_graph.identity_assignment(), graph)
        with pytest.raises(ArchMismatchError, match="model and coupling graph"):
            matching_objective(a, a, graph.identity_assignment(), wide_graph)


class TestRecoveryFraction:
    def test_assignments_checked_against_the_graph(self, toy_arch):
        """Assignments of another graph raise a TaskportError, not numpy's
        broadcast error or a KeyError."""
        graph = build_coupling_graph(toy_arch, "compose")
        ident = graph.identity_assignment()
        wide = build_coupling_graph(dataclasses.replace(toy_arch, mlp_hidden=2 * toy_arch.mlp_hidden), "compose")
        tie = build_coupling_graph(toy_arch, "tie")
        for other in (wide.identity_assignment(), tie.identity_assignment()):
            for args in ((other, ident), (ident, other)):
                with pytest.raises(TaskportError):
                    recovery_fraction(*args, graph)
        extra = graph.identity_assignment()
        extra.perms["stream"] = np.arange(toy_arch.embed_dim)
        with pytest.raises(UnknownVariableError):
            recovery_fraction(ident, extra, graph)
        assert recovery_fraction(ident, ident, graph) == 1.0


class TestPlainVariableSolve:
    def test_self_similarity_returns_identity(self, toy_arch):
        ws = init_random(toy_arch, 7)
        graph = build_coupling_graph(toy_arch, "compose")
        assignment = graph.identity_assignment()
        perm = solve_plain_variable("block.0.mlp_hidden", ws, ws, graph, assignment)
        assert np.array_equal(perm, np.arange(toy_arch.mlp_hidden))

    def test_recovers_single_planted_row_permutation(self, toy_arch):
        ws = init_random(toy_arch, 8)
        graph = build_coupling_graph(toy_arch, "compose")
        plant = graph.identity_assignment()
        rng = np.random.default_rng(9)
        plant.perms["block.0.mlp_hidden"] = rng.permutation(toy_arch.mlp_hidden)
        ws_b = apply_assignment(ws, graph, plant)
        got = solve_plain_variable(
            "block.0.mlp_hidden", ws, ws_b, graph, graph.identity_assignment()
        )
        assert np.array_equal(got, plant.perms["block.0.mlp_hidden"])

    def test_all_zero_weights_tie_break_to_identity(self, toy_arch):
        ws = init_random(toy_arch, 10)
        zero = ws.copy()
        for name in zero.tensors:
            zero.tensors[name] = np.zeros_like(zero.tensors[name])
        graph = build_coupling_graph(toy_arch, "compose")
        perm = solve_plain_variable(
            "block.1.mlp_hidden", zero, zero, graph, graph.identity_assignment()
        )
        assert np.array_equal(perm, np.arange(toy_arch.mlp_hidden))


class TestAttentionVariableSolve:
    @pytest.mark.parametrize("mode", ["compose", "tie"])
    def test_maximizes_objective_over_all_intras(self, mode):
        """With the head pairing held fixed, the within-head solve is an exact
        coordinate ascent: no choice of the 36 intras (H = 2, d_k = 3) gives a
        larger objective, output-projection coupling included."""
        arch = ArchSpec(1, 2, 6, 5, 4, 3)
        graph = build_coupling_graph(arch, mode, pin_embedding=False)
        inter = np.array([1, 0])
        perms3 = [np.array(p) for p in itertools.permutations(range(3))]
        for seed in range(4):
            a = init_random(arch, 40 + seed)
            b = init_random(arch, 50 + seed)
            assignment = graph.random_assignment(np.random.default_rng(60 + seed))
            got = solve_attention_variable("block.0.attn", a, b, graph, assignment, inter)

            best, best_obj = None, -np.inf
            for i0, i1 in itertools.product(perms3, perms3):
                perm = join_heads(inter, (i0, i1))
                assignment.perms["block.0.attn"] = perm
                obj = matching_objective(a, b, assignment, graph)
                if obj > best_obj:
                    best, best_obj = perm, obj
            assert np.array_equal(got, best), f"seed {seed}"


class TestWeightMatch:
    def test_self_match_is_identity_in_one_sweep(self, toy_arch):
        ws = init_random(toy_arch, 11)
        graph = build_coupling_graph(toy_arch, "compose")
        result = weight_match(ws, ws, graph)
        assert result.converged and result.n_sweeps == 1
        assert result.assignment == graph.identity_assignment()

    @pytest.mark.parametrize("mode", ["compose", "tie"])
    def test_plant_and_recover_exact(self, toy_arch, mode):
        ws = init_random(toy_arch, 12)
        graph = build_coupling_graph(toy_arch, mode, pin_embedding=(mode == "compose"))
        plant = graph.random_assignment(np.random.default_rng(13))
        ws_b = apply_assignment(ws, graph, plant)
        result = weight_match(ws, ws_b, graph, seed=1)
        assert recovery_fraction(result.assignment, plant, graph) == 1.0
        norm_sq = sum(float(np.sum(a * a)) for a in ws.tensors.values() if a.ndim == 2)
        assert result.trace[-1] == pytest.approx(norm_sq, rel=1e-6)

    def test_head_pairing_solved_once_per_block(self, toy_arch, monkeypatch):
        """Head pairing depends only on the raw weights, so a multi-sweep
        match computes it once per attention block, not once per visit."""
        ws = init_random(toy_arch, 12)
        graph = build_coupling_graph(toy_arch, "compose")
        ws_b = apply_assignment(ws, graph, graph.random_assignment(np.random.default_rng(13)))
        calls = []
        real = taskport.matching.pair_heads

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(taskport.matching, "pair_heads", counting)
        result = weight_match(ws, ws_b, graph, seed=1)
        assert result.n_sweeps > 1
        assert len(calls) == toy_arch.n_blocks

    def test_plant_and_recover_with_noise(self, toy_arch):
        ws = init_random(toy_arch, 14)
        graph = build_coupling_graph(toy_arch, "compose")
        plant = graph.random_assignment(np.random.default_rng(15))
        ws_b = _noisy_copy(apply_assignment(ws, graph, plant), 0.01, 16)
        result = weight_match(ws, ws_b, graph, seed=2)
        assert recovery_fraction(result.assignment, plant, graph) >= 0.99

    def test_monotone_objective_trace(self, toy_arch):
        """Every completed sweep may only raise the objective (rel 1e-9)."""
        for seed in range(6):
            a = init_random(toy_arch, 300 + seed)
            b = init_random(toy_arch, 400 + seed)
            graph = build_coupling_graph(toy_arch, "compose")
            result = weight_match(a, b, graph, seed=seed)
            for prev, nxt in zip(result.trace, result.trace[1:]):
                assert nxt >= prev - 1e-9 * abs(prev)

    def test_deterministic_given_seed(self, toy_arch):
        a = init_random(toy_arch, 17)
        b = init_random(toy_arch, 18)
        graph = build_coupling_graph(toy_arch, "compose")
        r1 = weight_match(a, b, graph, seed=5)
        r2 = weight_match(a, b, graph, seed=5)
        assert r1.assignment == r2.assignment
        assert r1.trace == r2.trace

    def test_idempotent_at_convergence(self, toy_arch):
        """Restarting from a converged assignment changes nothing and stops
        after one sweep, regardless of the fresh visiting order."""
        a = init_random(toy_arch, 19)
        b = init_random(toy_arch, 20)
        graph = build_coupling_graph(toy_arch, "compose")
        first = weight_match(a, b, graph, seed=6)
        assert first.converged
        again = weight_match(a, b, graph, seed=99, initial=first.assignment)
        assert again.converged and again.n_sweeps == 1
        assert again.assignment == first.assignment

    def test_max_sweeps_cap_reported(self, toy_arch):
        a = init_random(toy_arch, 21)
        b = init_random(toy_arch, 22)
        graph = build_coupling_graph(toy_arch, "compose")
        result = weight_match(a, b, graph, max_sweeps=1, seed=0)
        assert result.n_sweeps == 1
        assert not result.converged  # one sweep from identity always changes something

    @pytest.mark.parametrize("max_sweeps", [0, -1])
    def test_max_sweeps_below_one_rejected(self, toy_arch, max_sweeps):
        ws = init_random(toy_arch, 21)
        graph = build_coupling_graph(toy_arch, "compose")
        with pytest.raises(ValueError, match="max_sweeps"):
            weight_match(ws, ws, graph, max_sweeps=max_sweeps)

    def test_arch_mismatch_rejected(self, toy_arch):
        other = ArchSpec(1, 2, 8, 16, 4, 3)
        a = init_random(toy_arch, 23)
        b = init_random(other, 24)
        graph = build_coupling_graph(toy_arch, "compose")
        with pytest.raises(ArchMismatchError):
            weight_match(a, b, graph)

    def test_non_finite_weights_rejected(self, toy_arch):
        a = init_random(toy_arch, 29)
        b = init_random(toy_arch, 30)
        b.tensors["block.0.attn.v.weight"][0, 0] = np.nan
        graph = build_coupling_graph(toy_arch, "compose")
        with pytest.raises(NonFiniteTensorError, match="block.0.attn.v.weight"):
            weight_match(a, b, graph)

    def test_scaled_self_match_recovers_plant(self, toy_arch):
        """Scale-1 sanity for the spectral stage: the planted pairing is
        recovered when both sides share the weight scale."""
        ws = init_random(toy_arch, 25)
        graph = build_coupling_graph(toy_arch, "compose")
        plant = graph.random_assignment(np.random.default_rng(26))
        ws_b = apply_assignment(ws, graph, plant)
        result = weight_match(ws, ws_b, graph, seed=3)
        for i in range(toy_arch.n_blocks):
            var = f"block.{i}.attn"
            assert np.array_equal(result.assignment.block(var)[0], plant.block(var)[0])

    @pytest.mark.parametrize("mode", ["compose", "tie"])
    def test_attention_wiring_comes_from_the_graph(self, toy_arch, mode):
        """Variable ids are names, not tensor prefixes: renaming every
        variable of the graph renames the match and changes nothing else."""
        ws = init_random(toy_arch, 25)
        graph = build_coupling_graph(toy_arch, mode)
        ws_b = apply_assignment(ws, graph, graph.random_assignment(np.random.default_rng(26)))
        new = {var_id: f"v{i}" for i, var_id in enumerate(graph.variables)}
        renamed = CouplingGraph(
            graph.arch,
            graph.residual_mode,
            {new[k]: dataclasses.replace(var, id=new[k]) for k, var in graph.variables.items()},
            {name: tuple(new.get(var) for var in owners) for name, owners in graph.axes.items()},
            frozenset(new[v] for v in graph.pinned),
        )
        want = weight_match(ws, ws_b, graph, seed=3)
        got = weight_match(ws, ws_b, renamed, seed=3)
        assert got.trace == want.trace and got.changed == want.changed
        assert got.assignment.heads == {new[k]: h for k, h in want.assignment.heads.items()}
        for var_id, perm in want.assignment.perms.items():
            assert np.array_equal(got.assignment.perms[new[var_id]], perm)


class TestSkipRule:
    """A visit whose neighbours have not changed since the variable's last
    solve is skipped; the match must not notice."""

    @pytest.mark.parametrize("mode", ["compose", "tie"])
    def test_same_result_as_solving_every_visit(self, toy_arch, mode):
        for seed in range(4):
            ws = init_random(toy_arch, 500 + seed)
            graph = build_coupling_graph(toy_arch, mode, pin_embedding=(mode == "compose"))
            plant = graph.random_assignment(np.random.default_rng(600 + seed))
            ws_b = _noisy_copy(apply_assignment(ws, graph, plant), 0.05 * seed, 700 + seed)
            result = weight_match(ws, ws_b, graph, seed=seed)
            assignment, trace, changed, n_sweeps = reference_weight_match(ws, ws_b, graph, seed=seed)
            assert result.trace == trace, f"seed {seed}"
            assert result.changed == changed
            assert result.n_sweeps == n_sweeps
            assert result.assignment == assignment

    def test_solve_count_is_pinned(self, toy_arch, monkeypatch):
        """On this planted match the skip rule solves 29 of the 48 visits
        (6 sweeps over 8 free variables)."""
        ws = init_random(toy_arch, 14)
        graph = build_coupling_graph(toy_arch, "compose")
        plant = graph.random_assignment(np.random.default_rng(15))
        ws_b = _noisy_copy(apply_assignment(ws, graph, plant), 0.01, 16)
        solves = []
        for name in ("solve_plain_variable", "solve_attention_variable"):
            real = getattr(taskport.matching, name)

            def counting(*args, _real=real, **kwargs):
                solves.append(args[0])
                return _real(*args, **kwargs)

            monkeypatch.setattr(taskport.matching, name, counting)
        result = weight_match(ws, ws_b, graph, seed=2)
        visits = result.n_sweeps * len(graph.free_variables())
        assert (result.n_sweeps, visits) == (6, 48)
        assert len(solves) == 29



DEEP = ArchSpec(n_blocks=4, n_heads=4, embed_dim=64, mlp_hidden=128, input_dim=16, output_dim=10)
TIE_STALL = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: from the identity start, tie mode's shared stream variable "
    "stalls after 2 sweeps at recovery 0.044",
)


class TestDepth:
    """Four blocks, both residual modes, with and without layernorm: a
    planted assignment plus 1% noise on the nonzero weights."""

    @staticmethod
    def _plant(mode, layernorm):
        arch = dataclasses.replace(DEEP, has_layernorm=layernorm)
        ws = init_random(arch, 0)
        graph = build_coupling_graph(arch, mode, pin_embedding=(mode == "compose"))
        plant = graph.random_assignment(np.random.default_rng(1))
        return ws, graph, plant

    @pytest.mark.parametrize("layernorm", [False, True])
    @pytest.mark.parametrize("mode", ["compose", "tie"])
    def test_plant_is_equivalent(self, mode, layernorm):
        ws, graph, plant = self._plant(mode, layernorm)
        assert verify_equivalence(ws, graph, plant, tol=1e-9).passed

    @pytest.mark.parametrize("layernorm", [False, True])
    @pytest.mark.parametrize("mode", ["compose", pytest.param("tie", marks=TIE_STALL)])
    def test_plant_recovered(self, mode, layernorm):
        ws, graph, plant = self._plant(mode, layernorm)
        ws_b = apply_assignment(ws, graph, plant)
        rng = np.random.default_rng(2)
        for arr in ws_b.tensors.values():
            arr += rng.normal(0.0, 0.01 * float(arr.std()), arr.shape) * (arr != 0)
        result = weight_match(ws, ws_b, graph, seed=0)
        assert result.converged and result.n_sweeps <= 7
        assert recovery_fraction(result.assignment, plant, graph) == 1.0
