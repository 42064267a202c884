"""Toy transformer: forward semantics, equivalence, gradients, interpolation."""

import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import taskport.model as model_mod
from conftest import make_random_batch, overflowing_model, token_loop_forward
from taskport.checkpoint import ArchSpec, WeightSet
from taskport.coupling import apply_assignment, build_coupling_graph
from taskport.errors import MalformedManifestError, NumericalFailureError, ShapeMismatchError
from taskport.model import (
    _forward,
    EvalBatch,
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


class TestForward:
    def test_zero_block_acts_as_identity_on_stream(self):
        arch = ArchSpec(1, 2, 8, 16, 8, 3, has_layernorm=False)
        ws = init_random(arch, 0)
        for name in list(ws.tensors):
            if name.startswith("block."):
                ws.tensors[name] = np.zeros_like(ws.tensors[name])
        ws.tensors["embed.weight"] = np.eye(8)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5, 8))
        expected = x.mean(axis=1) @ ws["head.weight"].T
        np.testing.assert_array_equal(forward(ws, x), expected)

    def test_deterministic(self, toy_arch):
        """Repeated calls agree bit for bit, and so does the training path,
        which also keeps every block's activations for the backward pass."""
        ws = init_random(toy_arch, 2)
        x = np.random.default_rng(3).normal(size=(4, 8, toy_arch.input_dim))
        np.testing.assert_array_equal(forward(ws, x), forward(ws, x))
        batch = EvalBatch(x, np.arange(4) % toy_arch.output_dim)
        assert loss_and_grads(ws, batch)[0] == batch_loss(ws, batch)

    @pytest.mark.parametrize("has_ln", [False, True])
    @pytest.mark.parametrize("n, seq_len", [(5, 7), (1, 6), (4, 1), (1, 1)])
    def test_matches_token_loop_reference(self, has_ln, n, seq_len):
        """An independent token-at-a-time forward agrees to float64 noise, so
        a reshape that mixes tokens across samples cannot pass by being
        present in both the model and its permuted self."""
        arch = ArchSpec(2, 4, 16, 24, 6, 3, has_layernorm=has_ln)
        ws = init_random(arch, 50)
        rng = np.random.default_rng(51)
        for name in ws.tensors:
            if name.endswith(".bias"):  # zero at init; make them count
                ws.tensors[name] = rng.normal(0.0, 0.1, ws[name].shape)
        x = rng.normal(size=(n, seq_len, arch.input_dim))
        np.testing.assert_allclose(forward(ws, x), token_loop_forward(ws, x), rtol=0, atol=1e-12)

    def test_batch_equals_samples_run_alone(self, toy_arch):
        ws = init_random(toy_arch, 53)
        x = np.random.default_rng(54).normal(size=(6, 5, toy_arch.input_dim))
        alone = np.concatenate([forward(ws, x[i : i + 1]) for i in range(len(x))])
        np.testing.assert_allclose(forward(ws, x), alone, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("has_ln", [False, True])
    @pytest.mark.parametrize("mode", ["compose", "tie"])
    def test_inference_path_equals_training_path_bit_for_bit(self, has_ln, mode):
        """Inference reuses activation buffers in place that the training
        path keeps; the logits must not drift by a bit."""
        arch = ArchSpec(2, 4, 16, 24, 6, 3, has_layernorm=has_ln)
        ws = init_random(arch, 56)
        graph = build_coupling_graph(arch, mode, pin_embedding=False)
        assignment = graph.random_assignment(np.random.default_rng(57))
        permuted = apply_assignment(ws, graph, assignment)
        skips = graph.residual_perms(assignment)
        x = np.random.default_rng(58).normal(size=(5, 7, arch.input_dim))
        np.testing.assert_array_equal(forward(ws, x), _forward(ws, x, cache={}))
        np.testing.assert_array_equal(
            forward(permuted, x, skips), _forward(permuted, x, skips, cache={})
        )

    def test_bad_input_shape_rejected(self, toy_arch):
        ws = init_random(toy_arch, 4)
        with pytest.raises(ShapeMismatchError):
            forward(ws, np.zeros((2, 8, toy_arch.input_dim + 1)))

    def test_residual_perms_of_wrong_length_rejected(self, toy_arch):
        ws = init_random(toy_arch, 4)
        x = np.zeros((2, 3, toy_arch.input_dim))
        identity = np.arange(toy_arch.embed_dim)
        with pytest.raises(ValueError, match="one \\(skip1, skip2\\) pair per block"):
            forward(ws, x, [(identity, identity)] * (toy_arch.n_blocks + 1))

    @pytest.mark.parametrize("target", [-1, 3])
    def test_target_out_of_range_rejected(self, small_arch, target):
        ws = init_random(small_arch, 4)
        batch = EvalBatch(np.zeros((2, 3, small_arch.input_dim)), [0, target])
        with pytest.raises(ValueError, match="targets out of range"):
            batch_loss(ws, batch)

    def test_non_finite_reported_with_block(self, toy_arch):
        ws = init_random(toy_arch, 5)
        # two stacked huge factors guarantee an overflow past float64 range
        ws.tensors["block.1.mlp.fc1.weight"] = ws.tensors["block.1.mlp.fc1.weight"] * 1e200
        ws.tensors["block.1.mlp.fc2.weight"] = ws.tensors["block.1.mlp.fc2.weight"] * 1e200
        x = np.random.default_rng(6).normal(size=(2, 4, toy_arch.input_dim))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailureError, match="block 1"):
                forward(ws, x)


class TestEquivalence:
    def test_identity_assignment_exact(self, toy_arch):
        ws = init_random(toy_arch, 7)
        graph = build_coupling_graph(toy_arch, "compose")
        report = verify_equivalence(ws, graph, graph.identity_assignment(), n_samples=8, tol=0.0)
        assert report.max_dev == 0.0 and report.passed

    def test_compose_mode_with_derived_skips(self, toy_arch):
        """Permuted weights plus the derived skip permutations compute the
        same function to float64 noise."""
        ws = init_random(toy_arch, 8)
        graph = build_coupling_graph(toy_arch, "compose")
        rng = np.random.default_rng(9)
        for _ in range(10):
            assignment = graph.random_assignment(rng)
            report = verify_equivalence(ws, graph, assignment, n_samples=16, tol=1e-10)
            assert report.passed, report.max_dev

    def test_tie_mode_with_identity_skips(self, toy_arch):
        """A tie-mode permuted model is a standard model: one stream
        permutation cancels through every residual without skip rewiring."""
        ws = init_random(toy_arch, 10)
        graph = build_coupling_graph(toy_arch, "tie", pin_embedding=False)
        rng = np.random.default_rng(11)
        assignment = graph.random_assignment(rng)
        permuted = apply_assignment(ws, graph, assignment)
        x = rng.normal(size=(4, 8, toy_arch.input_dim))
        np.testing.assert_allclose(forward(permuted, x), forward(ws, x), atol=1e-10)

    def test_equivalence_envelope_up_to_three_blocks(self):
        """Both residual modes across depths 1..3 with and without layernorm."""
        rng = np.random.default_rng(40)
        for n_blocks in (1, 2, 3):
            for has_ln in (False, True):
                arch = ArchSpec(n_blocks, 4, 32, 64, 10, 4, has_layernorm=has_ln)
                ws = init_random(arch, 41 + n_blocks)
                for mode in ("compose", "tie"):
                    graph = build_coupling_graph(arch, mode, pin_embedding=False)
                    assignment = graph.random_assignment(rng)
                    report = verify_equivalence(ws, graph, assignment, n_samples=8, tol=1e-9)
                    assert report.passed, (n_blocks, has_ln, mode, report.max_dev)

    def test_compose_permuted_without_skips_differs(self, toy_arch):
        """Dropping the skip rewiring must break equivalence; this is the
        failure the derived skip permutations exist to prevent."""
        ws = init_random(toy_arch, 12)
        graph = build_coupling_graph(toy_arch, "compose")
        assignment = graph.random_assignment(np.random.default_rng(13))
        permuted = apply_assignment(ws, graph, assignment)
        x = np.random.default_rng(14).normal(size=(4, 8, toy_arch.input_dim))
        dev = np.abs(forward(permuted, x) - forward(ws, x)).max()
        assert dev > 1e-3

    def test_no_samples_rejected(self, toy_arch):
        ws = init_random(toy_arch, 55)
        graph = build_coupling_graph(toy_arch, "compose")
        with pytest.raises(ValueError, match="n_samples"):
            verify_equivalence(ws, graph, graph.identity_assignment(), n_samples=0)

    def test_contaminated_attention_fails(self, toy_arch, monkeypatch):
        """At every slice count: one failing slice fails the whole check.
        The graph's refusal of a vector that mixes heads is switched off, so
        that the numerical check alone judges it."""
        ws = init_random(toy_arch, 15)
        graph = build_coupling_graph(toy_arch, "compose")
        monkeypatch.setattr(graph, "check_assignment", lambda assignment: None)
        assignment = graph.random_assignment(np.random.default_rng(16))
        flat = assignment.perms["block.0.attn"].copy()
        d_k = toy_arch.head_dim
        flat[[0, d_k]] = flat[[d_k, 0]]  # mix units across heads 0 and 1
        assignment.perms["block.0.attn"] = flat
        for cores in (1, 2, 3):
            monkeypatch.setattr(model_mod, "_usable_cores", lambda: cores)
            report = verify_equivalence(ws, graph, assignment, n_samples=16, tol=1e-9)
            assert not report.passed, cores


class TestEquivalenceSlices:
    """``verify_equivalence`` cuts its batch into slices of at most 128
    samples, one per usable core while that suffices, and thread t of k
    checks slices t, t + k, ...."""

    @pytest.mark.parametrize("mode", ["compose", "tie"])
    @pytest.mark.parametrize("n_samples", [1, 2, 7, 129, 300])
    def test_verdict_and_deviation_at_every_slice_count(self, toy_arch, monkeypatch,
                                                         mode, n_samples):
        """1 to 3 cores, including one sample, fewer samples than cores and
        more samples than 128 per core (2 or 3 slices on one thread, 3
        slices on 2 threads), give the same verdict within float64 noise."""
        ws = init_random(toy_arch, 59)
        graph = build_coupling_graph(toy_arch, mode, pin_embedding=False)
        assignment = graph.random_assignment(np.random.default_rng(60))
        for cores in (1, 2, 3):
            monkeypatch.setattr(model_mod, "_usable_cores", lambda: cores)
            report = verify_equivalence(ws, graph, assignment, n_samples=n_samples, tol=1e-12)
            assert report.passed and report.max_dev <= 1e-12, (cores, report.max_dev)

    def test_slices_are_cut_per_usable_core_and_sample(self, toy_arch, monkeypatch):
        """``max(ceil(n / 128), min(n, cores))`` contiguous slices, checked
        by ``k = min(slices, cores)`` threads: the calling thread checks
        slices 0, k, 2k, ..., one executor per call with ``max(k - 1, 1)``
        workers the rest, and every thread is gone when the call returns.
        Up to 128 samples per core, that is one slice per core (at most one
        per sample)."""
        ws = init_random(toy_arch, 61)
        graph = build_coupling_graph(toy_arch, "compose")
        seen: list = []
        pools: list = []
        original_forward, original_pool = model_mod.forward, model_mod.ThreadPoolExecutor

        def spy(ws_, x, residual_perms=None):
            start = int(np.flatnonzero((X == x[0]).all(axis=(1, 2)))[0])
            seen.append((start, len(x), threading.current_thread() is threading.main_thread()))
            return original_forward(ws_, x, residual_perms)

        def pool_spy(max_workers):
            pools.append(max_workers)
            return original_pool(max_workers)

        monkeypatch.setattr(model_mod, "forward", spy)
        monkeypatch.setattr(model_mod, "ThreadPoolExecutor", pool_spy)
        # cores, samples, slice sizes, pool threads (k - 1)
        for cores, n_samples, sizes, workers in (
            (1, 5, [5], 0), (2, 5, [3, 2], 1), (3, 7, [3, 2, 2], 2), (3, 2, [1, 1], 1),
            (4, 1, [1], 0), (2, 256, [128, 128], 1), (1, 129, [65, 64], 0),
            (2, 300, [100, 100, 100], 1), (3, 400, [100] * 4, 2), (2, 1000, [125] * 8, 1),
        ):
            X = np.random.default_rng(0).normal(size=(n_samples, 8, toy_arch.input_dim))  # verify's inputs
            monkeypatch.setattr(model_mod, "_usable_cores", lambda: cores)
            seen.clear()
            pools.clear()
            before = threading.active_count()
            verify_equivalence(ws, graph, graph.identity_assignment(), n_samples=n_samples)
            assert threading.active_count() == before
            starts = np.cumsum([0] + sizes[:-1]).tolist()
            assert sorted((start, n) for start, n, _ in seen) == sorted(2 * list(zip(starts, sizes)))
            assert sorted(start for start, _, main in seen if main) == sorted(2 * starts[::workers + 1])
            assert pools == [max(workers, 1)]

    @pytest.mark.parametrize("cpu_count, cores", [(3, 3), (None, 1)])
    def test_usable_cores_without_an_affinity_call(self, monkeypatch, cpu_count, cores):
        """Where the platform has no ``sched_getaffinity``, every core the
        system reports is usable, and one when it reports none."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert model_mod._usable_cores() == cores

    def test_overflow_in_a_worker_slice_is_raised(self, monkeypatch):
        """Only the second of two samples overflows, so the error starts in
        the pool's thread; it reaches the caller, the pool is gone, and the
        worker ran under the caller's numpy error state (no warning)."""
        X = np.random.default_rng(3).normal(size=(2, 8, 1))  # verify's inputs at seed 3
        assert X[1].max() > X[0].max()
        ws = overflowing_model((X[0].max() + X[1].max()) / 2)
        forward(ws, X[:1])  # the calling thread's slice alone is finite
        graph = build_coupling_graph(ws.arch, "compose")
        monkeypatch.setattr(model_mod, "_usable_cores", lambda: 2)
        before = threading.active_count()
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="non-finite activations in block 4"):
                verify_equivalence(ws, graph, graph.identity_assignment(), n_samples=2, seed=3)
        assert threading.active_count() == before


class TestGradients:
    def _numeric_grad(self, ws, batch, name, h=1e-5):
        arr = ws.tensors[name]
        num = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = {k: v.copy() for k, v in ws.tensors.items()}
            plus[name][idx] += h
            minus = {k: v.copy() for k, v in ws.tensors.items()}
            minus[name][idx] -= h
            num[idx] = (
                batch_loss(WeightSet(ws.arch, plus), batch)
                - batch_loss(WeightSet(ws.arch, minus), batch)
            ) / (2 * h)
        return num

    @pytest.mark.parametrize("has_ln", [False, True])
    def test_analytic_matches_central_differences(self, has_ln):
        """Every parameter tensor of a 2-block toy, relative error <= 1e-4.

        The denominator floor covers tensors whose true gradient is exactly
        zero (the key bias: shifting every key adds a constant to each score
        row, which softmax ignores) - there both sides sit at rounding noise.
        """
        arch = ArchSpec(2, 2, 8, 12, 5, 3, has_layernorm=has_ln)
        ws = init_random(arch, 17)
        batch = make_random_batch(arch, n=6, seq_len=3, seed=18)
        _, grads = loss_and_grads(ws, batch)
        for name in ws.tensors:
            num = self._numeric_grad(ws, batch, name)
            scale = max(np.abs(num).max(), np.abs(grads[name]).max(), 1e-5)
            rel = np.abs(grads[name] - num).max() / scale
            assert rel <= 1e-4, f"{name}: rel={rel:.3e}"


class TestTrainToy:
    def test_zero_steps_is_identity(self, small_arch):
        ws = init_random(small_arch, 19)
        batch = make_blob_batch(small_arch, 12, 4, 20)
        out = train_toy(ws, batch, steps=0, lr=0.1)
        for name in ws.tensors:
            np.testing.assert_array_equal(out.tensors[name], ws.tensors[name])

    def test_same_seed_same_weights(self, small_arch):
        a = init_random(small_arch, 21)
        b = init_random(small_arch, 21)
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])

    def test_loss_strictly_decreases_on_separable_task(self, small_arch):
        ws = init_random(small_arch, 22)
        batch = make_blob_batch(small_arch, 24, 4, 23)
        before = batch_loss(ws, batch)
        after = batch_loss(train_toy(ws, batch, steps=200, lr=0.05), batch)
        assert after < before

    def test_divergence_reports_step(self, small_arch):
        ws = init_random(small_arch, 24)
        batch = make_blob_batch(small_arch, 12, 4, 25)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailureError, match="step"):
                train_toy(ws, batch, steps=200, lr=1e12)

    def test_divergence_at_the_last_check_reports_step(self, small_arch):
        """With no block weights the stream is the embedded input, finite, but
        a huge classifier row sends every logit to inf: the loss the final
        check computes is nan."""
        ws = WeightSet(small_arch, {name: np.zeros(shape) for name, shape in small_arch.tensor_shapes().items()})
        ws.tensors["embed.weight"][0, 0] = 1.0
        ws.tensors["head.weight"][:, 0] = 1e308
        batch = EvalBatch(np.full((2, 3, small_arch.input_dim), 3.0), [0, 1])
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalFailureError, match="training diverged at step 0: loss=nan"):
                train_toy(ws, batch, steps=0, lr=0.1)


class TestLmcCurve:
    def test_same_model_constant_curve(self, small_arch):
        ws = init_random(small_arch, 26)
        batch = make_blob_batch(small_arch, 12, 4, 27)
        curve = lmc_curve(ws, ws, batch, n_points=5)
        assert np.all(curve.losses == curve.losses[0])

    def test_endpoints_equal_standalone_losses_exactly(self, small_arch):
        left = init_random(small_arch, 28)
        right = init_random(small_arch, 29)
        batch = make_blob_batch(small_arch, 12, 4, 30)
        curve = lmc_curve(left, right, batch, n_points=7)
        assert curve.losses[0] == batch_loss(left, batch)
        assert curve.losses[-1] == batch_loss(right, batch)
        assert curve.alphas[0] == 0.0 and curve.alphas[-1] == 1.0
        assert np.all(np.diff(curve.alphas) > 0)

    def test_two_points_minimum(self, small_arch):
        ws = init_random(small_arch, 31)
        batch = make_blob_batch(small_arch, 8, 4, 32)
        with pytest.raises(ValueError):
            lmc_curve(ws, ws, batch, n_points=1)


class TestEvalBatchIO:
    def test_round_trip(self, tmp_path, small_arch):
        rng = np.random.default_rng(33)
        inputs = rng.normal(size=(6, 4, small_arch.input_dim)).astype(np.float32).astype(np.float64)
        batch = EvalBatch(inputs, rng.integers(0, small_arch.output_dim, size=6))
        path = str(tmp_path / "batch")
        write_eval_batch(batch, small_arch, path)
        back, arch = read_eval_batch(path)
        assert arch == small_arch
        np.testing.assert_array_equal(back.inputs, batch.inputs)
        np.testing.assert_array_equal(back.targets, batch.targets)

    @staticmethod
    def _write_batch(path, arch, case):
        from taskport.checkpoint import KIND_EVAL_BATCH, write_container

        rows = 0 if case == "zero_rows" else 2
        n_targets = {"more_targets": 3, "fewer_targets": 1}.get(case, rows)
        targets = np.array([0.5, 1.0]) if case == "fractional" else np.arange(n_targets) % arch.output_dim
        inputs = np.zeros((rows, 3, arch.input_dim))
        write_container(path, arch, KIND_EVAL_BATCH, {"inputs": inputs.shape, "targets": targets.shape}, (inputs, targets))
        if case in ("nan_input", "inf_input"):  # the writer refuses them, so patch the blob
            blob = Path(path, "tensors.bin")
            raw = bytearray(blob.read_bytes())
            raw[0:4] = np.array([np.nan if case == "nan_input" else -np.inf], dtype="<f4").tobytes()
            blob.write_bytes(bytes(raw))

    @pytest.mark.parametrize("targets", [[0.7, 1.9], [np.nan, 0], [np.inf, 0], [0, 1e30]])
    def test_constructor_refuses_targets_not_whole_numbers(self, targets):
        """The in-memory constructor refuses what the file reader refuses, and
        a nan, infinite or huge target raises with no numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="integral"):
                EvalBatch(np.zeros((2, 3, 4)), targets)
        np.testing.assert_array_equal(EvalBatch(np.zeros((2, 3, 4)), [1.0, 0.0]).targets, [1, 0])

    def test_targets_must_be_integral(self, tmp_path, small_arch):
        path = str(tmp_path / "batch")
        self._write_batch(path, small_arch, "fractional")
        with pytest.raises(MalformedManifestError, match="integral"):
            read_eval_batch(path)

    @pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf, 1e30])
    def test_unusable_target_refused_without_warning(self, tmp_path, small_arch, target):
        """Targets are checked as floats before the integer cast, so a nan,
        infinite or huge target raises with no numpy warning."""
        from taskport.checkpoint import KIND_EVAL_BATCH, write_container

        path = str(tmp_path / "batch")
        inputs, targets = np.zeros((2, 3, small_arch.input_dim)), np.zeros(2)
        write_container(path, small_arch, KIND_EVAL_BATCH, {"inputs": inputs.shape, "targets": targets.shape},
                        (inputs, targets))
        blob = Path(path, "tensors.bin")  # the writer refuses nan and inf, so patch the blob
        raw = bytearray(blob.read_bytes())
        raw[-4:] = np.array([target], dtype="<f4").tobytes()
        blob.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedManifestError):
                read_eval_batch(path)

    @pytest.mark.parametrize("case", ["zero_rows", "nan_input", "inf_input", "more_targets", "fewer_targets"])
    def test_malformed_batch_is_a_manifest_error(self, tmp_path, small_arch, case):
        """No rows, a non-finite input, or a target count that is not the
        row count is a MalformedManifestError, like fractional targets."""
        path = str(tmp_path / "batch")
        self._write_batch(path, small_arch, case)
        with pytest.raises(MalformedManifestError):
            read_eval_batch(path)
