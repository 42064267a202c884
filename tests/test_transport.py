"""Task-vector algebra and transport."""

import contextlib
import dataclasses
import io
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskport.checkpoint import (
    KIND_TASK_VECTOR,
    KIND_WEIGHT_SET,
    ArchSpec,
    ContainerReader,
    WeightSet,
    read_checkpoint,
    read_task_vector,
    write_checkpoint,
    write_container,
    write_permutation_assignment,
    write_task_vector,
)
from taskport.cli import main
from taskport.coupling import CouplingGraph, apply_assignment, build_coupling_graph, permuted_tensors
from taskport.errors import ArchMismatchError, AssignmentFormatError, NonFiniteTensorError
from taskport.model import init_random
from taskport.transport import (
    compute_task_vector,
    task_vector_tensors,
    transport,
    transported_tensors,
)


@pytest.fixture
def setup(toy_arch):
    base = init_random(toy_arch, 0)
    finetuned = WeightSet(
        toy_arch,
        {n: a + 0.05 * np.random.default_rng(1).normal(size=a.shape) for n, a in base.tensors.items()},
    )
    graph = build_coupling_graph(toy_arch, "compose")
    assignment = graph.random_assignment(np.random.default_rng(2))
    return base, finetuned, graph, assignment


class TestComputeTaskVector:
    def test_same_model_gives_zero(self, toy_arch):
        ws = init_random(toy_arch, 3)
        tv = compute_task_vector(ws, ws)
        for arr in tv.tensors.values():
            assert np.all(arr == 0.0)

    def test_additive_inverse(self, setup):
        base, finetuned, _, _ = setup
        tv = compute_task_vector(finetuned, base)
        rebuilt = {n: base.tensors[n] + tv.tensors[n] for n in base.tensors}
        for name in base.tensors:
            np.testing.assert_array_equal(rebuilt[name], finetuned.tensors[name])

    def test_commutes_with_permutation(self, setup):
        """pi(finetuned) - pi(base) == pi(finetuned - base), exactly."""
        base, finetuned, graph, assignment = setup
        tv = compute_task_vector(finetuned, base)
        moved_tv = apply_assignment(tv, graph, assignment)
        direct = compute_task_vector(
            apply_assignment(finetuned, graph, assignment),
            apply_assignment(base, graph, assignment),
        )
        for name in tv.tensors:
            np.testing.assert_array_equal(moved_tv.tensors[name], direct.tensors[name])

    def test_arch_mismatch(self, toy_arch):
        other = init_random(ArchSpec(1, 2, 8, 16, 4, 3), 4)
        with pytest.raises(ArchMismatchError):
            compute_task_vector(init_random(toy_arch, 5), other)


F32_MAX = float(np.finfo(np.float32).max)
F32_SPECIAL = [0.0, -0.0, F32_MAX, -F32_MAX, float(np.finfo(np.float32).tiny),
               float(np.finfo(np.float32).smallest_subnormal), -float(np.finfo(np.float32).smallest_subnormal)]


@st.composite
def float32_pairs(draw, max_size=64):
    """Two equal-length float32 vectors: any finite values (subnormals
    included), the extremes, and second operands a few units in the last
    place from the first, where the difference cancels."""
    value = st.one_of(st.floats(width=32, allow_nan=False, allow_infinity=False), st.sampled_from(F32_SPECIAL))
    n = draw(st.integers(1, max_size))
    a = np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=np.float32)
    b = np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=np.float32)
    near = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    steps = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        ulps = np.nextafter(a, np.float32(np.inf)) - a  # the float32 spacing above a (inf at the top)
        nudged = (a.astype(np.float64) + steps * ulps.astype(np.float64)).astype(np.float32)
    return a, np.where(near & np.isfinite(nudged), nudged, b)


class TestFloat32Difference:
    """The streamed ``task-vector`` subtracts the float32 records it reads:
    that is float64's difference rounded to float32, bit for bit, because
    double rounding is innocuous when the wide format has at least
    2 * 24 + 2 significand bits (Figueroa 1995)."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(float32_pairs())
    def test_float32_difference_is_float64_difference_rounded(self, pair):
        a, b = pair
        with np.errstate(over="ignore"):
            got = a - b
            want = (a.astype(np.float64) - b.astype(np.float64)).astype(np.float32)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(float32_pairs(max_size=128))
    def test_cli_task_vector_writes_the_in_memory_bytes(self, pair):
        """Records holding such pairs port to the in-memory API's bytes; a
        difference beyond float32's range is refused by both, and the command
        line reports it in one line, with no numpy warning, and leaves no
        output behind."""
        a, b = pair
        arch = ArchSpec(1, 2, 8, 16, 4, 3)
        name = "block.0.mlp.fc1.weight"
        with tempfile.TemporaryDirectory() as d:
            paths = {key: os.path.join(d, key) for key in ("ft", "base", "out", "expect")}
            for key, values, seed in (("ft", a, 0), ("base", b, 1)):
                ws = init_random(arch, seed)
                ws.tensors[name].flat[: values.size] = values
                write_checkpoint(ws, paths[key])
            tv = compute_task_vector(read_checkpoint(paths["ft"]), read_checkpoint(paths["base"]))
            try:
                write_task_vector(tv, paths["expect"])
            except NonFiniteTensorError:
                expect = None
            else:
                expect = {f: Path(paths["expect"], f).read_bytes() for f in os.listdir(paths["expect"])}
            with contextlib.redirect_stderr(io.StringIO()) as err, warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy overflow warning would fail the call
                code = main(["task-vector", "--finetuned", paths["ft"], "--base", paths["base"], "--out", paths["out"]])
            if expect is None:
                assert code == 1 and not os.path.exists(paths["out"])
                assert err.getvalue() == f"error: tensor '{name}' contains non-finite values\n"
            else:
                assert code == 0
                assert {f: Path(paths["out"], f).read_bytes() for f in expect} == expect


class TestFloat32Sum:
    """The streamed ``transport`` adds the float32 records it reads when a
    tensor's factor is 1: that is float64's sum rounded to float32, bit for
    bit, by the theorem ``TestFloat32Difference`` pins (a + b is a - (-b)).
    Any other factor multiplies and adds in float64."""

    ARCH = ArchSpec(2, 2, 8, 16, 4, 3)
    NAME = "block.0.mlp.fc1.weight"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(float32_pairs(), st.booleans())
    def test_float32_sum_is_float64_sum_rounded(self, pair, negate):
        """Negating the second operand turns the pairs' near neighbours
        into sums that cancel."""
        a, b = pair
        b = -b if negate else b
        with np.errstate(over="ignore"):
            got = a + b
            want = (a.astype(np.float64) + b.astype(np.float64)).astype(np.float32)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def _port(self, d, tv_values, base_values, argv_scaling=(), scaling=1.0):
        """Write a base holding ``base_values`` and a task vector holding
        ``tv_values`` in ``NAME``'s first entries, then port the vector with
        the identity assignment, so that paired values meet, through the
        command line and through the in-memory API.  Returns the exit code,
        the stderr text and the in-memory files (None if the in-memory
        write refuses a non-finite sum)."""
        paths = {key: os.path.join(d, key) for key in ("base", "tv", "out", "expect")}
        graph = build_coupling_graph(self.ARCH, "compose")
        identity = graph.identity_assignment()
        paths["perm"] = os.path.join(d, "id.perm")
        write_permutation_assignment(identity, paths["perm"])
        base, tv = init_random(self.ARCH, 0), init_random(self.ARCH, 1)
        base.tensors[self.NAME].flat[: base_values.size] = base_values
        tv.tensors[self.NAME].flat[: tv_values.size] = tv_values
        write_checkpoint(base, paths["base"])
        write_task_vector(tv, paths["tv"])
        ported = transport(read_checkpoint(paths["base"]), read_task_vector(paths["tv"]), graph, identity, scaling)
        try:
            write_checkpoint(ported, paths["expect"])
        except NonFiniteTensorError:
            expect = None
        else:
            expect = {f: Path(paths["expect"], f).read_bytes() for f in os.listdir(paths["expect"])}
        with contextlib.redirect_stderr(io.StringIO()) as err, warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would fail the call
            code = main(["transport", "--base", paths["base"], "--task-vector", paths["tv"],
                         "--perm", paths["perm"], "--out", paths["out"], *argv_scaling])
        if code == 0:
            assert expect is not None
            assert {f: Path(paths["out"], f).read_bytes() for f in expect} == expect
        else:
            assert not os.path.exists(paths["out"])
        return code, err.getvalue(), expect

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(float32_pairs(max_size=128), st.booleans())
    def test_cli_transport_writes_the_in_memory_bytes(self, pair, negate):
        """At the default ``--alpha``, records holding such pairs port to the
        in-memory API's bytes; a sum beyond float32's range is refused by
        both, in one line and with no numpy warning."""
        a, b = pair
        with tempfile.TemporaryDirectory() as d:
            code, err, expect = self._port(d, a, -b if negate else b)
        if expect is None:
            assert code == 1 and err == f"error: tensor '{self.NAME}' contains non-finite values\n"
        else:
            assert code == 0 and err == ""

    def test_sum_beyond_float32_range_is_refused(self, tmp_path):
        top = np.array([F32_MAX, -F32_MAX], dtype=np.float32)
        code, err, expect = self._port(str(tmp_path), top, top)
        assert expect is None
        assert code == 1 and err == f"error: tensor '{self.NAME}' contains non-finite values\n"

    def test_alpha_file_mixing_one_and_another_factor(self, tmp_path):
        """Block 0 (and the embedding) adds in float32, block 1 (and the
        classifier) multiplies by 0.37 in float64, in one call."""
        pair = np.array([1.0, F32_MAX / 3, 1e-30], dtype=np.float32)
        code, err, expect = self._port(str(tmp_path), pair, pair, ["--alpha", "1,0.37"], [1.0, 0.37])
        assert code == 0 and err == "" and expect is not None


class TestTransport:
    def test_alpha_zero_is_base(self, setup):
        base, finetuned, graph, assignment = setup
        tv = compute_task_vector(finetuned, base)
        out = transport(base, tv, graph, assignment, scaling=0.0)
        for name in base.tensors:
            np.testing.assert_array_equal(out.tensors[name], base.tensors[name])

    def test_identity_assignment_alpha_one_is_vanilla_addition(self, setup):
        base, finetuned, graph, _ = setup
        tv = compute_task_vector(finetuned, base)
        out = transport(base, tv, graph, graph.identity_assignment(), scaling=1.0)
        for name in base.tensors:
            np.testing.assert_array_equal(
                out.tensors[name], base.tensors[name] + tv.tensors[name]
            )

    def test_transport_linearity(self, setup):
        """transport == base + alpha * permuted vector, tensor-exact."""
        base, finetuned, graph, assignment = setup
        tv = compute_task_vector(finetuned, base)
        moved = apply_assignment(tv, graph, assignment)
        for alpha in (0.25, 1.0, 2.0):
            out = transport(base, tv, graph, assignment, scaling=alpha)
            for name in base.tensors:
                np.testing.assert_array_equal(
                    out.tensors[name], base.tensors[name] + alpha * moved.tensors[name]
                )

    def test_negative_alpha_rejected(self, setup):
        base, finetuned, graph, assignment = setup
        tv = compute_task_vector(finetuned, base)
        with pytest.raises(ValueError):
            transport(base, tv, graph, assignment, scaling=-0.5)

    @pytest.mark.parametrize("scaling", [float("nan"), float("inf"), [1.0, float("nan")]])
    def test_non_finite_scaling_rejected(self, setup, scaling):
        base, finetuned, graph, assignment = setup
        tv = compute_task_vector(finetuned, base)
        with pytest.raises(ValueError, match="finite"):
            transport(base, tv, graph, assignment, scaling=scaling)

    def test_per_block_scaling(self, setup, toy_arch):
        base, finetuned, graph, assignment = setup
        tv = compute_task_vector(finetuned, base)
        out = transport(base, tv, graph, assignment, scaling=[0.5, 2.0])
        moved = apply_assignment(tv, graph, assignment)
        np.testing.assert_array_equal(
            out.tensors["embed.weight"],
            base.tensors["embed.weight"] + 0.5 * moved.tensors["embed.weight"],
        )
        np.testing.assert_array_equal(
            out.tensors["head.weight"],
            base.tensors["head.weight"] + 2.0 * moved.tensors["head.weight"],
        )
        np.testing.assert_array_equal(
            out.tensors["block.1.mlp.fc1.weight"],
            base.tensors["block.1.mlp.fc1.weight"] + 2.0 * moved.tensors["block.1.mlp.fc1.weight"],
        )

    def test_per_block_length_checked(self, setup):
        base, finetuned, graph, assignment = setup
        tv = compute_task_vector(finetuned, base)
        with pytest.raises(ValueError):
            transport(base, tv, graph, assignment, [1.0])

    def test_one_assignment_reused_without_rematching(self, setup, monkeypatch):
        """Transport must never call the matcher; the assignment is reusable
        across any number of task vectors."""
        import taskport.matching as matching_mod

        calls = {"n": 0}
        original = matching_mod.weight_match

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(matching_mod, "weight_match", counting)
        base, finetuned, graph, assignment = setup
        rng = np.random.default_rng(6)
        for k in range(3):
            delta = WeightSet(
                base.arch,
                {n: rng.normal(size=a.shape) * 0.01 for n, a in base.tensors.items()},
            )
            transport(base, delta, graph, assignment, scaling=1.0)
        assert calls["n"] == 0

    @pytest.mark.parametrize("case", ["identity", "random", "unpermuted_tensors"])
    def test_inputs_left_bit_identical(self, setup, case):
        """Transport scales and adds in place, in arrays apply_assignment made
        for it: never in the base's or the task vector's own arrays.  With
        ``unpermuted_tensors`` the graph leaves the biases and the classifier
        alone, so those tensors take apply_assignment's copy branch."""
        base, finetuned, graph, assignment = setup
        tv = compute_task_vector(finetuned, base)
        if case == "identity":
            assignment = graph.identity_assignment()
        elif case == "unpermuted_tensors":
            axes = {name: (None,) * len(owners) if name.endswith("bias") or name == "head.weight" else owners
                    for name, owners in graph.axes.items()}
            graph = CouplingGraph(graph.arch, graph.residual_mode, graph.variables, axes, graph.pinned)
        snapshots = [{n: a.copy() for n, a in ws.tensors.items()} for ws in (base, tv)]
        out = transport(base, tv, graph, assignment, 0.5)
        for ws, snapshot in zip((base, tv), snapshots):
            for name, arr in ws.tensors.items():
                assert arr.tobytes() == snapshot[name].tobytes(), name
                assert not np.shares_memory(out.tensors[name], arr), name
        moved = apply_assignment(tv, graph, assignment)
        for name, arr in out.tensors.items():
            np.testing.assert_array_equal(arr, base.tensors[name] + 0.5 * moved.tensors[name])


class TestChecksOnCall:
    """``permuted_tensors``, ``task_vector_tensors`` and
    ``transported_tensors`` check their inputs when called, before any tensor
    is read: over containers whose every value is nan, each refuses with its
    own check's error, so a writer handed the result is never called."""

    @staticmethod
    def _open_nan(path, arch, kind):
        """A container of ``arch`` whose every value is nan, opened."""
        shapes = arch.tensor_shapes()
        write_container(path, arch, kind, shapes, (np.zeros(shape) for shape in shapes.values()))
        n = sum(int(np.prod(shape)) for shape in shapes.values())
        with open(os.path.join(path, "tensors.bin"), "wb") as f:
            f.write(np.full(n, np.nan, dtype="<f4").tobytes())
        return ContainerReader(path, kind)

    def test_refused_before_reading(self, tmp_path, toy_arch):
        other = dataclasses.replace(toy_arch, n_blocks=1)
        graph = build_coupling_graph(toy_arch, "compose")
        good = graph.identity_assignment()
        bad = graph.identity_assignment()
        bad.perms["block.0.mlp_hidden"] = np.array([1, 0])
        out = str(tmp_path / "out")
        with self._open_nan(str(tmp_path / "a"), toy_arch, KIND_WEIGHT_SET) as model, \
                self._open_nan(str(tmp_path / "o"), other, KIND_WEIGHT_SET) as other_model, \
                self._open_nan(str(tmp_path / "tv"), toy_arch, KIND_TASK_VECTOR) as tv:
            with pytest.raises(NonFiniteTensorError):  # what reading a tensor would raise
                next(permuted_tensors(model, graph, good))
            calls = [
                (AssignmentFormatError, "has length 2", lambda: permuted_tensors(model, graph, bad)),
                (ArchMismatchError, "disagree on architecture", lambda: task_vector_tensors(other_model, model)),
                (ValueError, "needs 2 factors, got 3",
                 lambda: transported_tensors(model, tv, graph, good, [1.0, 1.0, 1.0])),
            ]
            for error, message, call in calls:
                with pytest.raises(error, match=message) as info:
                    call()  # nothing iterated: a generator function would not raise here
                assert not isinstance(info.value, NonFiniteTensorError)
                with pytest.raises(error, match=message):
                    write_container(out, toy_arch, KIND_WEIGHT_SET, toy_arch.tensor_shapes(), call())
                assert not os.path.exists(out)
