"""The precision contract: a weight set keeps its checkpoint's float32, and
every product promotes its operands to float64.

Promoting float32 to float64 is exact, so a model read from a checkpoint
must give every result bit for bit as its float64 copy does; the in-memory
task-vector arithmetic returns float64 whatever its inputs' dtype.
"""

from pathlib import Path

import numpy as np
import pytest

import taskport.matching as matching_mod
from taskport.checkpoint import (
    ArchSpec,
    WeightSet,
    read_checkpoint,
    read_task_vector,
    write_checkpoint,
    write_task_vector,
)
from taskport.coupling import apply_assignment, build_coupling_graph
from taskport.matching import format_trace, weight_match
from taskport.model import forward, init_random, lmc_curve, make_blob_batch, verify_equivalence
from taskport.transport import compute_task_vector, transport

ARCH = ArchSpec(2, 4, 32, 64, 10, 4, has_layernorm=True)
MODES = {"compose": build_coupling_graph(ARCH, "compose"),
         "tie": build_coupling_graph(ARCH, "tie", pin_embedding=False)}


def _float64(ws: WeightSet) -> WeightSet:
    return WeightSet(ws.arch, {name: arr.astype(np.float64) for name, arr in ws.tensors.items()})


def _noisy(ws: WeightSet, rng: np.random.Generator, scale: float) -> WeightSet:
    """Noise on every tensor, so LayerNorm gains and biases are not 1 and 0."""
    return WeightSet(ws.arch, {name: arr + rng.normal(0.0, scale, arr.shape) for name, arr in ws.tensors.items()})


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """Float32 models read from checkpoints: A, a fine-tuned A, and per mode
    a B planted from A plus noise."""
    tmp = tmp_path_factory.mktemp("precision")
    rng = np.random.default_rng(0)

    def read(ws, name):
        write_checkpoint(ws, str(tmp / name))
        return read_checkpoint(str(tmp / name))

    a = read(_noisy(init_random(ARCH, 0), rng, 0.1), "a")
    out = {"a": a, "tuned": read(_noisy(a, rng, 0.01), "tuned")}
    for mode, graph in MODES.items():
        out[f"b_{mode}"] = read(_noisy(apply_assignment(a, graph, graph.random_assignment(rng)), rng, 0.05), mode)
    return out


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_read_keeps_float32_and_weight_sets_keep_their_dtype(models):
    assert all(arr.dtype == np.float32 and arr.flags.writeable for arr in models["a"].tensors.values())
    assert all(arr.dtype == np.float64 for arr in _float64(models["a"]).tensors.values())
    ints = {name: np.zeros(shape, dtype=np.int64) for name, shape in ARCH.tensor_shapes().items()}
    assert all(arr.dtype == np.float64 for arr in WeightSet(ARCH, ints).tensors.values())


def test_forward_logits_equal_the_float64_copy(models):
    a32 = models["a"]
    a64 = _float64(a32)
    X = np.random.default_rng(1).normal(size=(6, 5, ARCH.input_dim))
    assert _same_bits(forward(a32, X), forward(a64, X))
    graph = MODES["compose"]
    assignment = graph.random_assignment(np.random.default_rng(2))
    skips = graph.residual_perms(assignment)
    moved32, moved64 = apply_assignment(a32, graph, assignment), apply_assignment(a64, graph, assignment)
    assert _same_bits(forward(moved32, X, residual_perms=skips), forward(moved64, X, residual_perms=skips))


def test_verify_max_dev_equals_the_float64_copy(models):
    graph = MODES["compose"]
    assignment = graph.random_assignment(np.random.default_rng(3))
    got = verify_equivalence(models["a"], graph, assignment, n_samples=20)
    want = verify_equivalence(_float64(models["a"]), graph, assignment, n_samples=20)
    assert got.max_dev == want.max_dev and got.passed


def _match_recording(monkeypatch, ws_a, ws_b, graph):
    """``weight_match``'s result, and every array it hands to its solvers and
    its head pairing: the value matrices and the q/k/v weights."""
    seen = []
    for name in ("solve_max", "align_within_heads", "pair_heads"):
        def recording(*args, _real=getattr(matching_mod, name), **kwargs):
            seen.extend(a for arg in args for a in (arg if isinstance(arg, tuple) else (arg,))
                        if isinstance(a, np.ndarray))
            return _real(*args, **kwargs)

        monkeypatch.setattr(matching_mod, name, recording)
    try:
        return weight_match(ws_a, ws_b, graph, seed=0), seen
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_weight_match_equals_the_float64_copy(models, mode, monkeypatch):
    graph = MODES[mode]
    a32, b32 = models["a"], models[f"b_{mode}"]
    got, got_inputs = _match_recording(monkeypatch, a32, b32, graph)
    want, want_inputs = _match_recording(monkeypatch, _float64(a32), _float64(b32), graph)
    assert len(got_inputs) == len(want_inputs)
    assert all(_same_bits(x, y) for x, y in zip(got_inputs, want_inputs))
    assert format_trace(got).encode() == format_trace(want).encode()
    assert got.assignment.heads == want.assignment.heads
    for var_id, perm in want.assignment.perms.items():
        np.testing.assert_array_equal(got.assignment.perms[var_id], perm)


def test_lmc_losses_equal_the_float64_copy(models):
    a32, b32 = models["a"], models["b_tie"]
    batch = make_blob_batch(ARCH, 16, 4, seed=4)
    got = lmc_curve(a32, b32, batch, n_points=5)
    want = lmc_curve(_float64(a32), _float64(b32), batch, n_points=5)
    assert _same_bits(got.losses, want.losses)


@pytest.mark.parametrize("scaling", [1.0, 0.5])
def test_task_vector_and_transport_return_the_float64_answer(models, scaling, tmp_path):
    tuned, base, new_base = models["tuned"], models["a"], models["b_compose"]
    tv = compute_task_vector(tuned, base)
    tv64 = compute_task_vector(_float64(tuned), _float64(base))
    write_task_vector(tv, str(tmp_path / "tv"))
    tv32 = read_task_vector(str(tmp_path / "tv"))
    graph = MODES["compose"]
    assignment = graph.random_assignment(np.random.default_rng(5))
    ported = transport(new_base, tv32, graph, assignment, scaling)
    ported64 = transport(_float64(new_base), _float64(tv32), graph, assignment, scaling)
    for name in ARCH.tensor_shapes():
        assert tv[name].dtype == np.float64 and _same_bits(tv[name], tv64[name])
        assert ported[name].dtype == np.float64 and _same_bits(ported[name], ported64[name])


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_apply_assignment_keeps_the_input_dtype(models, precision):
    ws = models["a"] if precision == "float32" else _float64(models["a"])
    graph = MODES["tie"]
    moved = apply_assignment(ws, graph, graph.random_assignment(np.random.default_rng(6)))
    assert all(arr.dtype == np.dtype(precision) for arr in moved.tensors.values())


def test_write_read_write_is_byte_stable(models, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    write_checkpoint(models["a"], str(first))
    write_checkpoint(read_checkpoint(str(first)), str(second))
    for name in ("manifest.json", "tensors.bin"):
        assert Path(first, name).read_bytes() == Path(second, name).read_bytes()
