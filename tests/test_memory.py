"""Memory bounds of the port path, as multiples of the float64 model's bytes.

``tracemalloc`` sees numpy's array buffers, so each bound counts every
array a call allocates and still holds at its peak.  A read holds the model
it returns plus one record in flight; a write holds one or two tensors'
float32 bytes; a transport holds its output plus the temporaries of one
tensor; the ``task-vector`` subcommand holds the two models it reads; a
verify holds the permuted model plus the activations of its batch slices,
whose buffers the forward pass reuses in place.
"""

import tracemalloc

import numpy as np
import pytest

import taskport.model as model_mod
from taskport.checkpoint import ArchSpec, read_checkpoint, write_checkpoint
from taskport.cli import main
from taskport.coupling import build_coupling_graph
from taskport.model import init_random, verify_equivalence
from taskport.transport import compute_task_vector, transport

ARCH = ArchSpec(2, 4, 128, 512, 16, 4, has_layernorm=True)


@pytest.fixture(scope="module")
def model():
    return init_random(ARCH, 0)


def _model_bytes(ws) -> int:
    return sum(arr.nbytes for arr in ws.tensors.values())


def _peak_ratio(ws, fn, *args) -> float:
    """Peak traced bytes of ``fn(*args)``, over the model's float64 bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak / _model_bytes(ws)


def test_read_holds_the_model_plus_one_record(model, tmp_path):
    path = str(tmp_path / "ckpt")
    write_checkpoint(model, path)
    assert _peak_ratio(model, read_checkpoint, path) <= 1.2


def test_write_streams_one_tensor_at_a_time(model, tmp_path):
    assert _peak_ratio(model, write_checkpoint, model, str(tmp_path / "ckpt")) <= 0.25


def test_transport_adds_in_place(model):
    graph = build_coupling_graph(ARCH, "compose")
    assignment = graph.random_assignment(np.random.default_rng(1))
    tv = compute_task_vector(init_random(ARCH, 2), model)
    assert _peak_ratio(model, transport, model, tv, graph, assignment, 0.5) <= 1.3


def test_task_vector_cli_holds_two_models(model, tmp_path):
    """The difference is formed in the fine-tuned arrays the call just read,
    so no third model-sized buffer is allocated."""
    base, tuned = str(tmp_path / "base"), str(tmp_path / "tuned")
    write_checkpoint(model, base)
    write_checkpoint(init_random(ARCH, 2), tuned)
    argv = ["task-vector", "--finetuned", tuned, "--base", base, "--out", str(tmp_path / "tv")]
    assert _peak_ratio(model, main, argv) <= 2.3


def _verify_peak_ratio(ws, monkeypatch, cores: int) -> float:
    graph = build_coupling_graph(ARCH, "compose")
    assignment = graph.random_assignment(np.random.default_rng(1))
    monkeypatch.setattr(model_mod, "_usable_cores", lambda: cores)
    return _peak_ratio(ws, verify_equivalence, ws, graph, assignment, 1000)


def test_verify_reuses_activation_buffers(model, monkeypatch):
    """1000 samples of 8 tokens: measured 17.4x, and 34.7x before the
    forward pass reused its buffers in place and dropped each activation
    once no later step read it."""
    assert _verify_peak_ratio(model, monkeypatch, 1) <= 19.0


def test_verify_slices_hold_no_more_than_one_batch(model, monkeypatch):
    """Two slices in flight hold half the activations each (measured
    equal to one slice's peak)."""
    one = _verify_peak_ratio(model, monkeypatch, 1)
    assert _verify_peak_ratio(model, monkeypatch, 2) <= 1.05 * one
