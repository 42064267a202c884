"""Memory bounds of the port path, as multiples of the float64 model's bytes.

``tracemalloc`` sees numpy's array buffers, so each bound counts every
array a call allocates and still holds at its peak.  A read holds the model
it returns, in its records' float32, plus one record in flight; a write
holds one or two tensors' float32 bytes; an in-memory transport holds its output plus the
temporaries of one tensor; the ``apply``, ``task-vector`` and ``transport``
subcommands hold no model at all, only the float32 scratch buffer of each
input and of the permutation, and the temporaries of one tensor; a verify
holds the permuted model plus the activations of its batch slices, at most
128 samples each, whose buffers the forward pass reuses in place, and the
``verify`` subcommand the model it read too; the ``match`` subcommand holds
the two float32 models it read plus one value matrix and its solve; a LAP
solve holds its negated cost matrix and one reduced-cost matrix.
"""

import tracemalloc

import numpy as np
import pytest

import taskport.model as model_mod
from taskport.checkpoint import (
    ArchSpec,
    read_checkpoint,
    write_checkpoint,
    write_permutation_assignment,
    write_task_vector,
)
from taskport.cli import main
from taskport.coupling import apply_assignment, build_coupling_graph
from taskport.lap import solve_max
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
    """Measured 0.59x: the float32 model plus the reader's scratch buffer;
    1.09x while the records were promoted to float64."""
    path = str(tmp_path / "ckpt")
    write_checkpoint(model, path)
    assert _peak_ratio(model, read_checkpoint, path) <= 0.7


def test_write_streams_one_tensor_at_a_time(model, tmp_path):
    assert _peak_ratio(model, write_checkpoint, model, str(tmp_path / "ckpt")) <= 0.25


def test_transport_adds_in_place(model):
    graph = build_coupling_graph(ARCH, "compose")
    assignment = graph.random_assignment(np.random.default_rng(1))
    tv = compute_task_vector(init_random(ARCH, 2), model)
    assert _peak_ratio(model, transport, model, tv, graph, assignment, 0.5) <= 1.3


@pytest.mark.parametrize(
    "subcommand, alpha, bound",
    [("apply", None, 0.34), ("task-vector", None, 0.33), ("transport", "1", 0.43), ("transport", "0.5", 0.6)],
    ids=["apply", "task-vector", "transport-alpha-1", "transport-alpha-0.5"],
)
def test_port_subcommands_hold_one_tensor_at_a_time(model, tmp_path, subcommand, alpha, bound):
    """Measured 0.308x (apply), 0.299x (task-vector), 0.397x (transport
    ``--alpha 1``) and 0.557x (``--alpha 0.5``): the largest tensor is 0.16x
    of the model in float64.  A call holds a float32 scratch buffer per
    input, in ``apply`` and ``transport`` one for the permuted tensor, the
    float32 copies of one tensor that permuting or differencing makes, and
    writes float32 results as they are; ``transport`` at a factor of 1 adds
    in float32, at any other its float64 product and sum are converted to
    float32 by the writer.  While the writer converted every tensor
    and ``transport`` added in float64 they measured 0.37x, 0.35x and 0.54x
    (either factor); with float64 round trips 0.46x, 0.53x and 0.52x;
    before the subcommands ran tensor by tensor, 2.2x, 2.1x and 3.2x."""
    paths = {key: str(tmp_path / key) for key in ("base", "tuned", "tv", "out")}
    write_checkpoint(model, paths["base"])
    write_checkpoint(init_random(ARCH, 2), paths["tuned"])
    write_task_vector(compute_task_vector(init_random(ARCH, 2), model), paths["tv"])
    graph = build_coupling_graph(ARCH, "compose")
    perm = str(tmp_path / "a.perm")
    write_permutation_assignment(graph.random_assignment(np.random.default_rng(1)), perm)
    argv = {
        "apply": ["apply", "--model", paths["base"], "--perm", perm],
        "task-vector": ["task-vector", "--finetuned", paths["tuned"], "--base", paths["base"]],
        "transport": ["transport", "--base", paths["base"], "--task-vector", paths["tv"], "--perm", perm,
                      "--alpha", str(alpha)],
    }[subcommand]
    assert _peak_ratio(model, main, argv + ["--out", paths["out"]]) <= bound


def test_verify_subcommand_holds_the_float32_model_twice(model, tmp_path, capsys):
    """Measured 1.46x at ``--samples 2``: ``verify`` reads the model in
    float32 and permutes a float32 copy of it; each product promotes one
    weight to float64, and two samples' activations are small.  It measured
    2.25x while the model was read into float64."""
    path, perm = str(tmp_path / "model"), str(tmp_path / "a.perm")
    write_checkpoint(model, path)
    graph = build_coupling_graph(ARCH, "compose")
    write_permutation_assignment(graph.random_assignment(np.random.default_rng(1)), perm)
    assert _peak_ratio(model, main, ["verify", "--model", path, "--perm", perm, "--samples", "2"]) <= 1.6
    assert capsys.readouterr().out.startswith("max deviation ")


def test_match_subcommand_holds_two_float32_models(model, tmp_path):
    """Measured 3.09x over 2 sweeps: the two float32 models, plus one value
    matrix, its operands promoted to float64 and the LAP's cost matrices.
    It measured 4.09x while both models were read into float64."""
    path_a, path_b = str(tmp_path / "a"), str(tmp_path / "b")
    write_checkpoint(model, path_a)
    graph = build_coupling_graph(ARCH, "compose")
    write_checkpoint(apply_assignment(model, graph, graph.random_assignment(np.random.default_rng(2))), path_b)
    argv = ["match", "--model-a", path_a, "--model-b", path_b, "--out", str(tmp_path / "a.perm"),
            "--max-sweeps", "2"]
    assert _peak_ratio(model, main, argv) <= 3.4


def _verify_peak_ratio(ws, monkeypatch, cores: int, n_samples: int = 1000) -> float:
    graph = build_coupling_graph(ARCH, "compose")
    assignment = graph.random_assignment(np.random.default_rng(1))
    monkeypatch.setattr(model_mod, "_usable_cores", lambda: cores)
    return _peak_ratio(ws, verify_equivalence, ws, graph, assignment, n_samples)


def test_verify_reuses_activation_buffers(model, monkeypatch):
    """1000 samples of 8 tokens in slices of 125: measured 3.35x; 17.4x in
    one batch, and 34.7x before the forward pass reused its buffers in place
    and dropped each activation once no later step read it."""
    assert _verify_peak_ratio(model, monkeypatch, 1) <= 4.0


@pytest.mark.parametrize("cores", [1, 2])
def test_verify_peak_does_not_grow_with_samples(model, monkeypatch, cores):
    """Past 128 samples per core only the input batch grows: 1000 samples
    peak within 5% of 128 * cores samples plus the extra inputs' bytes
    (measured 3.12x -> 3.35x at one core, 5.22x -> 5.36x at two, where two
    slices are in flight; 17.4x at 1000 samples in one batch per core)."""
    few = 128 * cores
    extra_inputs = (1000 - few) * model_mod._VERIFY_SEQ_LEN * ARCH.input_dim * 8 / _model_bytes(model)
    many = _verify_peak_ratio(model, monkeypatch, cores)
    assert many <= 1.05 * _verify_peak_ratio(model, monkeypatch, cores, few) + extra_inputs
    if cores == 2:
        assert many <= 6.0


def test_solve_max_holds_two_cost_matrices():
    """A 448-wide solve holds the negated input and the reduced costs, plus
    the tight mask: measured 2.13 cost-matrix sizes, and 3.05 while the
    scale and the mask each formed one more temporary."""
    values = np.random.default_rng(0).normal(size=(448, 448))
    tracemalloc.start()
    try:
        solve_max(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * values.nbytes
