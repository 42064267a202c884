"""Minimal float64 transformer: forward pass, gradients, and a tiny trainer.

This is the reference harness used to certify that permuted weight sets are
functionally equivalent, to draw interpolation (mode-connectivity) curves,
and to drive desk-scale experiments.  Weights may be float32, as read from a
checkpoint, or float64; each product promotes them to float64, exactly.
Blocks follow the pre-norm-free layout

    z_attn = W0 * MHA(x) + b0
    z_mid  = z_attn + skip1(x)
    z_f    = W2 * relu(W1 * z_mid + b1) + b2
    z_out  = z_f + skip2(z_mid)

with optional post-residual LayerNorm after each sum, mean pooling over the
sequence, and a fixed linear classifier.  ``skip1``/``skip2`` default to
identities; a permuted weight set produced in compose mode supplies its
derived skip permutations instead.

Every linear layer runs as one GEMM on the ``(n*s, d)`` token matrix rather
than one small product per sample, in the forward and the backward pass
alike; only the per-head score and value products stay batched by sample.
The forward pass reuses buffers in place (scores, ReLU, residual sums,
LayerNorm input) in the same operation order, so results stay bit-identical;
without a training cache it also drops each activation once no later step
reads it.  ``verify_equivalence`` cuts its batch into contiguous slices of at
most 128 samples, so its activations do not grow with the sample count, and
thread t of k = min(slices, usable cores) checks slices t, t + k, ...: numpy
releases the interpreter lock inside its BLAS products and ufunc loops.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .checkpoint import (
    KIND_EVAL_BATCH,
    ArchSpec,
    WeightSet,
    read_container,
    require_same_arch,
    write_container,
)
from .coupling import CouplingGraph, apply_assignment
from .errors import MalformedManifestError, NumericalFailureError, ShapeMismatchError
from .perms import PermutationAssignment

_LN_EPS = 1e-5
_VERIFY_SEQ_LEN = 8  # tokens per random input of ``verify_equivalence``
_SLICE_SAMPLES = 128  # most samples in one ``verify_equivalence`` slice: 1,024 token rows
_BLOB_SPREAD = 3.0  # scale of the class means of ``make_blob_batch``


@dataclass
class EvalBatch:
    """Inputs (n, seq, input_dim) float64 and integer class targets (n,)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        targets = np.asarray(self.targets)
        with np.errstate(invalid="ignore"):  # nan, inf and huge values cast to garbage, refused below
            self.targets = targets.astype(np.int64)
        if not np.array_equal(self.targets, targets):
            raise ValueError("targets are not exactly integral")
        if self.inputs.ndim != 3 or 0 in self.inputs.shape:
            raise ValueError(f"inputs must be (n, seq, input_dim) with positive dims, got {self.inputs.shape}")
        if self.targets.shape != (self.inputs.shape[0],):
            raise ValueError("targets must be one label per input row")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("inputs contain non-finite values")


@dataclass
class LmcCurve:
    alphas: np.ndarray
    losses: np.ndarray


@dataclass
class EquivalenceReport:
    max_dev: float
    tol: float
    passed: bool


def _layernorm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """LayerNorm over the last axis; ``x`` is overwritten with its
    normalised form, which the backward pass keeps."""
    x -= x.mean(axis=-1, keepdims=True)
    var = np.mean(x * x, axis=-1, keepdims=True)
    istd = 1.0 / np.sqrt(var + _LN_EPS)
    x *= istd
    y = np.asarray(gain, dtype=np.float64) * x
    y += np.asarray(bias, dtype=np.float64)
    return y, (x, istd)


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in ``x`` and returned."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _split_heads(t: np.ndarray, n_heads: int) -> np.ndarray:
    n, s, d_m = t.shape
    return t.reshape(n, s, n_heads, d_m // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(t: np.ndarray) -> np.ndarray:
    n, h, s, d_k = t.shape
    return t.transpose(0, 2, 1, 3).reshape(n, s, h * d_k)


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``x @ w.T + b`` over the last axis of ``x``, as one GEMM on the
    flattened ``(-1, d_in)`` rows, in float64; the bias is added in place."""
    w = np.asarray(w, dtype=np.float64)
    y = (x.reshape(-1, x.shape[-1]) @ w.T).reshape(x.shape[:-1] + (w.shape[0],))
    if b is not None:
        y += np.asarray(b, dtype=np.float64)
    return y


def _attention(ws: WeightSet, b: str, z: np.ndarray, c: dict | None) -> np.ndarray:
    """Attention output projection of block ``b``; its activations go to
    ``c`` when one is given and are dropped on return otherwise."""
    n_heads = ws.arch.n_heads
    qh, kh, vh = (
        _split_heads(_linear(z, ws[f"{b}.attn.{p}.weight"], ws[f"{b}.attn.{p}.bias"]), n_heads)
        for p in ("q", "k", "v")
    )
    scores = qh @ kh.transpose(0, 1, 3, 2)
    scores *= 1.0 / np.sqrt(ws.arch.head_dim)
    attn = _softmax(scores)
    o = _merge_heads(attn @ vh)
    if c is not None:
        c.update(qh=qh, kh=kh, vh=vh, attn=attn, o=o)
    return _linear(o, ws[f"{b}.attn.out.weight"], ws[f"{b}.attn.out.bias"])


def _mlp(ws: WeightSet, b: str, z_mid: np.ndarray, c: dict | None) -> np.ndarray:
    """MLP output of block ``b``, caching like ``_attention``."""
    h1 = _linear(z_mid, ws[f"{b}.mlp.fc1.weight"], ws[f"{b}.mlp.fc1.bias"])
    np.maximum(h1, 0.0, out=h1)
    if c is not None:
        c["h1"] = h1
    return _linear(h1, ws[f"{b}.mlp.fc2.weight"], ws[f"{b}.mlp.fc2.bias"])


def _add_and_norm(ws: WeightSet, i: int, k: int, y: np.ndarray, z: np.ndarray, skip, c: dict | None):
    """The stream after sublayer ``k`` (1 attention, 2 MLP) of block ``i``:
    the branch output ``y`` plus ``z``, whose features ``skip`` permutes when
    given, checked finite, then LayerNorm ``ln{k}`` if the arch has one.  The
    sum is formed in ``y``; the LayerNorm cache goes to ``c`` when given."""
    y += z if skip is None else z[..., skip]
    if not np.all(np.isfinite(y)):
        raise NumericalFailureError(f"non-finite activations in block {i}")
    if ws.arch.has_layernorm:
        y, ln = _layernorm(y, ws[f"block.{i}.ln{k}.gain"], ws[f"block.{i}.ln{k}.bias"])
        if c is not None:
            c[f"ln{k}"] = ln
    return y


def _forward(ws: WeightSet, X: np.ndarray, residual_perms=None, cache: dict | None = None):
    """Logits; when ``cache`` is a dict it also receives every activation the
    backward pass needs.  Without one, each activation is dropped as soon as
    no later step reads it, which keeps evaluation memory to a few
    activations of one sublayer."""
    arch = ws.arch
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3 or X.shape[2] != arch.input_dim:
        raise ShapeMismatchError("inputs", f"expected (n, seq, {arch.input_dim}), got {X.shape}")
    if residual_perms is not None and len(residual_perms) != arch.n_blocks:
        raise ValueError("residual_perms must supply one (skip1, skip2) pair per block")

    z = _linear(X, ws["embed.weight"])
    blocks = []
    for i in range(arch.n_blocks):
        b = f"block.{i}"
        c = {"x_in": z} if cache is not None else None
        skip1, skip2 = (None, None) if residual_perms is None else residual_perms[i]
        z = _add_and_norm(ws, i, 1, _attention(ws, b, z, c), z, skip1, c)
        if c is not None:
            c["z_mid"] = z
        z = _add_and_norm(ws, i, 2, _mlp(ws, b, z, c), z, skip2, c)
        if c is not None:
            blocks.append(c)

    pooled = z.mean(axis=1)
    logits = pooled @ np.asarray(ws["head.weight"], dtype=np.float64).T
    if cache is not None:
        cache.update(X=X, blocks=blocks, z_final=z, pooled=pooled)
    return logits


def forward(ws: WeightSet, X: np.ndarray, residual_perms=None) -> np.ndarray:
    """Class logits, shape (n, output_dim).  Deterministic, float64."""
    return _forward(ws, X, residual_perms)


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    targets = np.asarray(targets, dtype=np.int64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=1))
    picked = shifted[np.arange(len(targets)), targets]
    return float(np.mean(logz - picked))


def batch_loss(ws: WeightSet, batch: EvalBatch) -> float:
    if batch.targets.min() < 0 or batch.targets.max() >= ws.arch.output_dim:
        raise ValueError("targets out of range for arch output_dim")
    return cross_entropy(forward(ws, batch.inputs), batch.targets)


def _ln_backward(dy, gain, ln_cache):
    xhat, istd = ln_cache
    dgain = np.sum(dy * xhat, axis=(0, 1))
    dbias = np.sum(dy, axis=(0, 1))
    dxhat = dy * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = (dxhat - m1 - xhat * m2) * istd
    return dx, dgain, dbias


def _linear_backward(dy, x, w):
    # y = x @ w.T + b with x (..., in), w (out, in)
    dy2 = dy.reshape(-1, dy.shape[-1])
    x2 = x.reshape(-1, x.shape[-1])
    dw = dy2.T @ x2
    db = dy2.sum(axis=0)
    dx = (dy2 @ w).reshape(dy.shape[:-1] + (w.shape[1],))
    return dx, dw, db


def loss_and_grads(ws: WeightSet, batch: EvalBatch) -> tuple[float, dict[str, np.ndarray]]:
    """Cross-entropy loss and analytic gradients for every tensor.

    Gradients are for the plain model (identity skips); training never sees
    composed residual permutations.
    """
    arch = ws.arch
    cache: dict = {}
    logits = _forward(ws, batch.inputs, cache=cache)
    n = len(batch.targets)
    loss = cross_entropy(logits, batch.targets)

    probs = _softmax(logits)
    probs[np.arange(n), batch.targets] -= 1.0
    dlogits = probs / n

    grads: dict[str, np.ndarray] = {}
    dpooled, grads["head.weight"], _ = _linear_backward(dlogits, cache["pooled"], ws["head.weight"])
    seq_len = cache["z_final"].shape[1]
    dz = np.repeat(dpooled[:, None, :], seq_len, axis=1) / seq_len

    scale = 1.0 / np.sqrt(arch.head_dim)
    for i in reversed(range(arch.n_blocks)):
        b = f"block.{i}"
        c = cache["blocks"][i]
        if arch.has_layernorm:
            dz, grads[f"{b}.ln2.gain"], grads[f"{b}.ln2.bias"] = _ln_backward(
                dz, ws[f"{b}.ln2.gain"], c["ln2"]
            )
        dz_mid = dz  # through skip2
        dh1, grads[f"{b}.mlp.fc2.weight"], grads[f"{b}.mlp.fc2.bias"] = _linear_backward(
            dz, c["h1"], ws[f"{b}.mlp.fc2.weight"]
        )
        da1 = dh1 * (c["h1"] > 0.0)
        dx1, grads[f"{b}.mlp.fc1.weight"], grads[f"{b}.mlp.fc1.bias"] = _linear_backward(
            da1, c["z_mid"], ws[f"{b}.mlp.fc1.weight"]
        )
        dz_mid = dz_mid + dx1
        if arch.has_layernorm:
            dz_mid, grads[f"{b}.ln1.gain"], grads[f"{b}.ln1.bias"] = _ln_backward(
                dz_mid, ws[f"{b}.ln1.gain"], c["ln1"]
            )
        dx_skip = dz_mid  # through skip1
        do, grads[f"{b}.attn.out.weight"], grads[f"{b}.attn.out.bias"] = _linear_backward(
            dz_mid, c["o"], ws[f"{b}.attn.out.weight"]
        )

        doh = _split_heads(do, arch.n_heads)
        dattn = doh @ c["vh"].transpose(0, 1, 3, 2)
        dvh = c["attn"].transpose(0, 1, 3, 2) @ doh
        dscores = c["attn"] * (dattn - np.sum(dattn * c["attn"], axis=-1, keepdims=True))
        dqh = (dscores @ c["kh"]) * scale
        dkh = (dscores.transpose(0, 1, 3, 2) @ c["qh"]) * scale

        dx_attn = np.zeros_like(c["x_in"])
        for proj, dth in (("q", dqh), ("k", dkh), ("v", dvh)):
            dt = _merge_heads(dth)
            dxp, grads[f"{b}.attn.{proj}.weight"], grads[f"{b}.attn.{proj}.bias"] = _linear_backward(
                dt, c["x_in"], ws[f"{b}.attn.{proj}.weight"]
            )
            dx_attn += dxp
        dz = dx_skip + dx_attn

    _, grads["embed.weight"], _ = _linear_backward(dz, cache["X"], ws["embed.weight"])
    return loss, grads


def init_random(arch: ArchSpec, seed: int) -> WeightSet:
    """Gaussian weights with std 1/sqrt(fan_in), zero biases, unit LN gains."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in arch.tensor_shapes().items():
        if len(shape) == 2:
            fan_in = shape[1]
            tensors[name] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)
        elif name.endswith(".gain"):
            tensors[name] = np.ones(shape)
        else:
            tensors[name] = np.zeros(shape)
    return WeightSet(arch, tensors)


def train_toy(ws: WeightSet, batch: EvalBatch, steps: int, lr: float) -> WeightSet:
    """Full-batch gradient descent on cross-entropy; deterministic.  The loss
    is checked before every step and at the weights the last step leaves."""
    current = WeightSet(ws.arch, {name: arr.astype(np.float64) for name, arr in ws.tensors.items()})
    for step in range(steps + 1):
        try:
            if step < steps:
                loss, grads = loss_and_grads(current, batch)
            else:
                loss, grads = batch_loss(current, batch), {}
        except NumericalFailureError as e:
            raise NumericalFailureError(f"training diverged at step {step}: {e}") from e
        if not np.isfinite(loss):
            raise NumericalFailureError(f"training diverged at step {step}: loss={loss}")
        for name, g in grads.items():
            current.tensors[name] = current.tensors[name] - lr * g
    return current


def verify_equivalence(
    ws: WeightSet,
    graph: CouplingGraph,
    assignment: PermutationAssignment,
    n_samples: int = 100,
    tol: float = 1e-8,
    seed: int = 0,
) -> EquivalenceReport:
    """Compare the model against its permuted self on random inputs.

    The permuted model runs with the skip permutations its residual mode
    requires (identities in tie mode).  The classifier's column coupling
    undoes the final stream permutation, so outputs must agree directly.

    The batch is cut into ``max(ceil(n / 128), min(n, cores))`` contiguous
    slices, so no slice holds more than 128 samples, and up to 128 * cores
    samples give one slice per usable core.  Thread t of ``k = min(slices,
    cores)`` checks slices t, t + k, ...: thread 0 is the calling thread, the
    others come from a pool opened for this call.  The deviation is the
    maximum over the slices, and an error in any slice is raised here.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    permuted = apply_assignment(ws, graph, assignment)
    skips = graph.residual_perms(assignment)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_samples, _VERIFY_SEQ_LEN, ws.arch.input_dim))

    cores = _usable_cores()
    slices = np.array_split(X, max(-(-n_samples // _SLICE_SAMPLES), min(n_samples, cores)))
    k = min(len(slices), cores)

    def deviations(t: int) -> list[float]:
        devs = []
        for x in slices[t::k]:
            out = forward(permuted, x, residual_perms=skips)
            out -= forward(ws, x)
            devs.append(float(np.max(np.abs(out))))
        return devs

    with ThreadPoolExecutor(max(k - 1, 1)) as pool:  # starts no thread when k is 1
        # Each pool thread runs under the caller's numpy error state.
        futures = [pool.submit(contextvars.copy_context().run, deviations, t) for t in range(1, k)]
        devs = deviations(0) + [d for f in futures for d in f.result()]
    max_dev = float(np.max(devs))  # a nan deviation stays nan and fails
    return EquivalenceReport(max_dev=max_dev, tol=tol, passed=max_dev <= tol)


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def lmc_curve(ws_left: WeightSet, ws_right: WeightSet, batch: EvalBatch, n_points: int = 11) -> LmcCurve:
    """Loss along the straight line between two weight sets.

    The endpoints reuse the exact interpolation code path, so they equal the
    standalone losses bit for bit.
    """
    require_same_arch(ws_left.arch, ws_right.arch, "interpolation endpoints")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    alphas = np.linspace(0.0, 1.0, n_points)
    losses = np.empty(n_points)
    for idx, alpha in enumerate(alphas):
        mixed = {  # float64 by name, not by alpha's type: a Python float keeps float32 (NEP 50)
            name: np.multiply(1.0 - alpha, ws_left[name], dtype=np.float64)
            + np.multiply(alpha, ws_right[name], dtype=np.float64)
            for name in ws_left.tensors
        }
        losses[idx] = batch_loss(WeightSet(ws_left.arch, mixed), batch)
    return LmcCurve(alphas=alphas, losses=losses)


def make_blob_batch(arch: ArchSpec, n: int, seq_len: int, seed: int) -> EvalBatch:
    """Linearly-separable-ish synthetic task: one Gaussian blob per class."""
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(arch.output_dim, arch.input_dim)) * _BLOB_SPREAD
    y = np.arange(n) % arch.output_dim
    X = means[y][:, None, :] + rng.normal(size=(n, seq_len, arch.input_dim))
    return EvalBatch(X, y)


def write_eval_batch(batch: EvalBatch, arch: ArchSpec, path: str) -> None:
    shapes = {"inputs": batch.inputs.shape, "targets": batch.targets.shape}
    write_container(path, arch, KIND_EVAL_BATCH, shapes, (batch.inputs, batch.targets.astype(np.float64)))


def read_eval_batch(path: str) -> tuple[EvalBatch, ArchSpec]:
    arch, _, tensors = read_container(path, expect_kind=KIND_EVAL_BATCH)
    if "inputs" not in tensors or "targets" not in tensors:
        raise MalformedManifestError("eval batch needs 'inputs' and 'targets' tensors")
    inputs = tensors["inputs"]
    targets = tensors["targets"]
    if inputs.ndim != 3 or inputs.shape[2] != arch.input_dim:
        raise ShapeMismatchError("inputs", f"expected (n, seq, {arch.input_dim}), got {inputs.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= arch.output_dim):
        raise MalformedManifestError("targets out of range for arch output_dim")
    try:
        batch = EvalBatch(inputs, targets)
    except ValueError as e:
        raise MalformedManifestError(f"invalid eval batch: {e}") from e
    return batch, arch
