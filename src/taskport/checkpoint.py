"""Checkpoint containers, task vectors, and permutation-assignment files.

A checkpoint is a directory holding ``manifest.json`` and ``tensors.bin``:

* ``manifest.json`` - UTF-8 JSON with ``format_version``, ``kind``
  (``weight_set`` / ``task_vector`` / ``eval_batch``), the architecture
  fields, and an ordered list of ``{name, shape, offset, length}`` records.
  ``offset`` and ``length`` are in bytes into ``tensors.bin``.
* ``tensors.bin`` - concatenated raw little-endian float32 values at the
  declared offsets.

Values are stored as float32 on disk, and ``read_container`` returns them
as float32 arrays, so ``write -> read -> write`` is byte stable.  A permutation
assignment is a UTF-8 text file with one ``<variable_id> : i0,i1,...``
record per variable; attention variables may be stored either flat over the
full width or as a ``*.inter`` record plus one ``*.intra.<h>`` per head.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from collections.abc import Iterable, Mapping

import numpy as np

from .errors import (
    ArchMismatchError,
    AssignmentFormatError,
    MalformedManifestError,
    MissingTensorError,
    NonFiniteTensorError,
    ShapeMismatchError,
)
from .perms import PermutationAssignment, check_permutation, join_heads

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
TENSORS_NAME = "tensors.bin"

KIND_WEIGHT_SET = "weight_set"
KIND_TASK_VECTOR = "task_vector"
KIND_EVAL_BATCH = "eval_batch"

_ARCH_FIELDS = (
    "n_blocks",
    "n_heads",
    "embed_dim",
    "mlp_hidden",
    "input_dim",
    "output_dim",
    "has_layernorm",
)


@dataclass(frozen=True)
class ArchSpec:
    """Static description of the toy transformer family handled here."""

    n_blocks: int
    n_heads: int
    embed_dim: int
    mlp_hidden: int
    input_dim: int
    output_dim: int
    has_layernorm: bool = False

    def __post_init__(self):
        # Stored as plain int and bool, so a manifest writes JSON numbers and booleans.
        for name in _ARCH_FIELDS[:-1]:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not isinstance(self.has_layernorm, (bool, np.bool_)):
            raise ValueError(f"has_layernorm must be a boolean, got {self.has_layernorm!r}")
        object.__setattr__(self, "has_layernorm", bool(self.has_layernorm))
        if self.embed_dim % self.n_heads != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} is not divisible by n_heads {self.n_heads}"
            )

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.n_heads

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        """Canonical tensor names and shapes, in manifest order."""
        return {name: shape for name, shape, _ in self.tensor_axes()}

    def tensor_axes(self):
        """The one tensor table: ``(name, shape, units)`` per tensor, in manifest
        order.  ``units`` labels each axis with the hidden-unit set it indexes,
        as ``(id, kind)`` with ``kind`` one of ``stream`` (residual stream),
        ``attn`` or ``hidden``; ``None`` marks the model-input and class axes."""
        d_m, d_h = self.embed_dim, self.mlp_hidden
        stream = ("embed.out", "stream")
        yield "embed.weight", (d_m, self.input_dim), (stream, None)
        for i in range(self.n_blocks):
            b = f"block.{i}"
            attn, hidden = (f"{b}.attn", "attn"), (f"{b}.mlp_hidden", "hidden")
            attn_out, mlp_out = (f"{b}.attn_out", "stream"), (f"{b}.mlp_out", "stream")
            for proj, rows, cols in (("q", attn, stream), ("k", attn, stream), ("v", attn, stream),
                                     ("out", attn_out, attn)):
                yield f"{b}.attn.{proj}.weight", (d_m, d_m), (rows, cols)
                yield f"{b}.attn.{proj}.bias", (d_m,), (rows,)
            if self.has_layernorm:
                yield f"{b}.ln1.gain", (d_m,), (attn_out,)
                yield f"{b}.ln1.bias", (d_m,), (attn_out,)
            yield f"{b}.mlp.fc1.weight", (d_h, d_m), (hidden, attn_out)
            yield f"{b}.mlp.fc1.bias", (d_h,), (hidden,)
            yield f"{b}.mlp.fc2.weight", (d_m, d_h), (mlp_out, hidden)
            yield f"{b}.mlp.fc2.bias", (d_m,), (mlp_out,)
            if self.has_layernorm:
                yield f"{b}.ln2.gain", (d_m,), (mlp_out,)
                yield f"{b}.ln2.bias", (d_m,), (mlp_out,)
            stream = mlp_out
        yield "head.weight", (self.output_dim, d_m), (None, stream)

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in _ARCH_FIELDS}

    @staticmethod
    def from_json_dict(d: dict) -> "ArchSpec":
        if not isinstance(d, dict):
            raise MalformedManifestError(f"manifest arch must be an object, got {d!r}")
        try:
            kwargs = {name: d[name] for name in _ARCH_FIELDS}
        except KeyError as e:
            raise MalformedManifestError(f"manifest arch is missing field {e.args[0]!r}") from e
        try:
            return ArchSpec(**kwargs)
        except (TypeError, ValueError) as e:
            raise MalformedManifestError(f"invalid arch in manifest: {e}") from e


def check_tensor_set(arch: ArchSpec, shapes: Mapping[str, tuple[int, ...]]) -> list[str]:
    """``arch``'s tensor names, in order, once ``shapes`` has exactly those
    with the implied shapes; a hostile arch fails at its first missing name."""
    names = []
    for name, shape, _ in arch.tensor_axes():
        if name not in shapes:
            raise MissingTensorError(name)
        if tuple(shapes[name]) != shape:
            raise ShapeMismatchError(name, f"got {tuple(shapes[name])}, arch implies {shape}")
        names.append(name)
    extra = set(shapes) - set(names)
    if extra:
        raise ShapeMismatchError(sorted(extra)[0], "tensor not implied by arch")
    return names


def require_finite(name: str, arr: np.ndarray) -> np.ndarray:
    """``arr``, refused unless it is all finite, like its float64 promotion."""
    if not np.all(np.isfinite(arr)):
        raise NonFiniteTensorError(name)
    return arr


@dataclass
class WeightSet:
    """All parameters of one model, keyed by canonical tensor name.  Float32
    and float64 arrays are kept as given, any other dtype is promoted to
    float64; every product promotes its operands to float64, exactly."""

    arch: ArchSpec
    tensors: dict[str, np.ndarray]

    def __post_init__(self):
        arrays = {name: np.asarray(arr) for name, arr in self.tensors.items()}
        arrays = {name: a if a.dtype in (np.float32, np.float64) else a.astype(np.float64) for name, a in arrays.items()}
        names = check_tensor_set(self.arch, {name: arr.shape for name, arr in arrays.items()})
        for name in names:
            require_finite(name, arrays[name])
        self.tensors = {name: arrays[name] for name in names}

    def copy(self) -> "WeightSet":
        """A deep copy."""
        return WeightSet(self.arch, {k: v.copy() for k, v in self.tensors.items()})

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]


def atomic_write(path: str, data: bytes | str | Iterable) -> None:
    """Replace ``path`` with ``data`` - text (stored as UTF-8), bytes, or an
    iterable of bytes-like chunks written in order - by renaming a uniquely
    named temporary file in its directory; the temporary file is removed if
    the write, the iteration or the rename fails.  It is created with
    ``open()``'s mode, 0666 less the umask, which the kernel applies.  An
    OSError about the temporary file (a missing directory, ``path`` a
    directory) is raised with its errno as an OSError about ``path``."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = (data,)
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as f:
                for chunk in data:
                    f.write(chunk)
                    del chunk  # written: hold no reference while the next chunk is made
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as e:
        if e.filename != tmp:
            raise
        raise OSError(e.errno, e.strerror, path) from e


def write_container(path: str, arch: ArchSpec, kind: str, shapes: Mapping[str, tuple[int, ...]],
                    arrays: Iterable[np.ndarray]) -> None:
    """Low-level container writer: one record per entry of ``shapes``, in its
    order, holding the matching array of ``arrays`` in the record's shape.
    The manifest is serialised before the blob, which is streamed one array
    at a time: a C-ordered ``<f4`` ndarray as it is, any other converted to
    a new one; so ``arrays`` may compute each tensor, or refill its own
    buffer, when asked for the next.
    A value not finite in float32 raises NonFiniteTensorError and leaves any
    container at ``path`` as it was."""
    records = []
    offset = 0
    for name, shape in shapes.items():
        length = 4 * math.prod(shape)
        records.append({"name": name, "shape": list(shape), "offset": offset, "length": length})
        offset += length
    manifest = json.dumps(  # before the blob: a failure here leaves ``path`` as it was
        {"format_version": FORMAT_VERSION, "kind": kind, "arch": arch.to_json_dict(), "tensors": records},
        indent=1,
    )
    created = not os.path.isdir(path)
    os.makedirs(path, exist_ok=True)

    def float32_records():  # each record is written before the next array is asked for
        source, end = iter(arrays), object()
        for name, shape in shapes.items():
            arr = next(source, end)  # no reference to the previous array is left while this one is made
            if arr is end:
                raise ValueError(f"write_container got fewer arrays than its {len(shapes)} records")
            if np.shape(arr) != tuple(shape):  # refused, never broadcast or reshaped
                raise ShapeMismatchError(name, f"got {np.shape(arr)}, record declares {tuple(shape)}")
            arr = np.asarray(arr).astype("<f4", order="C", casting="same_kind", copy=False)
            yield require_finite(name, arr)
            del arr
        if next(source, end) is not end:
            raise ValueError(f"write_container got more arrays than its {len(shapes)} records")

    try:
        with np.errstate(over="ignore"):  # an overflow, in ``arrays`` or the cast, is an inf refused above
            atomic_write(os.path.join(path, TENSORS_NAME), float32_records())
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    atomic_write(os.path.join(path, MANIFEST_NAME), manifest)


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _record_layout(records: list, blob_size: int) -> list[tuple[str, list, int, int]]:
    """``(name, shape, offset, count)`` per record, after checking that the
    records are well typed, uniquely named, and tile the blob: every byte in
    exactly one record."""
    layout = []
    names = set()
    for rec in records:
        try:
            name, shape = rec["name"], rec["shape"]
            offset, length = rec["offset"], rec["length"]
        except (KeyError, TypeError) as e:
            raise MalformedManifestError(f"bad tensor record {rec!r}") from e
        if not isinstance(name, str) or not isinstance(shape, list):
            raise MalformedManifestError(f"bad tensor record {rec!r}")
        if not all(_is_count(x) for x in (*shape, offset, length)):
            raise MalformedManifestError(f"tensor record {rec!r} needs non-negative integers")
        if name in names:
            raise MalformedManifestError(f"duplicate tensor record {name!r}")
        names.add(name)
        count = math.prod(shape)
        if length != 4 * count:
            raise ShapeMismatchError(name, f"manifest shape {shape} needs {4 * count} bytes, record declares {length}")
        if offset + length > blob_size:
            raise ShapeMismatchError(name, f"record [{offset}, {offset + length}) exceeds blob of {blob_size} bytes")
        layout.append((name, shape, offset, count))

    spans = sorted((offset, offset + 4 * count, name) for name, _, offset, count in layout if count)
    for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
        if start < end:
            raise MalformedManifestError(f"tensor records {first!r} and {second!r} overlap")
    uncovered = blob_size - sum(end - start for start, end, _ in spans)
    if uncovered:
        raise MalformedManifestError(f"{uncovered} bytes of {TENSORS_NAME} belong to no tensor record")
    return layout


class ContainerReader:
    """An open container.  Its manifest, record layout and (for weights) the
    tensor names and shapes are checked on opening, before any tensor data
    is read.  ``reader[name]`` is the finite float32 record as a read-only
    view of one reused scratch buffer, valid until the reader's next read;
    ``read_container`` gives owned float32 copies instead.  The blob's handle
    stays open for the ``with`` block, so an output renamed over the
    container leaves the bytes it reads unchanged."""

    def __init__(self, path: str, expect_kind: str | None = None):
        manifest_path = os.path.join(path, MANIFEST_NAME)
        try:
            with open(manifest_path, "rb") as f:
                manifest = json.loads(f.read().decode("utf-8"))
        except OSError as e:
            raise MalformedManifestError(f"cannot read {manifest_path}: {e}") from e
        except (ValueError, RecursionError) as e:  # UnicodeDecodeError is a ValueError
            raise MalformedManifestError(f"manifest is not valid JSON: {e}") from e
        if not isinstance(manifest, dict) or manifest.get("format_version") != FORMAT_VERSION:
            raise MalformedManifestError("unknown or missing format_version")
        self.kind = manifest.get("kind")
        if expect_kind is not None and self.kind != expect_kind:
            raise MalformedManifestError(f"expected kind {expect_kind!r}, found {self.kind!r}")
        self.arch = ArchSpec.from_json_dict(manifest.get("arch", {}))
        records = manifest.get("tensors")
        if not isinstance(records, list):
            raise MalformedManifestError("manifest has no tensor list")
        try:
            self._file = open(os.path.join(path, TENSORS_NAME), "rb")
        except OSError as e:
            raise MalformedManifestError(f"cannot read tensor data: {e}") from e
        try:
            layout = _record_layout(records, os.fstat(self._file.fileno()).st_size)
            self.shapes = {name: tuple(shape) for name, shape, _, _ in layout}
            if expect_kind in (KIND_WEIGHT_SET, KIND_TASK_VECTOR):
                check_tensor_set(self.arch, self.shapes)
        except BaseException:
            self._file.close()
            raise
        self._spans = {name: (offset, count) for name, _, offset, count in layout}
        self._scratch = np.empty(max((count for *_, count in layout), default=0), dtype="<f4")

    def _record(self, name: str) -> np.ndarray:
        offset, count = self._spans[name]
        buf = self._scratch[:count]
        try:
            self._file.seek(offset)
            if self._file.readinto(buf) != buf.nbytes:
                raise MalformedManifestError(f"tensor data ended inside record {name!r}")
        except OSError as e:
            raise MalformedManifestError(f"cannot read tensor data: {e}") from e
        buf.flags.writeable = False
        try:
            return buf.reshape(self.shapes[name])
        except ValueError as e:  # too many axes, or a huge axis of an empty tensor
            raise ShapeMismatchError(name, str(e)) from e

    def __getitem__(self, name: str) -> np.ndarray:
        return require_finite(name, self._record(name))

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()


def read_container(path: str, expect_kind: str | None = None) -> tuple[ArchSpec, str, dict[str, np.ndarray]]:
    """Every record of a ``ContainerReader`` as an owned float32 array, in
    manifest order, not yet checked for finite values; the blob is never in
    memory at once."""
    with ContainerReader(path, expect_kind) as reader:
        return reader.arch, reader.kind, {name: reader._record(name).copy() for name in reader.shapes}


def write_checkpoint(ws: WeightSet, path: str) -> None:
    write_container(path, ws.arch, KIND_WEIGHT_SET, ws.arch.tensor_shapes(), ws.tensors.values())


def read_checkpoint(path: str) -> WeightSet:
    arch, _, tensors = read_container(path, expect_kind=KIND_WEIGHT_SET)
    return WeightSet(arch, tensors)


def write_task_vector(tv: WeightSet, path: str) -> None:
    write_container(path, tv.arch, KIND_TASK_VECTOR, tv.arch.tensor_shapes(), tv.tensors.values())


def read_task_vector(path: str) -> WeightSet:
    arch, _, tensors = read_container(path, expect_kind=KIND_TASK_VECTOR)
    return WeightSet(arch, tensors)


def require_same_arch(a: ArchSpec, b: ArchSpec, what: str = "inputs") -> None:
    if a != b:
        raise ArchMismatchError(f"{what} disagree on architecture: {a} vs {b}")


# --------------------------------------------------------------------------
# permutation-assignment files


def _format_record(var_id: str, vec) -> str:
    return f"{var_id} : " + ",".join(str(int(x)) for x in vec)


def write_permutation_assignment(assignment: PermutationAssignment, path: str) -> None:
    """One text record per variable; an attention variable whose index vector
    keeps each head's units together (``assignment.block``) is stored as its
    inter record plus one intra record per head.  Every vector and head count
    is checked as the reader checks it before anything is written."""
    lines = []
    for var_id in sorted(assignment.perms):
        parts = assignment.block(var_id)
        if parts is not None:
            inter, intras = parts
            lines.append(_format_record(f"{var_id}.inter", inter))
            for h, intra in enumerate(intras):
                lines.append(_format_record(f"{var_id}.intra.{h}", intra))
        else:
            lines.append(_format_record(var_id, check_permutation(assignment.perms[var_id])))
    atomic_write(path, "\n".join(lines) + "\n")


def _parse_index_vector(text: str, where: str) -> np.ndarray:
    try:
        values = np.asarray([int(tok) for tok in text.split(",")], dtype=np.int64)
    except (ValueError, OverflowError) as e:
        raise AssignmentFormatError(f"{where}: cannot parse index vector {text!r}") from e
    return check_permutation(values)


def read_permutation_assignment(path: str) -> PermutationAssignment:
    """Parse and validate an assignment file.

    Raises AssignmentFormatError on syntax problems, duplicate records,
    duplicate or out-of-range indices, incomplete intra-head groups, or intra
    records outside a group.
    """
    try:
        with open(path, "rb") as f:
            text = f.read().decode("utf-8")
    except UnicodeDecodeError as e:
        raise AssignmentFormatError(f"{path}: not UTF-8 text: {e}") from e
    records: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise AssignmentFormatError(f"{path}:{lineno}: expected '<variable> : <indices>'")
        var_id, _, rest = line.partition(":")
        var_id = var_id.strip()
        vec = _parse_index_vector(rest.strip(), f"{path}:{lineno}")
        if var_id in records:
            raise AssignmentFormatError(f"{path}:{lineno}: duplicate record for {var_id!r}")
        records[var_id] = vec

    assignment = PermutationAssignment()
    for name in [name for name in records if name.endswith(".inter")]:
        base = name[: -len(".inter")]
        inter = records.pop(name)
        group = [f"{base}.intra.{h}" for h in range(inter.size)]
        if not all(h in records for h in group):
            raise AssignmentFormatError(f"{base!r} needs intra records for heads 0..{inter.size - 1}")
        assignment.perms[base] = join_heads(inter, [records.pop(h) for h in group])
        assignment.heads[base] = inter.size
    for var_id, vec in records.items():
        if ".intra." in var_id:
            raise AssignmentFormatError(f"{var_id!r} is an intra record outside any inter group")
        if var_id in assignment.perms:
            raise AssignmentFormatError(f"{var_id!r} has both flat and structured records")
        assignment.perms[var_id] = vec
    return assignment
