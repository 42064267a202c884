"""Container and assignment-file round trips, plus every documented failure."""

import errno
import json
import math
import os
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from taskport.checkpoint import (
    KIND_EVAL_BATCH,
    KIND_WEIGHT_SET,
    ArchSpec,
    ContainerReader,
    atomic_write,
    WeightSet,
    read_container,
    write_container,
    read_checkpoint,
    read_permutation_assignment,
    read_task_vector,
    write_checkpoint,
    write_permutation_assignment,
    write_task_vector,
)
from taskport.coupling import build_coupling_graph
from taskport.errors import (
    AssignmentFormatError,
    MalformedManifestError,
    MissingTensorError,
    NonFiniteTensorError,
    ShapeMismatchError,
)
from conftest import block_lists
from taskport.perms import PermutationAssignment, join_heads


def _random_weight_set(arch, seed):
    """float32-representable values so a first write is already exact."""
    rng = np.random.default_rng(seed)
    tensors = {
        name: rng.normal(size=shape).astype(np.float32).astype(np.float64)
        for name, shape in arch.tensor_shapes().items()
    }
    return WeightSet(arch, tensors)


class TestArchSpec:
    def test_head_dim(self):
        arch = ArchSpec(1, 4, 32, 64, 8, 3)
        assert arch.head_dim == 8

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ArchSpec(1, 3, 32, 64, 8, 3)

    def test_zero_blocks_forbidden(self):
        with pytest.raises(ValueError):
            ArchSpec(0, 2, 8, 16, 4, 2)

    def test_numpy_integers_stored_as_plain_ints(self, tmp_path):
        """A numpy integer dimension becomes a plain int, so the manifest
        serialises and reads back the same arch."""
        arch = ArchSpec(np.int64(1), np.int32(2), np.uint8(8), 16, 4, 2, has_layernorm=np.True_)
        assert arch == ArchSpec(1, 2, 8, 16, 4, 2, has_layernorm=True)
        assert {type(v) for v in arch.to_json_dict().values()} == {int, bool}
        path = str(tmp_path / "ckpt")
        write_checkpoint(_random_weight_set(arch, 0), path)
        assert read_checkpoint(path).arch == arch

    def test_bool_dimension_refused(self, tmp_path, small_arch):
        """``True`` is not a block count, whether given in code or read from
        a manifest, where it would otherwise pass for 1."""
        assert small_arch.n_blocks == 1
        with pytest.raises(ValueError):
            ArchSpec(**dict(small_arch.to_json_dict(), n_blocks=True))
        path = str(tmp_path / "ckpt")
        write_checkpoint(_random_weight_set(small_arch, 0), path)
        manifest_path = os.path.join(path, "manifest.json")
        manifest = json.loads(Path(manifest_path).read_text())
        manifest["arch"]["n_blocks"] = True
        Path(manifest_path).write_text(json.dumps(manifest))
        with pytest.raises(MalformedManifestError):
            read_checkpoint(path)

    def test_layernorm_toggles_tensor_names(self):
        with_ln = ArchSpec(1, 2, 8, 16, 4, 2, has_layernorm=True).tensor_shapes()
        without = ArchSpec(1, 2, 8, 16, 4, 2, has_layernorm=False).tensor_shapes()
        assert "block.0.ln1.gain" in with_ln
        assert "block.0.ln1.gain" not in without


class TestCheckpointRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path, toy_arch):
        ws = _random_weight_set(toy_arch, 0)
        path = str(tmp_path / "ckpt")
        write_checkpoint(ws, path)
        back = read_checkpoint(path)
        assert back.arch == ws.arch
        for name in ws.tensors:
            np.testing.assert_array_equal(back.tensors[name], ws.tensors[name])

    def test_write_read_write_is_byte_stable(self, tmp_path, toy_arch):
        rng = np.random.default_rng(1)
        ws = WeightSet(
            toy_arch,
            {n: rng.normal(size=s) for n, s in toy_arch.tensor_shapes().items()},
        )
        p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
        write_checkpoint(ws, p1)
        write_checkpoint(read_checkpoint(p1), p2)
        with open(os.path.join(p1, "tensors.bin"), "rb") as f:
            raw1 = f.read()
        with open(os.path.join(p2, "tensors.bin"), "rb") as f:
            raw2 = f.read()
        assert raw1 == raw2

    def test_round_trip_over_random_archs(self, tmp_path):
        rng = np.random.default_rng(2)
        for i in range(10):
            heads = int(rng.integers(1, 4))
            arch = ArchSpec(
                n_blocks=int(rng.integers(1, 4)),
                n_heads=heads,
                embed_dim=heads * int(rng.integers(1, 5)),
                mlp_hidden=int(rng.integers(1, 20)),
                input_dim=int(rng.integers(1, 8)),
                output_dim=int(rng.integers(1, 6)),
                has_layernorm=bool(rng.integers(0, 2)),
            )
            ws = _random_weight_set(arch, i)
            path = str(tmp_path / f"rt{i}")
            write_checkpoint(ws, path)
            back = read_checkpoint(path)
            for name in ws.tensors:
                np.testing.assert_array_equal(back.tensors[name], ws.tensors[name])

    def test_manifest_lists_every_canonical_name(self, tmp_path, small_arch):
        path = str(tmp_path / "ckpt")
        write_checkpoint(_random_weight_set(small_arch, 11), path)
        manifest = json.loads(Path(path, "manifest.json").read_text())
        listed = {rec["name"] for rec in manifest["tensors"]}
        assert listed == set(small_arch.tensor_shapes())
        assert manifest["kind"] == "weight_set"

    def test_overwrite_wins(self, tmp_path, small_arch):
        path = str(tmp_path / "ckpt")
        first = _random_weight_set(small_arch, 3)
        second = _random_weight_set(small_arch, 4)
        write_checkpoint(first, path)
        write_checkpoint(second, path)
        np.testing.assert_array_equal(
            read_checkpoint(path).tensors["embed.weight"], second.tensors["embed.weight"]
        )

    def test_task_vector_kind_is_distinct(self, tmp_path, small_arch):
        tv = _random_weight_set(small_arch, 5)
        path = str(tmp_path / "tv")
        write_task_vector(tv, path)
        back = read_task_vector(path)
        np.testing.assert_array_equal(back.tensors["head.weight"], tv.tensors["head.weight"])
        with pytest.raises(MalformedManifestError, match="expected kind 'weight_set', found 'task_vector'"):
            read_checkpoint(path)
        write_checkpoint(tv, path)
        with pytest.raises(MalformedManifestError, match="expected kind 'task_vector', found 'weight_set'"):
            read_task_vector(path)


class TestContainerReader:
    """``reader[name]`` is the checked float32 record itself, a read-only view
    of the reader's one scratch buffer; ``read_container`` gives an owned
    float32 copy of each record."""

    def test_item_is_a_read_only_float32_view(self, tmp_path, toy_arch):
        ws = _random_weight_set(toy_arch, 16)
        path = str(tmp_path / "ckpt")
        write_checkpoint(ws, path)
        copies = read_container(path)[2]
        with ContainerReader(path, KIND_WEIGHT_SET) as reader:
            for name in ws.tensors:
                record = reader[name]
                assert record.dtype == np.float32 and record.shape == ws[name].shape
                assert not record.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    record[(0,) * record.ndim] = 1.0
                promoted = record.astype(np.float64)
                owned = copies[name]
                assert owned.dtype == np.float32 and owned.flags.writeable and owned.flags.owndata
                np.testing.assert_array_equal(owned, promoted)
                np.testing.assert_array_equal(owned, ws[name])
            first, second = reader["block.0.mlp.fc1.weight"], reader["block.0.mlp.fc2.weight"]
            assert np.shares_memory(first, second)  # valid until the reader's next read

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_item_refuses_a_non_finite_record(self, tmp_path, toy_arch, bad):
        path = str(tmp_path / "ckpt")
        write_checkpoint(_random_weight_set(toy_arch, 17), path)
        manifest = json.loads(Path(path, "manifest.json").read_text())
        record = next(r for r in manifest["tensors"] if r["name"] == "block.1.attn.v.weight")
        with open(os.path.join(path, "tensors.bin"), "r+b") as f:
            f.seek(record["offset"] + 4 * 7)
            f.write(np.array([bad], dtype="<f4").tobytes())
        with ContainerReader(path, KIND_WEIGHT_SET) as reader:
            with pytest.raises(NonFiniteTensorError, match="'block.1.attn.v.weight'"):
                reader["block.1.attn.v.weight"]
            reader["block.1.attn.q.weight"]  # other records still read
        raw = read_container(path)[2]["block.1.attn.v.weight"]  # the unchecked float32 copy
        np.testing.assert_array_equal(raw.flat[7], bad)  # nan equals nan here


class TestCheckpointErrors:
    def test_missing_tensor_named(self, small_arch):
        tensors = _random_weight_set(small_arch, 6).tensors
        del tensors["head.weight"]
        with pytest.raises(MissingTensorError, match="head.weight"):
            WeightSet(small_arch, tensors)

    def test_shape_mismatch_named(self, small_arch):
        tensors = _random_weight_set(small_arch, 7).tensors
        tensors["embed.weight"] = tensors["embed.weight"][:, :-1]
        with pytest.raises(ShapeMismatchError, match="embed.weight"):
            WeightSet(small_arch, tensors)

    def test_nan_rejected(self, small_arch):
        tensors = _random_weight_set(small_arch, 8).tensors
        tensors["block.0.attn.q.weight"][0, 0] = np.nan
        with pytest.raises(NonFiniteTensorError, match="block.0.attn.q.weight"):
            WeightSet(small_arch, tensors)

    def test_blob_shorter_than_manifest(self, tmp_path, small_arch):
        path = str(tmp_path / "ckpt")
        write_checkpoint(_random_weight_set(small_arch, 9), path)
        manifest = json.loads(Path(path, "manifest.json").read_text())
        manifest["tensors"][0]["shape"] = [4, 4]  # declares 16 floats over fewer
        manifest["tensors"][0]["length"] = 64
        Path(path, "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises((ShapeMismatchError, MissingTensorError, MalformedManifestError)):
            read_checkpoint(path)

    def test_nan_on_disk_rejected(self, tmp_path, small_arch):
        path = str(tmp_path / "ckpt")
        write_checkpoint(_random_weight_set(small_arch, 10), path)
        blob_path = os.path.join(path, "tensors.bin")
        raw = bytearray(Path(blob_path).read_bytes())
        raw[0:4] = np.array([np.nan], dtype="<f4").tobytes()
        Path(blob_path).write_bytes(bytes(raw))
        with pytest.raises(NonFiniteTensorError):
            read_checkpoint(path)

    def test_garbage_manifest(self, tmp_path):
        path = tmp_path / "ckpt"
        path.mkdir()
        (path / "manifest.json").write_text("{not json")
        (path / "tensors.bin").write_bytes(b"")
        with pytest.raises(MalformedManifestError):
            read_checkpoint(str(path))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(MalformedManifestError):
            read_checkpoint(str(tmp_path / "nope"))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("arch", []),
            ("arch", None),
            ("arch", "tiny"),
            ("name", ["embed.weight"]),
            ("name", 7),
            ("shape", [-1]),
            ("shape", [2.0, 5]),
            ("shape", [True, 5]),
            ("shape", "40"),
            ("offset", 1.5),
            ("offset", -4),
            ("offset", "0"),
            ("length", 40.0),
            ("length", -4),
            ("record", 3),
        ],
    )
    def test_malformed_manifest_field(self, tmp_path, small_arch, field, value):
        """Every ill-typed arch or tensor record is refused before any bytes
        are read: no TypeError, no truncated offset, no count=-1 read."""
        path = str(tmp_path / "tv")
        write_task_vector(_random_weight_set(small_arch, 11), path)
        manifest_path = os.path.join(path, "manifest.json")
        manifest = json.loads(Path(manifest_path).read_text())
        if field == "arch":
            manifest["arch"] = value
        elif field == "record":
            manifest["tensors"][0] = value
        else:
            manifest["tensors"][0][field] = value
            if field == "shape" and value == [-1]:
                manifest["tensors"][0]["length"] = -4
        Path(manifest_path).write_text(json.dumps(manifest))
        with pytest.raises(MalformedManifestError):
            read_task_vector(path)

    @pytest.mark.parametrize("case", ["duplicate", "overlap"])
    def test_aliased_tensor_records(self, tmp_path, small_arch, case):
        """A name may not repeat (the last record would win) and two records
        may not share bytes (two tensors would alias)."""
        path = str(tmp_path / "ckpt")
        write_checkpoint(_random_weight_set(small_arch, 13), path)
        manifest_path = os.path.join(path, "manifest.json")
        manifest = json.loads(Path(manifest_path).read_text())
        records = {r["name"]: r for r in manifest["tensors"]}
        q, k = records["block.0.attn.q.weight"], records["block.0.attn.k.weight"]
        if case == "duplicate":  # q again, over k's bytes
            manifest["tensors"].append(dict(q, offset=k["offset"]))
        else:
            k["offset"] = q["offset"]
        Path(manifest_path).write_text(json.dumps(manifest))
        with pytest.raises(MalformedManifestError, match=case):
            read_checkpoint(path)

    def test_float32_overflow_rejected_before_writing(self, tmp_path, small_arch):
        """A finite float64 beyond the float32 range would be stored as inf,
        which no reader accepts; nothing is written."""
        ws = _random_weight_set(small_arch, 14)
        ws.tensors["block.0.mlp.fc2.weight"][0, 0] = 1e300
        path = tmp_path / "ckpt"
        with pytest.raises(NonFiniteTensorError, match="block.0.mlp.fc2.weight"):
            write_checkpoint(ws, str(path))
        assert not (path / "tensors.bin").exists()
        assert not (path / "manifest.json").exists()

    def test_writer_refuses_an_array_of_another_size(self, tmp_path, small_arch):
        """An array is written in its own shape: one of another size is
        refused as a shape mismatch that names the tensor, not broadcast."""
        tensors = dict(_random_weight_set(small_arch, 18).tensors)
        tensors["block.0.mlp.fc1.bias"] = tensors["block.0.mlp.fc1.bias"][:1]
        path = tmp_path / "ckpt"
        with pytest.raises(ShapeMismatchError, match=r"'block.0.mlp.fc1.bias': got \(1,\), record declares \(12,\)"):
            write_container(str(path), small_arch, KIND_WEIGHT_SET, small_arch.tensor_shapes(), tensors.values())
        assert not path.exists()

    @pytest.mark.parametrize("extra", [-1, 1], ids=["fewer", "more"])
    def test_writer_refuses_another_number_of_arrays(self, tmp_path, small_arch, extra):
        shapes = small_arch.tensor_shapes()
        arrays = [np.zeros(shape) for shape in shapes.values()]
        arrays = arrays[:-1] if extra < 0 else arrays + [np.zeros(1)]
        path = tmp_path / "ckpt"
        with pytest.raises(ValueError, match=("fewer" if extra < 0 else "more") + " arrays"):
            write_container(str(path), small_arch, KIND_WEIGHT_SET, shapes, iter(arrays))
        assert not path.exists()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_writer_releases_each_array_before_the_next(self, tmp_path, small_arch, dtype):
        """While ``arrays`` computes a tensor, the writer holds no reference
        to the one before it, so a stream holds one computed tensor at once:
        a float64 array is converted to a new float32 one, a float32 one is
        written as it is."""
        refs, alive = [], []

        def make(shape):
            arr = np.ones(shape, dtype=dtype)
            refs.append(weakref.ref(arr))
            return arr

        def arrays():
            for shape in small_arch.tensor_shapes().values():
                alive.append(bool(refs) and refs[-1]() is not None)
                yield make(shape)

        write_container(str(tmp_path / "ckpt"), small_arch, KIND_WEIGHT_SET, small_arch.tensor_shapes(), arrays())
        assert len(alive) == len(small_arch.tensor_shapes()) and not any(alive)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_writer_refuses_an_array_of_another_shape(self, tmp_path, small_arch, dtype):
        """An array of its record's size but another shape is refused, not
        reshaped, whether it is converted or written as it is."""
        shapes = {"inputs": (2, 3, 4), "targets": (2,)}
        arrays = [np.arange(24, dtype=dtype).reshape(4, 3, 2), np.zeros(2, dtype=dtype)]
        path = tmp_path / "batch"
        with pytest.raises(ShapeMismatchError, match=r"'inputs': got \(4, 3, 2\), record declares \(2, 3, 4\)"):
            write_container(str(path), small_arch, KIND_EVAL_BATCH, shapes, arrays)
        assert not path.exists()

    @pytest.mark.parametrize("layout", ["fortran", "big-endian", "float64"])
    def test_writer_bytes_do_not_depend_on_the_array_layout(self, tmp_path, small_arch, layout):
        """A C-ordered little-endian float32 array is written as it is, and
        any other is converted first: both give the same bytes."""
        c_order = [arr.astype("<f4") for arr in _random_weight_set(small_arch, 22).tensors.values()]
        change = {"fortran": np.asfortranarray, "big-endian": lambda a: a.astype(">f4"),
                  "float64": lambda a: a.astype(np.float64)}[layout]
        other = [change(arr) for arr in c_order]
        assert all(arr.flags.c_contiguous for arr in c_order)
        assert any(not arr.flags.c_contiguous or arr.dtype != "<f4" for arr in other)
        for key, arrays in (("c", c_order), ("other", other)):
            write_container(str(tmp_path / key), small_arch, KIND_WEIGHT_SET, small_arch.tensor_shapes(), arrays)
        for name in ("manifest.json", "tensors.bin"):
            assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "other" / name).read_bytes()

    def test_float32_inf_written_as_is_leaves_target_as_it_was(self, tmp_path, small_arch):
        """A float32 array that is written without conversion is checked
        too: an inf in the last one keeps an existing container's bytes and
        leaves no temporary file."""
        path = tmp_path / "ckpt"
        write_checkpoint(_random_weight_set(small_arch, 23), str(path))
        before = {p.name: p.read_bytes() for p in path.iterdir()}
        arrays = [arr.astype("<f4") for arr in _random_weight_set(small_arch, 24).tensors.values()]
        arrays[-1][-1, -1] = np.inf
        with pytest.raises(NonFiniteTensorError, match="head.weight"):
            write_container(str(path), small_arch, KIND_WEIGHT_SET, small_arch.tensor_shapes(), arrays)
        assert {p.name: p.read_bytes() for p in path.iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]

    def test_element_count_does_not_wrap(self, tmp_path, small_arch):
        """2**32 x 2**32 elements is 2**64, not the int64 wrap-around 0."""
        path = str(tmp_path / "ckpt")
        write_checkpoint(_random_weight_set(small_arch, 12), path)
        manifest_path = os.path.join(path, "manifest.json")
        manifest = json.loads(Path(manifest_path).read_text())
        manifest["tensors"][0]["shape"] = [2**32, 2**32]
        manifest["tensors"][0]["length"] = 0
        Path(manifest_path).write_text(json.dumps(manifest))
        with pytest.raises(ShapeMismatchError, match="embed.weight"):
            read_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path, small_arch):
        """Every blob byte belongs to exactly one record; bytes no record
        covers are refused, not ignored."""
        path = str(tmp_path / "ckpt")
        write_checkpoint(_random_weight_set(small_arch, 15), path)
        with open(os.path.join(path, "tensors.bin"), "ab") as f:
            f.write(b"\x00\x00\x80\x3f")
        with pytest.raises(MalformedManifestError, match="4 bytes of tensors.bin belong to no tensor record"):
            read_checkpoint(path)

    @pytest.mark.parametrize("damage", ["missing", "directory"])
    def test_unreadable_blob_rejected(self, tmp_path, small_arch, damage):
        """No tensors.bin, or a directory in its place, is refused on opening."""
        path = str(tmp_path / "ckpt")
        write_checkpoint(_random_weight_set(small_arch, 18), path)
        blob = os.path.join(path, "tensors.bin")
        os.remove(blob)
        if damage == "directory":
            os.mkdir(blob)
        with pytest.raises(MalformedManifestError, match="cannot read tensor data"):
            ContainerReader(path, KIND_WEIGHT_SET)

    def test_blob_truncated_while_open_rejected(self, tmp_path, small_arch):
        """A blob cut short after the reader checked its size: the short read
        of a record is refused, not returned as a partly stale buffer."""
        path = str(tmp_path / "ckpt")
        write_checkpoint(_random_weight_set(small_arch, 19), path)
        with ContainerReader(path, KIND_WEIGHT_SET) as reader:
            os.truncate(os.path.join(path, "tensors.bin"), 0)
            with pytest.raises(MalformedManifestError, match="tensor data ended inside record 'embed.weight'"):
                reader["embed.weight"]

    def test_failed_record_read_rejected(self, tmp_path, small_arch):
        """An I/O error while reading a record is a malformed container,
        not a bare OSError."""
        path = str(tmp_path / "ckpt")
        write_checkpoint(_random_weight_set(small_arch, 20), path)

        def readinto(buf):
            raise OSError(errno.EIO, "Input/output error")

        with ContainerReader(path, KIND_WEIGHT_SET) as reader:
            blob = reader._file
            reader._file = SimpleNamespace(seek=blob.seek, readinto=readinto, close=blob.close)
            with pytest.raises(MalformedManifestError, match="cannot read tensor data: .*Input/output error"):
                reader["embed.weight"]
        assert blob.closed

    def test_deeply_nested_manifest_rejected(self, tmp_path):
        """json.loads raises RecursionError, not ValueError, on deep nesting."""
        path = tmp_path / "ckpt"
        path.mkdir()
        (path / "manifest.json").write_text("[" * 100_000)
        (path / "tensors.bin").write_bytes(b"")
        with pytest.raises(MalformedManifestError):
            read_container(str(path))

    @pytest.mark.parametrize("case", ["too_many_axes", "huge_empty_axis"])
    def test_shape_numpy_cannot_hold_rejected(self, tmp_path, small_arch, case):
        """A record that tiles the blob correctly can still name a shape no
        ndarray takes: more than 64 axes, or an axis beyond int64 of a
        zero-size tensor."""
        path = str(tmp_path / "ckpt")
        write_checkpoint(_random_weight_set(small_arch, 16), path)
        manifest_path = os.path.join(path, "manifest.json")
        manifest = json.loads(Path(manifest_path).read_text())
        if case == "too_many_axes":
            rec = manifest["tensors"][0]
            rec["shape"] = [math.prod(rec["shape"])] + [1] * 70
        else:
            manifest["tensors"].append({"name": "empty", "shape": [0, 2**70], "offset": 0, "length": 0})
        Path(manifest_path).write_text(json.dumps(manifest))
        with pytest.raises(ShapeMismatchError):
            read_container(path)

    def test_huge_block_count_fails_at_first_missing_tensor(self, tmp_path, small_arch):
        """The canonical names are walked lazily, so a manifest claiming
        10**12 blocks is refused at once instead of listing them all."""
        path = str(tmp_path / "ckpt")
        write_checkpoint(_random_weight_set(small_arch, 17), path)
        manifest_path = os.path.join(path, "manifest.json")
        manifest = json.loads(Path(manifest_path).read_text())
        manifest["arch"]["n_blocks"] = 10**12
        Path(manifest_path).write_text(json.dumps(manifest))
        with pytest.raises(MissingTensorError, match="block.1.attn.q.weight"):
            read_checkpoint(path)

    @pytest.mark.parametrize("bad", [-1e300, np.nan, np.inf])
    @pytest.mark.parametrize("existing", [True, False])
    def test_float32_overflow_in_last_tensor_leaves_target_as_it_was(self, tmp_path, small_arch, existing, bad):
        """The blob streams tensor by tensor, so a value that is not finite
        in float32 (an overflow, or a nan or inf put into the WeightSet after
        it was built) is found after earlier tensors were written to the
        temporary file: an existing checkpoint keeps its bytes, a new one
        leaves no directory, and no temporary file survives."""
        path = tmp_path / "ckpt"
        if existing:
            write_checkpoint(_random_weight_set(small_arch, 18), str(path))
            before = {p.name: p.read_bytes() for p in path.iterdir()}
        ws = _random_weight_set(small_arch, 19)
        assert list(ws.tensors)[-1] == "head.weight"
        ws.tensors["head.weight"][-1, -1] = bad
        with pytest.raises(NonFiniteTensorError, match="head.weight"):
            write_checkpoint(ws, str(path))
        if existing:
            assert {p.name: p.read_bytes() for p in path.iterdir()} == before
        else:
            assert not path.exists()

    def test_unserialisable_manifest_leaves_target_as_it_was(self, tmp_path, small_arch):
        """The manifest is serialised before the blob is written, so a
        failure there keeps an existing checkpoint's bytes."""
        path = tmp_path / "ckpt"
        write_checkpoint(_random_weight_set(small_arch, 20), str(path))
        before = {p.name: p.read_bytes() for p in path.iterdir()}
        with pytest.raises(TypeError):
            tensors = _random_weight_set(small_arch, 21).tensors
            write_container(str(path), small_arch, object(), small_arch.tensor_shapes(), tensors.values())
        assert {p.name: p.read_bytes() for p in path.iterdir()} == before


class TestAssignmentFiles:
    def test_flat_round_trip(self, tmp_path):
        a = PermutationAssignment()
        a.perms["block.0.mlp_hidden"] = np.array([1, 0, 2], dtype=np.int64)
        a.perms["stream"] = np.array([2, 0, 1], dtype=np.int64)
        path = str(tmp_path / "a.perm")
        write_permutation_assignment(a, path)
        back = read_permutation_assignment(path)
        assert back == a

    def test_structured_round_trip(self, tmp_path):
        a = PermutationAssignment()
        a.perms["block.0.attn"] = join_heads(np.array([1, 0]), (np.array([1, 0]), np.array([0, 1])))
        a.heads["block.0.attn"] = 2
        a.perms["block.0.mlp_hidden"] = np.array([0, 2, 1], dtype=np.int64)
        path = str(tmp_path / "b.perm")
        write_permutation_assignment(a, path)
        back = read_permutation_assignment(path)
        assert back == a
        assert back.heads == {"block.0.attn": 2}
        assert block_lists(back.block("block.0.attn")) == ([1, 0], [[1, 0], [0, 1]])

    def test_attention_vector_mixing_heads_round_trips(self, tmp_path):
        """A vector that mixes units across heads is written as one flat
        record, which holds no head count; it still reads back equal."""
        a = build_coupling_graph(ArchSpec(1, 2, 4, 8, 3, 2)).identity_assignment()
        a.perms["block.0.attn"] = np.array([1, 2, 0, 3], dtype=np.int64)
        path = str(tmp_path / "flat.perm")
        write_permutation_assignment(a, path)
        assert "block.0.attn : 1,2,0,3\n" in Path(path).read_text(encoding="utf-8")
        assert read_permutation_assignment(path) == a

    def test_overwritten_vector_is_written_by_its_own_head_structure(self, tmp_path):
        """An attention vector overwritten in place is written structured,
        with the structure it has now, while it keeps each head's units
        together, and flat once it mixes units across heads."""
        graph = build_coupling_graph(ArchSpec(1, 2, 4, 8, 3, 2))
        a = graph.identity_assignment()
        path = str(tmp_path / "c.perm")
        a.perms["block.0.attn"] = np.array([3, 2, 0, 1], dtype=np.int64)
        write_permutation_assignment(a, path)
        text = Path(path).read_text(encoding="utf-8")
        assert "block.0.attn.inter : 1,0\nblock.0.attn.intra.0 : 1,0\nblock.0.attn.intra.1 : 0,1\n" in text
        back = read_permutation_assignment(path)
        assert np.array_equal(back.perms["block.0.attn"], [3, 2, 0, 1])
        assert block_lists(back.block("block.0.attn")) == ([1, 0], [[1, 0], [0, 1]])

        a.perms["block.0.attn"] = np.array([1, 2, 0, 3], dtype=np.int64)
        write_permutation_assignment(a, path)
        text = Path(path).read_text(encoding="utf-8")
        assert "block.0.attn : 1,2,0,3\n" in text and ".inter" not in text
        back = read_permutation_assignment(path)
        assert np.array_equal(back.perms["block.0.attn"], [1, 2, 0, 3])
        assert back.block("block.0.attn") is None

    @staticmethod
    def _refused_write(tmp_path, assignment, match):
        """The writer raises before it writes: the file already at the path
        keeps its bytes and no other file appears."""
        path = tmp_path / "a.perm"
        path.write_text("stream : 1,0\n")
        with pytest.raises(AssignmentFormatError, match=match):
            write_permutation_assignment(assignment, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["a.perm"]
        assert path.read_text() == "stream : 1,0\n"

    def test_writer_refuses_a_non_integer_vector(self, tmp_path):
        """Not truncated to ``1,0,2``, a different permutation."""
        self._refused_write(tmp_path, PermutationAssignment({"x": np.array([1.7, 0.2, 2.9])}), "integers")

    def test_writer_refuses_a_repeated_index(self, tmp_path):
        """Not written as a file that the reader then refuses."""
        self._refused_write(tmp_path, PermutationAssignment({"x": np.array([0, 0, 1])}), "repeats 1 index")

    @pytest.mark.parametrize("n_heads", [0, -2, 2.0])
    def test_writer_refuses_a_head_count_that_is_not_a_positive_integer(self, tmp_path, n_heads):
        a = PermutationAssignment({"block.0.attn": np.arange(4)}, {"block.0.attn": n_heads})
        self._refused_write(tmp_path, a, "'block.0.attn' has head count .*; it must be a positive integer")

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "bad.perm"
        path.write_text("stream : 0,0\n")
        with pytest.raises(AssignmentFormatError):
            read_permutation_assignment(str(path))

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.perm"
        path.write_text("stream : 0,3\n")
        with pytest.raises(AssignmentFormatError):
            read_permutation_assignment(str(path))

    def test_missing_intra_head_rejected(self, tmp_path):
        """A group needs intra records for heads 0..H-1, spelled that way,
        and no intra record may stand outside a group."""
        path = tmp_path / "bad.perm"
        inter = "block.0.attn.inter : 1,0\n"
        for text in (
            inter + "block.0.attn.intra.0 : 0,1\n",
            inter + "block.0.attn.intra.0 : 0,1\nblock.0.attn.intra.01 : 0,1\n",
            inter + "block.0.attn.intra.0 : 0,1\nblock.0.attn.intra.1 : 0,1\nblock.0.attn.intra.2 : 0,1\n",
            "block.0.attn.intra.0 : 0,1\n",
        ):
            path.write_text(text)
            with pytest.raises(AssignmentFormatError):
                read_permutation_assignment(str(path))

    def test_index_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "bad.perm"
        path.write_text("embed.out : 99999999999999999999,0,1,2\n")
        with pytest.raises(AssignmentFormatError, match="cannot parse"):
            read_permutation_assignment(str(path))

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "a.perm"
        path.write_bytes(b"stream : 1,0\n\xff\xfe : 0,1\n")
        with pytest.raises(AssignmentFormatError, match="not UTF-8"):
            read_permutation_assignment(str(path))

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "ok.perm"
        path.write_text("# comment\n\nstream : 1,0\n")
        back = read_permutation_assignment(str(path))
        assert np.array_equal(back.perms["stream"], [1, 0])


class TestAtomicWrite:
    def test_foreign_tmp_survives_and_nothing_is_left_behind(self, tmp_path, small_arch):
        """A file at ``<target>.tmp`` belongs to someone else: writers must
        not clobber it, and must leave no temporary file of their own."""
        perm = tmp_path / "a.perm"
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        squatters = [tmp_path / "a.perm.tmp", ckpt / "tensors.bin.tmp", ckpt / "manifest.json.tmp"]
        for f in squatters:
            f.write_bytes(b"not mine")
        a = PermutationAssignment()
        a.perms["stream"] = np.array([1, 0], dtype=np.int64)
        write_permutation_assignment(a, str(perm))
        write_checkpoint(_random_weight_set(small_arch, 6), str(ckpt))
        assert all(f.read_bytes() == b"not mine" for f in squatters)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.perm", "a.perm.tmp", "ckpt"]
        assert sorted(p.name for p in ckpt.iterdir()) == sorted(
            ["manifest.json", "tensors.bin", "manifest.json.tmp", "tensors.bin.tmp"]
        )
        assert perm.read_text(encoding="utf-8") == "stream : 1,0\n"

    def test_text_and_bytes_and_file_mode(self, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        atomic_write(str(tmp_path / "t"), "caf\u00e9\n")
        atomic_write(str(tmp_path / "b"), b"\x00\xff")
        assert (tmp_path / "t").read_bytes() == "caf\u00e9\n".encode("utf-8")
        assert (tmp_path / "b").read_bytes() == b"\x00\xff"
        assert os.stat(tmp_path / "t").st_mode & 0o777 == 0o666 & ~umask

    def test_process_umask_left_alone(self, tmp_path, monkeypatch, small_arch):
        """The umask is process-wide: setting it, even for a moment, gives
        whatever another thread creates meanwhile the wrong mode."""

        def refuse(mask):
            raise AssertionError(f"os.umask({mask:#o}) called")

        monkeypatch.setattr(os, "umask", refuse)
        atomic_write(str(tmp_path / "t"), "x\n")
        write_checkpoint(_random_weight_set(small_arch, 6), str(tmp_path / "ckpt"))
        assert (tmp_path / "t").read_text(encoding="utf-8") == "x\n"
        assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == ["manifest.json", "tensors.bin"]

    def test_failed_rename_keeps_target_and_removes_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "report.txt"
        target.write_text("old\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write(str(target), "new\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]

    def test_missing_directory_names_the_target(self, tmp_path):
        target = tmp_path / "nodir" / "x.perm"
        with pytest.raises(FileNotFoundError) as raised:
            atomic_write(str(target), "x\n")
        assert raised.value.errno == errno.ENOENT
        assert raised.value.filename == str(target) and ".tmp" not in str(raised.value)
        assert list(tmp_path.iterdir()) == []

    def test_directory_target_names_the_target_and_removes_temp(self, tmp_path):
        target = tmp_path / "a"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as raised:
            atomic_write(str(target), "x\n")
        assert raised.value.errno == errno.EISDIR
        assert raised.value.filename == str(target) and ".tmp" not in str(raised.value)
        assert [p.name for p in tmp_path.iterdir()] == ["a"] and list(target.iterdir()) == []

    def test_chunks_are_written_in_order(self, tmp_path):
        atomic_write(str(tmp_path / "c"), (part for part in (b"ab", bytearray(b"c"), np.arange(2, dtype="<f4"))))
        assert (tmp_path / "c").read_bytes() == b"abc" + np.arange(2, dtype="<f4").tobytes()

    def test_failing_chunk_iterable_keeps_target_and_removes_temp(self, tmp_path):
        target = tmp_path / "tensors.bin"
        target.write_bytes(b"old")

        def chunks():
            yield b"new data, "
            raise RuntimeError("producer failed")

        with pytest.raises(RuntimeError, match="producer failed"):
            atomic_write(str(target), chunks())
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["tensors.bin"]
