"""Fuzzing of the two file readers on a tiny architecture.

Every input - byte flips, truncation, JSON field mutation, aliased or
overlapping records, mangled assignment lines - must either read back valid
or raise a TaskportError; any other exception is a bug.  An assignment file
the reader accepts must also survive write -> read -> write byte for byte.
Each hostile container also goes through the ``transport`` subcommand, once
as the base and once as the task vector: it must be refused with a
TaskportError, or ported to the very bytes the in-memory API writes.
"""

import json
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from taskport.checkpoint import (
    MANIFEST_NAME,
    TENSORS_NAME,
    ArchSpec,
    WeightSet,
    read_checkpoint,
    read_container,
    read_permutation_assignment,
    read_task_vector,
    write_checkpoint,
    write_permutation_assignment,
    write_task_vector,
)
from taskport.cli import build_parser
from taskport.coupling import build_coupling_graph
from taskport.errors import TaskportError
from taskport.model import init_random
from taskport.perms import check_permutation
from taskport.transport import compute_task_vector, transport

ARCH = ArchSpec(1, 2, 4, 6, 3, 2, has_layernorm=True)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _pristine():
    """Manifest and blob bytes of a valid checkpoint, and the text of a
    structured assignment file for the same architecture."""
    graph = build_coupling_graph(ARCH, "compose", pin_embedding=False)
    with tempfile.TemporaryDirectory() as d:
        write_checkpoint(init_random(ARCH, 0), os.path.join(d, "ckpt"))
        write_permutation_assignment(graph.random_assignment(np.random.default_rng(0)), os.path.join(d, "a.perm"))
        files = [os.path.join(d, "ckpt", MANIFEST_NAME), os.path.join(d, "ckpt", TENSORS_NAME), os.path.join(d, "a.perm")]
        manifest, blob, perm = (open(f, "rb").read() for f in files)
    return manifest, blob, perm


MANIFEST, BLOB, PERM = _pristine()
RECORDS = json.loads(MANIFEST)["tensors"]


def _check_cli_transport(hostile: str, as_task_vector: bool) -> None:
    """``transport`` with the container at ``hostile`` as its base (or as its
    task vector, the manifest's kind rewritten to match) and valid other
    inputs: a TaskportError, or the bytes of the in-memory API."""
    d = os.path.dirname(hostile)
    valid = os.path.join(d, "valid")
    perm = os.path.join(d, "a.perm")
    with open(perm, "wb") as f:
        f.write(PERM)
    if as_task_vector:
        manifest_path = os.path.join(hostile, MANIFEST_NAME)
        with open(manifest_path, "rb") as f:
            manifest = f.read()
        with open(manifest_path, "wb") as f:
            f.write(manifest.replace(b'"weight_set"', b'"task_vector"'))
        write_checkpoint(init_random(ARCH, 1), valid)
        base, tv = valid, hostile
    else:
        write_task_vector(compute_task_vector(init_random(ARCH, 1), init_random(ARCH, 2)), valid)
        base, tv = hostile, valid
    out, expect = os.path.join(d, "out"), os.path.join(d, "expect")
    args = build_parser().parse_args(
        ["transport", "--base", base, "--task-vector", tv, "--perm", perm, "--out", out,
         "--unpin-embedding", "--alpha", "0.5"]
    )
    try:
        args.func(args)
    except TaskportError:
        assert not os.path.exists(out)
        return
    graph = build_coupling_graph(ARCH, "compose", pin_embedding=False)
    ported = transport(read_checkpoint(base), read_task_vector(tv), graph, read_permutation_assignment(perm), 0.5)
    write_checkpoint(ported, expect)
    for name in (MANIFEST_NAME, TENSORS_NAME):
        with open(os.path.join(out, name), "rb") as f, open(os.path.join(expect, name), "rb") as g:
            assert f.read() == g.read(), name


def _check_container(manifest: bytes, blob: bytes) -> None:
    for as_task_vector in (False, True):
        with tempfile.TemporaryDirectory() as d:
            hostile = os.path.join(d, "hostile")
            os.mkdir(hostile)
            for name, data in ((MANIFEST_NAME, manifest), (TENSORS_NAME, blob)):
                with open(os.path.join(hostile, name), "wb") as f:
                    f.write(data)
            _check_cli_transport(hostile, as_task_vector)
    with tempfile.TemporaryDirectory() as d:
        for name, data in ((MANIFEST_NAME, manifest), (TENSORS_NAME, blob)):
            with open(os.path.join(d, name), "wb") as f:
                f.write(data)
        try:
            arch, _, tensors = read_container(d)
        except TaskportError:
            return
    records = json.loads(manifest)["tensors"]
    assert [rec["name"] for rec in records] == list(tensors)
    for rec in records:
        arr = tensors[rec["name"]]
        assert arr.dtype == np.float64 and list(arr.shape) == rec["shape"]
        stored = np.frombuffer(blob, "<f4", count=arr.size, offset=rec["offset"]).reshape(arr.shape)
        assert np.array_equal(arr, stored, equal_nan=True)
    assert sum(4 * arr.size for arr in tensors.values()) == len(blob)
    try:
        WeightSet(arch, tensors)
    except TaskportError:
        pass


def _check_assignment(text: bytes) -> None:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "a.perm")
        with open(path, "wb") as f:
            f.write(text)
        try:
            assignment = read_permutation_assignment(path)
        except TaskportError:
            return
        # whatever the reader accepts, write -> read -> write is byte stable
        write_permutation_assignment(assignment, path)
        written = open(path, "rb").read()
        write_permutation_assignment(read_permutation_assignment(path), path)
        assert open(path, "rb").read() == written
    for var_id, perm in assignment.perms.items():
        check_permutation(perm)
        bp = assignment.block(var_id)
        if bp is not None:
            check_permutation(bp.flattened(), size=perm.size)


def _flip(data: bytes, flips) -> bytes:
    out = bytearray(data)
    for pos, mask in flips:
        out[pos % len(out)] ^= mask
    return bytes(out)


def _cut(data: bytes, cut: int) -> bytes:
    return data[: max(0, len(data) - cut)]


CUTS = st.integers(0, 8) | st.integers(0, 1 << 12)
FLIPS = st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(1, 255)), min_size=1, max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@FUZZ
@given(target=st.sampled_from(["manifest", "blob"]), flips=FLIPS)
def test_container_byte_flips(target, flips):
    if target == "manifest":
        _check_container(_flip(MANIFEST, flips), BLOB)
    else:
        _check_container(MANIFEST, _flip(BLOB, flips))


@FUZZ
@given(target=st.sampled_from(["manifest", "blob"]), cut=CUTS, tail=st.binary(max_size=8))
def test_container_truncated_or_extended(target, cut, tail):
    if target == "manifest":
        _check_container(_cut(MANIFEST, cut) + tail, BLOB)
    else:
        _check_container(MANIFEST, _cut(BLOB, cut) + tail)


@FUZZ
@given(
    where=st.sampled_from(["top", "arch", "record"]),
    index=st.integers(0, len(RECORDS) - 1),
    key=st.sampled_from(
        ["format_version", "kind", "arch", "tensors", "n_blocks", "n_heads", "embed_dim",
         "has_layernorm", "name", "shape", "offset", "length"]
    ),
    value=JSON_VALUES,
    delete=st.booleans(),
)
def test_container_json_field_mutation(where, index, key, value, delete):
    manifest = json.loads(MANIFEST)
    target = {"top": manifest, "arch": manifest["arch"], "record": manifest["tensors"][index]}[where]
    if delete:
        target.pop(key, None)
    else:
        target[key] = value
    _check_container(json.dumps(manifest).encode("utf-8"), BLOB)


@FUZZ
@given(
    i=st.integers(0, len(RECORDS) - 1),
    j=st.integers(0, len(RECORDS) - 1),
    how=st.sampled_from(["alias", "shift", "duplicate", "copy_under_new_name", "swap_offsets"]),
    shift=st.integers(-64, 64),
)
def test_container_aliased_or_overlapping_records(i, j, how, shift):
    manifest = json.loads(MANIFEST)
    records = manifest["tensors"]
    a, b = records[i], records[j]
    if how == "alias":
        a["offset"] = b["offset"]
    elif how == "shift":
        a["offset"] = max(0, a["offset"] + shift)
    elif how == "duplicate":
        records.append(dict(a))
    elif how == "copy_under_new_name":
        records.append(dict(a, name=a["name"] + ".copy", offset=b["offset"]))
    else:
        a["offset"], b["offset"] = b["offset"], a["offset"]
    _check_container(json.dumps(manifest).encode("utf-8"), BLOB)


@FUZZ
@given(flips=FLIPS)
def test_assignment_byte_flips(flips):
    _check_assignment(_flip(PERM, flips))


@FUZZ
@given(cut=CUTS, tail=st.binary(max_size=8))
def test_assignment_truncated_or_extended(cut, tail):
    _check_assignment(_cut(PERM, cut) + tail)


@FUZZ
@given(
    line=st.integers(0, 1 << 10),
    how=st.sampled_from(["replace_indices", "replace_name", "duplicate", "delete"]),
    text=st.text(max_size=12) | st.integers().map(str),
)
def test_assignment_line_mutation(line, how, text):
    lines = PERM.decode("utf-8").splitlines()
    k = line % len(lines)
    name, _, indices = lines[k].partition(" : ")
    if how == "replace_indices":
        lines[k] = f"{name} : {indices},{text}" if line % 2 else f"{name} : {text}"
    elif how == "replace_name":
        lines[k] = f"{text} : {indices}"
    elif how == "duplicate":
        lines.insert(k, lines[k])
    else:
        del lines[k]
    _check_assignment(("\n".join(lines) + "\n").encode("utf-8"))
