"""Subcommand behavior and the exit-code contract."""

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import taskport
import taskport.cli as cli_mod
import taskport.model as model_mod
from conftest import overflowing_model
from taskport.checkpoint import (
    KIND_TASK_VECTOR,
    KIND_WEIGHT_SET,
    ArchSpec,
    read_checkpoint,
    read_permutation_assignment,
    read_task_vector,
    write_checkpoint,
    write_container,
    write_permutation_assignment,
    write_task_vector,
)
from taskport.cli import build_parser, main
from taskport.coupling import apply_assignment, build_coupling_graph
from taskport.model import init_random, make_blob_batch, read_eval_batch, write_eval_batch
from taskport.transport import compute_task_vector, transport


def _slurp(path):
    with open(path, "rb") as f:
        return f.read()


def _outputs(path):
    """The bytes of a written file, or of every file in a written directory."""
    if os.path.isfile(path):
        return _slurp(path)
    return {name: _slurp(os.path.join(path, name)) for name in sorted(os.listdir(path))}


def _check_unwritable_refused(tmp_path, capsys, argv, flag, target):
    """``argv`` plus ``flag tmp_path/target``, where ``target`` is the
    directory ``a`` or lies in the missing directory ``nodir``, exits 1 with
    one error line naming the flag and the path, and writes nothing."""
    (tmp_path / "a").mkdir()
    path = str(tmp_path / target)
    expected = (f"{path} is a directory" if target == "a"
                else f"{path}: directory {tmp_path / 'nodir'} does not exist")
    before = sorted(tmp_path.rglob("*"))
    assert main(argv + [flag, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {flag} {expected}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.fixture
def workspace(tmp_path, toy_arch):
    ws = init_random(toy_arch, 0)
    model_a = str(tmp_path / "model_a")
    write_checkpoint(ws, model_a)
    return tmp_path, toy_arch, ws, model_a


class TestMatch:
    def test_self_match_writes_identity_and_exits_zero(self, workspace):
        tmp_path, arch, ws, model_a = workspace
        out = str(tmp_path / "self.perm")
        code = main(["match", "--model-a", model_a, "--model-b", model_a, "--out", out])
        assert code == 0
        graph = build_coupling_graph(arch, "compose")
        assert read_permutation_assignment(out) == graph.identity_assignment()

    def test_planted_pair_recovered(self, workspace):
        tmp_path, arch, ws, model_a = workspace
        graph = build_coupling_graph(arch, "compose")
        plant = graph.random_assignment(np.random.default_rng(1))
        model_b = str(tmp_path / "model_b")
        write_checkpoint(apply_assignment(read_checkpoint(model_a), graph, plant), model_b)
        out = str(tmp_path / "rec.perm")
        trace = str(tmp_path / "trace.txt")
        code = main(
            ["match", "--model-a", model_a, "--model-b", model_b, "--out", out, "--trace", trace]
        )
        assert code == 0
        assert read_permutation_assignment(out) == plant
        assert os.path.exists(trace)

    def test_arch_mismatch_exit_two(self, workspace):
        tmp_path, arch, ws, model_a = workspace
        other = init_random(ArchSpec(1, 2, 8, 16, 4, 3), 1)
        model_b = str(tmp_path / "other")
        write_checkpoint(other, model_b)
        out = str(tmp_path / "x.perm")
        assert main(["match", "--model-a", model_a, "--model-b", model_b, "--out", out]) == 2

    def test_sweep_cap_exit_three_still_writes(self, workspace):
        tmp_path, arch, ws, model_a = workspace
        model_b = str(tmp_path / "model_b")
        write_checkpoint(init_random(arch, 9), model_b)
        out = str(tmp_path / "capped.perm")
        code = main(
            ["match", "--model-a", model_a, "--model-b", model_b, "--out", out, "--max-sweeps", "1"]
        )
        assert code == 3
        read_permutation_assignment(out)  # parseable assignment was written

    def test_inputs_never_mutated(self, workspace):
        tmp_path, arch, ws, model_a = workspace
        before = _slurp(os.path.join(model_a, "tensors.bin"))
        out = str(tmp_path / "p.perm")
        main(["match", "--model-a", model_a, "--model-b", model_a, "--out", out])
        assert _slurp(os.path.join(model_a, "tensors.bin")) == before

    @pytest.mark.parametrize("trace", ["p.perm", "link.perm"])
    def test_trace_onto_out_refused_exit_one(self, workspace, capsys, trace):
        """``--trace`` naming the ``--out`` file, directly or through a link,
        would leave the trace where the assignment should be: refused before
        either checkpoint is read (model B does not exist), writing nothing."""
        tmp_path, _, _, model_a = workspace
        out = tmp_path / "p.perm"
        os.symlink(out, tmp_path / "link.perm")
        before = sorted(os.listdir(tmp_path))
        code = main(["match", "--model-a", model_a, "--model-b", str(tmp_path / "nope"),
                     "--out", str(out), "--trace", str(tmp_path / trace)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --out ") and "--trace" in err and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == before and not out.exists()

    def test_missing_file_exit_one(self, workspace):
        tmp_path, _, _, model_a = workspace
        out = str(tmp_path / "p.perm")
        assert main(["match", "--model-a", model_a, "--model-b", "/nope", "--out", out]) == 1

    @pytest.mark.parametrize("out", ["nodir/x.perm", "a"])
    def test_unwritable_out_names_it_exit_one(self, tmp_path, capsys, out):
        """A missing directory or a directory in the way is refused before
        either checkpoint is read: the message names ``--out`` and its path,
        not the temporary file beside it."""
        argv = ["match", "--model-a", str(tmp_path / "no_a"), "--model-b", str(tmp_path / "no_b")]
        _check_unwritable_refused(tmp_path, capsys, argv, "--out", out)


class TestApplyAndTaskVector:
    def test_apply_then_unapply_via_files(self, workspace):
        tmp_path, arch, ws, model_a = workspace
        graph = build_coupling_graph(arch, "compose")
        assignment = graph.random_assignment(np.random.default_rng(2))
        perm = str(tmp_path / "a.perm")
        write_permutation_assignment(assignment, perm)
        permuted = str(tmp_path / "permuted")
        assert main(["apply", "--model", model_a, "--perm", perm, "--out", permuted]) == 0
        expect = apply_assignment(read_checkpoint(model_a), graph, assignment)
        got = read_checkpoint(permuted)
        for name in expect.tensors:
            np.testing.assert_array_equal(got.tensors[name], expect.tensors[name])

    @pytest.mark.parametrize("var_id", ["block.0.attn", "block.0.mlp_hidden"])
    def test_head_count_the_graph_disagrees_with_exit_two(self, workspace, var_id):
        """A one-head group for a 4-head attention variable, or a head count on
        an MLP variable, is refused before anything is written; the one
        intra record of the attention case mixes units across heads."""
        tmp_path, arch, ws, model_a = workspace
        graph = build_coupling_graph(arch, "compose")
        perm = str(tmp_path / "one_head.perm")
        write_permutation_assignment(graph.identity_assignment(), perm)
        with open(perm, encoding="utf-8") as f:
            records = [line for line in f if not line.startswith((f"{var_id} ", f"{var_id}."))]
        units = np.roll(np.arange(graph.variables[var_id].size), 1)
        records += [f"{var_id}.inter : 0\n", f"{var_id}.intra.0 : " + ",".join(map(str, units)) + "\n"]
        with open(perm, "w", encoding="utf-8") as f:
            f.writelines(records)
        out = str(tmp_path / "permuted")
        assert main(["apply", "--model", model_a, "--perm", perm, "--out", out]) == 2
        assert not os.path.exists(out)
        assert main(["verify", "--model", model_a, "--perm", perm]) == 2

    def test_task_vector_subcommand(self, workspace):
        tmp_path, arch, ws, model_a = workspace
        tuned = init_random(arch, 3)
        model_ft = str(tmp_path / "tuned")
        write_checkpoint(tuned, model_ft)
        out = str(tmp_path / "tv")
        assert main(["task-vector", "--finetuned", model_ft, "--base", model_a, "--out", out]) == 0
        tv = read_task_vector(out)
        base = read_checkpoint(model_a)
        ft = read_checkpoint(model_ft)
        for name in tv.tensors:
            expect = ft.tensors[name] - base.tensors[name]  # f32 storage rounds the difference
            np.testing.assert_array_equal(
                tv.tensors[name], expect.astype(np.float32).astype(np.float64)
            )

    def test_task_vector_file_equals_library_vector_bit_for_bit(self, workspace):
        """The subcommand differences in place, yet writes exactly the bytes of
        ``compute_task_vector`` and leaves both input checkpoints untouched."""
        tmp_path, arch, ws, model_a = workspace
        model_ft = str(tmp_path / "tuned")
        write_checkpoint(init_random(arch, 4), model_ft)
        inputs_before = {p: _slurp(os.path.join(p, "tensors.bin")) for p in (model_a, model_ft)}
        out, expect = str(tmp_path / "tv"), str(tmp_path / "expect")
        assert main(["task-vector", "--finetuned", model_ft, "--base", model_a, "--out", out]) == 0
        write_task_vector(
            compute_task_vector(read_checkpoint(model_ft), read_checkpoint(model_a)), expect
        )
        assert sorted(os.listdir(out)) == sorted(os.listdir(expect))
        for entry in os.listdir(expect):
            assert _slurp(os.path.join(out, entry)) == _slurp(os.path.join(expect, entry)), entry
        for path, blob in inputs_before.items():
            assert _slurp(os.path.join(path, "tensors.bin")) == blob


class TestMalformedInputs:
    """Hostile files end in exit 1 with a one-line error, never a traceback."""

    def test_manifest_arch_not_an_object_exit_one(self, workspace, capsys):
        tmp_path, _, _, model_a = workspace
        manifest_path = os.path.join(model_a, "manifest.json")
        manifest = json.loads(Path(manifest_path).read_text())
        manifest["arch"] = []
        Path(manifest_path).write_text(json.dumps(manifest))
        out = str(tmp_path / "tv")
        assert main(["task-vector", "--finetuned", model_a, "--base", model_a, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not os.path.exists(out)

    def test_assignment_index_beyond_int64_exit_one(self, workspace, capsys):
        tmp_path, _, _, model_a = workspace
        perm = tmp_path / "huge.perm"
        perm.write_text("embed.out : 99999999999999999999,0,1,2\n")
        out = str(tmp_path / "permuted")
        assert main(["apply", "--model", model_a, "--perm", str(perm), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_trailing_blob_bytes_verify_exit_one(self, workspace, capsys):
        tmp_path, arch, _, model_a = workspace
        perm = str(tmp_path / "id.perm")
        write_permutation_assignment(build_coupling_graph(arch, "compose").identity_assignment(), perm)
        with open(os.path.join(model_a, "tensors.bin"), "ab") as f:
            f.write(b"\x00" * 4)
        assert main(["verify", "--model", model_a, "--perm", perm]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "4 bytes of tensors.bin belong to no tensor record" in captured.err

    @pytest.mark.parametrize("subcommand", ["verify", "apply"])
    def test_missing_blob_exit_one(self, workspace, capsys, subcommand):
        """A container with no tensors.bin: one error line, and no --out."""
        tmp_path, arch, _, model_a = workspace
        perm = str(tmp_path / "id.perm")
        write_permutation_assignment(build_coupling_graph(arch, "compose").identity_assignment(), perm)
        os.remove(os.path.join(model_a, "tensors.bin"))
        out = str(tmp_path / "out")
        argv = [subcommand, "--model", model_a, "--perm", perm]
        assert main(argv + (["--out", out] if subcommand == "apply" else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read tensor data: ") and captured.err.count("\n") == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag", ["--no-such-flag", "--seed"])
    def test_flag_the_subcommand_does_not_read_exit_one(self, workspace, capsys, flag):
        """Usage errors exit 1; exit 2 means architecture mismatch.  ``--seed``
        is a removed flag: transport has no randomness."""
        tmp_path, _, _, model_a = workspace
        with pytest.raises(SystemExit) as exc:
            main(["transport", "--base", model_a, "--task-vector", model_a, "--perm", "p",
                  "--out", str(tmp_path / "out"), flag, "0"])
        assert exc.value.code == 1
        assert f"error: unrecognized arguments: {flag} 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, flag, value",
        [
            ("verify", "--samples", "0"),
            ("verify", "--samples", "-3"),
            ("verify", "--samples", "two"),
            ("verify", "--tol", "nan"),
            ("verify", "--tol", "-1"),
            ("verify", "--tol", "inf"),
            ("demo", "--tol", "nan"),
            ("demo", "--tol", "1e400"),
            ("demo", "--points", "0"),
            ("demo", "--points", "1"),
            ("demo", "--noise", "nan"),
            ("demo", "--noise", "-0.01"),
            ("demo", "--train-steps", "-1"),
            ("demo", "--max-sweeps", "0"),
            ("match", "--max-sweeps", "0"),
            ("match", "--seed", "-1"),
            ("verify", "--seed", "-1"),
            ("demo", "--seed", "-1"),
            ("demo", "--train-lr", "nan"),
            ("demo", "--train-lr", "inf"),
        ],
    )
    def test_meaningless_samples_or_tol_is_a_usage_error(self, workspace, capsys,
                                                         subcommand, flag, value):
        """No samples has no maximum deviation, a nan or negative tolerance
        fails every model and an infinite one certifies any: all are usage
        errors (exit 1), not a verification verdict (exit 4 or 0).  So are a
        curve of fewer than two points, a nan or negative noise, a negative
        step count, a sweep cap below one, a negative seed and a learning
        rate that is not finite, and each is refused before any work: nothing
        is written."""
        tmp_path, arch, _, model_a = workspace
        if subcommand == "verify":
            perm = str(tmp_path / "id.perm")
            write_permutation_assignment(build_coupling_graph(arch, "compose").identity_assignment(), perm)
            argv = ["verify", "--model", model_a, "--perm", perm]
        elif subcommand == "match":
            argv = ["match", "--model-a", model_a, "--model-b", model_a,
                    "--out", str(tmp_path / "demo" / "out.perm")]
        else:
            argv = ["demo", "--out-dir", str(tmp_path / "demo")]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        error_lines = [line for line in err.splitlines() if "error:" in line]
        assert len(error_lines) == 1 and f"argument {flag}:" in error_lines[0]
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "demo")

    @staticmethod
    def _refused(capsys, argv, out=None):
        """``argv`` exits 1, by return or as a usage error, with one ``error:``
        line and no traceback, and ``out`` is not written; returns that line."""
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 1
        err = capsys.readouterr().err
        error_lines = [line for line in err.splitlines() if "error:" in line]
        assert len(error_lines) == 1 and "Traceback" not in err
        assert out is None or not os.path.exists(out)
        return error_lines[0]

    def test_record_the_arch_does_not_imply_exit_one(self, workspace, capsys):
        """A weight-set manifest with one more record than the arch implies,
        its bytes in the blob, so that the layout is sound."""
        tmp_path, arch, _, model_a = workspace
        manifest_path = os.path.join(model_a, "manifest.json")
        manifest = json.loads(Path(manifest_path).read_text())
        blob = os.path.join(model_a, "tensors.bin")
        size = os.path.getsize(blob)
        manifest["tensors"].append({"name": "extra.bias", "shape": [1], "offset": size, "length": 4})
        Path(manifest_path).write_text(json.dumps(manifest))
        with open(blob, "ab") as f:
            f.write(np.zeros(1, "<f4").tobytes())
        perm = str(tmp_path / "id.perm")
        write_permutation_assignment(build_coupling_graph(arch, "compose").identity_assignment(), perm)
        out = str(tmp_path / "permuted")
        line = self._refused(capsys, ["apply", "--model", model_a, "--perm", perm, "--out", out], out)
        assert line == "error: shape mismatch for tensor 'extra.bias': tensor not implied by arch"
        line = self._refused(capsys, ["verify", "--model", model_a, "--perm", perm])
        assert "'extra.bias': tensor not implied by arch" in line

    def test_flat_and_structured_records_of_one_variable_exit_one(self, workspace, capsys):
        tmp_path, arch, _, model_a = workspace
        perm = tmp_path / "both.perm"
        write_permutation_assignment(build_coupling_graph(arch, "compose").identity_assignment(), str(perm))
        flat = ",".join(str(i) for i in range(arch.embed_dim))
        perm.write_text(perm.read_text() + f"block.0.attn : {flat}\n")
        out = str(tmp_path / "permuted")
        line = self._refused(capsys, ["apply", "--model", model_a, "--perm", str(perm), "--out", out], out)
        assert line == "error: 'block.0.attn' has both flat and structured records"

    @pytest.mark.parametrize("subcommand, flag", [("transport", "--alpha"), ("verify", "--tol")])
    def test_number_flag_that_is_no_number_exit_one(self, workspace, capsys, subcommand, flag):
        tmp_path, _, _, model_a = workspace
        out = str(tmp_path / "out")
        argv = {
            "transport": ["transport", "--base", model_a, "--task-vector", model_a, "--perm", "p", "--out", out],
            "verify": ["verify", "--model", model_a, "--perm", "p"],
        }[subcommand]
        line = self._refused(capsys, argv + [flag, "abc"], out)
        assert line.endswith(f"error: argument {flag}: expected a finite number >= 0, got 'abc'")

    @pytest.mark.parametrize("fault", ["no targets", "input width"])
    def test_malformed_eval_batch_exit_one(self, workspace, capsys, fault):
        tmp_path, arch, _, model_a = workspace
        batch_path = str(tmp_path / "batch")
        if fault == "no targets":
            batch = make_blob_batch(arch, 8, 4, 7)
            write_container(batch_path, arch, "eval_batch", {"inputs": batch.inputs.shape}, [batch.inputs])
            expected = "error: eval batch needs 'inputs' and 'targets' tensors"
        else:
            wide = dataclasses.replace(arch, input_dim=arch.input_dim + 1)
            write_eval_batch(make_blob_batch(wide, 8, 4, 7), arch, batch_path)
            d = arch.input_dim
            expected = f"error: shape mismatch for tensor 'inputs': expected (n, seq, {d}), got (8, 4, {d + 1})"
        out = str(tmp_path / "curve.csv")
        argv = ["lmc", "--model-a", model_a, "--model-b", model_a, "--batch", batch_path, "--out", out]
        assert self._refused(capsys, argv, out) == expected


class TestTransport:
    @pytest.fixture
    def transport_setup(self, workspace):
        tmp_path, arch, ws, model_a = workspace
        base = read_checkpoint(model_a)
        tuned = init_random(arch, 4)
        tv = compute_task_vector(tuned, base)
        tv_path = str(tmp_path / "tv")
        write_task_vector(tv, tv_path)
        graph = build_coupling_graph(arch, "compose")
        perm = str(tmp_path / "id.perm")
        write_permutation_assignment(graph.identity_assignment(), perm)
        return tmp_path, arch, model_a, tv_path, perm, base, tv

    def test_alpha_zero_is_byte_stable(self, transport_setup):
        tmp_path, arch, model_a, tv_path, perm, base, tv = transport_setup
        out = str(tmp_path / "out")
        code = main(
            ["transport", "--base", model_a, "--task-vector", tv_path, "--perm", perm,
             "--out", out, "--alpha", "0"]
        )
        assert code == 0
        assert _slurp(os.path.join(out, "tensors.bin")) == _slurp(
            os.path.join(model_a, "tensors.bin")
        )

    def test_identity_alpha_one_is_base_plus_vector(self, transport_setup):
        tmp_path, arch, model_a, tv_path, perm, base, tv = transport_setup
        from taskport.checkpoint import read_task_vector

        out = str(tmp_path / "out")
        assert main(
            ["transport", "--base", model_a, "--task-vector", tv_path, "--perm", perm, "--out", out]
        ) == 0  # --alpha defaults to 1
        got = read_checkpoint(out)
        tv_on_disk = read_task_vector(tv_path)  # transport consumed the f32 file
        for name in base.tensors:
            expect = base.tensors[name] + tv_on_disk.tensors[name]
            np.testing.assert_array_equal(
                got.tensors[name], expect.astype(np.float32).astype(np.float64)
            )

    def test_negative_alpha_exit_one(self, transport_setup, capsys):
        tmp_path, arch, model_a, tv_path, perm, base, tv = transport_setup
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["transport", "--base", model_a, "--task-vector", tv_path, "--perm", perm,
                  "--out", out, "--alpha", "-1"])
        assert exc.value.code == 1
        error_lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(error_lines) == 1 and "argument --alpha:" in error_lines[0]
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "scaling", [["--alpha", "nan"], ["--alpha", "inf"], "0.5,nan", "1.0,inf", "1.0,-1"]
    )
    def test_meaningless_scaling_refused_before_reading(self, tmp_path, capsys, scaling):
        """A nan, infinite or negative ``--alpha``, or such a factor in its
        per-block list, exits 1 with one error line before any checkpoint is
        read: the checkpoint paths here do not exist."""
        if isinstance(scaling, str):
            scaling = ["--alpha", scaling]
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["transport", "--base", str(tmp_path / "no_base"), "--task-vector",
                  str(tmp_path / "no_tv"), "--perm", str(tmp_path / "no.perm"), "--out", out] + scaling)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        error_lines = [line for line in err.splitlines() if "error:" in line]
        assert len(error_lines) == 1 and "Traceback" not in err
        assert "argument --alpha:" in error_lines[0]
        assert not os.path.exists(out)

    def test_float32_overflow_exit_one(self, transport_setup, capsys):
        tmp_path, arch, model_a, tv_path, perm, base, tv = transport_setup
        out = str(tmp_path / "out")
        code = main(
            ["transport", "--base", model_a, "--task-vector", tv_path, "--perm", perm,
             "--out", out, "--alpha", "1e300"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not os.path.exists(out)

    def test_alpha_file_per_block(self, transport_setup):
        """One factor per block, comma separated, as ``--alpha``."""
        tmp_path, arch, model_a, tv_path, perm, base, tv = transport_setup
        out = str(tmp_path / "out")
        code = main(
            ["transport", "--base", model_a, "--task-vector", tv_path, "--perm", perm,
             "--out", out, "--alpha", "0.0,0.0"]
        )
        assert code == 0
        got = read_checkpoint(out)
        for name in base.tensors:
            np.testing.assert_array_equal(got.tensors[name], base.tensors[name])

    def test_alpha_file_count_refused_after_reading_only_the_base(self, transport_setup, capsys):
        """A wrong number of per-block ``--alpha`` factors exits 1 once the
        base has given the block count: the task-vector path here does not
        exist.  An empty list is no number, refused as the flag is parsed."""
        tmp_path, arch, model_a, tv_path, perm, base, tv = transport_setup
        out = str(tmp_path / "out")
        argv = ["transport", "--base", model_a, "--task-vector", str(tmp_path / "no_tv"),
                "--perm", perm, "--out", out, "--alpha"]
        factors = ",".join(["1.0"] * (arch.n_blocks + 1))
        assert main(argv + [factors]) == 1
        assert capsys.readouterr().err == (
            f"error: --alpha needs {arch.n_blocks} factors, one per block, got {arch.n_blocks + 1}\n"
        )
        with pytest.raises(SystemExit) as exc:
            main(argv + [""])
        assert exc.value.code == 1
        assert "error: argument --alpha: expected a finite number >= 0, got ''" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestPerTensorPort:
    """``apply``, ``task-vector`` and ``transport`` read, compute and write one
    tensor at a time; their outputs are the bytes of the in-memory API."""

    @staticmethod
    def _write_in_order(ws, path, kind, order):
        """``ws`` as a container whose records follow ``order``."""
        write_container(path, ws.arch, kind, {n: ws[n].shape for n in order}, (ws[n] for n in order))

    @staticmethod
    def _files(path):
        return {name: _slurp(os.path.join(path, name)) for name in sorted(os.listdir(path))}

    @pytest.fixture
    def port(self, tmp_path, toy_arch):
        """Old base A, fine-tuned A, new base B, task vector and assignment;
        the records of every container in a different, non-canonical order."""
        names = list(toy_arch.tensor_shapes())
        rng = np.random.default_rng(7)
        paths = {key: str(tmp_path / key) for key in ("a", "ft", "b", "tv")}
        model_a = init_random(toy_arch, 0)
        tuned = init_random(toy_arch, 1)
        self._write_in_order(model_a, paths["a"], KIND_WEIGHT_SET, names[::-1])
        self._write_in_order(tuned, paths["ft"], KIND_WEIGHT_SET, list(rng.permutation(names)))
        self._write_in_order(init_random(toy_arch, 2), paths["b"], KIND_WEIGHT_SET, list(rng.permutation(names)))
        tv = compute_task_vector(read_checkpoint(paths["ft"]), read_checkpoint(paths["a"]))
        self._write_in_order(tv, paths["tv"], KIND_TASK_VECTOR, list(rng.permutation(names)))
        graph = build_coupling_graph(toy_arch, "compose")
        paths["perm"] = str(tmp_path / "ab.perm")
        write_permutation_assignment(graph.random_assignment(rng), paths["perm"])
        return tmp_path, graph, paths

    def _argv(self, subcommand, paths, out, scaling=("--alpha", "0.75"), **inputs):
        """The argv of ``subcommand`` on the fixture's files, any of them
        renamed by ``inputs`` (``base=...``, say)."""
        p = {**paths, **inputs}
        return {
            "apply": ["apply", "--model", p["a"], "--perm", p["perm"], "--out", out],
            "task-vector": ["task-vector", "--finetuned", p["ft"], "--base", p["a"], "--out", out],
            "transport": ["transport", "--base", p["b"], "--task-vector", p["tv"], "--perm", p["perm"],
                          "--out", out, *scaling],
        }[subcommand]

    def _expected(self, subcommand, graph, paths, out, scaling=0.75):
        """What the in-memory API writes for ``subcommand``."""
        assignment = read_permutation_assignment(paths["perm"])
        if subcommand == "apply":
            write_checkpoint(apply_assignment(read_checkpoint(paths["a"]), graph, assignment), out)
        elif subcommand == "task-vector":
            write_task_vector(compute_task_vector(read_checkpoint(paths["ft"]), read_checkpoint(paths["a"])), out)
        else:
            ported = transport(read_checkpoint(paths["b"]), read_task_vector(paths["tv"]), graph, assignment, scaling)
            write_checkpoint(ported, out)

    @pytest.mark.parametrize("subcommand", ["apply", "task-vector", "transport"])
    def test_outputs_equal_the_in_memory_api(self, port, subcommand):
        """Records are read by name and written in canonical order, so inputs
        whose manifests list them in other orders - a different order for
        each input - port to the bytes of the in-memory API."""
        tmp_path, graph, paths = port
        out, expect = str(tmp_path / "out"), str(tmp_path / "expect")
        assert main(self._argv(subcommand, paths, out)) == 0
        self._expected(subcommand, graph, paths, expect)
        assert self._files(out) == self._files(expect)

    @pytest.mark.parametrize("alpha", ["0.1", repr(1 / 3), "0.75", "1e-7", "7.5", "0.3,1.7"])
    def test_transport_scalings_equal_the_in_memory_api(self, port, alpha):
        """The streamed transport scales the float32 record of the moved task
        vector in float64, as the in-memory API does: for these factors a
        product rounded to float32 first would change the output bytes.  The
        last case is one factor per block."""
        tmp_path, graph, paths = port
        factors = [float(f) for f in alpha.split(",")] if "," in alpha else float(alpha)
        out, expect = str(tmp_path / "out"), str(tmp_path / "expect")
        assert main(self._argv("transport", paths, out, ["--alpha", alpha])) == 0
        self._expected("transport", graph, paths, expect, factors)
        assert self._files(out) == self._files(expect)

    def _check_aliased(self, port, subcommand, alias):
        """``--out`` naming the input ``alias`` writes what a fresh directory
        gets: the reader keeps its handle on the input's blob across the
        writer's rename."""
        tmp_path, graph, paths = port
        fresh = str(tmp_path / "fresh")
        assert main(self._argv(subcommand, paths, fresh)) == 0
        target = paths[alias]
        assert main(self._argv(subcommand, paths, target)) == 0
        assert self._files(target) == self._files(fresh)

    def test_apply_out_naming_its_model(self, port):
        self._check_aliased(port, "apply", "a")

    @pytest.mark.parametrize("alias", ["a", "ft"])
    def test_task_vector_out_naming_an_input(self, port, alias):
        self._check_aliased(port, "task-vector", alias)

    @pytest.mark.parametrize("alias", ["b", "tv"])
    def test_transport_out_naming_an_input(self, port, alias):
        self._check_aliased(port, "transport", alias)

    @staticmethod
    def _poison(path):
        """Every value of the container's blob becomes nan, so reading any
        tensor byte would refuse it with a non-finite-tensor error."""
        blob = os.path.join(path, "tensors.bin")
        n = os.path.getsize(blob) // 4
        with open(blob, "wb") as f:
            f.write(np.full(n, np.nan, dtype="<f4").tobytes())

    @pytest.mark.parametrize(
        "subcommand, fault",
        [("task-vector", "arch"), ("transport", "arch"), ("apply", "perm"), ("transport", "perm")],
    )
    def test_refused_before_reading_tensor_data(self, port, capsys, subcommand, fault):
        """Manifests, their architecture match and the assignment are all
        checked before any tensor bytes are read: with every input blob
        poisoned, a mismatched architecture still exits 2 and a malformed
        assignment exits 1, each with its own error."""
        tmp_path, graph, paths = port
        out = str(tmp_path / "out")
        if fault == "arch":
            other = dataclasses.replace(graph.arch, n_blocks=1)
            key = "ft" if subcommand == "task-vector" else "tv"
            kind = KIND_WEIGHT_SET if subcommand == "task-vector" else KIND_TASK_VECTOR
            mismatched = init_random(other, 3)
            write_container(paths[key], other, kind, other.tensor_shapes(), mismatched.tensors.values())
            expect_code, expect = 2, "disagree on architecture"
        else:
            assignment = read_permutation_assignment(paths["perm"])
            assignment.perms["block.0.mlp_hidden"] = np.array([1, 0])
            write_permutation_assignment(assignment, paths["perm"])
            expect_code, expect = 1, f"error: permutation has length 2, expected {graph.arch.mlp_hidden}\n"
        for key in ("a", "ft", "b", "tv"):
            self._poison(paths[key])
        assert main(self._argv(subcommand, paths, out)) == expect_code
        err = capsys.readouterr().err
        assert expect in err and err.count("\n") == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "subcommand, flag, given, expected",
        [
            ("transport", "--task-vector", "a", KIND_TASK_VECTOR),
            ("transport", "--base", "tv", KIND_WEIGHT_SET),
            ("apply", "--model", "tv", KIND_WEIGHT_SET),
            ("task-vector", "--finetuned", "tv", KIND_WEIGHT_SET),
            ("task-vector", "--base", "tv", KIND_WEIGHT_SET),
            ("verify", "--model", "tv", KIND_WEIGHT_SET),
            ("match", "--model-a", "tv", KIND_WEIGHT_SET),
        ],
    )
    def test_container_of_the_other_kind_exit_one(self, port, capsys, subcommand, flag, given, expected):
        """A task vector and a model share one tensor-dict type, so the
        container's kind is all that tells them apart: each input refuses
        the other kind with one error line, and nothing is written."""
        tmp_path, _, paths = port
        out = str(tmp_path / "out")
        argv = {
            "verify": ["verify", "--model", paths["a"], "--perm", paths["perm"]],
            "match": ["match", "--model-a", paths["a"], "--model-b", paths["b"], "--out", out],
        }.get(subcommand) or self._argv(subcommand, paths, out)
        argv[argv.index(flag) + 1] = paths[given]
        assert main(argv) == 1
        captured = capsys.readouterr()
        found = KIND_WEIGHT_SET if expected == KIND_TASK_VECTOR else KIND_TASK_VECTOR
        assert captured.out == ""
        assert captured.err == f"error: expected kind {expected!r}, found {found!r}\n"
        assert not os.path.exists(out)

    @staticmethod
    def _leftovers(*dirs):
        return [name for d in dirs if os.path.isdir(d) for name in os.listdir(d) if name.endswith(".tmp")]

    @pytest.mark.parametrize("existing", [False, True])
    def test_transport_overflow_mid_stream_leaves_target(self, port, capsys, existing):
        """A task vector whose last tensor overflows float32 under ``--alpha``
        fails after every earlier tensor was streamed out: exit 1, no partial
        ``--out`` directory, an existing checkpoint there untouched, and no
        temporary file left behind."""
        tmp_path, graph, paths = port
        tv = read_task_vector(paths["tv"])
        assert list(tv.tensors)[-1] == "head.weight"
        tv.tensors["head.weight"][-1, -1] = 1e30
        write_task_vector(tv, paths["tv"])
        out = str(tmp_path / "out")
        if existing:
            write_checkpoint(init_random(graph.arch, 5), out)
            before = self._files(out)
        assert main(self._argv("transport", paths, out)[:-2] + ["--alpha", "1e10"]) == 1
        err = capsys.readouterr().err
        assert err == "error: tensor 'head.weight' contains non-finite values\n"
        if existing:
            assert self._files(out) == before
        else:
            assert not os.path.exists(out)
        assert self._leftovers(str(tmp_path), out) == []

    @pytest.mark.parametrize("existing", [False, True])
    def test_apply_non_finite_record_mid_stream_leaves_target(self, port, capsys, existing):
        """A nan in the model's last record is met by the reader after every
        earlier tensor was streamed out; the target is left as it was."""
        tmp_path, graph, paths = port
        write_checkpoint(read_checkpoint(paths["a"]), paths["a"])  # canonical order: head.weight last
        with open(os.path.join(paths["a"], "tensors.bin"), "r+b") as f:
            f.seek(-4, os.SEEK_END)
            f.write(np.array([np.nan], dtype="<f4").tobytes())
        out = str(tmp_path / "out")
        if existing:
            write_checkpoint(init_random(graph.arch, 5), out)
            before = self._files(out)
        assert main(self._argv("apply", paths, out)) == 1
        assert capsys.readouterr().err == "error: tensor 'head.weight' contains non-finite values\n"
        if existing:
            assert self._files(out) == before
        else:
            assert not os.path.exists(out)
        assert self._leftovers(str(tmp_path), out) == []


def _port_output_digests(tmp_path, arch) -> dict[str, str]:
    """SHA-256 of the blob each port subcommand writes on a fixed-seed
    fixture: ``apply`` on model A, ``task-vector`` from a second model to A,
    and ``transport`` of that vector onto a third model at three scalings."""
    graph = build_coupling_graph(arch, "compose")
    paths = {key: str(tmp_path / key) for key in ("a", "ft", "b", "tv")}
    for seed, key in enumerate(("a", "ft", "b")):
        write_checkpoint(init_random(arch, seed), paths[key])
    perm = str(tmp_path / "ab.perm")
    write_permutation_assignment(graph.random_assignment(np.random.default_rng(3)), perm)
    calls = {
        "apply": ["apply", "--model", paths["a"], "--perm", perm],
        "task-vector": ["task-vector", "--finetuned", paths["ft"], "--base", paths["a"]],
        **{f"transport {alpha}": ["transport", "--base", paths["b"], "--task-vector", paths["tv"], "--perm", perm,
                                  "--alpha", alpha] for alpha in ("1", "0.5", repr(1 / 3))},
    }
    digests = {}
    for key, argv in calls.items():
        out = paths["tv"] if key == "task-vector" else str(tmp_path / "out")
        assert main(argv + ["--out", out]) == 0
        digests[key] = hashlib.sha256(_slurp(os.path.join(out, "tensors.bin"))).hexdigest()
    return digests


def test_port_output_digests_are_pinned(tmp_path, toy_arch):
    """The port subcommands' output bytes on a fixed-seed fixture, as the
    float64 port path wrote them before the subcommands computed on the
    float32 records they read.  The comparisons with the in-memory API cannot
    see a drift that both paths share; these digests can."""
    assert _port_output_digests(tmp_path, toy_arch) == {
        "apply": "bcefa27c27bb2a64585c196f502c236594b99088918a1f83fa918b9f6de70493",
        "task-vector": "1b9484bab277c613666ca9252e5c74253b5237de245c4db566f9c0c1e575fd78",
        "transport 1": "40a6f868f1bf1a96ad608c3d9cb882f1d4534a3b4949986bd6be4faef724ac97",
        "transport 0.5": "bda7155987d6c10541a84eca2a451907a8ad9ef33cdf61f12cb83f49b7bf51a4",
        "transport 0.3333333333333333": "3d648799546fe20d683bfe1efb1283111976b39441ffcd29f1aa2d28c8ac1afa",
    }


class TestTieMode:
    """The graph flags ``--residual-mode tie --unpin-embedding`` carry a
    tie-mode assignment through every subcommand that builds a graph."""

    TIE = ["--residual-mode", "tie", "--unpin-embedding"]

    def test_round_trip(self, workspace, capsys):
        tmp_path, arch, ws, model_a = workspace
        graph = build_coupling_graph(arch, "tie", pin_embedding=False)
        plant = graph.random_assignment(np.random.default_rng(1))
        model_b, rec = str(tmp_path / "model_b"), str(tmp_path / "rec.perm")
        write_checkpoint(apply_assignment(ws, graph, plant), model_b)
        assert main(["match", "--model-a", model_a, "--model-b", model_b, "--out", rec, *self.TIE]) == 0
        assert read_permutation_assignment(rec) == plant

        applied = str(tmp_path / "applied")
        assert main(["apply", "--model", model_a, "--perm", rec, "--out", applied, *self.TIE]) == 0
        assert _outputs(applied) == _outputs(model_b)
        assert main(["verify", "--model", model_a, "--perm", rec, *self.TIE]) == 0
        capsys.readouterr()
        # the compose graph has no ``stream`` variable and needs others
        assert main(["verify", "--model", model_a, "--perm", rec]) == 1
        assert capsys.readouterr().err.startswith("error: assignment is missing variables: ")

        tv, ported, expect = (str(tmp_path / key) for key in ("tv", "ported", "expect"))
        write_task_vector(compute_task_vector(init_random(arch, 2), ws), tv)
        assert main(["transport", "--base", model_b, "--task-vector", tv, "--perm", rec,
                     "--out", ported, "--alpha", "0.5", *self.TIE]) == 0
        in_memory = transport(read_checkpoint(model_b), read_task_vector(tv), graph, plant, 0.5)
        write_checkpoint(in_memory, expect)
        assert _outputs(ported) == _outputs(expect)


class TestPinning:
    @pytest.mark.parametrize("mode", ["compose", "tie"])
    def test_unpin_changes_no_output_of_apply_or_verify(self, workspace, capsys, mode):
        """Pinning decides what ``match`` may move; ``apply`` and ``verify``
        apply whatever the ``.perm`` holds, the embedding's permutation
        included, with or without ``--unpin-embedding``."""
        tmp_path, arch, ws, model_a = workspace
        graph = build_coupling_graph(arch, mode, pin_embedding=False)
        plant = graph.random_assignment(np.random.default_rng(18))
        assert not np.array_equal(plant.perms[graph.axes["embed.weight"][0]], np.arange(arch.embed_dim))
        perm = str(tmp_path / "plant.perm")
        write_permutation_assignment(plant, perm)
        runs = []
        for flags in (["--residual-mode", mode], ["--residual-mode", mode, "--unpin-embedding"]):
            out = str(tmp_path / f"out{len(flags)}")
            assert main(["apply", "--model", model_a, "--perm", perm, "--out", out, *flags]) == 0
            assert main(["verify", "--model", model_a, "--perm", perm, *flags]) == 0
            runs.append((_outputs(out), capsys.readouterr().out))
        assert runs[0] == runs[1]
        write_checkpoint(apply_assignment(ws, graph, plant), str(tmp_path / "expect"))
        assert runs[0][0] == _outputs(str(tmp_path / "expect"))


class TestDumpGraph:
    @pytest.mark.parametrize("subcommand", ["match", "apply"])
    def test_prints_the_table_once_and_writes_the_same(self, workspace, capsys, subcommand):
        """``--dump-graph`` prints the graph's table ahead of the usual
        output, and what the call writes does not change."""
        tmp_path, arch, ws, model_a = workspace
        graph = build_coupling_graph(arch, "compose")
        perm = str(tmp_path / "plant.perm")
        write_permutation_assignment(graph.random_assignment(np.random.default_rng(1)), perm)
        model_b = str(tmp_path / "model_b")
        write_checkpoint(apply_assignment(ws, graph, read_permutation_assignment(perm)), model_b)
        runs = {}
        for flags in ([], ["--dump-graph"]):
            out = str(tmp_path / f"out{len(flags)}")
            argv = {
                "match": ["match", "--model-a", model_a, "--model-b", model_b, "--out", out],
                "apply": ["apply", "--model", model_a, "--perm", perm, "--out", out],
            }[subcommand]
            assert main(argv + flags) == 0
            runs[bool(flags)] = capsys.readouterr().out, _outputs(out)
        (plain_out, plain_files), (dump_out, dump_files) = runs[False], runs[True]
        assert dump_out == graph.dump_table() + "\n" + plain_out
        assert dump_files == plain_files


class TestVerify:
    def test_identity_passes(self, workspace):
        tmp_path, arch, ws, model_a = workspace
        graph = build_coupling_graph(arch, "compose")
        perm = str(tmp_path / "id.perm")
        write_permutation_assignment(graph.identity_assignment(), perm)
        assert main(["verify", "--model", model_a, "--perm", perm]) == 0

    def test_matched_structured_assignment_passes(self, workspace):
        tmp_path, arch, ws, model_a = workspace
        graph = build_coupling_graph(arch, "compose")
        perm = str(tmp_path / "s.perm")
        write_permutation_assignment(graph.random_assignment(np.random.default_rng(5)), perm)
        assert main(["verify", "--model", model_a, "--perm", perm]) == 0

    def test_assignment_mixing_heads_exit_two(self, workspace):
        """An attention vector that swaps units across two heads is no
        symmetry of the model: refused before anything is written."""
        tmp_path, arch, ws, model_a = workspace
        graph = build_coupling_graph(arch, "compose")
        assignment = graph.random_assignment(np.random.default_rng(6))
        flat = assignment.perms["block.0.attn"].copy()
        flat[[0, arch.head_dim]] = flat[[arch.head_dim, 0]]
        assignment.perms["block.0.attn"] = flat
        perm = str(tmp_path / "bad.perm")
        write_permutation_assignment(assignment, perm)
        out = str(tmp_path / "permuted")
        assert main(["apply", "--model", model_a, "--perm", perm, "--out", out]) == 2
        tv = str(tmp_path / "tv")
        assert main(["task-vector", "--finetuned", model_a, "--base", model_a, "--out", tv]) == 0
        assert main(["transport", "--base", model_a, "--task-vector", tv, "--perm", perm, "--out", out]) == 2
        assert not os.path.exists(out)
        assert main(["verify", "--model", model_a, "--perm", perm]) == 2

    def test_zero_tolerance_exit_four(self, workspace, capsys):
        """A valid plant leaves round-off, which ``--tol 0`` does not forgive."""
        tmp_path, arch, ws, model_a = workspace
        graph = build_coupling_graph(arch, "compose")
        perm = str(tmp_path / "plant.perm")
        write_permutation_assignment(graph.random_assignment(np.random.default_rng(6)), perm)
        assert main(["verify", "--model", model_a, "--perm", perm, "--tol", "0"]) == 4
        deviation = float(capsys.readouterr().out.split()[2])
        assert deviation > 0.0

    def test_overflow_in_a_worker_slice_exit_one(self, tmp_path, capsys, monkeypatch):
        """Only the second of two samples overflows, in the pool's thread:
        exit 1 with one error line, and no thread outlives the call."""
        X = np.random.default_rng(3).normal(size=(2, 8, 1))  # verify's inputs at seed 3
        ws = overflowing_model((X[0].max() + X[1].max()) / 2)
        model = str(tmp_path / "model")
        write_checkpoint(ws, model)
        perm = str(tmp_path / "id.perm")
        write_permutation_assignment(build_coupling_graph(ws.arch, "compose").identity_assignment(), perm)
        monkeypatch.setattr(model_mod, "_usable_cores", lambda: 2)
        before = threading.active_count()
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["verify", "--model", model, "--perm", perm, "--samples", "2", "--seed", "3"])
        assert code == 1
        assert threading.active_count() == before
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "non-finite activations in block 4" in captured.err


class TestLmc:
    def test_same_model_constant_curve(self, workspace):
        tmp_path, arch, ws, model_a = workspace
        batch_path = str(tmp_path / "batch")
        write_eval_batch(make_blob_batch(arch, 8, 4, 7), arch, batch_path)
        out = str(tmp_path / "curve.csv")
        code = main(
            ["lmc", "--model-a", model_a, "--model-b", model_a, "--batch", batch_path,
             "--points", "5", "--out", out]
        )
        assert code == 0
        rows = Path(out).read_text().strip().splitlines()
        assert rows[0] == "alpha,loss"
        losses = {row.split(",")[1] for row in rows[1:]}
        assert len(rows) == 6 and len(losses) == 1

    def test_fewer_than_two_points_exit_one(self, workspace, capsys):
        """A usage error, refused before any input is read: the second case
        names checkpoints that do not exist, and the error is about
        ``--points``."""
        tmp_path, arch, ws, model_a = workspace
        batch_path = str(tmp_path / "batch")
        write_eval_batch(make_blob_batch(arch, 8, 4, 8), arch, batch_path)
        out = str(tmp_path / "curve.csv")
        for model, points in ((model_a, "1"), (str(tmp_path / "missing"), "0")):
            with pytest.raises(SystemExit) as exc:
                main(["lmc", "--model-a", model, "--model-b", model, "--batch", batch_path,
                      "--points", points, "--out", out])
            assert exc.value.code == 1
            error_lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
            assert len(error_lines) == 1 and "argument --points:" in error_lines[0]
            assert not os.path.exists(out)


    def test_batch_for_another_arch_exit_two(self, workspace, capsys):
        tmp_path, arch, ws, model_a = workspace
        other = dataclasses.replace(arch, output_dim=arch.output_dim + 3)
        batch_path = str(tmp_path / "batch")
        write_eval_batch(make_blob_batch(other, 8, 4, 7), other, batch_path)
        out = str(tmp_path / "curve.csv")
        code = main(["lmc", "--model-a", model_a, "--model-b", model_a, "--batch", batch_path,
                     "--out", out])
        assert code == 2
        assert "disagree on architecture" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestDemo:
    def test_fixed_seed_reports_are_byte_identical(self, tmp_path):
        args = ["demo", "--seed", "11", "--noise", "0.0", "--train-steps", "30",
                "--embed-dim", "16", "--heads", "2", "--mlp-hidden", "24",
                "--input-dim", "8", "--blocks", "2"]
        d1, d2 = str(tmp_path / "d1"), str(tmp_path / "d2")
        assert main(args + ["--out-dir", d1]) == 0
        assert main(args + ["--out-dir", d2]) == 0
        assert _slurp(os.path.join(d1, "report.txt")) == _slurp(os.path.join(d2, "report.txt"))

    def test_default_run_outputs_are_pinned(self, tmp_path):
        """The default demo's and the ``--layernorm --seed 3`` demo's
        assignments, trace and curves, byte for byte, and every report line
        except the round-off of the equivalence check.  The plants depend
        only on the seed; they pin the order of the demo's random draws."""
        cases = {
            "default": ([], {
                "recovered.perm": "7195e0d118c1a16891320d839e21f16c5a4d3486b25f2131619e104e1f6a6a66",
                "recovered_tie.perm": "096f1d2fdf49b5958619ad74ecb71ca9236c3eda9b4405d7456594faaa9e5ab1",
                "trace.txt": "f1191aa9f6f423514b7f1e8b839b257e71ebfed08cb9fff1130b80077596638b",
                "lmc_matched.csv": "373a810a574e52c136a440469d52fa60c884a6f8c15bd287f741a367b6f21dcd",
                "lmc_naive.csv": "31432d8cde6b18a6870ec4ef754a796e783c0cc4c9aca9f2713c581db8460cd0",
                "plant.perm": "7195e0d118c1a16891320d839e21f16c5a4d3486b25f2131619e104e1f6a6a66",
                "plant_tie.perm": "096f1d2fdf49b5958619ad74ecb71ca9236c3eda9b4405d7456594faaa9e5ab1",
            }, [
                "seed: 0",
                "noise: 0.01",
                "arch: {'n_blocks': 2, 'n_heads': 4, 'embed_dim': 32, 'mlp_hidden': 64, "
                "'input_dim': 16, 'output_dim': 4, 'has_layernorm': False}",
                "",
                "[compose]",
                "converged: True after 5 sweeps",
                "objective trace: 224.214534668 394.383694824 450.307030103 479.166807445 479.166807445",
                "recovery_rate: 1",
                "recovery_ok: yes",
                "",
                "[tie interpolation]",
                "recovery_rate: 1",
                "endpoint losses: 3.52559666685e-05 3.36814715764e-05",
                "midpoint loss matched: 3.44105480572e-05",
                "midpoint loss naive: 0.71010630354",
            ]),
            "layernorm": (["--layernorm", "--seed", "3"], {
                "recovered.perm": "21916b6f331d3c0e723c5d7c7f8979e6904f20f3fc7edb21b9d43bcc63353c4b",
                "recovered_tie.perm": "fbc5f976cfc5ca4045cdf3dfd5fd39c0ecbfc1fd29a91dbd81910eccaccec565",
                "trace.txt": "6af41caf8563c1aa2d2752e9b2caf2765f873e55081346f7a0f374ef58d85469",
                "lmc_matched.csv": "49a3b776f508114f9c280f5788f2cc3b66cf42086794d3ef3253db9765cdbf74",
                "lmc_naive.csv": "ab278a3129c078e1e3ee11d941a71e00d4ea89e33db2695fcfc9415f29180c1f",
                "plant.perm": "21916b6f331d3c0e723c5d7c7f8979e6904f20f3fc7edb21b9d43bcc63353c4b",
                "plant_tie.perm": "fbc5f976cfc5ca4045cdf3dfd5fd39c0ecbfc1fd29a91dbd81910eccaccec565",
            }, [
                "seed: 3",
                "noise: 0.01",
                "arch: {'n_blocks': 2, 'n_heads': 4, 'embed_dim': 32, 'mlp_hidden': 64, "
                "'input_dim': 16, 'output_dim': 4, 'has_layernorm': True}",
                "",
                "[compose]",
                "converged: True after 4 sweeps",
                "objective trace: 212.458001668 379.538751143 482.573535571 482.573535571",
                "recovery_rate: 1",
                "recovery_ok: yes",
                "",
                "[tie interpolation]",
                "recovery_rate: 1",
                "endpoint losses: 0.0131124248513 0.0131064420529",
                "midpoint loss matched: 0.013100151135",
                "midpoint loss naive: 1.12015507528",
            ]),
        }
        for case, (flags, pinned, report) in cases.items():
            out = str(tmp_path / case)
            assert main(["demo", "--out-dir", out, *flags]) == 0
            for name, digest in pinned.items():
                assert hashlib.sha256(_slurp(os.path.join(out, name))).hexdigest() == digest, (case, name)
            lines = Path(out, "report.txt").read_text().splitlines()
            equivalence = [line for line in lines if line.startswith("equivalence_max_dev: ")]
            assert len(equivalence) == 1 and equivalence[0].endswith(" (tol 1e-08) passed: True"), case
            assert [line for line in lines if line not in equivalence] == report, case

    def test_diverging_training_leaves_nothing(self, tmp_path, capsys):
        """A finite ``--train-lr`` that makes training diverge exits 1 with the
        one divergence error: no numpy warning, and no ``--out-dir``.  With 2
        steps the loss stays finite until the weights the last step leaves."""
        out = str(tmp_path / "demo")
        for steps in ("20", "2"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["demo", "--out-dir", out, "--train-lr", "1000", "--train-steps", steps])
            assert code == 1, steps
            err = capsys.readouterr().err
            assert err.startswith("error: training diverged") and err.count("\n") == 1, steps
            assert not os.path.exists(out), steps

    def test_zero_noise_full_recovery(self, tmp_path):
        out = str(tmp_path / "demo")
        assert main(
            ["demo", "--out-dir", out, "--seed", "3", "--noise", "0.0", "--train-steps", "30",
             "--embed-dim", "16", "--heads", "2", "--mlp-hidden", "24", "--input-dim", "8"]
        ) == 0
        report = Path(out, "report.txt").read_text()
        assert "recovery_rate: 1\n" in report
        assert "recovery_ok: yes" in report

    def test_huge_noise_reports_degradation_without_failing(self, tmp_path):
        out = str(tmp_path / "demo")
        code = main(
            ["demo", "--out-dir", out, "--seed", "3", "--noise", "2.0", "--train-steps", "30",
             "--embed-dim", "16", "--heads", "2", "--mlp-hidden", "24", "--input-dim", "8",
             "--max-sweeps", "8"]
        )
        assert code == 0
        report = Path(out, "report.txt").read_text()
        assert "recovery_ok: no" in report


class TestOutputInsideInput:
    """``match`` and ``lmc`` refuse an output file directly inside one of
    their input containers before any input is read: exit 1, one error line
    naming the flag and the input, nothing written, every input readable."""

    @pytest.mark.parametrize("subcommand, flag, container, member", [
        ("match", "--out", "F", "manifest.json"),
        ("match", "--trace", "G", "tensors.bin"),
        ("lmc", "--out", "batch", "manifest.json"),
        ("lmc", "--out", "F", "tensors.bin"),
    ])
    def test_refused_exit_one(self, tmp_path, toy_arch, capsys, subcommand, flag, container, member):
        F, G, batch = (str(tmp_path / name) for name in ("F", "G", "batch"))
        write_checkpoint(init_random(toy_arch, 0), F)
        write_checkpoint(init_random(toy_arch, 1), G)
        write_eval_batch(make_blob_batch(toy_arch, 8, 4, 7), toy_arch, batch)
        target = str(tmp_path / container / member)
        outputs = {"--out": str(tmp_path / "x.perm"), flag: target}
        argv = [subcommand, "--model-a", F, "--model-b", G]
        argv += ["--batch", batch] if subcommand == "lmc" else []
        argv += [arg for pair in outputs.items() for arg in pair]

        def snapshot():
            return {str(p): p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}

        before = snapshot()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {target} lies inside input ") and err.count("\n") == 1
        assert err.rstrip().endswith(str(tmp_path / container))
        assert snapshot() == before
        read_checkpoint(F)
        read_checkpoint(G)
        read_eval_batch(batch)


class TestUnwritableOutput:
    """An output that cannot be written is refused before any input is read
    (the inputs here do not exist) or, for ``demo``, before training."""

    @pytest.mark.parametrize("subcommand, flag, target", [
        ("match", "--trace", "nodir/t.txt"),
        ("match", "--trace", "a"),
        ("lmc", "--out", "nodir/c.csv"),
        ("lmc", "--out", "a"),
    ])
    def test_refused_before_reading(self, tmp_path, capsys, subcommand, flag, target):
        """``match --trace`` is refused before ``--out`` is written."""
        other, name = ("--out", "x.perm") if subcommand == "match" else ("--batch", "no_batch")
        argv = [subcommand, "--model-a", str(tmp_path / "no_a"), "--model-b", str(tmp_path / "no_b"),
                other, str(tmp_path / name)]
        _check_unwritable_refused(tmp_path, capsys, argv, flag, target)

    def test_demo_out_dir_that_is_a_file_refused_before_training(self, tmp_path, capsys, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("trained before checking --out-dir")

        monkeypatch.setattr(cli_mod, "train_toy", not_reached)
        out = tmp_path / "f"
        out.write_bytes(b"keep")
        assert main(["demo", "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: --out-dir {out} is not a directory\n"
        assert out.read_bytes() == b"keep" and os.listdir(tmp_path) == ["f"]

    def test_demo_out_dir_under_a_file_refused_before_training(self, tmp_path, capsys, monkeypatch):
        """A missing ``--out-dir`` whose nearest existing ancestor is a file
        could never be made: refused before training, naming that file."""
        def not_reached(*args, **kwargs):
            raise AssertionError("trained before checking --out-dir")

        monkeypatch.setattr(cli_mod, "train_toy", not_reached)
        blocker = tmp_path / "f"
        blocker.write_bytes(b"keep")
        out = blocker / "sub" / "deeper"
        assert main(["demo", "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: --out-dir {out}: {blocker} is not a directory\n"
        assert blocker.read_bytes() == b"keep" and os.listdir(tmp_path) == ["f"]


class TestOutOfMemory:
    @pytest.mark.parametrize("subcommand", ["lmc", "verify"])
    def test_exhausted_memory_exit_one(self, workspace, subcommand):
        """An allocation the address space cannot hold exits 1 with one error
        line and no traceback.  The child runs under its own 2 GiB
        ``RLIMIT_AS``, so the refusal does not depend on the machine."""
        tmp_path, arch, ws, model_a = workspace
        if subcommand == "lmc":
            batch = str(tmp_path / "batch")
            write_eval_batch(make_blob_batch(arch, 8, 4, 9), arch, batch)
            argv = ["lmc", "--model-a", model_a, "--model-b", model_a, "--batch", batch,
                    "--points", "1000000000000", "--out", str(tmp_path / "curve.csv")]
        else:
            perm = str(tmp_path / "id.perm")
            write_permutation_assignment(build_coupling_graph(arch, "compose").identity_assignment(), perm)
            argv = ["verify", "--model", model_a, "--perm", perm, "--samples", "1000000000000"]

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        src = os.path.dirname(os.path.dirname(taskport.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-m", "taskport.cli", *argv], capture_output=True,
                              text=True, env=env, preexec_fn=limit_address_space, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: out of memory: ") and proc.stderr.count("\n") == 1

    def test_out_of_memory_in_process_exit_one(self, workspace, capsys, monkeypatch):
        """A ``MemoryError`` anywhere in a subcommand is one error line."""
        tmp_path, _, _, model_a = workspace

        def exhausted(path):
            raise MemoryError("cannot allocate 8 GiB")

        monkeypatch.setattr(cli_mod, "read_checkpoint", exhausted)
        assert main(["verify", "--model", model_a, "--perm", str(tmp_path / "id.perm")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: out of memory: cannot allocate 8 GiB\n"


def test_module_runs_as_a_script():
    """``python -m taskport.cli`` reaches ``main`` through its ``__main__`` guard."""
    src = os.path.dirname(os.path.dirname(taskport.__file__))
    proc = subprocess.run([sys.executable, "-m", "taskport.cli", "--help"], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: taskport")


def _subcommand_parsers():
    """Each subcommand's parser, by name."""
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("subcommand", sorted(_subcommand_parsers()))
def test_no_flag_takes_an_abbreviation(capsys, subcommand):
    """Every proper prefix of a long option, from ``--`` and one letter up
    (``verify --mod``, ``demo --out``), is an unrecognized argument (exit 1),
    not that option, so a flag added later cannot make a prefix that works
    today ambiguous.  The required flags are given, so only the prefix can
    be refused."""
    parser = _subcommand_parsers()[subcommand]
    argv = [subcommand] + [arg for a in parser._actions if a.required for arg in (a.option_strings[0], "x")]
    options = {option: action for action in parser._actions for option in action.option_strings}
    for option, action in options.items():
        for prefix in (option[:end] for end in range(3, len(option))):
            if prefix in options:
                continue
            with pytest.raises(SystemExit) as exc:
                main(argv + [prefix] + ([] if action.nargs == 0 else ["x"]))
            assert exc.value.code == 1, prefix
            assert f"error: unrecognized arguments: {prefix}" in capsys.readouterr().err, prefix
