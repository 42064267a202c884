"""Self-checks of the benchmark: span arithmetic, environment refusal, and a
smoke run of every workload at a tiny size."""

import os
import subprocess
import sys
import types

import pytest

from environment import differences, record
from spans import SpanRecorder

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def test_self_time_excludes_child_spans_and_restores_originals():
    mod = types.ModuleType("fake_layer")
    sys.modules["fake_layer"] = mod
    try:
        mod.inner = lambda: sum(range(20000))
        mod.outer = lambda: [mod.inner() for _ in range(3)]
        original = mod.outer
        rec = SpanRecorder()
        rec.install([("fake_layer", "outer", "outer", None),
                     ("fake_layer", "inner", "inner", None),
                     ("fake_layer", "deleted", "gone", None)])
        mod.outer()
        rec.uninstall()
    finally:
        del sys.modules["fake_layer"]
    assert mod.outer is original
    assert rec.absent == ["fake_layer.deleted"]
    summary = rec.summary()
    assert summary["inner"]["calls"] == 3
    assert summary["inner"]["self_s"] == pytest.approx(summary["inner"]["s"])
    outer = summary["outer"]
    assert outer["self_s"] == pytest.approx(outer["s"] - summary["inner"]["s"])
    assert [s.parent for s in rec.spans] == [None, 0, 0, 0]


def test_environments_differing_only_in_seed_compare():
    a = record("planted-attn", 1)
    assert differences(a, record("planted-attn", 2)) == []
    assert differences(a, {**a, "numpy": "0.0"}) == ["numpy"]


def test_smoke_run_of_every_workload():
    proc = subprocess.run([sys.executable, RUN, "--smoke"], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
