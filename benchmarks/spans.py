"""Span recorder for the traced run.

Public functions of the program are wrapped from outside, at the module
attribute each caller looks up (the modules import by name, so wrapping
``taskport.lap.solve_max`` alone would miss every caller).  Each call records
a span - name, start, end, parent - and spans stay in memory until the run
ends.  A wrapped name the program no longer has is reported as absent, so a
refactor that deletes a public function does not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
from collections import Counter
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


def _file_bytes(path: str) -> int:
    if os.path.isdir(path):
        return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())
    return os.path.getsize(path) if os.path.exists(path) else 0


def _count_lap(rec, name, args, result) -> None:
    n = len(args[0])
    rec.counters["lap.cells"] += n * n
    rec.counters[f"{name}.n_max"] = max(rec.counters[f"{name}.n_max"], n)


def _count_read(rec, name, args, result) -> None:
    rec.counters["checkpoint.bytes_read"] += _file_bytes(args[0])


def _count_write(rec, name, args, result) -> None:
    rec.counters["checkpoint.bytes_written"] += _file_bytes(args[1])


def _count_sweeps(rec, name, args, result) -> None:
    rec.counters["matching.sweeps"] += result.n_sweeps


# (module, attribute, span name, counter hook run after a successful call)
TARGETS = [
    ("taskport.cli", "main", "cli.main", None),
    ("taskport.cli", "read_checkpoint", "checkpoint.read_checkpoint", _count_read),
    ("taskport.cli", "read_task_vector", "checkpoint.read_task_vector", _count_read),
    ("taskport.cli", "read_permutation_assignment", "checkpoint.read_permutation_assignment", _count_read),
    ("taskport.cli", "read_eval_batch", "checkpoint.read_eval_batch", _count_read),
    ("taskport.cli", "write_checkpoint", "checkpoint.write_checkpoint", _count_write),
    ("taskport.cli", "write_task_vector", "checkpoint.write_task_vector", _count_write),
    ("taskport.cli", "write_permutation_assignment", "checkpoint.write_permutation_assignment", _count_write),
    ("taskport.cli", "weight_match", "matching.weight_match", _count_sweeps),
    ("taskport.cli", "apply_assignment", "coupling.apply_assignment", None),
    ("taskport.cli", "compute_task_vector", "transport.compute_task_vector", None),
    ("taskport.cli", "transport", "transport.transport", None),
    ("taskport.cli", "verify_equivalence", "model.verify_equivalence", None),
    ("taskport.matching", "solve_plain_variable", "matching.solve_plain_variable", None),
    ("taskport.matching", "solve_attention_variable", "matching.solve_attention_variable", None),
    ("taskport.matching", "matching_objective", "matching.matching_objective", None),
    ("taskport.matching", "align_heads", "attention.align_heads", None),
    ("taskport.matching", "solve_max", "lap.solve_max", _count_lap),
    ("taskport.matching", "apply_assignment", "coupling.apply_assignment", None),
    ("taskport.transport", "apply_assignment", "coupling.apply_assignment", None),
    ("taskport.model", "apply_assignment", "coupling.apply_assignment", None),
    ("taskport.attention", "inter_head_distance_matrix", "attention.inter_head_distance_matrix", None),
    ("taskport.attention", "singular_values", "linalg.singular_values", None),
    ("taskport.attention", "solve_min", "lap.solve_min", _count_lap),
    ("taskport.attention", "solve_max", "lap.solve_max", _count_lap),
]

PER_LAYER_METRICS = {
    # name: unit
    "linalg.singular_values.calls": "count",
    "linalg.singular_values.s": "s",
    "attention.align_heads.self_s": "s",
    "attention.inter_head_distance_matrix.self_s": "s",
    "lap.solve_min.calls": "count",
    "lap.solve_min.s": "s",
    "lap.solve_min.n_max": "count",
    "lap.solve_max.calls": "count",
    "lap.solve_max.s": "s",
    "lap.solve_max.n_max": "count",
    "lap.cells": "count",
    "matching.weight_match.self_s": "s",
    "matching.solve_plain_variable.self_s": "s",
    "matching.solve_attention_variable.self_s": "s",
    "matching.matching_objective.self_s": "s",
    "matching.sweeps": "count",
    "matching.variables_solved": "count",
    "checkpoint.read_s": "s",
    "checkpoint.write_s": "s",
    "checkpoint.bytes_read": "B",
    "checkpoint.bytes_written": "B",
    "coupling.apply_assignment.calls": "count",
    "coupling.apply_assignment.s": "s",
    "transport.transport.self_s": "s",
    "transport.compute_task_vector.self_s": "s",
    "model.verify_equivalence.s": "s",
    "cli.main.self_s": "s",
}


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), math.nan, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if hook is not None:
                try:
                    hook(self, name, args, result)
                except (IndexError, TypeError, AttributeError, OSError):
                    self.counters["trace.hook_errors"] += 1
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, span_name, hook in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (duration
        minus the time its direct child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for span, covered in zip(self.spans, child_time):
            agg = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += span.end - span.start
            agg["self_s"] += span.end - span.start - covered
        return out

    def per_layer(self) -> dict[str, float]:
        """The ``PER_LAYER_METRICS`` of the recorded spans; a span that never
        ran (or whose target is absent) reads 0."""
        summary = self.summary()

        def get(name: str, field: str) -> float:
            return summary.get(name, {}).get(field, 0)

        def total(prefix: str, field: str) -> float:
            return sum(v[field] for k, v in summary.items() if k.startswith(prefix))

        metrics = {
            "linalg.singular_values.calls": get("linalg.singular_values", "calls"),
            "linalg.singular_values.s": get("linalg.singular_values", "s"),
            "lap.cells": self.counters["lap.cells"],
            "matching.sweeps": self.counters["matching.sweeps"],
            "matching.variables_solved": get("matching.solve_plain_variable", "calls")
            + get("matching.solve_attention_variable", "calls"),
            "checkpoint.read_s": total("checkpoint.read_", "s"),
            "checkpoint.write_s": total("checkpoint.write_", "s"),
            "checkpoint.bytes_read": self.counters["checkpoint.bytes_read"],
            "checkpoint.bytes_written": self.counters["checkpoint.bytes_written"],
            "coupling.apply_assignment.calls": get("coupling.apply_assignment", "calls"),
            "coupling.apply_assignment.s": get("coupling.apply_assignment", "s"),
            "model.verify_equivalence.s": get("model.verify_equivalence", "s"),
        }
        for lap in ("lap.solve_min", "lap.solve_max"):
            metrics[f"{lap}.calls"] = get(lap, "calls")
            metrics[f"{lap}.s"] = get(lap, "s")
            metrics[f"{lap}.n_max"] = self.counters[f"{lap}.n_max"]
        for name in PER_LAYER_METRICS:
            if name.endswith(".self_s"):
                metrics[name] = get(name[: -len(".self_s")], "self_s")
        return metrics
