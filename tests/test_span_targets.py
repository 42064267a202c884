"""The benchmark's span targets against the package's public names.

The benchmark wraps functions at the module attribute each caller looks up,
and reports a name the package no longer has as absent instead of failing.
So a refactor that deletes or stops importing a wrapped name silently zeroes
the per-layer metric built on it.  This test pins the set of absent targets:
a new absence fails here, and so does a target that comes back.
"""

import importlib
import pathlib
import runpy

SPANS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"

# Targets the package lacks today; each per-layer metric built on one reads 0.
KNOWN_ABSENT = {
    "taskport.cli.compute_task_vector",
    "taskport.cli.read_task_vector",
    "taskport.cli.transport",
    "taskport.cli.write_task_vector",
    "taskport.matching.align_heads",
    "taskport.matching.apply_assignment",
    "taskport.transport.apply_assignment",
}


def test_absent_span_targets_are_the_known_ones():
    # run_path compiles the source itself, so no bytecode is written next to it
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    absent = {
        f"{module}.{attr}"
        for module, attr, _, _ in targets
        if getattr(importlib.import_module(module), attr, None) is None
    }
    assert absent == KNOWN_ABSENT
