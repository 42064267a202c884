"""The walkthroughs under ``demos/`` run clean, and every public name resolves.

Each demo runs in its own interpreter from an empty working directory, with
the package found the same way this test found it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import taskport

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero_and_writes_nothing(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(taskport.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_every_public_name_resolves():
    missing = [name for name in taskport.__all__ if not hasattr(taskport, name)]
    assert missing == []
    assert len(set(taskport.__all__)) == len(taskport.__all__)
