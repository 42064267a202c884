"""The walkthroughs under ``demos/`` and the README's library tour run clean,
the README's command lines parse, and every public name resolves.

Each script runs in its own interpreter from an empty working directory, with
the package found the same way this test found it.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import taskport
from taskport.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_clean(argv, cwd):
    """Run ``argv`` in a fresh interpreter in ``cwd``; it must exit 0 with no
    traceback and leave ``cwd`` empty."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(taskport.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert list(cwd.iterdir()) == []


def test_demos_are_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero_and_writes_nothing(demo, tmp_path):
    _run_clean([str(demo)], tmp_path)


def test_readme_library_tour_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    _run_clean(["-c", tour], tmp_path)


def test_readme_command_lines_parse():
    """Each ``taskport`` line of the README's command-line block names only
    flags the parser takes; the lines are parsed, not run."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("taskport ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_every_public_name_resolves():
    missing = [name for name in taskport.__all__ if not hasattr(taskport, name)]
    assert missing == []
    assert len(set(taskport.__all__)) == len(taskport.__all__)
