"""Run every script in ``examples/`` and check that it exits cleanly.

The examples are documentation that executes: each one runs in its own
interpreter, as a reader would run it, in about half a second.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))
_SRC = str(Path(repro.__file__).resolve().parents[1])


def test_examples_found():
    assert _EXAMPLES


@pytest.mark.parametrize("script", _EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip()
