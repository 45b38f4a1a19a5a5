"""Every demo script runs to completion without writing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_are_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         cwd=ROOT, env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout
