"""Every demo script, and the CLI as a module, runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    """Run the interpreter on ``args`` in a subprocess with src/ first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    result = run_python(str(script))
    assert result.returncode == 0, result.stderr


def test_cli_module_runs_check():
    # the ``__main__`` entry of besseltau.cli
    result = run_python("-m", "besseltau.cli", "check")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "all checks passed"
