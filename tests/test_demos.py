"""Each demo runs to completion as a user would start it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "name", ["01_conflict_taxonomy.py", "02_detection_walkthrough.py", "03_welfare_tradeoff.py"]
)
def test_demo_runs(name):
    proc = _run_demo(name)
    assert proc.returncode == 0, proc.stderr


def test_strategy_comparison_demo_runs(tmp_path):
    proc = _run_demo("04_strategy_comparison.py", "--reps", "2", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "results.csv").exists() and (tmp_path / "summary.json").exists()
