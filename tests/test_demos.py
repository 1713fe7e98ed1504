"""The narrative demos run to completion against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# 06_train_benchmark.py is left out: it trains eight 150-epoch arms, the
# ground the experiment tests cover
FAST_DEMOS = (
    "01_hierarchy_and_transitions.py",
    "02_synthetic_data_and_split.py",
    "03_model_and_gradient_masks.py",
    "04_losses_walkthrough.py",
    "05_theory_checks.py",
    "07_cli_workflow.py",
)


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
