"""The experiment scripts run end to end on tiny sizes."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, header", [
    ("run_ablation_suite.py",
     ["--seeds", "0", "--epochs", "1", "--users", "40", "--items", "60"],
     ["variant", "R@10", "R@20", "N@10", "N@20"]),
    ("reduction_sweep.py", ["--factors", "4,8", "--epochs", "1"],
     ["r", "proj", "params", "%", "base", "epoch", "ms", "%", "base", "R@20"]),
])
def test_script_runs_and_prints_table(tmp_path, script, args, header):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--out", str(tmp_path), *args],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0].split() == header
