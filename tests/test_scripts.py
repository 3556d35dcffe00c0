"""Smoke runs of the scripts under scripts/, so an API change cannot silently break them."""

import os
import subprocess
import sys
from pathlib import Path

import flowhold

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_calibrate_wind_runs():
    env = dict(os.environ, PYTHONPATH=str(Path(flowhold.__file__).resolve().parents[1]))
    script = SCRIPTS / "calibrate_wind.py"
    argv = [sys.executable, str(script), "--duration", "6", "--sigmas", "0.2"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("sigma=0.2 ") and "two_sigma=" in proc.stdout
