"""Smoke runs of the scripts under scripts/, so an API change cannot silently break them."""

import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import flowhold
from flowhold.config import load_run_config

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_calibrate_wind_runs():
    env = dict(os.environ, PYTHONPATH=str(Path(flowhold.__file__).resolve().parents[1]))
    script = SCRIPTS / "calibrate_wind.py"
    argv = [sys.executable, str(script), "--duration", "6", "--sigmas", "0.2"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("sigma=0.2 ") and "two_sigma=" in proc.stdout


def test_reproduce_hover_stats_runs(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "reproduce_hover_stats", SCRIPTS / "reproduce_hover_stats.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def short(preset):  # each preset flies one second past its settle window
        rc = load_run_config(preset)
        return replace(rc, sim=replace(rc.sim, duration=rc.sim.settle_time + 1.0))

    monkeypatch.setattr(script, "load_run_config", short)
    assert script.main() == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split()[0] == "preset"
    assert [row.split()[0] for row in rows[1:]] == ["outdoor", "indoor"]
