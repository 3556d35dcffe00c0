"""Golden trajectories: pinned sha256 digests of short episodes' telemetry.

Determinism within one process (criterion 12) cannot catch a refactor
that shifts every trajectory the same way; these digests can. A change
that alters a digest on purpose re-pins it and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from flowhold.config import load_run_config
from flowhold.sim import run_episode
from flowhold.telemetry import write_csv

GOLDEN = [
    ("calm", {"duration": 3.0},
     "bbe632fffd1f90750f9e668184768c42b0e4839534e5348a7e9765dac38de320"),
    ("outdoor", {"duration": 5.0},
     "2c3bbd7332f2a2bbf871e3ccca24952ebdf3bf030f23242e304d8802196fc8f4"),
    ("outdoor", {"duration": 5.0, "yaw_rate": 0.15},
     "c53d349c5cd6818c0204cf50e3093687fbf8e4bc4c9e8174fbffbec1560807a5"),
    ("lowlight", {"duration": 3.0},
     "af3c3d6f9e292e704a11b92a70c369a10896e3d7b41f0505f58de34edb55c439"),
    ("blind", {"duration": 2.0},
     "bfe7286953e126bccbc593a77aaef0e1578eb58cf9b65889f79bad425316d79e"),
]


@pytest.mark.parametrize(
    "preset,sim,digest",
    GOLDEN,
    ids=["calm-3s", "outdoor-5s", "outdoor-yaw-5s", "lowlight-3s", "blind-2s"],
)
def test_telemetry_digest(preset, sim, digest):
    rc = load_run_config(preset, None, {"sim": sim})
    data = write_csv(run_episode(rc.sim, rc.gains, rc.tracker_config()))
    assert hashlib.sha256(data).hexdigest() == digest
