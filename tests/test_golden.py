"""Golden digests: pinned sha256 of short episodes' telemetry and of LK results.

Determinism within one process (criterion 12) cannot catch a refactor
that shifts every trajectory the same way; these digests can. The
closed-loop digests see only the features the loop happens to fly
over, so a second digest pins ``track_points`` itself across window
radii, pyramid depths, iteration caps, shifts, noisy and flat frames.
A change that alters a digest on purpose re-pins it and says why in
CHANGES.md.
"""

from __future__ import annotations

import collections
import hashlib
import struct

import numpy as np
import pytest

from flowhold.config import load_run_config
from flowhold.flow import FlowStatus, LkParams, build_pyramid, track_points
from flowhold.image import GrayImage
from flowhold.sim import run_episode
from flowhold.telemetry import write_csv

from util import smooth_texture

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


LK_DIGEST = "a200b4ffdb5d4b2fdd73dbaa81ac1dbb57ebfc37c066ff8670a224895c05ef94"


def test_track_points_digest():
    """sha256 over (point, residual, status) of 3305 seeded LK tracks."""
    rng = np.random.default_rng(20261018)
    digest = hashlib.sha256()
    seen = collections.Counter()
    for case in range(70):
        width, height = int(rng.integers(48, 97)), int(rng.integers(48, 97))
        r = int(rng.integers(2, 8))
        params = LkParams(
            window_radius=r,
            pyramid_levels=int(rng.integers(1, 5)),
            max_iterations=int(rng.integers(1, 31)),
        )
        seed = int(rng.integers(0, 1000))
        shift = tuple(rng.uniform(-6.0, 6.0, 2))
        prev = smooth_texture(width, height, seed=seed)
        next_ = smooth_texture(width, height, shift=shift, seed=seed)
        kind = case % 5
        if kind == 1:  # sensor noise on both frames
            sigma = rng.uniform(0.02, 0.12)
            prev, next_ = (
                GrayImage(np.clip(f.pixels + rng.normal(0.0, sigma, f.pixels.shape), 0.0, 1.0))
                for f in (prev, next_)
            )
        elif kind == 2:  # a flat band across the previous frame
            px = prev.pixels.copy()
            y0 = int(rng.integers(0, height // 2))
            px[y0 : y0 + height // 3] = 0.5
            prev = GrayImage(px)
        elif kind == 3:  # the next frame is flat
            next_ = GrayImage.full(width, height, 0.5)
        m = r + 1
        count = int(rng.integers(20, 80))
        pts = np.stack(
            [rng.uniform(m, width - 1 - m, count), rng.uniform(m, height - 1 - m, count)],
            axis=1,
        )
        pts[: count // 8] = np.round(pts[: count // 8])  # integer starts
        results = track_points(
            build_pyramid(prev, params.pyramid_levels),
            build_pyramid(next_, params.pyramid_levels),
            pts,
            params,
        )
        for res in results:
            digest.update(struct.pack("<3d", *res.point, res.residual))
            digest.update(res.status.value.encode("ascii"))
            seen[res.status] += 1
    assert set(seen) == set(FlowStatus), seen
    assert sum(seen.values()) == 3305
    assert digest.hexdigest() == LK_DIGEST
