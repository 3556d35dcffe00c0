"""Golden digests: pinned sha256 of short episodes' telemetry and of LK results.

Determinism within one process (criterion 12) cannot catch a refactor
that shifts every trajectory the same way; these digests can. The
closed-loop digests see only the features the loop happens to fly
over, and never a response value, so two more digests pin
``track_points`` itself across window radii, pyramid depths, iteration
caps, shifts, noisy and flat frames, and ``detect_corners`` across ROI
positions, radii and selection knobs on analytic and rendered frames.
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
from flowhold.corners import DetectParams, Rect, detect_corners
from flowhold.flow import FlowStatus, LkParams, build_pyramid, track_points
from flowhold.image import GrayImage
from flowhold.sim import GroundTexture, SimConfig, VehicleState, render_frame, run_episode
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
    data = write_csv(run_episode(rc.sim, rc.gains, rc.tracker))
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


DETECT_DIGEST = "ade25d05c25446f46b0188c7827fa8b66f0c64be108965297c4cb52b5b24d659"


def _detect_frame(rng, case):
    """A seeded analytic texture or a rendered frame, varying by case."""
    if case % 2 == 0:
        width, height = int(rng.integers(24, 161)), int(rng.integers(24, 121))
        return smooth_texture(width, height, seed=int(rng.integers(0, 1000)))
    width, height = [(160, 120), (320, 240), (640, 480)][case % 3]
    cfg = SimConfig(
        image_width=width,
        image_height=height,
        texture_seed=int(rng.integers(0, 1000)),
        cell_size=float(rng.uniform(0.06, 0.25)),
        lowlight_noise=0.02 if rng.integers(4) == 0 else 0.0,
    )
    yaw = 0.0 if rng.integers(3) == 0 else float(rng.uniform(-np.pi, np.pi))
    vehicle = VehicleState(x=float(rng.uniform(-3, 3)), y=float(rng.uniform(-3, 3)), yaw=yaw)
    rng_noise = np.random.default_rng(int(rng.integers(0, 1000)))
    return render_frame(GroundTexture(cfg.texture_seed, cfg.cell_size), vehicle, cfg, rng_noise)


def _detect_roi(rng, width, height):
    """An interior, corner-flush, whole-frame, tiny corner-flush or center ROI."""
    kind = int(rng.integers(5))
    if kind == 2:
        return Rect(0, 0, width, height)
    if kind == 4:
        return Rect(width // 4, height // 4, width // 2, height // 2)
    hi_w, hi_h = (5, 5) if kind == 3 else (width + 1, height + 1)
    w, h = int(rng.integers(1, hi_w)), int(rng.integers(1, hi_h))
    x, y = int(rng.integers(0, width - w + 1)), int(rng.integers(0, height - h + 1))
    if kind != 0:  # flush with one of the four frame corners
        x = 0 if rng.integers(2) else width - w
        y = 0 if rng.integers(2) else height - h
    return Rect(x, y, w, h)


def test_detect_corners_digest():
    """sha256 over (x, y, response) of the corners of 72 seeded detections."""
    rng = np.random.default_rng(20261019)
    digest = hashlib.sha256()
    found = 0
    for case in range(72):
        image = _detect_frame(rng, case)
        params = DetectParams(
            max_corners=int(rng.integers(1, 31)),
            quality_level=float(rng.uniform(0.01, 0.5)),
            min_distance=float(rng.uniform(0.0, 12.0)) if rng.integers(3) else 0.0,
            window_radius=int(rng.integers(1, 5)),
        )
        roi = _detect_roi(rng, image.width, image.height)
        for c in detect_corners(image, roi, params):
            digest.update(struct.pack("<2qd", c.x, c.y, c.response))
            found += 1
    assert found == 632
    assert digest.hexdigest() == DETECT_DIGEST
