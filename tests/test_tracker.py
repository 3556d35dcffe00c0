from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowhold.corners import DetectParams, detect_corners
from flowhold.flow import LkParams, build_pyramid
from flowhold.image import GrayImage
from flowhold.sim import GroundTexture, SimConfig, VehicleState, render_frame
from flowhold.tracker import (
    Blind,
    FeatureLost,
    Reacquired,
    TrackedFeature,
    TrackerConfig,
    acquire,
    advance,
    best_displacement,
    center_roi,
)

from util import advance_built, in_rect, smooth_texture


def textured_frame(x=0.0, y=0.0, seed=11):
    cfg = SimConfig(texture_seed=seed, cell_size=0.125)
    tex = GroundTexture(seed=seed, cell_size=0.125)
    return render_frame(tex, VehicleState(x=x, y=y), cfg, np.random.default_rng(0)), cfg


def small_config():
    return TrackerConfig(
        detect=DetectParams(max_corners=8, min_distance=6.0),
        lk=LkParams(window_radius=5, pyramid_levels=2),
        min_alive=2,
    )


class TestCenterRoi:
    def test_vga(self):
        roi = center_roi(640, 480)
        assert (roi.x, roi.y, roi.w, roi.h) == (160, 120, 320, 240)

    def test_smallest(self):
        roi = center_roi(4, 4)
        assert (roi.x, roi.y, roi.w, roi.h) == (1, 1, 2, 2)

    def test_odd_dimensions_floor(self):
        roi = center_roi(641, 481)
        assert (roi.x, roi.y, roi.w, roi.h) == (160, 120, 320, 240)

    def test_undersized(self):
        with pytest.raises(ValueError):
            center_roi(3, 10)


class TestInsideLkMargin:
    def test_margin_is_inclusive(self):
        lk = LkParams(window_radius=5)  # margin 6; the last kept index is 64 - 1 - 6
        assert lk.margin == 6
        starts = [(x, 30) for x in (5, 6, 57, 58)] + [(30, y) for y in (5, 6, 57, 58)]
        kept = [(x, y) for x, y in starts if lk.fits(x, y, 64, 64)]
        assert kept == [(6, 30), (57, 30), (30, 6), (30, 57)]
        xs, ys = np.array(starts, dtype=float).T
        assert lk.fits(xs, ys, 64, 64).tolist() == [(x, y) in kept for x, y in starts]


class TestAcquire:
    def test_textured_frame_yields_center_features(self):
        frame, _ = textured_frame()
        config = TrackerConfig()
        state = acquire(frame, config)
        assert 10 <= state.n_alive <= 20
        roi = center_roi(frame.width, frame.height)
        for f in state.features:
            assert in_rect(roi, *f.position)
        expected = detect_corners(frame, roi, config.detect)
        best = max(expected, key=lambda c: c.response)
        best_feat = next(f for f in state.features if f.id == state.best_id)
        assert best_feat.position == (float(best.x), float(best.y))
        assert state.generation == 1
        assert not state.blind

    def test_constant_image_goes_blind(self):
        state = acquire(GrayImage.full(64, 64, 0.5), small_config())
        assert state.blind
        assert state.best_id is None
        assert state.n_alive == 0

    def test_single_interior_corner(self):
        # One corner inside the center ROI, several outside: only the
        # interior one is acquired.
        px = np.full((64, 64), 0.1)
        px[28:36, 28:36] = 0.9  # block centered in the ROI: 4 corners inside
        px[2:8, 2:8] = 0.9  # far outside the ROI
        image = GrayImage(px)
        config = TrackerConfig(
            detect=DetectParams(max_corners=8, min_distance=20.0),
            lk=LkParams(window_radius=5, pyramid_levels=1),
            min_alive=1,
        )
        state = acquire(image, config)
        assert state.n_alive == 1
        roi = center_roi(64, 64)
        assert in_rect(roi, *state.features[0].position)


class TestAdvance:
    @pytest.mark.parametrize("missing", ["prev_pyramid", "next_pyramid"])
    def test_held_features_need_both_pyramids(self, missing):
        frame, _ = textured_frame()
        config = TrackerConfig()
        state = acquire(frame, config)
        pyramids = {name: build_pyramid(frame, config.lk.pyramid_levels)
                    for name in ("prev_pyramid", "next_pyramid") if name != missing}
        with pytest.raises(ValueError, match=missing):
            advance(state, frame, frame, config, **pyramids)

    def test_featureless_state_needs_no_pyramids(self):
        frame, _ = textured_frame()
        blank = GrayImage.full(frame.width, frame.height, 0.5)
        config = TrackerConfig()
        state = acquire(blank, config)
        assert state.blind
        new_state, events = advance(state, blank, frame, config)
        assert events == [Reacquired()]
        assert new_state.n_alive == acquire(frame, config).n_alive

    def test_identical_frames_full_survival(self):
        frame, _ = textured_frame()
        config = TrackerConfig()
        state = acquire(frame, config)
        new_state, events = advance_built(state, frame, frame, config)
        assert events == []
        assert new_state.n_alive == state.n_alive
        assert new_state.generation == state.generation
        for old, new in zip(state.features, new_state.features):
            assert new.position == old.position

    def test_translated_frame_shifts_positions(self):
        gsd = 1.0 / 500.0
        frame_a, _ = textured_frame()
        frame_b, _ = textured_frame(x=3 * gsd)  # exactly 3 px of motion
        config = TrackerConfig()
        state = acquire(frame_a, config)
        new_state, _ = advance_built(state, frame_a, frame_b, config)
        assert new_state.best_id == state.best_id
        before = {f.id: f.position for f in state.features}
        moved = [f for f in new_state.features if f.id in before]
        assert len(moved) >= state.n_alive - 1
        for f in moved:
            dx = f.position[0] - before[f.id][0]
            dy = f.position[1] - before[f.id][1]
            assert abs(dx + 3.0) <= 0.1 and abs(dy) <= 0.1

    def test_featureless_next_triggers_reacquire_and_blind(self):
        frame, _ = textured_frame()
        blank = GrayImage.full(frame.width, frame.height, 0.5)
        config = TrackerConfig()
        state = acquire(frame, config)
        new_state, events = advance_built(state, frame, blank, config)
        assert any(isinstance(e, FeatureLost) for e in events)
        assert any(isinstance(e, Reacquired) for e in events)
        assert any(isinstance(e, Blind) for e in events)
        assert new_state.blind
        assert new_state.generation == state.generation + 1

    def test_no_spurious_reacquire_on_full_survival(self):
        frame, _ = textured_frame()
        config = TrackerConfig()
        state = acquire(frame, config)
        for _ in range(3):
            state, events = advance_built(state, frame, frame, config)
            assert not any(isinstance(e, Reacquired) for e in events)
        assert state.generation == 1

    def test_dimension_mismatch_rejected(self):
        frame, _ = textured_frame()
        state = acquire(frame, TrackerConfig())
        wrong = GrayImage.full(64, 64, 0.5)
        with pytest.raises(ValueError):
            advance_built(state, frame, wrong, TrackerConfig())

    def test_best_switch_on_best_death(self):
        # Deterministic setup: kill the best feature by erasing its
        # neighborhood in the next frame; the survivor detected first,
        # the strongest one left, takes over.
        img = smooth_texture(96, 96, seed=14)
        for n_corners in (2, 3):
            config = TrackerConfig(
                detect=DetectParams(max_corners=n_corners, min_distance=10.0),
                lk=LkParams(window_radius=5, pyramid_levels=1),
                min_alive=1,
            )
            state = acquire(img, config)
            detected = detect_corners(img, center_roi(96, 96), config.detect)
            assert [f.position for f in state.features] == [
                (float(c.x), float(c.y)) for c in detected
            ]
            assert state.n_alive == n_corners
            best = state.features[0]
            assert state.best_id == best.id
            px = img.pixels.copy()
            bx, by = int(round(best.position[0])), int(round(best.position[1]))
            px[by - 8 : by + 9, bx - 8 : bx + 9] = 0.5
            wiped = GrayImage(px)
            new_state, events = advance_built(state, img, wiped, config)
            lost_ids = [e.feature_id for e in events if isinstance(e, FeatureLost)]
            assert best.id in lost_ids
            assert Reacquired() not in events
            survivors = [f.id for f in state.features if f.id not in lost_ids]
            assert len(survivors) == n_corners - 1
            assert new_state.best_id == survivors[0]

    def test_determinism(self):
        frame_a, _ = textured_frame()
        frame_b, _ = textured_frame(x=0.004, y=-0.002)
        config = TrackerConfig()
        runs = []
        for _ in range(2):
            state = acquire(frame_a, config)
            state, _ = advance_built(state, frame_a, frame_b, config)
            runs.append([(f.id, f.position) for f in state.features])
        assert runs[0] == runs[1]


class TestBestDisplacement:
    def test_center_feature_zero(self):
        frame, _ = textured_frame()
        state = acquire(frame, TrackerConfig())
        # Replace best position with the exact center to pin the zero case.
        feats = tuple(
            f if f.id != state.best_id else TrackedFeature(id=f.id, position=(320.0, 240.0))
            for f in state.features
        )
        state = replace(state, features=feats)
        d = best_displacement(state, 640, 480)
        assert (d.x, d.y, d.d) == (0.0, 0.0, 0.0)

    def test_known_offset(self):
        frame, _ = textured_frame()
        state = acquire(frame, TrackerConfig())
        feats = tuple(
            f if f.id != state.best_id else TrackedFeature(id=f.id, position=(480.0, 120.0))
            for f in state.features
        )
        state = replace(state, features=feats)
        d = best_displacement(state, 640, 480)
        assert (d.x, d.y, d.d) == (160.0, -120.0, 200.0)

    def test_blind_returns_none(self):
        state = acquire(GrayImage.full(64, 64, 0.5), small_config())
        assert best_displacement(state, 64, 64) is None


def assert_invariants(state, config):
    margin = config.lk.window_radius + 1
    for f in state.features:
        x, y = f.position
        assert margin <= x <= state.width - 1 - margin
        assert margin <= y <= state.height - 1 - margin
    ids = [f.id for f in state.features]
    assert len(set(ids)) == len(ids)
    assert state.best_id == (ids[0] if ids else None)
    assert state.n_alive == len(state.features)
    assert state.blind == (not state.features)


def assert_acquired(state, image, config):
    """Features are the center-ROI corners LK can track, in pick order."""
    corners = detect_corners(image, center_roi(image.width, image.height), config.detect)
    expected = [
        (float(c.x), float(c.y)) for c in corners
        if config.lk.fits(c.x, c.y, image.width, image.height)
    ]
    assert [f.position for f in state.features] == expected


class TestInvariants:
    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 1_000),
        steps=st.lists(
            st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)), min_size=1, max_size=4
        ),
        blank_at=st.integers(-1, 4),
        min_alive=st.integers(1, 8),
    )
    def test_hold_after_every_call(self, seed, steps, blank_at, min_alive):
        # The camera drifts over one texture by real-valued steps of up
        # to 4 px per axis; frame blank_at (if in range) is featureless.
        config = TrackerConfig(
            detect=DetectParams(max_corners=8, min_distance=6.0),
            lk=LkParams(window_radius=5, pyramid_levels=2),
            min_alive=min_alive,
        )
        offsets = np.cumsum([(0.0, 0.0)] + steps, axis=0)
        frames = [
            GrayImage.full(64, 64, 0.5) if k == blank_at
            else smooth_texture(64, 64, shift=tuple(o), seed=seed)
            for k, o in enumerate(offsets)
        ]
        state = acquire(frames[0], config)
        assert_invariants(state, config)
        assert_acquired(state, frames[0], config)
        for prev, next_ in zip(frames, frames[1:]):
            old = state
            state, events = advance_built(state, prev, next_, config)
            assert_invariants(state, config)
            if state.generation == old.generation:
                lost = {e.feature_id for e in events if isinstance(e, FeatureLost)}
                assert [f.id for f in state.features] == [
                    f.id for f in old.features if f.id not in lost
                ]
            else:
                assert_acquired(state, next_, config)
