import concurrent.futures
import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowhold import sim, tracker
from flowhold.config import load_run_config
from flowhold.control import AttitudeCommand
from flowhold.flow import LkParams, build_pyramid, track_points
from flowhold.sim import (
    ConfigError,
    GroundTexture,
    SimConfig,
    VehicleState,
    WindState,
    render_frame,
    run_episode,
    step_dynamics,
    wind_step,
    _render,
)
from flowhold.telemetry import dispersion_stats, write_csv

from util import brute_render


def quiet():
    """A noise stream for renders that draw no pixel noise, so never read."""
    return np.random.default_rng(0)


def texture_at(tex, x, y):
    """Ground intensity at one world point: the hash of its cell."""
    return float(sim._hash01(*sim._cells(tex, np.array([x]), np.array([y])), tex.seed)[0])


@pytest.mark.parametrize(
    "field",
    [
        "physics_dt", "camera_rate", "altitude", "focal_px", "tilt_tau", "drag_coeff",
        "gravity", "max_tilt", "wind_sigma", "wind_rate", "lowlight_gain",
        "lowlight_noise", "yaw_rate", "cell_size", "duration", "frame_size_cm",
        "settle_time", "start_x", "start_y",
    ],
)
def test_sim_config_rejects_nan(field):
    with pytest.raises(ConfigError, match=field):
        SimConfig(**{field: math.nan})


@pytest.mark.parametrize(
    "field",
    [
        "physics_dt", "camera_rate", "altitude", "focal_px", "tilt_tau", "drag_coeff",
        "gravity", "max_tilt", "wind_sigma", "wind_rate", "lowlight_gain",
        "lowlight_noise", "yaw_rate", "cell_size", "duration", "frame_size_cm",
        "settle_time", "start_x", "start_y",
    ],
)
def test_sim_config_rejects_inf(field):
    with pytest.raises(ConfigError, match=field):
        SimConfig(**{field: math.inf})


@pytest.mark.parametrize("seed", [-2, -3, 2**128 - 2, 2**128], ids=repr)
def test_sim_config_rejects_texture_seed_beyond_philox_key(seed):
    # run_episode keys its Philox streams with texture_seed + 1 and + 2.
    with pytest.raises(ConfigError, match="texture_seed"):
        SimConfig(texture_seed=seed)


@pytest.mark.parametrize("field", ["drag_coeff", "wind_rate"])
def test_sim_config_rejects_rate_beyond_one_per_step(field):
    # Each step scales by 1 - rate*physics_dt, which must not turn negative.
    SimConfig(**{field: 200.0})  # exactly 1 per 0.005 s step
    with pytest.raises(ConfigError, match=field):
        SimConfig(**{field: 201.0})


@pytest.mark.parametrize(
    "fields",
    [{"altitude": 1e300}, {"focal_px": 1e-300}, {"cell_size": 1e-300}, {"start_x": 1e300},
     {"start_y": -2.0**51}, {"image_width": 2**40, "cell_size": 1e-7}],
    ids=lambda f: ",".join(f),
)
def test_sim_config_rejects_inexact_cell_indices(fields):
    with pytest.raises(ConfigError, match="beyond 2\\*\\*53") as info:
        SimConfig(**fields)
    assert all(name in str(info.value) for name in fields)


@pytest.mark.parametrize("width, height", [(7, 8), (8, 7)])
def test_sim_config_rejects_frames_under_8x8(width, height):
    with pytest.raises(ConfigError, match="at least 8x8"):
        SimConfig(image_width=width, image_height=height)


def test_sim_config_accepts_cell_indices_just_below_2_53():
    # 2**52 cells of 0.25 m out, plus the frame's 0.8 m half-diagonal.
    SimConfig(start_x=2.0**50)


@pytest.mark.parametrize("seed", [-1, 2**128 - 3], ids=repr)
def test_texture_seed_at_either_end_flies(seed):
    assert len(run_episode(SimConfig(texture_seed=seed, duration=0.04))) == 2


def test_ground_texture_rejects_nan_cell_size():
    with pytest.raises(ValueError, match="cell_size"):
        GroundTexture(seed=1, cell_size=math.nan)


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_ground_texture_rejects_inf_cell_size(value):
    with pytest.raises(ValueError, match="cell_size"):
        GroundTexture(seed=1, cell_size=value)


class TestTexture:
    def test_deterministic(self):
        tex = GroundTexture(seed=42, cell_size=0.25)
        assert texture_at(tex, 1.23, -4.56) == texture_at(tex, 1.23, -4.56)

    def test_constant_within_cell_changes_across(self):
        tex = GroundTexture(seed=7, cell_size=0.25)
        assert texture_at(tex, 0.51, 0.51) == texture_at(tex, 0.74, 0.6)
        assert texture_at(tex, 0.1, 0.1) != texture_at(tex, 0.3, 0.1)

    def test_uniform_mean(self):
        tex = GroundTexture(seed=3, cell_size=1.0)
        n = 100
        xs, ys = np.meshgrid(np.arange(n) + 0.5, np.arange(n) + 0.5)
        grid = sim._hash01(*sim._cells(tex, xs, ys), tex.seed)
        assert abs(grid.mean() - 0.5) <= 0.02
        assert grid.min() >= 0.0 and grid.max() <= 1.0

    def test_seed_changes_field(self):
        a = GroundTexture(seed=1, cell_size=0.25)
        b = GroundTexture(seed=2, cell_size=0.25)
        assert texture_at(a, 0.1, 0.1) != texture_at(b, 0.1, 0.1)


class TestRenderFrame:
    def test_center_pixel_is_texture_under_vehicle(self):
        cfg = SimConfig(texture_seed=9, cell_size=0.125)
        tex = cfg.make_texture()
        origin = render_frame(tex, VehicleState(), cfg, quiet())
        assert origin.pixels[cfg.image_height // 2, cfg.image_width // 2] == texture_at(
            tex, 0.0, 0.0
        )
        v = VehicleState(x=0.30017, y=-0.1234)
        frame = render_frame(tex, v, cfg, quiet())
        assert frame.pixels[cfg.image_height // 2, cfg.image_width // 2] == texture_at(
            tex, v.x, v.y
        )

    def test_one_gsd_shift_equals_one_pixel_shift(self):
        cfg = SimConfig(texture_seed=9, cell_size=0.125)
        tex = cfg.make_texture()
        a = render_frame(tex, VehicleState(x=0.30017, y=0.0501), cfg, quiet())
        b = render_frame(
            tex, VehicleState(x=0.30017 + cfg.ground_sample_distance, y=0.0501), cfg, quiet()
        )
        np.testing.assert_array_equal(b.pixels[:, :-1], a.pixels[:, 1:])

    def test_lowlight_identity_when_disabled(self):
        cfg = SimConfig(texture_seed=9, cell_size=0.125, lowlight_gain=1.0, lowlight_noise=0.0)
        tex = cfg.make_texture()
        a = render_frame(tex, VehicleState(), cfg, quiet())
        b = render_frame(tex, VehicleState(), cfg, quiet())
        np.testing.assert_array_equal(a.pixels, b.pixels)

    def test_lowlight_gain_scales(self):
        base = SimConfig(texture_seed=9, cell_size=0.125)
        dim = SimConfig(texture_seed=9, cell_size=0.125, lowlight_gain=0.25)
        tex = base.make_texture()
        a = render_frame(tex, VehicleState(), base, quiet())
        b = render_frame(tex, VehicleState(), dim, quiet())
        np.testing.assert_allclose(b.pixels, a.pixels * 0.25, atol=1e-15)

    @pytest.mark.parametrize(
        "x, y, cell",
        [
            pytest.param(0.0, 1e300, 0.125, id="1e+300"),
            pytest.param(0.0, -3e15, 0.125, id="-3000000000000000.0"),
            pytest.param(0.0, math.inf, 0.125, id="inf"),
            pytest.param(0.0, math.nan, 0.125, id="nan"),
            # The texture's cells are the ones floored, not the config's:
            # 1e-12 m cells put x = 1e4 m at cell index 1e16.
            pytest.param(1e4, 0.0, 1e-12, id="texture-cells-1e-12"),
        ],
    )
    def test_frame_beyond_exact_cells_is_rejected(self, x, y, cell):
        # 0.125 m cells: 2**53 of them end near 1.1e15 m.
        cfg = SimConfig(texture_seed=9, cell_size=0.125)
        tex = GroundTexture(seed=9, cell_size=cell)
        with pytest.raises(ConfigError, match=r"2\*\*53"):
            render_frame(tex, VehicleState(x=x, y=y, t=1.5), cfg, quiet())
        blank = dataclasses.replace(cfg, blank_ground=True)  # reads no cell
        flat = render_frame(tex, VehicleState(x=x, y=y), blank, quiet())
        assert flat.pixels.min() == flat.pixels.max() == 0.5

    def test_camera_flow_sign_consistency(self):
        # A vehicle displacement of +d meters moves image content by
        # -d*f/h pixels; this pins the sign chain end to end.
        cfg = SimConfig(texture_seed=9, cell_size=0.125)
        tex = cfg.make_texture()
        dx_m = 3.0 * cfg.ground_sample_distance
        a = render_frame(tex, VehicleState(x=0.30017, y=0.0501), cfg, quiet())
        b = render_frame(tex, VehicleState(x=0.30017 + dx_m, y=0.0501), cfg, quiet())
        params = LkParams()
        pa = build_pyramid(a, params.pyramid_levels)
        pb = build_pyramid(b, params.pyramid_levels)
        from flowhold.corners import DetectParams, Rect, detect_corners

        corners = detect_corners(
            a, Rect(160, 120, 320, 240), DetectParams(max_corners=10, min_distance=20.0)
        )
        pts = [(float(c.x), float(c.y)) for c in corners]
        results = track_points(pa, pb, pts, params)
        shifts = [r.point[0] - p[0] for p, r in zip(pts, results) if r.tracked]
        assert len(shifts) >= 5
        assert abs(np.median(shifts) + 3.0) <= 0.2


RENDER_YAWS = [0.0, -0.0, 1e-300, 0.15, math.pi, -2.5]


def _render_scene(scene):
    """Configs that reach each branch of the render."""
    if scene == "lowlight":
        return SimConfig(texture_seed=9, cell_size=0.125, lowlight_gain=0.25, lowlight_noise=0.02)
    if scene == "cells_finer_than_pixels":
        return SimConfig(texture_seed=9, cell_size=1e-3 / 1.7)
    return SimConfig(texture_seed=9, cell_size=0.125, blank_ground=scene == "blank_ground")


# Yaws for the run-length route: random ones, and ones within 1e-12 of
# an axis, where one cell index barely moves along a row.
RUN_YAWS = [float(y) for y in np.random.default_rng(11).uniform(-4.0, 4.0, 4)]
RUN_YAWS += [a + d for a in (math.pi / 2, -math.pi / 2, math.pi) for d in (-1e-12, 1e-12)]
# Cells in metres at the default 2 mm per pixel: 0.016 m is one 8-px
# block. Every rotated frame takes the run-length route; cells of 0.9, 3
# and 12.5 px put several cell edges in one block, or one in most blocks.
RUN_CELLS = [0.25, 0.05, 0.0321, 0.0319, 0.025, 0.02, 0.0161, 0.016, 0.0159, 0.006, 0.0018]


def _assert_renders_match(cfg, vehicle, seed=77):
    tex = cfg.make_texture()
    ours = np.random.Generator(np.random.Philox(key=seed))
    theirs = np.random.Generator(np.random.Philox(key=seed))
    got = render_frame(tex, vehicle, cfg, ours).pixels
    want = brute_render(tex, vehicle, cfg, theirs)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert ours.random() == theirs.random()


class TestRenderOracle:
    @pytest.mark.parametrize("yaw", RENDER_YAWS, ids=repr)
    @pytest.mark.parametrize(
        "scene", ["plain", "blank_ground", "lowlight", "cells_finer_than_pixels"]
    )
    def test_matches_per_pixel_hash(self, scene, yaw):
        cfg = _render_scene(scene)
        rng = np.random.default_rng(5)
        positions = [(0.0, 0.0), (0.25, -0.125)]  # cell edges through the centre pixel
        positions += [tuple(rng.uniform(-0.3, 0.3, 2)) for _ in range(2)]
        positions += [tuple(rng.uniform(-5e3, 5e3, 2))]
        for x, y in positions:
            _assert_renders_match(cfg, VehicleState(x=x, y=y, yaw=yaw))

    @pytest.mark.parametrize("yaw", RUN_YAWS, ids=repr)
    @pytest.mark.parametrize("cell", RUN_CELLS, ids=repr)
    def test_rotated_cells_match_per_pixel_hash(self, cell, yaw):
        rng = np.random.default_rng(3)
        # 203 columns leave a 3-column last block.
        for w, h in [(640, 480), (203, 61)]:
            cfg = SimConfig(texture_seed=9, cell_size=cell, image_width=w, image_height=h)
            for x, y in [(0.0, 0.0), tuple(rng.uniform(-40.0, 40.0, 2))]:
                _assert_renders_match(cfg, VehicleState(x=x, y=y, yaw=yaw))

    @pytest.mark.parametrize("cell_px", [0.9, 3.0, 7.95, 8.05, 12.5], ids=repr)
    def test_runs_exact_when_cells_cross_every_block(self, cell_px):
        # The runs off-centre, into a buffer: exact with several cell edges
        # inside one block, or one edge in most blocks.
        cfg = SimConfig(texture_seed=9, cell_size=cell_px * 0.002, image_width=203, image_height=61)
        for yaw in RUN_YAWS:
            vehicle = VehicleState(x=1.3, y=-0.7, yaw=yaw)
            # NaN first, so a pixel the runs leave unwritten shows.
            got = _render(cfg.make_texture(), vehicle, cfg, None, np.full((61, 203), np.nan))
            assert got.tobytes() == brute_render(cfg.make_texture(), vehicle, cfg).tobytes()

    @settings(deadline=None, max_examples=150)
    @given(
        yaw=st.floats(-4.0, 4.0),
        x=st.floats(-100.0, 100.0),
        y=st.floats(-100.0, 100.0),
        cell=st.sampled_from([0.0319, 0.0321, 0.125]) | st.floats(0.003, 0.4),
        w=st.integers(8, 200),
        h=st.integers(8, 120),
        noise=st.sampled_from([0.0, 0.02]),
    )
    def test_any_frame_matches_per_pixel_hash(self, yaw, x, y, cell, w, h, noise):
        cfg = SimConfig(
            texture_seed=5, cell_size=cell, image_width=w, image_height=h,
            lowlight_gain=0.5 if noise else 1.0, lowlight_noise=noise,
        )
        _assert_renders_match(cfg, VehicleState(x=x, y=y, yaw=yaw))


@pytest.mark.parametrize("yaw", [0.3, 0.785])
def test_sub_pixel_cells_render_in_bounded_memory(yaw):
    # Cells 1.7x finer than pixels, far from the origin: a table of every
    # cell in the frame's bounding box would take about 47 frames.
    cfg = SimConfig(texture_seed=9, cell_size=1e-3 / 1.7)
    tex, vehicle, rng = cfg.make_texture(), VehicleState(x=4e3, y=-3e3, yaw=yaw), quiet()
    tracemalloc.start()
    try:
        render_frame(tex, vehicle, cfg, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * cfg.image_width * cfg.image_height * 8


@pytest.mark.parametrize("dt", [0.0, -0.005])
def test_physics_steps_reject_non_positive_dt(dt):
    cfg, wind = SimConfig(), WindState()
    with pytest.raises(ValueError, match="dt must be > 0"):
        wind_step(wind, cfg, dt, quiet())
    with pytest.raises(ValueError, match="dt must be > 0"):
        step_dynamics(VehicleState(), AttitudeCommand(), wind, cfg, dt)


class TestWind:
    def test_zero_sigma_stays_zero(self):
        cfg = SimConfig(wind_sigma=0.0)
        rng = np.random.default_rng(0)
        w = WindState()
        for _ in range(10):
            w = wind_step(w, cfg, 0.005, rng)
        assert (w.ax, w.ay) == (0.0, 0.0)

    def test_same_seed_same_sequence(self):
        cfg = SimConfig(wind_sigma=0.3, wind_rate=0.5)
        seqs = []
        for _ in range(2):
            rng = np.random.Generator(np.random.Philox(key=123))
            w = WindState()
            seq = []
            for _ in range(50):
                w = wind_step(w, cfg, 0.005, rng)
                seq.append((w.ax, w.ay))
            seqs.append(seq)
        assert seqs[0] == seqs[1]

    def test_stationary_standard_deviation(self):
        sigma, rate, dt = 0.3, 0.5, 0.005
        cfg = SimConfig(wind_sigma=sigma, wind_rate=rate)
        rng = np.random.Generator(np.random.Philox(key=7))
        w = WindState()
        n = 1_000_000
        total = 0.0
        total2 = 0.0
        for _ in range(n):
            w = wind_step(w, cfg, dt, rng)
            total += w.ax
            total2 += w.ax * w.ax
        std = math.sqrt(total2 / n - (total / n) ** 2)
        expected = sigma / math.sqrt(2.0 * rate)
        assert abs(std - expected) <= 0.1 * expected


class TestDynamics:
    def test_equilibrium_only_time_advances(self):
        cfg = SimConfig()
        v0 = VehicleState()
        v1 = step_dynamics(v0, AttitudeCommand(), WindState(), cfg, 0.005)
        assert (v1.x, v1.y, v1.vx, v1.vy) == (0.0, 0.0, 0.0, 0.0)
        assert v1.t == 0.005

    def test_constant_tilt_velocity_growth(self):
        cfg = SimConfig(drag_coeff=0.0, tilt_tau=1e-9)  # tilt snaps to command
        theta = 0.05
        v = VehicleState()
        dt = 0.005
        for k in range(3):
            v = step_dynamics(v, AttitudeCommand(roll=theta), WindState(), cfg, dt)
        expect = 3 * cfg.gravity * math.tan(theta) * dt
        assert v.vx == pytest.approx(expect, rel=1e-6)
        assert v.vy == 0.0

    def test_drag_geometric_decay(self):
        cfg = SimConfig(drag_coeff=0.35)
        dt = 0.005
        v = VehicleState(vx=2.0)
        expected = 2.0
        for _ in range(5):
            v = step_dynamics(v, AttitudeCommand(), WindState(), cfg, dt)
            expected *= 1.0 - cfg.drag_coeff * dt
        assert v.vx == pytest.approx(expected, rel=1e-12)

    def test_momentum_conserved_without_forces(self):
        cfg = SimConfig(drag_coeff=0.0)
        v = VehicleState(vx=0.7, vy=-0.2)
        for _ in range(200):
            v = step_dynamics(v, AttitudeCommand(), WindState(), cfg, 0.005)
        assert v.vx == pytest.approx(0.7, abs=1e-12)
        assert v.vy == pytest.approx(-0.2, abs=1e-12)

    def test_tilt_never_exceeds_max(self):
        cfg = SimConfig(max_tilt=0.2)
        v = VehicleState()
        for _ in range(500):
            v = step_dynamics(v, AttitudeCommand(roll=5.0, pitch=-5.0), WindState(), cfg, 0.005)
            assert abs(v.tilt_roll) <= cfg.max_tilt + 1e-12
            assert abs(v.tilt_pitch) <= cfg.max_tilt + 1e-12

    def test_yaw_rotates_body_acceleration(self):
        cfg = SimConfig(drag_coeff=0.0, tilt_tau=1e-9, yaw_rate=0.0)
        v = VehicleState(yaw=math.pi / 2.0)
        v = step_dynamics(v, AttitudeCommand(roll=0.05), WindState(), cfg, 0.005)
        # Body +X acceleration points along world +Y after a 90-degree yaw.
        assert v.vx == pytest.approx(0.0, abs=1e-12)
        assert v.vy > 0.0


class TestRunEpisode:
    def test_record_count_contract(self):
        # At 25 Hz, 1.16 s and 4.6 s give products just below a whole number
        # (28.999999999999996, 114.99999999999999): the last tick still counts.
        for duration in (2.0, 1.16, 4.6):
            cfg = SimConfig(texture_seed=11, cell_size=0.125, duration=duration)
            records = run_episode(cfg)
            assert len(records) == cfg.n_ticks + 1
            ts = [r.t for r in records]
            assert ts == sorted(ts)
            assert ts[0] == 0.0
            assert abs(ts[-1] - duration) <= 1e-9

    def test_divisibility_validated_before_run(self):
        with pytest.raises(ConfigError):
            run_episode(SimConfig(physics_dt=0.007, duration=1.0))

    def test_determinism_bit_identical(self):
        cfg = SimConfig(
            texture_seed=11, cell_size=0.125, duration=2.0,
            wind_sigma=0.3, lowlight_gain=0.5, lowlight_noise=0.02,
        )
        a = write_csv(run_episode(cfg))
        b = write_csv(run_episode(cfg))
        assert a == b

    def test_calm_settles_to_equilibrium(self):
        cfg = SimConfig(texture_seed=11, cell_size=0.125, duration=20.0)
        records = run_episode(cfg)
        post = [r for r in records if r.t >= 15.0]
        mean_x = sum(r.pos_x for r in post) / len(post)
        mean_y = sum(r.pos_y for r in post) / len(post)
        final = records[-1]
        assert math.hypot(final.pos_x - mean_x, final.pos_y - mean_y) < 0.01

    def test_blank_ground_is_blind_and_neutral(self):
        cfg = SimConfig(
            texture_seed=11, cell_size=0.125, duration=2.0,
            blank_ground=True, wind_sigma=0.3,
        )
        records = run_episode(cfg)
        assert all("blind" in r.events for r in records)
        assert all(r.cmd_roll == 0.0 and r.cmd_pitch == 0.0 for r in records)
        assert all(r.disp_x is None for r in records)
        # ballistic drift under wind: the vehicle does not stay pinned
        assert math.hypot(records[-1].pos_x, records[-1].pos_y) > 0.0

    def test_on_tick_observer_sees_states(self):
        cfg = SimConfig(texture_seed=11, cell_size=0.125, duration=0.4)
        seen = []
        run_episode(cfg, on_tick=lambda k, s: seen.append((k, s.generation)))
        assert [k for k, _ in seen] == list(range(11))
        assert all(g >= 1 for _, g in seen)


def blank_at(ticks):
    """A sim._render that shows flat ground on the given camera ticks."""
    render = sim._render

    def frame(tex, vehicle, cfg, eta, out):
        render(tex, vehicle, cfg, eta, out)
        if round(vehicle.t * cfg.camera_rate) in ticks:
            out.fill(0.5)
        return out

    return frame


class TestPyramidOwner:
    """run_episode builds a frame's pyramid once, and only if LK reads it."""

    def fly(self, monkeypatch, preset, duration, render=None):
        rc = load_run_config(preset, None, {"sim": {"duration": duration}})
        if render is not None:
            monkeypatch.setattr(sim, "_render", render)
        plain = write_csv(run_episode(rc.sim, rc.gains, rc.tracker))
        built, read = [], []  # held, so every id below stays unique
        build, track = sim.build_pyramid, tracker.track_points

        def spy_build(image, levels):
            built.append((image, build(image, levels)))
            return built[-1][1]

        def spy_track(prev, next_, points, params):
            read.extend((prev, next_))
            return track(prev, next_, points, params)

        monkeypatch.setattr(sim, "build_pyramid", spy_build)
        monkeypatch.setattr(tracker, "track_points", spy_track)
        assert write_csv(run_episode(rc.sim, rc.gains, rc.tracker)) == plain
        images = [id(image) for image, _ in built]
        assert len(set(images)) == len(images)
        assert {id(pyr) for _, pyr in built} == {id(pyr) for pyr in read}
        return built

    def test_blind_episode_builds_none(self, monkeypatch):
        assert self.fly(monkeypatch, "blind", 1.0) == []

    def test_textured_episode_builds_each_read_frame_once(self, monkeypatch):
        assert len(self.fly(monkeypatch, "outdoor", 2.0)) == 51

    def test_blind_start_builds_only_what_lk_reads(self, monkeypatch):
        # Blind until tick 10, a blind spell at 25-29, and features found
        # again on the last tick, whose frame LK never reads. LK reads
        # frames 10-24 and 30-48, and the blank frames 25 and 49 as next.
        blank = {*range(10), *range(25, 30), 49}
        assert len(self.fly(monkeypatch, "outdoor", 2.0, blank_at(blank))) == 36


class TestFrameRing:
    """run_episode renders into two buffers it owns from frame 1 on; render_frame into fresh ones."""

    @pytest.mark.parametrize("preset", ["outdoor", "blind", "lowlight"])
    def test_episode_renders_into_two_buffers(self, monkeypatch, preset):
        rc = load_run_config(preset, None, {"sim": {"duration": 0.4}})
        plain = write_csv(run_episode(rc.sim, rc.gains, rc.tracker))
        outs, frames = [], []
        render, advance = sim._render, sim.advance

        def spy_render(tex, vehicle, cfg, eta, out):
            outs.append(out)
            return render(tex, vehicle, cfg, eta, out)

        def spy_advance(state, prev, next_, cfg, **pyramids):
            frames.append((prev.pixels, next_.pixels))
            return advance(state, prev, next_, cfg, **pyramids)

        monkeypatch.setattr(sim, "_render", spy_render)
        monkeypatch.setattr(sim, "advance", spy_advance)
        assert write_csv(run_episode(rc.sim, rc.gains, rc.tracker)) == plain
        # Frames 0 to 2 into arrays of their own, frame k >= 3 into frame k-2's.
        assert len(outs) == 11 and len({id(out) for out in outs}) == 3
        assert all(outs[k] is outs[k - 2] for k in range(3, len(outs)))
        # Tick k's advance reads frames k-1 and k: frozen views of their buffers.
        for k, (prev, next_) in enumerate(frames, start=1):
            assert prev.base is outs[k - 1] and next_.base is outs[k]
            assert not prev.flags.writeable and not next_.flags.writeable

    @pytest.mark.parametrize("scene", ["plain", "blank_ground", "lowlight"])
    @pytest.mark.parametrize("yaw", [0.0, 0.15])
    def test_render_frame_returns_fresh_frozen_frames(self, scene, yaw):
        cfg = _render_scene(scene)
        tex, rng = cfg.make_texture(), np.random.default_rng(4)
        held = render_frame(tex, VehicleState(yaw=yaw), cfg, rng)
        want = held.pixels.tobytes()
        for x in (0.1, 0.2):
            later = render_frame(tex, VehicleState(x=x, yaw=yaw), cfg, rng)
            assert not later.pixels.flags.writeable
            assert not np.shares_memory(later.pixels, held.pixels)
        assert not held.pixels.flags.writeable
        assert held.pixels.tobytes() == want


def test_program_built_frames_keep_the_image_invariants():
    # Render and pyramid levels skip GrayImage's checks; they must still
    # hold, and the arrays must be frozen like a checked image's.
    cfg = SimConfig(texture_seed=3, cell_size=0.125, lowlight_gain=0.5, lowlight_noise=0.2)
    frame = render_frame(cfg.make_texture(), VehicleState(), cfg, np.random.default_rng(1))
    for px in build_pyramid(frame, 3):
        assert px.dtype == np.float64 and not px.flags.writeable
        assert 0.0 <= px.min() and px.max() <= 1.0


def test_noise_beyond_the_float_range_saturates():
    # sigma * eta overflows to +-inf for |eta| > 1; the clamp still gives
    # the true value's bound, without an overflow warning.
    cfg = SimConfig(
        texture_seed=3, cell_size=0.125, image_width=64, image_height=48,
        lowlight_noise=sys.float_info.max,
    )
    frame = render_frame(cfg.make_texture(), VehicleState(), cfg, np.random.default_rng(1))
    eta = np.random.default_rng(1).standard_normal((48, 64))
    assert frame.pixels.tobytes() == (eta > 0).astype(np.float64).tobytes()


def philox(key):
    return np.random.Generator(np.random.Philox(key=key))


def lowlight(duration):
    return load_run_config("lowlight", None, {"sim": {"duration": duration}}).sim


class SpyGenerator:
    """A Generator that calls ``hook(k)`` before its k-th standard-normal draw."""

    def __init__(self, gen, hook):
        self.gen, self.hook, self.draws = gen, hook, 0

    def __getattr__(self, name):
        return getattr(self.gen, name)

    def standard_normal(self, *args, **kwargs):
        self.hook(self.draws)
        self.draws += 1
        return self.gen.standard_normal(*args, **kwargs)


def spy_generators(monkeypatch, hook=lambda k: None):
    """Wrap each generator run_episode builds; returns them in build order."""
    built = []
    generator = np.random.Generator

    def build(bit_generator):
        built.append(SpyGenerator(generator(bit_generator), hook))
        return built[-1]

    monkeypatch.setattr(np.random, "Generator", build)
    return built


class TestNoiseAhead:
    @pytest.mark.parametrize("shape", [(61, 203), (480, 640)])
    def test_draws_equal_the_serial_stream(self, monkeypatch, shape):
        cfg = load_run_config(
            "lowlight", None,
            {"sim": {"duration": 0.24, "image_height": shape[0], "image_width": shape[1]}},
        ).sim
        etas = []
        render = sim._render

        def spy(tex, vehicle, cfg, eta, out):
            etas.append((eta, eta.copy()))  # the buffer, and the draw before the render scales it
            return render(tex, vehicle, cfg, eta, out)

        monkeypatch.setattr(sim, "_render", spy)
        records = run_episode(cfg)
        serial = philox(cfg.texture_seed + 2)
        assert len(etas) == len(records) == 7
        for k, (buf, drawn) in enumerate(etas):
            assert drawn.tobytes() == serial.standard_normal(shape).tobytes()
            if k:  # the helper fills the other buffer
                assert not np.shares_memory(buf, etas[k - 1][0])
            if k > 1:
                assert np.shares_memory(buf, etas[k - 2][0])

    def test_episode_draws_no_frame_past_the_last(self, monkeypatch):
        cfg = lowlight(0.4)
        serial = philox(cfg.texture_seed + 2)
        built = spy_generators(monkeypatch)
        records = run_episode(cfg)
        for _ in records:
            serial.standard_normal((cfg.image_height, cfg.image_width))
        assert len(built) == 2  # wind, then noise
        assert built[1].draws == len(records)
        np.testing.assert_equal(built[1].bit_generator.state, serial.bit_generator.state)

    def test_next_draw_is_queued_before_the_wait(self, monkeypatch):
        # While the helper draws frame k, frame k+1's draw is already
        # submitted, so the helper never waits for the episode's thread.
        cfg = lowlight(0.4)
        submitted = [0]
        cond = threading.Condition()

        class Executor(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                with cond:
                    submitted[0] += 1
                    cond.notify_all()
                return future

        queued = []

        def hook(k):  # runs on the helper, before frame k's draw
            if k < cfg.n_ticks:
                with cond:
                    queued.append(cond.wait_for(lambda: submitted[0] >= k + 2, timeout=10))

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Executor)
        spy_generators(monkeypatch, hook)
        assert len(run_episode(cfg)) == cfg.n_ticks + 1
        assert queued == [True] * cfg.n_ticks

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        boom = FloatingPointError("draw failed")

        def fail_frame_3(k):
            if k == 3:
                raise boom

        spy_generators(monkeypatch, fail_frame_3)
        ticks = []
        before = threading.active_count()
        with pytest.raises(FloatingPointError) as info:
            run_episode(lowlight(0.4), on_tick=lambda k, s: ticks.append(k))
        assert info.value is boom
        assert ticks == [0, 1, 2]
        assert threading.active_count() == before


class TestNoiseThread:
    def test_no_helper_outlives_the_episode(self):
        before = threading.active_count()
        alive = []
        run_episode(lowlight(0.4), on_tick=lambda k, s: alive.append(threading.active_count()))
        assert max(alive) <= before + 1
        assert threading.active_count() == before

    def test_no_helper_outlives_a_raising_on_tick(self, monkeypatch):
        # A slow draw keeps the helper alive when on_tick raises.
        spy_generators(monkeypatch, lambda k: time.sleep(0.05))
        before = threading.active_count()
        alive = []
        boom = RuntimeError("tick 3")

        def on_tick(k, state):
            if k == 3:
                alive.append(threading.active_count())
                raise boom

        with pytest.raises(RuntimeError) as info:
            run_episode(lowlight(0.4), on_tick=on_tick)
        assert info.value is boom
        assert alive == [before + 1]
        assert threading.active_count() == before

    def test_noise_free_episode_starts_no_thread(self, monkeypatch):
        def start(self):
            raise AssertionError("a noise-free episode started a thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        rc = load_run_config("calm", None, {"sim": {"duration": 0.4}})
        assert rc.sim.lowlight_noise == 0.0
        assert len(run_episode(rc.sim, rc.gains, rc.tracker)) == 11

    def test_noise_free_episode_builds_no_noise_stream(self, monkeypatch):
        keys = []
        philox_ = np.random.Philox

        def spy_philox(*args, **kwargs):
            keys.append(kwargs.get("key"))
            return philox_(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", spy_philox)
        rc = load_run_config("calm", None, {"sim": {"duration": 0.4}})
        assert len(run_episode(rc.sim, rc.gains, rc.tracker)) == 11
        assert keys == [rc.sim.texture_seed + 1]  # the wind stream only

    def test_import_loads_no_executor(self):
        # run_episode imports the executor only for an episode with pixel
        # noise; a fresh process that imports the package and flies a
        # noise-free episode does not load it.
        env = dict(os.environ, PYTHONPATH=str(Path(sim.__file__).resolve().parents[1]))
        code = (
            "import sys, flowhold.config, flowhold.sim as s; "
            "s.run_episode(s.SimConfig(duration=0.2)); "
            "print('concurrent.futures' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_concurrent_episodes_equal_serial_runs(self):
        # Three episodes at once, each with its helper: six threads on two
        # cores, switching as often as the interpreter allows.
        cfgs = [dataclasses.replace(lowlight(0.4), texture_seed=s) for s in (11, 12, 13)]
        serial = [write_csv(run_episode(cfg)) for cfg in cfgs]
        flown = [None] * len(cfgs)

        def fly(i):
            flown[i] = write_csv(run_episode(cfgs[i]))

        threads = [threading.Thread(target=fly, args=(i,)) for i in range(len(cfgs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert flown == serial
