import math

import numpy as np
import pytest

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
    _texture_grid,
)
from flowhold.telemetry import dispersion_stats, write_csv

from util import brute_render


def texture_at(tex, x, y):
    """Ground intensity at one world point, through the vectorized texture lookup."""
    return float(_texture_grid(tex, np.array([x]), np.array([y]))[0])


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


def test_ground_texture_rejects_nan_cell_size():
    with pytest.raises(ValueError, match="cell_size"):
        GroundTexture(seed=1, cell_size=math.nan)


class TestTexture:
    def test_deterministic(self):
        tex = GroundTexture(seed=42)
        assert texture_at(tex, 1.23, -4.56) == texture_at(tex, 1.23, -4.56)

    def test_constant_within_cell_changes_across(self):
        tex = GroundTexture(seed=7, cell_size=0.25)
        assert texture_at(tex, 0.51, 0.51) == texture_at(tex, 0.74, 0.6)
        assert texture_at(tex, 0.1, 0.1) != texture_at(tex, 0.3, 0.1)

    def test_uniform_mean(self):
        tex = GroundTexture(seed=3, cell_size=1.0)
        n = 100
        xs, ys = np.meshgrid(np.arange(n) + 0.5, np.arange(n) + 0.5)
        grid = _texture_grid(tex, xs, ys)
        assert abs(grid.mean() - 0.5) <= 0.02
        assert grid.min() >= 0.0 and grid.max() <= 1.0

    def test_blank_rect(self):
        tex = GroundTexture(seed=5, cell_size=0.25, blank_rect=(-1.0, -1.0, 1.0, 1.0))
        assert texture_at(tex, 0.0, 0.0) == 0.5
        assert texture_at(tex, 0.3, -0.9) == 0.5

    def test_seed_changes_field(self):
        a = GroundTexture(seed=1)
        b = GroundTexture(seed=2)
        assert texture_at(a, 0.1, 0.1) != texture_at(b, 0.1, 0.1)


class TestRenderFrame:
    def test_center_pixel_is_texture_under_vehicle(self):
        cfg = SimConfig(texture_seed=9, cell_size=0.125)
        tex = cfg.make_texture()
        origin = render_frame(tex, VehicleState(), cfg)
        assert origin.pixels[cfg.image_height // 2, cfg.image_width // 2] == texture_at(
            tex, 0.0, 0.0
        )
        v = VehicleState(x=0.30017, y=-0.1234)
        frame = render_frame(tex, v, cfg)
        assert frame.pixels[cfg.image_height // 2, cfg.image_width // 2] == texture_at(
            tex, v.x, v.y
        )

    def test_one_gsd_shift_equals_one_pixel_shift(self):
        cfg = SimConfig(texture_seed=9, cell_size=0.125)
        tex = cfg.make_texture()
        a = render_frame(tex, VehicleState(x=0.30017, y=0.0501), cfg)
        b = render_frame(
            tex, VehicleState(x=0.30017 + cfg.ground_sample_distance, y=0.0501), cfg
        )
        np.testing.assert_array_equal(b.pixels[:, :-1], a.pixels[:, 1:])

    def test_lowlight_identity_when_disabled(self):
        cfg = SimConfig(texture_seed=9, cell_size=0.125, lowlight_gain=1.0, lowlight_noise=0.0)
        tex = cfg.make_texture()
        a = render_frame(tex, VehicleState(), cfg)
        b = render_frame(tex, VehicleState(), cfg)
        np.testing.assert_array_equal(a.pixels, b.pixels)

    def test_lowlight_gain_scales(self):
        base = SimConfig(texture_seed=9, cell_size=0.125)
        dim = SimConfig(texture_seed=9, cell_size=0.125, lowlight_gain=0.25)
        tex = base.make_texture()
        a = render_frame(tex, VehicleState(), base)
        b = render_frame(tex, VehicleState(), dim)
        np.testing.assert_allclose(b.pixels, a.pixels * 0.25, atol=1e-15)

    def test_camera_flow_sign_consistency(self):
        # A vehicle displacement of +d meters moves image content by
        # -d*f/h pixels; this pins the sign chain end to end.
        cfg = SimConfig(texture_seed=9, cell_size=0.125)
        tex = cfg.make_texture()
        dx_m = 3.0 * cfg.ground_sample_distance
        a = render_frame(tex, VehicleState(x=0.30017, y=0.0501), cfg)
        b = render_frame(tex, VehicleState(x=0.30017 + dx_m, y=0.0501), cfg)
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
    """(config, texture) pairs that reach each branch of the render."""
    if scene == "lowlight":
        cfg = SimConfig(texture_seed=9, cell_size=0.125, lowlight_gain=0.25, lowlight_noise=0.02)
    elif scene == "cells_finer_than_pixels":
        cfg = SimConfig(texture_seed=9, cell_size=1e-3 / 1.7)
    else:
        cfg = SimConfig(texture_seed=9, cell_size=0.125, blank_ground=scene == "blank_ground")
    tex = cfg.make_texture()
    if scene == "blank_rect":
        # Edges off the 0.125 m grid and inside the view near the origin.
        tex = GroundTexture(seed=9, cell_size=0.125, blank_rect=(-0.31, -0.2037, 0.173, 0.0911))
    return cfg, tex


class TestRenderOracle:
    @pytest.mark.parametrize("yaw", RENDER_YAWS, ids=repr)
    @pytest.mark.parametrize(
        "scene", ["plain", "blank_rect", "blank_ground", "lowlight", "cells_finer_than_pixels"]
    )
    def test_matches_per_pixel_hash(self, scene, yaw):
        cfg, tex = _render_scene(scene)
        rng = np.random.default_rng(5)
        positions = [(0.0, 0.0), (0.25, -0.125)]  # cell edges through the centre pixel
        positions += [tuple(rng.uniform(-0.3, 0.3, 2)) for _ in range(2)]
        positions += [tuple(rng.uniform(-5e3, 5e3, 2))]
        ours = np.random.Generator(np.random.Philox(key=77))
        theirs = np.random.Generator(np.random.Philox(key=77))
        frames = []
        for x, y in positions:
            vehicle = VehicleState(x=x, y=y, yaw=yaw)
            frames.append(render_frame(tex, vehicle, cfg, ours).pixels)
            want = brute_render(tex, vehicle, cfg, theirs)
            assert frames[-1].shape == want.shape
            assert frames[-1].tobytes() == want.tobytes()
            assert ours.random() == theirs.random()
        if scene == "blank_rect":
            assert 0.1 < np.mean(frames[0] == 0.5) < 0.9  # the rect's edges are in view


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
        cfg = SimConfig(texture_seed=11, cell_size=0.125, duration=2.0)
        records = run_episode(cfg)
        assert len(records) == math.floor(cfg.duration * cfg.camera_rate) + 1
        ts = [r.t for r in records]
        assert ts == sorted(ts)
        assert ts[0] == 0.0

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
