import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowhold import sim
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
    _NoiseAhead,
    _texture_grid,
    _texture_runs,
)
from flowhold.telemetry import dispersion_stats, write_csv

from util import brute_render


def quiet():
    """A noise stream for renders that draw no pixel noise, so never read."""
    return np.random.default_rng(0)


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
        grid = _texture_grid(tex, xs, ys)
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
# block, and cells from 0.032 m (two blocks) up take the run-length route.
RUN_CELLS = [0.25, 0.05, 0.0321, 0.0319, 0.02, 0.0161, 0.016, 0.0159]


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
        # render_frame routes these cells per pixel for speed; the runs
        # stay exact with several cell edges inside one block.
        cfg = SimConfig(texture_seed=9, cell_size=cell_px * 0.002, image_width=203, image_height=61)
        u = np.arange(203, dtype=np.float64) - 101
        v = (np.arange(61, dtype=np.float64) - 30)[:, None]
        for yaw in RUN_YAWS:
            vehicle = VehicleState(x=1.3, y=-0.7, yaw=yaw)
            got = _texture_runs(
                cfg.make_texture(), vehicle, cfg.ground_sample_distance,
                math.cos(yaw), math.sin(yaw), u, v,
            )
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


def test_program_built_frames_keep_the_image_invariants():
    # Render and pyramid levels skip GrayImage's checks; they must still
    # hold, and the arrays must be frozen like a checked image's.
    cfg = SimConfig(texture_seed=3, cell_size=0.125, lowlight_gain=0.5, lowlight_noise=0.2)
    frame = render_frame(cfg.make_texture(), VehicleState(), cfg, np.random.default_rng(1))
    for level in build_pyramid(frame, 3).levels:
        px = level.pixels
        assert px.dtype == np.float64 and not px.flags.writeable
        assert 0.0 <= px.min() and px.max() <= 1.0


def philox(key):
    return np.random.Generator(np.random.Philox(key=key))


def lowlight(duration):
    return load_run_config("lowlight", None, {"sim": {"duration": duration}}).sim


class TestNoiseAhead:
    @pytest.mark.parametrize("shape", [(61, 203), (480, 640)])
    def test_draws_equal_the_serial_stream(self, shape):
        # run_episode's order: draw a frame, then start the next fill
        # after every frame but the last.
        n = 6
        rng = philox(2026)
        source = _NoiseAhead(rng, shape)
        serial = philox(2026)
        for k in range(n + 1):
            got = source.standard_normal(shape)
            assert got.tobytes() == serial.standard_normal(shape).tobytes()
            if k < n:
                source.fill()
        source.join()
        np.testing.assert_equal(rng.bit_generator.state, serial.bit_generator.state)

    def test_episode_draws_no_frame_past_the_last(self, monkeypatch):
        sources = []
        render = sim.render_frame

        def spy(tex, vehicle, cfg, rng):
            sources.append(rng)
            return render(tex, vehicle, cfg, rng)

        monkeypatch.setattr(sim, "render_frame", spy)
        cfg = lowlight(0.4)
        records = run_episode(cfg)
        serial = philox(cfg.texture_seed + 2)
        for _ in records:
            serial.standard_normal((cfg.image_height, cfg.image_width))
        assert len({id(s) for s in sources}) == 1
        np.testing.assert_equal(sources[0]._rng.bit_generator.state, serial.bit_generator.state)

    def test_helper_error_reaches_the_caller(self):
        class Broken:
            def standard_normal(self, out):
                raise FloatingPointError("draw failed")

        source = _NoiseAhead(Broken(), (8, 8))
        source.fill()
        with pytest.raises(FloatingPointError, match="draw failed"):
            source.standard_normal((8, 8))


class TestNoiseThread:
    def test_no_helper_outlives_the_episode(self):
        before = threading.active_count()
        alive = []
        run_episode(lowlight(0.4), on_tick=lambda k, s: alive.append(threading.active_count()))
        assert max(alive) <= before + 1
        assert threading.active_count() == before

    def test_no_helper_outlives_a_raising_on_tick(self, monkeypatch):
        # A slow draw keeps the helper alive when on_tick raises.
        draw = _NoiseAhead._draw

        def slow_draw(source):
            time.sleep(0.05)
            draw(source)

        monkeypatch.setattr(_NoiseAhead, "_draw", slow_draw)
        before = threading.active_count()
        boom = RuntimeError("tick 3")

        def on_tick(k, state):
            if k == 3:
                raise boom

        with pytest.raises(RuntimeError) as info:
            run_episode(lowlight(0.4), on_tick=on_tick)
        assert info.value is boom
        assert threading.active_count() == before

    def test_noise_free_episode_starts_no_thread(self, monkeypatch):
        def start(self):
            raise AssertionError("a noise-free episode started a thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        rc = load_run_config("calm", None, {"sim": {"duration": 0.4}})
        assert rc.sim.lowlight_noise == 0.0
        assert len(run_episode(rc.sim, rc.gains, rc.tracker_config())) == 11
