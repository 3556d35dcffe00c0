"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines. The long closed-loop episodes are computed once per
session and shared across criteria. Criteria that fly the long episodes
are marked ``slow``; ``-m "not slow"`` skips them for a fast check.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from flowhold.config import load_run_config
from flowhold.control import Displacement, PidGains, PidState, PositionHoldController, displacement_from_center, pid_step
from flowhold.corners import DetectParams, Rect, detect_corners, response_map
from flowhold.flow import LkParams, build_pyramid, track_points
from flowhold.image import GrayImage
from flowhold.sim import run_episode
from flowhold.telemetry import FrameRecord, dispersion_stats, write_csv, write_summary_json
from flowhold.tracker import center_roi

from util import brute_detect, brute_response_map, smooth_texture


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {num:2d} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num:2d} ({name}): PASS")


def episode(preset, **overrides):
    rc = load_run_config(preset)
    sim = dataclasses.replace(rc.sim, **overrides) if overrides else rc.sim
    return rc, run_episode(sim, rc.gains, rc.tracker_config())


def stats(rc, records):
    return dispersion_stats(
        records, settle_time=rc.sim.settle_time, frame_size_cm=rc.sim.frame_size_cm
    )


@pytest.fixture(scope="module")
def calm60():
    rc, records = episode("calm")
    return rc, records, stats(rc, records)


@pytest.fixture(scope="module")
def outdoor300():
    t0 = time.time()
    rc, records = episode("outdoor")
    elapsed = time.time() - t0
    return rc, records, stats(rc, records), elapsed


@pytest.fixture(scope="module")
def indoor300():
    rc, records = episode("indoor")
    return rc, records, stats(rc, records)


def test_criterion_1_corner_oracle_equivalence():
    with criterion(1, "corner oracle equivalence"):
        t0 = time.time()
        rng = np.random.default_rng(2024)
        for trial in range(25):
            h = int(rng.integers(16, 65))
            w = int(rng.integers(16, 65))
            img = GrayImage(rng.uniform(0.0, 1.0, (h, w)))
            radius = int(rng.integers(1, 4))
            resp = response_map(img, radius)
            brute = brute_response_map(img, radius)
            assert np.abs(resp - brute).max() <= 1e-9
            params = DetectParams(
                max_corners=int(rng.integers(2, 12)),
                quality_level=float(rng.uniform(0.05, 0.5)),
                min_distance=float(rng.uniform(0.0, 8.0)),
                window_radius=radius,
            )
            roi = Rect(1, 1, w - 2, h - 2)
            got = detect_corners(img, roi, params)
            want = brute_detect(img, roi, params)
            assert [(c.x, c.y) for c in got] == [(c.x, c.y) for c in want]
            for g, m in zip(got, want):
                assert abs(g.response - m.response) <= 1e-9
        assert time.time() - t0 < 5.0


def test_criterion_2_flow_recovery():
    with criterion(2, "flow recovery"):
        t0 = time.time()
        shifts = [(3.0, -2.0), (0.5, 0.25), (-4.5, 3.25), (5.25, -1.75), (-0.25, 5.5)]
        params = LkParams()
        margin = params.window_radius + 1 + 6
        rng = np.random.default_rng(77)
        tracked_ok = 0
        total = 0
        for case, shift in enumerate(shifts):
            assert math.hypot(*shift) <= 6.0
            prev = smooth_texture(128, 128, seed=100 + case)
            next_ = smooth_texture(128, 128, shift=shift, seed=100 + case)
            a = build_pyramid(prev, params.pyramid_levels)
            b = build_pyramid(next_, params.pyramid_levels)
            pts = np.stack(
                [
                    rng.uniform(margin, 127 - margin, 20),
                    rng.uniform(margin, 127 - margin, 20),
                ],
                axis=1,
            )
            fwd = track_points(a, b, pts, params)
            total += len(fwd)
            back_in = [r.point for r in fwd if r.tracked]
            back = track_points(b, a, back_in, params)
            bi = 0
            for (x, y), res in zip(pts, fwd):
                if not res.tracked:
                    continue
                err = math.hypot(res.point[0] - (x + shift[0]), res.point[1] - (y + shift[1]))
                if err <= 0.1:
                    tracked_ok += 1
                rev = back[bi]
                bi += 1
                if rev.tracked:
                    fb = math.hypot(rev.point[0] - x, rev.point[1] - y)
                    assert fb <= 0.2
        assert total == 100
        assert tracked_ok >= 95
        assert time.time() - t0 < 10.0


def test_criterion_3_displacement_arithmetic():
    with criterion(3, "displacement arithmetic"):
        d = displacement_from_center((480.0, 120.0), 640, 480)
        assert (d.x, d.y, d.d) == (160.0, -120.0, 200.0)
        d = displacement_from_center((320.0, 240.0), 640, 480)
        assert (d.x, d.y, d.d) == (0.0, 0.0, 0.0)
        d = displacement_from_center((160.0, 360.0), 640, 480)
        assert (d.x, d.y, d.d) == (-160.0, 120.0, 200.0)
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            x = float(rng.uniform(0, 639))
            y = float(rng.uniform(0, 479))
            d = displacement_from_center((x, y), 640, 480)
            assert abs(d.d * d.d - (d.x * d.x + d.y * d.y)) <= 1e-9


def test_criterion_4_pid_closed_form():
    with criterion(4, "pid closed form"):
        # P only
        gains = PidGains(kp=0.002, ki=0.0, kd=0.0, out_limit=1.0)
        out, _ = pid_step(gains, PidState(), 150.0, 0.04)
        assert abs(out - 0.3) <= 1e-12
        # I only: rectangular accumulation
        gains = PidGains(kp=0.0, ki=0.01, kd=0.0, out_limit=1.0)
        state = PidState()
        expected_integral = 0.0
        for _ in range(3):
            out, state = pid_step(gains, state, 10.0, 0.04)
            expected_integral += 10.0 * 0.04
            assert abs(out - gains.ki * expected_integral) <= 1e-12
        # D only: backward difference, zero on the first step
        gains = PidGains(kp=0.0, ki=0.0, kd=0.1, out_limit=10.0)
        out, state = pid_step(gains, PidState(), 1.0, 0.1)
        assert out == 0.0
        out, _ = pid_step(gains, state, 3.0, 0.1)
        assert abs(out - 0.1 * 20.0) <= 1e-12
        # clamps under 1e5 adversarial random steps
        rng = np.random.default_rng(17)
        gains = PidGains()
        state = PidState()
        errors = rng.uniform(-500.0, 500.0, 100_000)
        errors[::251] *= 100.0  # spikes
        for e in errors:
            out, state = pid_step(gains, state, float(e), 0.04)
            assert abs(out) <= gains.out_limit
            assert abs(state.integral) <= gains.i_limit


@pytest.mark.slow
def test_criterion_5_closed_loop_equilibrium(calm60):
    with criterion(5, "closed-loop equilibrium"):
        _, _, report = calm60
        assert report.two_sigma_radial < 2.0


def test_criterion_6_impulse_recovery():
    with criterion(6, "impulse recovery (sign chain)"):
        rc, records = episode("calm", start_x=0.30, duration=30.0)
        first = records[0]
        assert first.disp_x is not None
        gsd = rc.sim.altitude / rc.sim.focal_px
        anchor = (first.pos_x + first.disp_x * gsd, first.pos_y + first.disp_y * gsd)
        start_err = math.hypot(first.pos_x - anchor[0], first.pos_y - anchor[1])
        assert start_err > 0.05  # the step input is a real displacement
        for r in records:
            assert abs(r.cmd_roll) <= rc.sim.max_tilt
            assert abs(r.cmd_pitch) <= rc.sim.max_tilt
            if r.t >= 10.0:
                err = math.hypot(r.pos_x - anchor[0], r.pos_y - anchor[1])
                assert err < 0.05, f"t={r.t}: {err:.3f} m from anchor"


@pytest.mark.slow
def test_criterion_7_outdoor_analog(outdoor300):
    with criterion(7, "outdoor analog"):
        rc, records, report, elapsed = outdoor300
        assert len(records) == 7501
        assert 10.0 <= report.two_sigma_radial <= 25.0
        assert report.hold_diameter < 110.0
        assert elapsed < 120.0


@pytest.mark.slow
def test_criterion_8_indoor_analog(indoor300):
    with criterion(8, "indoor analog"):
        _, records, report = indoor300
        assert len(records) == 7501
        assert 5.0 <= report.two_sigma_radial <= 14.0
        assert report.hold_diameter < 90.0


@pytest.mark.slow
def test_criterion_9_reacquisition_under_yaw(outdoor300):
    with criterion(9, "re-acquisition under yaw"):
        rc = load_run_config("outdoor")
        sim = dataclasses.replace(rc.sim, yaw_rate=0.15)
        roi = center_roi(sim.image_width, sim.image_height)
        reacquired_positions = []
        seen = {"generation": None}

        def on_tick(k, state):
            if seen["generation"] is not None and state.generation > seen["generation"]:
                reacquired_positions.append(
                    [f.position for f in state.features if f.alive]
                )
            seen["generation"] = state.generation

        records = run_episode(sim, rc.gains, rc.tracker_config(), on_tick=on_tick)
        report = stats(rc, records)
        reacq_events = sum(1 for r in records if "reacquired" in r.events)
        assert reacq_events >= 1
        _, _, outdoor_report, _ = outdoor300
        assert report.two_sigma_radial <= 2.0 * outdoor_report.two_sigma_radial
        assert reacquired_positions  # observer saw every new generation
        for positions in reacquired_positions:
            for x, y in positions:
                assert roi.contains(x, y)


@pytest.mark.slow
def test_criterion_10_low_light():
    with criterion(10, "low light"):
        rc, records = episode("lowlight")
        report = stats(rc, records)
        base_rc, base_records = episode("lowlight", lowlight_gain=1.0, lowlight_noise=0.0)
        base_report = stats(base_rc, base_records)
        assert report.blind_fraction < 0.05
        assert report.two_sigma_radial <= 2.0 * base_report.two_sigma_radial


@pytest.mark.slow
def test_criterion_11_blind_behavior():
    with criterion(11, "blind behavior"):
        rc, records = episode("blind")
        assert all("blind" in r.events for r in records)
        assert all(r.cmd_roll == 0.0 and r.cmd_pitch == 0.0 for r in records)
        assert all(r.disp_x is None and r.disp_y is None and r.disp_d is None for r in records)
        assert all(r.n_alive == 0 for r in records)
        # The controller freezes its integrators on blind input.
        ctrl = PositionHoldController(PidGains())
        ctrl.step(Displacement(120.0, -80.0), 0.04)
        frozen = (ctrl.roll_state.integral, ctrl.pitch_state.integral)
        for _ in range(10):
            cmd = ctrl.step(None, 0.04)
            assert (cmd.roll, cmd.pitch) == (0.0, 0.0)
            assert (ctrl.roll_state.integral, ctrl.pitch_state.integral) == frozen


def test_criterion_12_determinism():
    with criterion(12, "determinism"):
        runs = []
        for _ in range(2):
            rc, records = episode("calm", duration=10.0)
            report = stats(rc, records)
            runs.append(
                (write_csv(records), write_summary_json(report, {"preset": "calm"}))
            )
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]


def test_criterion_13_stats_arithmetic():
    with criterion(13, "stats arithmetic"):
        def synthetic(two_sigma_cm):
            sigma_m = two_sigma_cm / 200.0
            return [
                FrameRecord(
                    t=0.04 * i,
                    pos_x=sigma_m if i % 2 else -sigma_m,
                    pos_y=0.0,
                    vel_x=0.0,
                    vel_y=0.0,
                    disp_x=0.0,
                    disp_y=0.0,
                    disp_d=0.0,
                    cmd_roll=0.0,
                    cmd_pitch=0.0,
                    n_alive=1,
                    generation=1,
                )
                for i in range(100)
            ]

        outdoor = dispersion_stats(synthetic(18.66), settle_time=0.0, frame_size_cm=58.0)
        assert abs(outdoor.two_sigma_radial - 18.66) <= 0.01
        assert abs(outdoor.hold_diameter - 95.32) <= 0.01
        indoor = dispersion_stats(synthetic(10.55), settle_time=0.0, frame_size_cm=58.0)
        assert abs(indoor.two_sigma_radial - 10.55) <= 0.01
        assert abs(indoor.hold_diameter - 79.1) <= 0.01
