import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowhold.cli import main
from flowhold.config import load_run_config
from flowhold.control import PidGains
from flowhold.corners import DetectParams, Rect, detect_corners
from flowhold.flow import LkParams
from flowhold.image import GrayImage, load_pgm, save_pgm
from flowhold.sim import SimConfig, run_episode
from flowhold.telemetry import CSV_HEADER, write_csv

from util import smooth_texture, square_fixture


@pytest.fixture
def square_pgm(tmp_path):
    path = tmp_path / "square.pgm"
    path.write_bytes(save_pgm(square_fixture(32)))
    return path


@pytest.fixture
def flat_pgm(tmp_path):
    path = tmp_path / "flat.pgm"
    path.write_bytes(save_pgm(GrayImage.full(64, 64, 0.5)))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCorners:
    def test_constant_image_no_corners(self, capsys, flat_pgm):
        code, out, _ = run_cli(capsys, "corners", str(flat_pgm))
        assert code == 0
        assert out == ""

    def test_square_fixture_four_corners(self, capsys, square_pgm):
        code, out, _ = run_cli(
            capsys, "corners", str(square_pgm), "--max", "4", "--min-distance", "5"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        responses = [float(line.split()[2]) for line in lines]
        assert responses == sorted(responses, reverse=True)

    def test_center_roi_excludes_border_corners(self, capsys, tmp_path):
        px = np.full((64, 64), 0.1)
        px[2:10, 2:10] = 0.9  # corners only outside the center ROI
        path = tmp_path / "edge.pgm"
        path.write_bytes(save_pgm(GrayImage(px)))
        code, out, _ = run_cli(capsys, "corners", str(path), "--roi", "center")
        assert code == 0
        assert out == ""

    def test_annotate_writes_markers(self, capsys, square_pgm, tmp_path):
        out_path = tmp_path / "marked.pgm"
        code, _, _ = run_cli(
            capsys, "corners", str(square_pgm), "--max", "4",
            "--min-distance", "5", "--annotate", str(out_path),
        )
        assert code == 0
        from flowhold.image import load_pgm

        marked = load_pgm(out_path.read_bytes())
        assert (marked.pixels == 1.0).sum() >= 4 * 9

    @pytest.mark.parametrize("target", ["dir", "missing/marked.pgm"])
    def test_unwritable_annotate_exit_2(self, capsys, square_pgm, tmp_path, target):
        (tmp_path / "dir").mkdir()
        path = tmp_path / target
        code, out, err = run_cli(capsys, "corners", str(square_pgm), "--annotate", str(path))
        assert code == 2
        assert out == ""  # checked before any corner is printed
        assert err.startswith("error: ") and str(path) in err
        assert not (tmp_path / "missing").exists()

    def test_malformed_pgm_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P6 2 2 255 " + bytes(12))
        code, _, err = run_cli(capsys, "corners", str(bad))
        assert code == 2
        assert "magic" in err

    @pytest.mark.parametrize(
        "flag,value,message",
        [("--max", "0", "max_corners"), ("--quality", "nan", "quality_level")],
    )
    def test_bad_parameter_exit_2(self, capsys, square_pgm, flag, value, message):
        code, out, err = run_cli(capsys, "corners", str(square_pgm), flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "size,flags,message",
        [
            (32, ["--window-radius", "20"], "image must be at least 43x43 for window_radius=20"),
            (5, [], "image must be at least 7x7 for window_radius=2"),
            (3, ["--roi", "center"], "image must be at least 4x4, got 3x3"),
        ],
        ids=["radius-20-on-32x32", "5x5", "center-roi-on-3x3"],
    )
    def test_image_too_small_exit_2(self, capsys, tmp_path, size, flags, message):
        path = tmp_path / "small.pgm"
        path.write_bytes(save_pgm(GrayImage.full(size, size, 0.5)))
        code, out, err = run_cli(capsys, "corners", str(path), *flags)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "corners", str(tmp_path / "nope.pgm"))
        assert code == 2
        assert "nope.pgm" in err

    def test_directory_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "corners", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == f"error: image file not found: {tmp_path}\n"

    def test_sample_above_maxval_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n2 2\n100\n\x00\x10\x20\xff")
        code, out, err = run_cli(capsys, "corners", str(bad))
        assert code == 2
        assert out == ""
        assert err == "error: payload: sample 3 is 255, above maxval 100\n"


class TestFlow:
    def test_identity_point(self, capsys, tmp_path):
        img = smooth_texture(64, 64, seed=6)
        a = tmp_path / "a.pgm"
        a.write_bytes(save_pgm(img))
        code, out, _ = run_cli(
            capsys, "flow", str(a), str(a), "--point", "30,30"
        )
        assert code == 0
        fields = out.split()
        assert fields[:2] == ["30", "30"]
        assert fields[3:5] == ["30", "30"]
        assert fields[5] == "Tracked"
        assert float(fields[6]) == 0.0

    def test_translated_pair_auto(self, capsys, tmp_path):
        prev = smooth_texture(96, 96, seed=10)
        next_ = smooth_texture(96, 96, shift=(3.0, 0.0), seed=10)
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        a.write_bytes(save_pgm(prev))
        b.write_bytes(save_pgm(next_))
        code, out, _ = run_cli(capsys, "flow", str(a), str(b), "--auto")
        assert code == 0
        lines = [line.split() for line in out.strip().splitlines()]
        tracked = [l for l in lines if l[5] == "Tracked"]
        assert tracked
        for l in tracked:
            assert float(l[3]) - float(l[0]) == pytest.approx(3.0, abs=0.25)
            assert float(l[4]) - float(l[1]) == pytest.approx(0.0, abs=0.25)

    def test_auto_skips_corners_near_border(self, capsys, tmp_path):
        # A block at the top-left corner gives a strong corner at (3, 3),
        # too close to the border for an LK window; it must be skipped,
        # not handed to track_points (which raises on it).
        px = np.full((64, 64), 0.1)
        px[2:9, 2:9] = 0.9
        px[24:40, 24:40] = 0.9
        a = tmp_path / "a.pgm"
        a.write_bytes(save_pgm(GrayImage(px)))
        detected = detect_corners(load_pgm(a.read_bytes()), Rect(0, 0, 64, 64), DetectParams())
        margin = LkParams().window_radius + 1
        inside = [
            (c.x, c.y)
            for c in detected
            if margin <= c.x <= 63 - margin and margin <= c.y <= 63 - margin
        ]
        assert (3, 3) in [(c.x, c.y) for c in detected]
        assert inside
        code, out, _ = run_cli(capsys, "flow", str(a), str(a), "--auto")
        assert code == 0
        starts = [tuple(int(v) for v in l.split()[:2]) for l in out.strip().splitlines()]
        assert starts == inside

    @pytest.mark.parametrize(
        "points,message",
        [
            ((), "one of the arguments --point --auto is required"),
            (("--auto", "--point", "30,30"), "argument --point: not allowed with argument --auto"),
        ],
        ids=["neither", "both"],
    )
    def test_point_or_auto_exactly_one_exit_2(self, capsys, flat_pgm, points, message):
        with pytest.raises(SystemExit) as exc:
            main(["flow", str(flat_pgm), str(flat_pgm), *points])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: ") and message in err

    @pytest.mark.parametrize("spec", ["3", "1,2,3", "a,b"])
    def test_malformed_point_exit_2(self, capsys, flat_pgm, spec):
        code, out, err = run_cli(capsys, "flow", str(flat_pgm), str(flat_pgm), "--point", spec)
        assert code == 2
        assert out == ""
        assert err == f"error: --point expects x,y, got {spec!r}\n"

    def test_auto_without_corners_prints_nothing(self, capsys, flat_pgm):
        assert run_cli(capsys, "flow", str(flat_pgm), str(flat_pgm), "--auto") == (0, "", "")

    def test_flat_region_ill_conditioned(self, capsys, flat_pgm):
        code, out, _ = run_cli(
            capsys, "flow", str(flat_pgm), str(flat_pgm), "--point", "32,32"
        )
        assert code == 0
        assert "ill_conditioned" in out

    @pytest.mark.parametrize(
        "flag,value,message",
        [("--window-radius", "1", "window_radius"), ("--epsilon", "nan", "epsilon")],
    )
    def test_bad_parameter_exit_2(self, capsys, flat_pgm, flag, value, message):
        code, out, err = run_cli(
            capsys, "flow", str(flat_pgm), str(flat_pgm), "--point", "32,32", flag, value
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_non_finite_point_exit_2(self, capsys, flat_pgm):
        code, out, err = run_cli(
            capsys, "flow", str(flat_pgm), str(flat_pgm), "--point", "nan,nan"
        )
        assert code == 2
        assert out == ""
        assert err == "error: points must be finite, got (nan, nan)\n"

    def test_point_near_border_exit_2(self, capsys, flat_pgm):
        code, out, err = run_cli(
            capsys, "flow", str(flat_pgm), str(flat_pgm), "--point", "3,3"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: point (3.0, 3.0) closer than window_radius+1=11 px")

    def test_auto_image_too_small_exit_2(self, capsys, tmp_path):
        path = tmp_path / "small.pgm"
        path.write_bytes(save_pgm(GrayImage.full(5, 5, 0.5)))
        code, out, err = run_cli(capsys, "flow", str(path), str(path), "--auto")
        assert code == 2
        assert out == ""
        assert err == "error: image must be at least 7x7 for window_radius=2\n"

    def test_sample_above_maxval_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n2 2\n100\n\x00\x10\x20\xff")
        code, out, err = run_cli(capsys, "flow", str(bad), str(bad), "--point", "1,1")
        assert code == 2
        assert out == ""
        assert err == "error: payload: sample 3 is 255, above maxval 100\n"

    def test_size_mismatch_exit_2(self, capsys, tmp_path):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        a.write_bytes(save_pgm(GrayImage.full(32, 32, 0.5)))
        b.write_bytes(save_pgm(GrayImage.full(48, 32, 0.5)))
        code, _, err = run_cli(capsys, "flow", str(a), str(b), "--point", "16,16")
        assert code == 2
        assert "sizes differ" in err


class TestSimulateAndReport:
    def test_simulate_writes_artifacts(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "simulate", "--preset", "calm", "--duration", "3",
            "--out", str(tmp_path),
        )
        assert code == 0
        csv_path = tmp_path / "telemetry.csv"
        summary_path = tmp_path / "summary.json"
        assert csv_path.exists() and summary_path.exists()
        lines = csv_path.read_bytes().decode().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == math.floor(3 * 25) + 1 + 1
        summary = json.loads(summary_path.read_text())
        assert summary["preset"] == "calm"
        assert "two_sigma_radial" in summary
        assert "two_sigma_radial" in out

    def test_missing_config_exit_2(self, capsys, tmp_path):
        missing = tmp_path / "absent.json"
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(missing), "--out", str(tmp_path)
        )
        assert code == 2
        assert str(missing) in err

    def test_config_directory_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "simulate", "--config", str(tmp_path), "--out", str(tmp_path / "out")
        )
        assert code == 2
        assert out == ""
        assert err == f"error: config file not found: {tmp_path}\n"
        assert not (tmp_path / "out").exists()

    def test_invalid_field_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--set", "sim.duration=-4", "--out", str(tmp_path)
        )
        assert code == 2
        assert "duration" in err

    @pytest.mark.parametrize(
        "setting,message",
        [
            ("lk.window_radius=1", "lk: window_radius must be >= 2"),
            ("detect.window_radius=0", "detect: window_radius must be >= 1"),
            ("sim.gravity=-9.81", "sim: gravity must be > 0"),
            ("gains.kp=-1", "gains: kp must be non-negative"),
            ("tracker.min_alive=0", "tracker: min_alive must lie in"),
        ],
    )
    def test_semantic_error_names_section(self, capsys, tmp_path, setting, message):
        code, _, err = run_cli(capsys, "simulate", "--set", setting, "--out", str(tmp_path))
        assert code == 2
        assert f"error: {message}" in err

    @pytest.mark.parametrize("setting", ["sim.duration", "duration=3", "sim=3"])
    def test_malformed_set_exit_2(self, capsys, tmp_path, setting):
        code, out, err = run_cli(capsys, "simulate", "--set", setting, "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == f"error: --set expects section.field=value, got {setting!r}\n"

    def test_set_value_not_json_is_a_string(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "simulate", "--set", "sim.duration=long", "--out", str(tmp_path)
        )
        assert code == 2
        assert out == ""
        assert err == "error: sim.duration: expected a number, got 'long'\n"

    def test_yaw_rate_flag_sets_the_field(self, capsys, tmp_path):
        runs = {}
        routes = {"flag": ["--yaw-rate", "0.5"], "set": ["--set", "sim.yaw_rate=0.5"], "none": []}
        for name, flags in routes.items():
            out_dir = tmp_path / name
            code, _, _ = run_cli(
                capsys, "simulate", "--preset", "calm", "--duration", "0.4", *flags,
                "--out", str(out_dir),
            )
            assert code == 0
            runs[name] = (out_dir / "telemetry.csv").read_bytes()
        assert runs["flag"] == runs["set"] != runs["none"]

    def test_runtime_failure_exit_1(self, capsys, tmp_path, monkeypatch):
        def fail(*args):
            raise RuntimeError("out of luck")

        monkeypatch.setattr("flowhold.cli.run_episode", fail)
        code, out, err = run_cli(capsys, "simulate", "--duration", "0.2", "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err == "runtime error: out of luck\n"

    @pytest.mark.parametrize("section", ["detect", "lk"])
    def test_window_radius_beyond_frame_exit_2(self, capsys, tmp_path, section):
        out_dir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, "simulate", "--set", f"{section}.window_radius=300", "--out", str(out_dir)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {section}: window_radius=300 needs a frame")
        assert not out_dir.exists()  # rejected before anything flew

    @pytest.mark.parametrize("setting", ["sim.altitude=1e300", "sim.start_x=1e300"])
    def test_frames_beyond_exact_cells_exit_2(self, capsys, tmp_path, setting):
        out_dir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "calm", "--duration", "0.2", "--set", setting,
            "--out", str(out_dir),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: sim: ") and "beyond 2**53" in err
        assert setting[4:].split("=")[0] in err
        assert not out_dir.exists()  # rejected before anything flew

    def test_duration_below_two_records_exit_2(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "calm", "--duration", "0.01", "--out", str(out_dir)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: sim: duration=0.01 gives fewer than 2 records")
        assert not out_dir.exists()

    @pytest.mark.parametrize("field", ["wind_rate", "drag_coeff"])
    def test_rate_beyond_one_per_step_exit_2(self, capsys, tmp_path, field):
        out_dir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "calm", "--set", "sim.wind_sigma=0.1",
            "--set", f"sim.{field}=1000", "--duration", "1", "--out", str(out_dir),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and f"{field}=1000" in err
        assert not out_dir.exists()

    def test_two_record_duration_flies(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "--preset", "calm", "--duration", "0.04", "--out", str(tmp_path)
        )
        assert code == 0
        assert len((tmp_path / "telemetry.csv").read_text().splitlines()) == 1 + 2

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_sweep_below_one_exit_2(self, capsys, tmp_path, count):
        out_dir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "calm", "--duration", "1", "--sweep", count,
            "--out", str(out_dir),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --sweep must be >= 1, got {count}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "seed_args",
        [["--texture-seed", "-3"], ["--texture-seed", str(2**128)],
         ["--texture-seed", str(2**128 - 3), "--sweep", "2"]],
        ids=["negative", "2**128", "sweep-past-top"],
    )
    def test_texture_seed_beyond_philox_key_exit_2(self, capsys, tmp_path, seed_args):
        out_dir = tmp_path / "run"
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "calm", "--duration", "0.1", *seed_args,
            "--out", str(out_dir),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "texture_seed must lie in [-1, 2**128 - 3]" in err
        assert not out_dir.exists()  # no seed of a sweep flies

    @pytest.mark.parametrize("route", ["set", "config"])
    @pytest.mark.parametrize(
        "raw", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "huge-int"],
    )
    @pytest.mark.parametrize("field", ["sim.altitude", "sim.wind_sigma"])
    def test_non_finite_number_exit_2(self, capsys, tmp_path, route, raw, field):
        if route == "set":
            source = ["--set", f"{field}={raw}"]
        else:
            section, name = field.split(".")
            path = tmp_path / "nonfinite.json"
            path.write_text(f'{{"{section}": {{"{name}": {raw}}}}}')
            source = ["--config", str(path)]
        code, _, err = run_cli(
            capsys, "simulate", "--preset", "calm", "--duration", "1", *source,
            "--out", str(tmp_path),
        )
        assert code == 2
        assert field in err

    def test_report_matches_summary(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "--preset", "calm", "--duration", "6",
            "--out", str(tmp_path),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "report", str(tmp_path / "telemetry.csv"), "--settle", "5",
        )
        assert code == 0
        reported = json.loads(out)
        summary = json.loads((tmp_path / "summary.json").read_text())
        for key, value in reported.items():
            assert summary[key] == pytest.approx(value, rel=1e-7), key

    def test_overflowing_hover_exit_2_from_both_commands(self, capsys, tmp_path):
        # Gusts this strong throw the vehicle about 1e297 m, where the
        # squared deviations overflow; blank ground keeps the render exact.
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "blind", "--duration", "0.5",
            "--set", "sim.wind_sigma=1e300", "--out", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: std_x overflows")
        assert list(tmp_path.iterdir()) == []
        rc = load_run_config("blind", None, {"sim": {"duration": 0.5, "wind_sigma": 1e300}})
        path = tmp_path / "telemetry.csv"
        path.write_bytes(write_csv(run_episode(rc.sim, rc.gains, rc.tracker)))
        code, out, err = run_cli(capsys, "report", str(path), "--settle", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: std_x overflows")

    @pytest.mark.parametrize("setting", ["sim.wind_sigma=1e300", "sim.gravity=1e300"])
    def test_flight_beyond_exact_cells_exit_2(self, capsys, tmp_path, setting):
        # Textured ground: the first frame is in range, a later one would
        # render from about 1e295 m, so the flight stops before rendering it.
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "calm", "--duration", "0.5",
            "--set", setting, "--out", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: sim: at t=") and "2**53" in err
        assert list(tmp_path.iterdir()) == []

    def test_report_directory_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "report", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == f"error: telemetry file not found: {tmp_path}\n"

    def test_report_rejects_non_ascii_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "t.csv"
        bad.write_bytes((CSV_HEADER + "\n").encode() + b"\xff\n")
        code, out, err = run_cli(capsys, "report", str(bad))
        assert code == 2
        assert out == ""
        assert err == "error: row 2: non-ASCII byte 0xff\n"

    def test_report_rejects_short_row(self, capsys, tmp_path):
        bad = tmp_path / "t.csv"
        bad.write_bytes((CSV_HEADER + "\n" + "1,2,3,4\n").encode())
        code, _, err = run_cli(capsys, "report", str(bad))
        assert code == 2
        assert "row 2" in err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--settle", "0", "--frame-size-cm", "nan"], "frame_size_cm"),
            (["--settle", "0", "--frame-size-cm", "-100"], "frame_size_cm"),
            (["--settle", "nan"], "settle_time"),
            (["--settle", "-1"], "settle_time"),
        ],
    )
    def test_report_bad_option_exit_2(self, capsys, tmp_path, flags, message):
        run_cli(
            capsys, "simulate", "--preset", "calm", "--duration", "1", "--out", str(tmp_path)
        )
        code, out, err = run_cli(capsys, "report", str(tmp_path / "telemetry.csv"), *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_report_rejects_nan_cell(self, capsys, tmp_path):
        run_cli(
            capsys, "simulate", "--preset", "calm", "--duration", "1", "--out", str(tmp_path)
        )
        path = tmp_path / "telemetry.csv"
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = "nan"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "report", str(path), "--settle", "0")
        assert code == 2
        assert out == ""
        assert "row 4, column pos_x" in err

    @pytest.mark.parametrize(
        "out_arg, sweep, bad",
        [("file", [], "file"), ("file/sub", [], "file/sub"),
         ("run", ["--sweep", "2"], "run/seed_12")],
        ids=["out-is-a-file", "out-under-a-file", "sweep-seed-dir-is-a-file"],
    )
    def test_unwritable_out_exit_2(self, capsys, tmp_path, out_arg, sweep, bad):
        (tmp_path / "file").write_text("")
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "seed_12").write_text("")
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "calm", "--duration", "0.2", *sweep,
            "--out", str(tmp_path / out_arg),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot create output directory ")
        assert str(tmp_path / bad) in err
        assert list(tmp_path.rglob("telemetry.csv")) == []  # failed before any flight

    @pytest.mark.parametrize("name", ["telemetry.csv", "summary.json"])
    @pytest.mark.parametrize("sweep, bad", [([], "."), (["--sweep", "2"], "seed_12")],
                             ids=["single", "sweep-second-seed"])
    def test_unwritable_output_file_exit_2(self, capsys, tmp_path, name, sweep, bad):
        (tmp_path / bad / name).mkdir(parents=True)
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "calm", "--duration", "0.2", *sweep,
            "--out", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {tmp_path / bad / name}: ")
        written = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert written == []  # failed before any flight

    def test_sweep_runs_multiple_seeds(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "simulate", "--preset", "calm", "--duration", "1",
            "--sweep", "2", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "seed_11" / "telemetry.csv").exists()
        assert (tmp_path / "seed_12" / "telemetry.csv").exists()
        assert out.count("two_sigma_radial") == 2


# Float fields that shape the flight, not how long it runs.
ENVELOPE_FIELDS = [
    f"{section}.{field.name}"
    for section, cls in (("sim", SimConfig), ("gains", PidGains))
    for field in dataclasses.fields(cls)
    if field.type == "float" and field.name not in ("duration", "physics_dt", "camera_rate")
]
EXTREMES = [
    sign * m
    for m in (0.0, 5e-324, 1e-300, 1e-150, 1e-8, 0.5, 1.0, 3.0, 1e8, 1e150, 1e300, sys.float_info.max)
    for sign in (1.0, -1.0)
]


def _strict_constant(name):
    raise ValueError(f"summary.json holds {name}")


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for item in node for x in _numbers(item)]
    return [node] if isinstance(node, (int, float)) else []


@settings(deadline=None, max_examples=150)
@given(st.dictionaries(st.sampled_from(ENVELOPE_FIELDS), st.sampled_from(EXTREMES), min_size=1, max_size=3))
def test_flight_envelope_exits_2_or_reports_finite(overrides):
    # Any accepted setting flies to a finite, strictly parseable report;
    # any other is a usage error. A runtime error (exit 1) fails.
    with tempfile.TemporaryDirectory() as out:
        argv = ["simulate", "--preset", "calm", "--duration", "0.5", "--out", out]
        for key, value in overrides.items():
            argv += ["--set", f"{key}={value!r}"]
        code = main(argv)
        assert code in (0, 2)
        if code == 0:
            text = (Path(out) / "summary.json").read_text()
            summary = json.loads(text, parse_constant=_strict_constant)
            assert all(math.isfinite(x) for x in _numbers(summary))


class TestHelp:
    @pytest.mark.parametrize("cmd", ["simulate", "corners", "flow", "report"])
    def test_help_lists_defaults(self, capsys, cmd):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "default" in out
