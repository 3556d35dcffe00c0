import json
import math

import numpy as np
import pytest

from flowhold.cli import main
from flowhold.image import GrayImage, save_pgm
from flowhold.telemetry import CSV_HEADER

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

    def test_malformed_pgm_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P6 2 2 255 " + bytes(12))
        code, _, err = run_cli(capsys, "corners", str(bad))
        assert code == 2
        assert "magic" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "corners", str(tmp_path / "nope.pgm"))
        assert code == 2
        assert "nope.pgm" in err


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

    def test_flat_region_ill_conditioned(self, capsys, flat_pgm):
        code, out, _ = run_cli(
            capsys, "flow", str(flat_pgm), str(flat_pgm), "--point", "32,32"
        )
        assert code == 0
        assert "ill_conditioned" in out

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

    def test_report_rejects_short_row(self, capsys, tmp_path):
        bad = tmp_path / "t.csv"
        bad.write_bytes((CSV_HEADER + "\n" + "1,2,3,4\n").encode())
        code, _, err = run_cli(capsys, "report", str(bad))
        assert code == 2
        assert "row 2" in err

    def test_sweep_runs_multiple_seeds(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "simulate", "--preset", "calm", "--duration", "1",
            "--sweep", "2", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "seed_11" / "telemetry.csv").exists()
        assert (tmp_path / "seed_12" / "telemetry.csv").exists()
        assert out.count("two_sigma_radial") == 2


class TestHelp:
    @pytest.mark.parametrize("cmd", ["simulate", "corners", "flow", "report"])
    def test_help_lists_defaults(self, capsys, cmd):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "default" in out
