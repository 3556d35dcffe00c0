import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowhold.telemetry import (
    CSV_HEADER,
    CsvError,
    DispersionReport,
    FrameRecord,
    dispersion_stats,
    read_csv,
    write_csv,
    write_summary_json,
)


# Finite floats that stress .9g formatting: signed zeros, subnormals, huge and tiny values.
_CELL_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-9, -123456789.5]),
)


def make_records(positions, t0=0.0, dt=0.04, blind_at=()):
    records = []
    for i, (x, y) in enumerate(positions):
        blind = i in blind_at
        records.append(
            FrameRecord(
                t=t0 + i * dt,
                pos_x=x,
                pos_y=y,
                vel_x=0.01 * i,
                vel_y=-0.02,
                disp_x=None if blind else 1.5 * i,
                disp_y=None if blind else -2.0,
                disp_d=None if blind else math.hypot(1.5 * i, 2.0),
                cmd_roll=0.001 * i,
                cmd_pitch=-0.002,
                n_alive=0 if blind else 12,
                generation=1,
                events=frozenset({"blind"}) if blind else frozenset(),
            )
        )
    return records


class TestDispersionStats:
    def test_outdoor_diameter_arithmetic(self):
        # Alternating +/- sigma along x gives an exact population std.
        sigma = 0.1866 / 2.0
        pos = [(sigma if i % 2 else -sigma, 0.0) for i in range(200)]
        report = dispersion_stats(make_records(pos), settle_time=0.0, frame_size_cm=58.0)
        assert report.two_sigma_radial == pytest.approx(18.66, abs=1e-9)
        assert report.hold_diameter == pytest.approx(95.32, abs=0.01)

    def test_indoor_diameter_arithmetic(self):
        sigma = 0.1055 / 2.0
        pos = [(0.0, sigma if i % 2 else -sigma) for i in range(200)]
        report = dispersion_stats(make_records(pos), settle_time=0.0, frame_size_cm=58.0)
        assert report.two_sigma_radial == pytest.approx(10.55, abs=1e-9)
        assert report.hold_diameter == pytest.approx(79.1, abs=0.01)

    def test_constant_position(self):
        pos = [(0.33, -0.21)] * 50
        report = dispersion_stats(make_records(pos), settle_time=0.0, frame_size_cm=58.0)
        assert report.two_sigma_radial == pytest.approx(0.0, abs=1e-9)
        assert report.max_excursion == pytest.approx(0.0, abs=1e-9)
        assert report.hold_diameter == pytest.approx(58.0, abs=1e-9)
        assert report.mean_x == pytest.approx(0.33)

    def test_settle_excludes_early_records(self):
        pos = [(10.0, 10.0)] * 25 + [(0.0, 0.0)] * 100
        records = make_records(pos, dt=0.04)
        report = dispersion_stats(records, settle_time=1.0, frame_size_cm=58.0)
        assert report.std_x == 0.0 and report.mean_x == 0.0
        assert report.settle_time_used == 1.0

    def test_blind_fraction(self):
        pos = [(0.0, 0.0)] * 10
        records = make_records(pos, blind_at={3, 4})
        report = dispersion_stats(records, settle_time=0.0, frame_size_cm=58.0)
        assert report.blind_fraction == pytest.approx(0.2)

    def test_insufficient_records_rejected(self):
        records = make_records([(0.0, 0.0)] * 3)
        with pytest.raises(ValueError):
            dispersion_stats(records, settle_time=1.0, frame_size_cm=58.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("settle_time", math.nan),
            ("settle_time", math.inf),
            ("settle_time", -1.0),
            ("frame_size_cm", math.nan),
            ("frame_size_cm", math.inf),
            ("frame_size_cm", 0.0),
            ("frame_size_cm", -100.0),
        ],
    )
    def test_rejects_bad_settle_or_frame_size(self, field, value):
        records = make_records([(0.1 * i, 0.0) for i in range(10)])
        args = {"settle_time": 0.0, "frame_size_cm": 58.0, field: value}
        with pytest.raises(ValueError, match=field):
            dispersion_stats(records, **args)

    @pytest.mark.parametrize("number", [float, np.float64], ids=["float", "float64"])
    def test_overflowing_statistic_is_named(self, number):
        # Finite positions 1e200 m apart: their squares overflow, as a
        # Python float or a numpy scalar alike.
        pos = [(number(1e200 if i % 2 else -1e200), number(0.0)) for i in range(10)]
        with pytest.raises(ValueError, match="std_x overflows"):
            dispersion_stats(make_records(pos), settle_time=0.0, frame_size_cm=58.0)

    def test_overflowing_mean_is_named(self):
        pos = [(0.0, 1.5e308)] * 10
        with pytest.raises(ValueError, match="mean_y overflows"):
            dispersion_stats(make_records(pos), settle_time=0.0, frame_size_cm=58.0)

    def test_far_but_steady_hover_is_finite(self):
        far = 2.0**660  # about 5e198, and its mean over 10 records is exact
        report = dispersion_stats(
            make_records([(far, -far)] * 10), settle_time=0.0, frame_size_cm=58.0
        )
        assert (report.mean_x, report.two_sigma_radial) == (far, 0.0)

    @settings(deadline=None, max_examples=60)
    @given(
        shift_x=st.floats(-5.0, 5.0),
        shift_y=st.floats(-5.0, 5.0),
        seed=st.integers(0, 99),
    )
    def test_translation_invariance(self, shift_x, shift_y, seed):

        rng = np.random.default_rng(seed)
        pos = [(float(x), float(y)) for x, y in rng.normal(0, 0.05, (40, 2))]
        moved = [(x + shift_x, y + shift_y) for x, y in pos]
        a = dispersion_stats(make_records(pos), settle_time=0.0, frame_size_cm=58.0)
        b = dispersion_stats(make_records(moved), settle_time=0.0, frame_size_cm=58.0)
        assert b.std_x == pytest.approx(a.std_x, abs=1e-12)
        assert b.std_y == pytest.approx(a.std_y, abs=1e-12)
        assert b.two_sigma_radial == pytest.approx(a.two_sigma_radial, abs=1e-9)
        assert b.max_excursion == pytest.approx(a.max_excursion, abs=1e-9)
        assert b.hold_diameter == pytest.approx(a.hold_diameter, abs=1e-9)

    @settings(deadline=None, max_examples=60)
    @given(alpha=st.floats(0.1, 10.0), seed=st.integers(0, 99))
    def test_scaling_property(self, alpha, seed):

        rng = np.random.default_rng(seed)
        pos = [(float(x), float(y)) for x, y in rng.normal(0, 0.05, (40, 2))]
        scaled = [(x * alpha, y * alpha) for x, y in pos]
        a = dispersion_stats(make_records(pos), settle_time=0.0, frame_size_cm=58.0)
        b = dispersion_stats(make_records(scaled), settle_time=0.0, frame_size_cm=58.0)
        assert b.std_x == pytest.approx(alpha * a.std_x, rel=1e-9)
        assert b.two_sigma_radial == pytest.approx(alpha * a.two_sigma_radial, rel=1e-9)
        assert b.max_excursion == pytest.approx(alpha * a.max_excursion, rel=1e-9)


class TestCsv:
    def test_empty_sequence_header_only(self):
        assert write_csv([]) == (CSV_HEADER + "\n").encode()

    def test_blind_row_has_empty_disp_cells(self):
        records = make_records([(0.1, 0.2)], blind_at={0})
        line = write_csv(records).decode().splitlines()[1]
        cells = line.split(",")
        assert cells[5] == "" and cells[6] == "" and cells[7] == ""
        assert "blind" in cells[12]

    def test_round_trip_100_records(self):

        rng = np.random.default_rng(13)
        pos = [(float(x), float(y)) for x, y in rng.normal(0, 1, (100, 2))]
        records = make_records(pos, blind_at={10, 55})
        back = read_csv(write_csv(records))
        assert len(back) == 100
        for a, b in zip(records, back):
            assert b.t == pytest.approx(a.t, rel=1e-8)
            assert b.pos_x == pytest.approx(a.pos_x, rel=1e-8)
            assert b.pos_y == pytest.approx(a.pos_y, rel=1e-8)
            assert b.events == a.events
            assert (b.disp_x is None) == (a.disp_x is None)

    def test_row_shape(self):
        records = make_records([(0.0, 0.0), (1.0, 1.0)])
        text = write_csv(records).decode()
        lines = text.splitlines()
        assert len(lines) == 3
        assert all(len(line.split(",")) == 13 for line in lines)
        assert text.endswith("\n") and "\r" not in text

    def test_read_rejects_wrong_field_count(self):
        data = (CSV_HEADER + "\n" + "1,2,3\n").encode()
        with pytest.raises(CsvError, match="row 2"):
            read_csv(data)

    def test_read_rejects_non_ascii(self):
        data = (CSV_HEADER + "\n0,0,0,0,0,,,,0,0,1,1,\n").encode() + b"0,\xe9\n"
        with pytest.raises(CsvError, match="^row 3: non-ASCII byte 0xe9$"):
            read_csv(data)

    def test_read_rejects_bad_header(self):
        with pytest.raises(CsvError, match="header"):
            read_csv(b"a,b,c\n")

    def test_read_rejects_non_numeric(self):
        row = "x,0,0,0,0,,,,0,0,1,1,"
        with pytest.raises(CsvError, match="column t"):
            read_csv((CSV_HEADER + "\n" + row + "\n").encode())

    def test_header_is_the_documented_schema(self):
        # The header follows FrameRecord's field order; reordering or
        # renaming a field must not silently change the file format.
        assert CSV_HEADER == (
            "t,pos_x,pos_y,vel_x,vel_y,disp_x,disp_y,disp_d,"
            "cmd_roll,cmd_pitch,n_alive,generation,events"
        )
        readme = Path(__file__).resolve().parent.parent / "README.md"
        assert f"`{CSV_HEADER}`" in readme.read_text("utf-8")

    @pytest.mark.parametrize(
        "disp", [",1,1", "1,,1", "1,1,", "1,,", ",,1"], ids=["x", "y", "d", "yd", "xy"]
    )
    def test_read_rejects_partial_displacement(self, disp):
        row = f"0,0,0,0,0,{disp},0,0,1,1,"
        data = CSV_HEADER + "\n" + "0,0,0,0,0,,,,0,0,0,1,blind\n" + row + "\n"
        with pytest.raises(CsvError, match="^row 3: disp_x, disp_y, disp_d must be"):
            read_csv(data.encode())

    def test_read_rejects_unknown_event(self):
        row = "0,0,0,0,0,,,,0,0,0,1,blind;gone"
        with pytest.raises(CsvError, match="row 2, column events: unknown flag 'gone'"):
            read_csv((CSV_HEADER + "\n" + row + "\n").encode())

    @settings(deadline=None, max_examples=200)
    @given(
        rows=st.lists(
            st.tuples(
                st.lists(_CELL_FLOATS, min_size=7, max_size=7),
                st.one_of(st.none(), st.lists(_CELL_FLOATS, min_size=3, max_size=3)),
                st.integers(0, 10**12),
                st.integers(0, 10**12),
                st.frozensets(st.sampled_from(["reacquired", "feature_lost", "blind"])),
            ),
            max_size=20,
        )
    )
    def test_write_read_write_is_identity(self, rows):
        records = [
            FrameRecord(
                *floats[:5],
                *(disp or (None, None, None)),
                *floats[5:7],
                n_alive=n_alive,
                generation=generation,
                events=events,
            )
            for floats, disp, n_alive, generation, events in rows
        ]
        data = write_csv(records)
        back = read_csv(data)
        assert write_csv(back) == data
        for a, b in zip(records, back):
            assert (b.disp_x is None) == (a.disp_x is None)
            assert (b.n_alive, b.generation, b.events) == (a.n_alive, a.generation, a.events)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    @pytest.mark.parametrize("column", [0, 1, 7, 9])
    def test_read_rejects_non_finite(self, cell, column):
        good = "0,0,0,0,0,1,1,1.41421356,0,0,1,1,"
        cells = good.split(",")
        cells[column] = cell
        data = CSV_HEADER + "\n" + good + "\n" + ",".join(cells) + "\n"
        name = CSV_HEADER.split(",")[column]
        with pytest.raises(CsvError, match=f"row 3, column {name}: expected a finite number"):
            read_csv(data.encode())


class TestSummaryJson:
    def test_zero_variance_report(self):
        records = make_records([(0.5, 0.5)] * 10)
        report = dispersion_stats(records, settle_time=0.0, frame_size_cm=58.0)
        data = json.loads(write_summary_json(report))
        assert data["two_sigma_radial"] == 0.0
        assert data["hold_diameter"] == 58.0

    def test_serialization_deterministic(self):
        records = make_records([(0.1 * i, -0.05 * i) for i in range(20)])
        report = dispersion_stats(records, settle_time=0.0, frame_size_cm=58.0)
        assert write_summary_json(report) == write_summary_json(report)

    def test_non_finite_report_rejected(self):
        report = dispersion_stats(make_records([(0.0, 0.0)] * 4), 0.0, 58.0)
        with pytest.raises(ValueError):
            write_summary_json(replace(report, std_x=math.inf))

    def test_digest_prepended(self):
        records = make_records([(0.0, 0.0)] * 4)
        report = dispersion_stats(records, settle_time=0.0, frame_size_cm=58.0)
        data = write_summary_json(report, {"preset": "calm", "texture_seed": 11})
        obj = json.loads(data)
        assert obj["preset"] == "calm"
        assert list(obj)[:2] == ["preset", "texture_seed"]
        assert "two_sigma_radial" in obj
