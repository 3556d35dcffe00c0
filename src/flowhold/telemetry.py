"""Per-frame flight records, hover dispersion statistics, CSV/JSON export.

The headline statistic is the radial double standard deviation of the
post-settle position (in centimeters), and the hold diameter it implies
for a given airframe size: frame_size_cm + 2 * two_sigma_radial.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Mapping, Sequence

__all__ = [
    "CsvError",
    "DispersionReport",
    "FrameRecord",
    "dispersion_stats",
    "read_csv",
    "write_csv",
    "write_summary_json",
]

_EVENT_NAMES = ("reacquired", "feature_lost", "blind")


class CsvError(ValueError):
    """Telemetry CSV schema violation; the message carries the location."""


@dataclass(frozen=True)
class FrameRecord:
    """One camera tick: vehicle truth, measurement, command, tracker health.

    Displacement fields are None while blind (no trackable feature).
    The fields, in this order, are the telemetry CSV columns.
    """

    t: float
    pos_x: float
    pos_y: float
    vel_x: float
    vel_y: float
    disp_x: float | None
    disp_y: float | None
    disp_d: float | None
    cmd_roll: float
    cmd_pitch: float
    n_alive: int
    generation: int
    events: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        present = (self.disp_x is None, self.disp_y is None, self.disp_d is None)
        if len(set(present)) != 1:
            raise ValueError("disp_x, disp_y, disp_d must be present or absent together")


@dataclass(frozen=True)
class DispersionReport:
    """Hover dispersion over the post-settle portion of a flight.

    Means and per-axis standard deviations are meters; the radial
    2-sigma, max excursion, and hold diameter are centimeters.
    """

    mean_x: float
    mean_y: float
    std_x: float
    std_y: float
    two_sigma_radial: float
    max_excursion: float
    hold_diameter: float
    settle_time_used: float
    blind_fraction: float


def dispersion_stats(
    records: Sequence[FrameRecord], settle_time: float, frame_size_cm: float
) -> DispersionReport:
    """Population statistics over records with t >= settle_time.

    two_sigma_radial = 2 * sqrt(std_x^2 + std_y^2) in cm; the hold
    diameter adds twice that to the airframe size, matching the
    published diameter arithmetic. A statistic that overflows is a
    ValueError naming it.
    """
    if not 0.0 <= settle_time < math.inf:  # NaN fails too
        raise ValueError(f"settle_time must be finite and >= 0, got {settle_time}")
    if not 0.0 < frame_size_cm < math.inf:
        raise ValueError(f"frame_size_cm must be finite and > 0, got {frame_size_cm}")
    post = [r for r in records if r.t >= settle_time]
    if len(post) < 2:
        raise ValueError(
            f"need at least 2 records after settle_time={settle_time}, got {len(post)}"
        )

    def finite(name: str, compute) -> float:
        try:
            value = compute()
        except OverflowError:  # Python floats raise where numpy scalars give inf
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{name} overflows: the positions are too large for hover statistics")
        return value

    n = len(post)
    xs = [float(r.pos_x) for r in post]
    ys = [float(r.pos_y) for r in post]
    mean_x = finite("mean_x", lambda: sum(xs) / n)
    mean_y = finite("mean_y", lambda: sum(ys) / n)
    std_x = finite("std_x", lambda: math.sqrt(sum((v - mean_x) ** 2 for v in xs) / n))
    std_y = finite("std_y", lambda: math.sqrt(sum((v - mean_y) ** 2 for v in ys) / n))
    two_sigma = finite("two_sigma_radial", lambda: 2.0 * math.hypot(std_x, std_y) * 100.0)
    max_exc = finite(
        "max_excursion",
        lambda: max(math.hypot(x - mean_x, y - mean_y) for x, y in zip(xs, ys)) * 100.0,
    )
    blind = sum(1 for r in post if "blind" in r.events) / n
    return DispersionReport(
        mean_x=mean_x,
        mean_y=mean_y,
        std_x=std_x,
        std_y=std_y,
        two_sigma_radial=two_sigma,
        max_excursion=max_exc,
        hold_diameter=finite("hold_diameter", lambda: frame_size_cm + 2.0 * two_sigma),
        settle_time_used=settle_time,
        blind_fraction=blind,
    )


def _fmt(value: float | None) -> str:
    return "" if value is None else format(value, ".9g")


def _fmt_events(events: frozenset[str]) -> str:
    return ";".join(name for name in _EVENT_NAMES if name in events)


def _parse_float(cell: str, row: int, col: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise CsvError(f"row {row}, column {col}: expected a finite number, got {cell!r}")
    return value


def _parse_optional(cell: str, row: int, col: str) -> float | None:
    return None if cell == "" else _parse_float(cell, row, col)


def _parse_int(cell: str, row: int, col: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise CsvError(f"row {row}, column {col}: expected an integer, got {cell!r}") from None


def _parse_events(cell: str, row: int, col: str) -> frozenset[str]:
    events = frozenset(name for name in cell.split(";") if name)
    unknown = events - set(_EVENT_NAMES)
    if unknown:
        raise CsvError(f"row {row}, column {col}: unknown flag {sorted(unknown)[0]!r}")
    return events


# How each kind of FrameRecord field is written and parsed, keyed by its annotation.
_CODECS = {
    "float": ("{:.9g}".format, _parse_float),
    "float | None": (_fmt, _parse_optional),
    "int": (str, _parse_int),
    "frozenset[str]": (_fmt_events, _parse_events),
}
# (name, format, parse) per CSV column: FrameRecord's fields, in declaration order.
_COLUMNS = tuple((f.name, *_CODECS[f.type]) for f in fields(FrameRecord))
CSV_HEADER = ",".join(name for name, _, _ in _COLUMNS)


def write_csv(records: Iterable[FrameRecord]) -> bytes:
    """Serialize records, one column per FrameRecord field, LF line endings."""
    rows = (",".join(fmt(getattr(r, name)) for name, fmt, _ in _COLUMNS) for r in records)
    return ("\n".join((CSV_HEADER, *rows)) + "\n").encode("ascii")


def read_csv(data: bytes) -> list[FrameRecord]:
    """Parse telemetry CSV back into records, validating the schema.

    Errors name the offending row (1-based, header is row 1) and, for a
    bad cell, its column.
    """
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start) + 1
        raise CsvError(f"row {row}: non-ASCII byte {data[exc.start]:#04x}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        raise CsvError("row 1: header does not match the telemetry schema")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(_COLUMNS):
            raise CsvError(f"row {i}: expected {len(_COLUMNS)} fields, got {len(cells)}")
        values = [parse(cell, i, name) for (name, _, parse), cell in zip(_COLUMNS, cells)]
        try:
            records.append(FrameRecord(*values))
        except ValueError as exc:  # FrameRecord's own checks, e.g. the displacement cells
            raise CsvError(f"row {i}: {exc}") from None
    return records


def write_summary_json(report: DispersionReport, digest: Mapping[str, object] = ()) -> bytes:
    """One flat JSON object: the optional config digest, then every report field.

    Key order is fixed so identical inputs serialize byte-identically.
    """
    obj: dict[str, object] = dict(digest)
    obj.update(asdict(report))
    return (json.dumps(obj, indent=2, allow_nan=False) + "\n").encode("ascii")
