"""Command-line surface: simulate episodes, inspect corners and flow, report stats.

Exit codes: 0 success, 1 runtime failure, 2 usage/config/parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from flowhold import telemetry
from flowhold.config import PRESET_NAMES, ConfigError, config_digest, load_run_config
from flowhold.corners import DetectParams, Rect, detect_corners
from flowhold.flow import LkParams, build_pyramid, track_points
from flowhold.image import GrayImage, PgmError, load_pgm, save_pgm
from flowhold.sim import SimConfig, run_episode
from flowhold.tracker import center_roi

_D = DetectParams()
_L = LkParams()
_S = SimConfig()


def _read_pgm(path: str) -> GrayImage:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"image file not found: {p}")
    return load_pgm(p.read_bytes())


def _checked(make, *args, **kwargs):
    """Call ``make``; a ValueError from its checks is a usage error (exit 2)."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_set(pairs: list[str]) -> dict[str, dict[str, object]]:
    tree: dict[str, dict[str, object]] = {}
    for pair in pairs:
        if "=" not in pair or "." not in pair.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.field=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        section, field = key.split(".", 1)
        try:
            value: object = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        tree.setdefault(section, {})[field] = value
    return tree


def cmd_simulate(args: argparse.Namespace) -> int:
    overrides = _parse_set(args.set or [])
    sim_over = overrides.setdefault("sim", {})
    if args.duration is not None:
        sim_over["duration"] = args.duration
    if args.yaw_rate is not None:
        sim_over["yaw_rate"] = args.yaw_rate
    if args.texture_seed is not None:
        sim_over["texture_seed"] = args.texture_seed

    if args.sweep is not None and args.sweep < 1:
        raise ConfigError(f"--sweep must be >= 1, got {args.sweep}")
    rc = load_run_config(args.preset, args.config, overrides)
    if rc.sim.n_ticks < 1:
        raise ConfigError(
            f"sim: duration={rc.sim.duration} gives fewer than 2 records at "
            f"camera_rate={rc.sim.camera_rate}; it must be >= {1.0 / rc.sim.camera_rate:g} s"
        )
    settle = rc.sim.settle_time
    if rc.sim.duration < settle + 2.0 / rc.sim.camera_rate:
        settle = 0.0  # runs shorter than the settle window report everything
    out = Path(args.out)
    runs = [(out, rc)]
    if args.sweep is not None:
        seeds = range(rc.sim.texture_seed, rc.sim.texture_seed + args.sweep)
        runs = [(out / f"seed_{s}", replace(rc, sim=replace(rc.sim, texture_seed=s))) for s in seeds]
    for target, _ in runs:  # an unwritable --out is a usage error, found before any flight
        try:
            target.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {target}: {exc.strerror}") from None
        for path in (target / "telemetry.csv", target / "summary.json"):
            if path.is_dir() or not os.access(path if path.exists() else target, os.W_OK):
                raise ConfigError(f"cannot write {path}: it is a directory or not writable")
    for target, rc in runs:
        records = run_episode(rc.sim, rc.gains, rc.tracker)
        report = _checked(telemetry.dispersion_stats, records, settle, rc.sim.frame_size_cm)
        (target / "telemetry.csv").write_bytes(telemetry.write_csv(records))
        (target / "summary.json").write_bytes(
            telemetry.write_summary_json(report, config_digest(rc))
        )
        print(
            f"preset={rc.preset or 'default'} seed={rc.sim.texture_seed} "
            f"frames={len(records)} two_sigma_radial={report.two_sigma_radial:.2f}cm "
            f"hold_diameter={report.hold_diameter:.2f}cm "
            f"blind_fraction={report.blind_fraction:.3f}"
        )
    return 0


def cmd_corners(args: argparse.Namespace) -> int:
    if args.annotate and (Path(args.annotate).is_dir() or not Path(args.annotate).parent.is_dir()):
        raise ConfigError(f"--annotate {args.annotate}: is a directory or its parent is missing")
    image = _read_pgm(args.image)
    params = _checked(
        DetectParams,
        max_corners=args.max,
        quality_level=args.quality,
        min_distance=args.min_distance,
        window_radius=args.window_radius,
    )
    # An image too small for the ROI or the window is a usage error.
    if args.roi == "center":
        roi = _checked(center_roi, image.width, image.height)
    else:
        roi = Rect(0, 0, image.width, image.height)
    corners = _checked(detect_corners, image, roi, params)
    for c in corners:
        print(f"{c.x} {c.y} {c.response:.9g}")
    if args.annotate:
        px = image.pixels.copy()
        for c in corners:  # slicing clips the far side; a negative start would wrap
            px[max(c.y - 1, 0) : c.y + 2, max(c.x - 1, 0) : c.x + 2] = 1.0
        Path(args.annotate).write_bytes(save_pgm(GrayImage(px)))
    return 0


def cmd_flow(args: argparse.Namespace) -> int:
    prev = _read_pgm(args.prev)
    next_ = _read_pgm(args.next)
    if prev.width != next_.width or prev.height != next_.height:
        raise ConfigError(
            f"image sizes differ: {prev.width}x{prev.height} vs {next_.width}x{next_.height}"
        )
    params = _checked(
        LkParams,
        window_radius=args.window_radius,
        pyramid_levels=args.levels,
        max_iterations=args.iterations,
        epsilon=args.epsilon,
    )
    if args.auto:
        detected = _checked(
            detect_corners, prev, Rect(0, 0, prev.width, prev.height), DetectParams()
        )
        points = [
            (float(c.x), float(c.y))
            for c in detected
            if params.fits(c.x, c.y, prev.width, prev.height)
        ]
    else:
        points = []
        for spec_ in args.point:
            try:
                xs, ys = spec_.split(",")
                points.append((float(xs), float(ys)))
            except ValueError:
                raise ConfigError(f"--point expects x,y, got {spec_!r}") from None
    if not points:
        return 0
    prev_pyr = build_pyramid(prev, params.pyramid_levels)
    next_pyr = build_pyramid(next_, params.pyramid_levels)
    # A --point that is not finite or too near a border is a usage error.
    results = _checked(track_points, prev_pyr, next_pyr, points, params)
    for (x0, y0), res in zip(points, results):
        status = "Tracked" if res.tracked else res.status.value
        residual = "nan" if np.isnan(res.residual) else format(res.residual, ".9g")
        print(
            f"{x0:.9g} {y0:.9g} -> {res.point[0]:.9g} {res.point[1]:.9g} "
            f"{status} {residual}"
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.telemetry)
    if not path.is_file():
        raise ConfigError(f"telemetry file not found: {path}")
    records = telemetry.read_csv(path.read_bytes())
    report = _checked(telemetry.dispersion_stats, records, args.settle, args.frame_size_cm)
    sys.stdout.write(telemetry.write_summary_json(report).decode("ascii"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowhold",
        description="Optical-flow position hold pipeline and hover simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a closed-loop hover episode")
    p.add_argument("--preset", choices=PRESET_NAMES, help="named config preset")
    p.add_argument("--config", help="JSON config file overriding the preset")
    p.add_argument("--set", action="append", metavar="SECTION.FIELD=VALUE",
                   help="single-field override, repeatable")
    p.add_argument("--duration", type=float, help="episode length in seconds")
    p.add_argument("--yaw-rate", dest="yaw_rate", type=float,
                   help="yaw drift rate in rad/s")
    p.add_argument("--texture-seed", dest="texture_seed", type=int,
                   help="ground texture seed")
    p.add_argument("--sweep", type=int, metavar="N",
                   help="run N episodes with consecutive seeds")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("corners", help="detect corners in a PGM image")
    p.add_argument("image", help="input PGM (binary P5)")
    p.add_argument("--max", type=int, default=_D.max_corners,
                   help=f"maximum corners (default: {_D.max_corners})")
    p.add_argument("--quality", type=float, default=_D.quality_level,
                   help=f"quality level relative to max response (default: {_D.quality_level})")
    p.add_argument("--min-distance", dest="min_distance", type=float,
                   default=_D.min_distance,
                   help=f"suppression distance in px (default: {_D.min_distance})")
    p.add_argument("--window-radius", dest="window_radius", type=int,
                   default=_D.window_radius,
                   help=f"structure tensor window radius (default: {_D.window_radius})")
    p.add_argument("--roi", choices=("full", "center"), default="full",
                   help="detection region (default: full)")
    p.add_argument("--annotate", metavar="OUT.PGM",
                   help="write a copy with 3x3 white markers at corners")
    p.set_defaults(func=cmd_corners)

    p = sub.add_parser("flow", help="track points between two PGM frames")
    p.add_argument("prev", help="earlier frame (PGM)")
    p.add_argument("next", help="later frame (PGM)")
    points = p.add_mutually_exclusive_group(required=True)
    points.add_argument("--point", action="append", metavar="X,Y",
                        help="point to track, repeatable")
    points.add_argument("--auto", action="store_true",
                        help="track auto-detected corners instead of --point")
    p.add_argument("--window-radius", dest="window_radius", type=int,
                   default=_L.window_radius,
                   help=f"tracking window radius (default: {_L.window_radius})")
    p.add_argument("--levels", type=int, default=_L.pyramid_levels,
                   help=f"pyramid levels (default: {_L.pyramid_levels})")
    p.add_argument("--iterations", type=int, default=_L.max_iterations,
                   help=f"max iterations per level (default: {_L.max_iterations})")
    p.add_argument("--epsilon", type=float, default=_L.epsilon,
                   help=f"convergence step norm in px (default: {_L.epsilon})")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("report", help="recompute dispersion stats from telemetry CSV")
    p.add_argument("telemetry", help="telemetry.csv produced by simulate")
    p.add_argument("--settle", type=float, default=_S.settle_time,
                   help=f"seconds to exclude from the start (default: {_S.settle_time})")
    p.add_argument("--frame-size-cm", dest="frame_size_cm", type=float,
                   default=_S.frame_size_cm,
                   help=f"airframe tip-to-tip size in cm (default: {_S.frame_size_cm})")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PgmError, telemetry.CsvError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, not a usage problem
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
