"""Traced hover episode: run_episode's loop, rebuilt from public calls with spans.

The driver below repeats ``flowhold.sim.run_episode`` step for step, but
times every call into a layer. Deeper calls are timed by swapping timing
wrappers onto the module attributes the program looks up at call time;
``instrumented`` puts the originals back afterwards. Nothing inside the
program changes, so the telemetry bytes must equal an untraced run's.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import Counter, defaultdict

import numpy as np

import flowhold.corners
import flowhold.flow
import flowhold.tracker
from flowhold.control import PositionHoldController
from flowhold.flow import FlowStatus, build_pyramid
from flowhold.sim import VehicleState, WindState, render_frame, step_dynamics, wind_step
from flowhold.telemetry import FrameRecord, write_csv
from flowhold.tracker import Blind, FeatureLost, Reacquired, acquire, advance, best_displacement

# (module, attribute, span name). Each is looked up through its module's
# globals by the code that calls it, so replacing the attribute times
# every call the loop makes.
WRAPPED = (
    (flowhold.tracker, "track_points", "flow.track"),
    (flowhold.tracker, "detect_corners", "corners.detect"),
    (flowhold.corners, "response_map", "corners.response"),
    (flowhold.corners, "sobel_gradients", "image.sobel"),
    (flowhold.flow, "bilinear_many", "image.bilinear"),
)

_LOST = {
    FlowStatus.OUT_OF_BOUNDS: "lost_oob",
    FlowStatus.ILL_CONDITIONED: "lost_ill",
    FlowStatus.DIVERGED: "lost_div",
    FlowStatus.HIGH_RESIDUAL: "lost_res",
}


class Tracer:
    """Inclusive and child time per span name, call counts, and work counters."""

    def __init__(self) -> None:
        self.total_ns: dict[str, int] = defaultdict(int)
        self.child_ns: dict[str, int] = defaultdict(int)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []  # child time of each open span

    def call(self, name, fn, *args, **kwargs):
        self._open.append(0)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter_ns() - t0
            child = self._open.pop()
            if self._open:
                self._open[-1] += dt
            self.total_ns[name] += dt
            self.child_ns[name] += child
            self.calls[name] += 1

    def self_ns(self, name: str) -> int:
        return self.total_ns[name] - self.child_ns[name]

    def signature(self) -> dict[str, int]:
        """Every call count and work counter; repeats of an episode must match exactly."""
        sig = {f"calls.{name}": n for name, n in self.calls.items()}
        sig.update(self.counts)
        return sig

    def absorb(self, other: Tracer) -> None:
        """Add another tracer's times and counts to this one's."""
        for mine, theirs in (
            (self.total_ns, other.total_ns),
            (self.child_ns, other.child_ns),
            (self.calls, other.calls),
            (self.counts, other.counts),
        ):
            for key, value in theirs.items():
                mine[key] += value


def _count_work(tracer: Tracer, name: str, args: tuple, result) -> None:
    if name == "flow.track":
        tracer.counts["points_in"] += len(args[2])
        for res in result:
            key = _LOST.get(res.status, "tracked")
            tracer.counts[key] += 1
    elif name == "corners.detect":
        tracer.counts["corners_found"] += len(result)
    elif name == "image.bilinear":
        tracer.counts["bilinear_samples"] += int(np.size(args[1]))


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Swap timing wrappers onto WRAPPED for the duration of the block."""
    saved = []
    try:
        for module, attr, name in WRAPPED:
            orig = getattr(module, attr, None)
            if not callable(orig):
                raise RuntimeError(
                    f"wrapped entry point {module.__name__}.{attr} is missing; "
                    "the benchmark's traced driver must follow the program"
                )
            saved.append((module, attr, orig))

            def wrapper(*args, _orig=orig, _name=name, **kwargs):
                result = tracer.call(_name, _orig, *args, **kwargs)
                _count_work(tracer, _name, args, result)
                return result

            setattr(module, attr, functools.wraps(orig)(wrapper))
        yield tracer
    finally:
        for module, attr, orig in saved:
            setattr(module, attr, orig)


def traced_episode(rc, tracer: Tracer) -> tuple[list[FrameRecord], bytes, float, float]:
    """One episode through the same calls as run_episode, each under a span.

    Returns the records, their write_csv bytes, the episode's host seconds
    and the tick loop's. The episode's span is the one an untraced
    run_episode call is timed over: configuration and set-up included,
    write_csv not.
    """
    started = time.perf_counter()
    cfg = rc.sim
    tracker_cfg = rc.tracker_config()
    substeps = cfg.substeps
    tex = cfg.make_texture()
    wind_rng = np.random.Generator(np.random.Philox(key=cfg.texture_seed + 1))
    noise_rng = np.random.Generator(np.random.Philox(key=cfg.texture_seed + 2))
    controller = PositionHoldController(rc.gains, rc.gains)
    vehicle = VehicleState(x=cfg.start_x, y=cfg.start_y)
    wind = WindState()
    frame_dt = cfg.frame_dt
    n_ticks = math.floor(cfg.duration * cfg.camera_rate)
    call = tracer.call

    records: list[FrameRecord] = []
    state = None
    prev_img = prev_pyr = None
    last_best = None

    t0 = time.perf_counter()
    for k in range(n_ticks + 1):
        img = call("sim.render", render_frame, tex, vehicle, cfg, noise_rng)
        pyr = call("flow.pyramid", build_pyramid, img, tracker_cfg.lk.pyramid_levels)
        flags = set()
        if state is None:
            state = call("tracker.advance", acquire, img, tracker_cfg)
        else:
            state, events = call(
                "tracker.advance", advance, state, prev_img, img, tracker_cfg,
                prev_pyramid=prev_pyr, next_pyramid=pyr,
            )
            for ev in events:
                if isinstance(ev, FeatureLost):
                    flags.add("feature_lost")
                    tracer.counts["features_lost"] += 1
                elif isinstance(ev, Reacquired):
                    flags.add("reacquired")
                    tracer.counts["reacquired"] += 1
                elif isinstance(ev, Blind):
                    flags.add("blind")
        if state.blind:
            flags.add("blind")
            tracer.counts["blind_ticks"] += 1

        if state.best_id != last_best:
            controller.reset_derivative()
            last_best = state.best_id

        disp = call("control.displacement", best_displacement, state, cfg.image_width, cfg.image_height)
        cmd = call("control.step", controller.step, disp, frame_dt)
        records.append(
            FrameRecord(
                t=k * frame_dt,
                pos_x=vehicle.x,
                pos_y=vehicle.y,
                vel_x=vehicle.vx,
                vel_y=vehicle.vy,
                disp_x=None if disp is None else disp.x,
                disp_y=None if disp is None else disp.y,
                disp_d=None if disp is None else disp.d,
                cmd_roll=cmd.roll,
                cmd_pitch=cmd.pitch,
                n_alive=state.n_alive,
                generation=state.generation,
                events=frozenset(flags),
            )
        )
        if k < n_ticks:
            for _ in range(substeps):
                wind = call("sim.physics", wind_step, wind, cfg, cfg.physics_dt, wind_rng)
                vehicle = call("sim.physics", step_dynamics, vehicle, cmd, wind, cfg, cfg.physics_dt)
                tracer.counts["substeps"] += 1
        prev_img, prev_pyr = img, pyr
    t1 = time.perf_counter()
    data = call("telemetry.write_csv", write_csv, records)
    return records, data, t1 - started, t1 - t0


# Spans that run inside the tick loop; their self times should add up to
# the traced loop time, and what they miss is reported as unaccounted.
LOOP_SPANS = (
    "sim.render",
    "flow.pyramid",
    "tracker.advance",
    "flow.track",
    "image.bilinear",
    "corners.detect",
    "corners.response",
    "image.sobel",
    "control.displacement",
    "control.step",
    "sim.physics",
)
