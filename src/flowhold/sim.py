"""Deterministic closed-loop hover test bed.

Planar point-mass vehicle with first-order tilt lag, a nadir pinhole
camera rendering a seeded cell-hash ground texture (hashed once per
cell in view, then gathered into the frame), Ornstein-Uhlenbeck wind
gusts, and optional low-light degradation. One episode runs the full
vision/control loop at the camera rate with fixed-step physics
substeps in between, and is bit-reproducible from its config.

A frame's pixel noise depends only on the noise stream's position, so
``run_episode`` draws the next frame's noise on a helper thread while
the current frame is tracked and flown. ``render_frame`` takes any
object with ``standard_normal(shape)`` whose draws come in stream order,
so the pipelined draw gives the same bytes as a plain Generator.

The render has three routes, listed in ``render_frame``, chosen by its
inputs and equal in bytes to flooring every pixel's world coordinates.
The run-length route is exact because each rounded step of
floor((x + gsd*(c*u - s*v)) * (1/cell)), and of its y twin, is
monotone in the column u: along a row both cell indices are monotone
step functions, so the columns between two that share a cell lie in
it too, and a row's extreme cells lie at its ends.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from flowhold.control import AttitudeCommand, PidGains, PositionHoldController
from flowhold.flow import build_pyramid
from flowhold.image import GrayImage
from flowhold.telemetry import FrameRecord
from flowhold.tracker import (
    FeatureLost,
    Reacquired,
    TrackerConfig,
    acquire,
    advance,
    best_displacement,
)

__all__ = [
    "GroundTexture",
    "SimConfig",
    "VehicleState",
    "WindState",
    "render_frame",
    "run_episode",
    "step_dynamics",
    "wind_step",
]


class ConfigError(ValueError):
    """Inconsistent or invalid simulation configuration."""


@dataclass(frozen=True)
class VehicleState:
    """Planar kinematic state; altitude is held constant by assumption."""

    x: float = 0.0
    y: float = 0.0
    vx: float = 0.0
    vy: float = 0.0
    tilt_roll: float = 0.0
    tilt_pitch: float = 0.0
    yaw: float = 0.0
    t: float = 0.0


@dataclass(frozen=True)
class WindState:
    """World-frame disturbance acceleration (m/s^2)."""

    ax: float = 0.0
    ay: float = 0.0


@dataclass(frozen=True)
class GroundTexture:
    """Piecewise-constant cell texture from a stateless integer hash.

    Every cell junction is a corner, so the detector always has
    structure to latch onto. Featureless ground is not a texture: it is
    decided by ``SimConfig.blank_ground``, which ``render_frame`` reads.
    """

    seed: int
    cell_size: float

    def __post_init__(self) -> None:
        if not 0.0 < self.cell_size < math.inf:
            raise ValueError("cell_size must be > 0")


@dataclass(frozen=True)
class SimConfig:
    """Episode configuration; defaults model the desk-scale reference rig.

    physics_dt must divide the camera frame interval exactly. The
    camera looks straight down from ``altitude`` with focal length
    ``focal_px``, so one pixel covers altitude/focal_px meters of
    ground.
    """

    physics_dt: float = 0.005
    camera_rate: float = 25.0
    altitude: float = 1.0
    focal_px: float = 500.0
    image_width: int = 640
    image_height: int = 480
    tilt_tau: float = 0.15
    drag_coeff: float = 0.35
    gravity: float = 9.81
    max_tilt: float = 0.2
    wind_sigma: float = 0.0
    wind_rate: float = 0.5
    lowlight_gain: float = 1.0
    lowlight_noise: float = 0.0
    yaw_rate: float = 0.0
    texture_seed: int = 2024
    cell_size: float = 0.25
    blank_ground: bool = False
    duration: float = 60.0
    frame_size_cm: float = 58.0
    settle_time: float = 5.0
    start_x: float = 0.0
    start_y: float = 0.0

    def __post_init__(self) -> None:
        # Each check passes only on a finite valid value, so NaN and
        # infinities fail them all.
        for name in (
            "altitude", "focal_px", "camera_rate", "duration", "physics_dt",
            "gravity", "cell_size", "frame_size_cm", "tilt_tau",
        ):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be > 0")
        for name in ("drag_coeff", "settle_time", "lowlight_noise", "wind_sigma", "wind_rate"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("yaw_rate", "start_x", "start_y"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not 0.0 < self.max_tilt < math.pi / 2:
            raise ConfigError("max_tilt must lie in (0, pi/2)")
        if self.image_width < 8 or self.image_height < 8:
            raise ConfigError("image dimensions must be at least 8x8")
        if not 0.0 < self.lowlight_gain <= 1.0:
            raise ConfigError("lowlight_gain must lie in (0, 1]")
        if not -1 <= self.texture_seed <= 2**128 - 3:
            # run_episode keys Philox streams with texture_seed + 1 and + 2.
            raise ConfigError("texture_seed must lie in [-1, 2**128 - 3]")
        steps = self.frame_dt / self.physics_dt  # inf for a subnormal physics_dt
        n = round(steps) if steps < math.inf else 0
        if n < 1 or abs(n * self.physics_dt - self.frame_dt) > 1e-9:
            raise ConfigError(
                f"physics_dt={self.physics_dt} must divide the frame interval "
                f"{self.frame_dt} exactly"
            )

    @property
    def frame_dt(self) -> float:
        return 1.0 / self.camera_rate

    @property
    def n_ticks(self) -> int:
        """Camera ticks after the first frame; an episode records n_ticks + 1 frames."""
        return math.floor(self.duration * self.camera_rate)

    @property
    def substeps(self) -> int:
        """Physics steps per camera frame; __post_init__ checks they fit exactly."""
        return round(self.frame_dt / self.physics_dt)

    @property
    def ground_sample_distance(self) -> float:
        return self.altitude / self.focal_px

    def make_texture(self) -> GroundTexture:
        return GroundTexture(seed=self.texture_seed, cell_size=self.cell_size)


_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xC2B2AE3D27D4EB4F)
_F1 = np.uint64(0xBF58476D1CE4E5B9)
_F2 = np.uint64(0x94D049BB133111EB)


def _hash01(i: np.ndarray, j: np.ndarray, seed: int) -> np.ndarray:
    # splitmix64-style avalanche over the cell indices and seed,
    # mapped to [0, 1) via the top 53 bits. Two's-complement views keep
    # negative cell indices well-defined (arithmetic is mod 2^64).
    seed_mix = np.uint64((seed * 0xD6E8FEB86659FD93) & 0xFFFFFFFFFFFFFFFF)
    h = (i.view(np.uint64) * _M1) ^ (j.view(np.uint64) * _M2)
    h ^= seed_mix
    h ^= h >> np.uint64(30)
    h *= _F1
    h ^= h >> np.uint64(27)
    h *= _F2
    h ^= h >> np.uint64(31)
    return (h >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def _cells(tex: GroundTexture, wx: np.ndarray, wy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    inv = 1.0 / tex.cell_size
    return np.floor(wx * inv).astype(np.int64), np.floor(wy * inv).astype(np.int64)


def _cell_table(tex: GroundTexture, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
    # Hash of every cell in [i0, i1] x [j0, j1], indexed [j - j0, i - i0].
    cols = np.arange(i0, i1 + 1, dtype=np.int64)
    rows = np.arange(j0, j1 + 1, dtype=np.int64)[:, None]
    return _hash01(cols, rows, tex.seed)


def _texture_grid(tex: GroundTexture, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    # One hash per cell of the index bounding box, then a gather per point.
    i, j = _cells(tex, wx, wy)
    i0, i1, j0, j1 = int(i.min()), int(i.max()), int(j.min()), int(j.max())
    if (i1 - i0 + 1) * (j1 - j0 + 1) <= np.broadcast(i, j).size:
        return _cell_table(tex, i0, i1, j0, j1)[j - j0, i - i0]
    # Cells smaller than pixels: the table would outgrow the frame.
    return _hash01(i, j, tex.seed)


def _rotate(
    vehicle: VehicleState, gsd: float, cos_y: float, sin_y: float, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # World point under camera offset (u, v) px. Both rotated routes use
    # this one operand order, so a pixel rounds alike in either.
    return (
        vehicle.x + gsd * (cos_y * u - sin_y * v),
        vehicle.y + gsd * (sin_y * u + cos_y * v),
    )


# Columns per block of the run-length render. Cells narrower than two
# blocks cross most blocks, so they take the per-pixel route: on a
# 640x480 frame the routes tie near 13 px cells, and runs are 1.6x
# faster at 16 px (2-core Xeon).
_RUN = 8


def _texture_runs(
    tex: GroundTexture, vehicle: VehicleState, gsd: float, cos_y: float, sin_y: float,
    u: np.ndarray, v: np.ndarray,
) -> np.ndarray:
    # Exact by monotone rounding along rows (see the module docstring).
    # Block b is tested from its first column to the next block's first
    # column, or the frame's last. The last block is padded with copies
    # of the last column, then cut.
    h, w = v.shape[0], u.shape[0]
    nb = -(-w // _RUN)
    ub = u[np.minimum(np.arange(nb * _RUN), w - 1)].reshape(nb, _RUN)
    edges = np.append(ub[:, 0], u[-1])
    i, j = _cells(tex, *_rotate(vehicle, gsd, cos_y, sin_y, edges, v))
    i0, j0 = int(i.min()), int(j.min())
    table = _cell_table(tex, i0, int(i.max()), j0, int(j.max()))
    i -= i0
    j -= j0
    vals = np.repeat(table[j[:, :-1], i[:, :-1]], _RUN, axis=1)
    # Blocks a cell edge may cross: every pixel of them, per pixel.
    mixed = np.flatnonzero((i[:, :-1] != i[:, 1:]) | (j[:, :-1] != j[:, 1:]))
    row, blk = np.divmod(mixed, nb)
    mi, mj = _cells(tex, *_rotate(vehicle, gsd, cos_y, sin_y, ub[blk], v[row]))
    vals.reshape(h * nb, _RUN)[mixed] = table[mj - j0, mi - i0]
    return vals if nb * _RUN == w else np.ascontiguousarray(vals[:, :w])


def render_frame(
    tex: GroundTexture,
    vehicle: VehicleState,
    cfg: SimConfig,
    rng: np.random.Generator,
) -> GrayImage:
    """Nadir pinhole render of the ground texture under the vehicle.

    Pixel (u, v) maps to the world point pos + R(yaw) @ offset where
    offset = ((u - cx) * h/f, (v - cy) * h/f). Camera tilt is not
    modeled. Each ground cell in view is hashed once, by one of three
    routes with identical bytes:

    - sin(yaw) == 0: world x depends on the column only and y on the
      row only, so coordinates are one row and one column vector.
    - rotated, cells at least ``2 * _RUN`` px wide: the exact per-pixel
      expression is evaluated at every ``_RUN``-th column and the last.
      Since it rounds monotonically along a row, a block whose first
      column shares a cell with the next sampled column takes that
      cell's hash throughout; only the other blocks, which a cell edge
      may cross, are evaluated per pixel.
    - rotated, narrower cells: full-frame coordinates, per pixel.

    This is where blank ground is decided: with ``cfg.blank_ground`` set
    the frame is a flat 0.5 and ``tex`` is not read. Low light applies
    clamp(gain * i + eta, 0, 1) with eta drawn from ``rng``, which is
    read only when there is pixel noise. ``rng`` is any object with
    ``standard_normal(shape)`` that returns the stream's next draws in
    order; the returned array is scaled in place and not kept.
    """
    if cfg.blank_ground:
        vals = np.full((cfg.image_height, cfg.image_width), 0.5)
    else:
        u = np.arange(cfg.image_width, dtype=np.float64) - (cfg.image_width // 2)
        v = (np.arange(cfg.image_height, dtype=np.float64) - (cfg.image_height // 2))[:, None]
        gsd = cfg.ground_sample_distance
        cos_y = math.cos(vehicle.yaw)
        sin_y = math.sin(vehicle.yaw)
        if sin_y == 0.0:
            # c*u - 0*v == c*u up to the sign of zero, which floor ignores.
            wx = vehicle.x + gsd * (cos_y * u)
            wy = vehicle.y + gsd * (cos_y * v)
            vals = _texture_grid(tex, wx, wy)
        elif tex.cell_size / gsd < 2 * _RUN:
            vals = _texture_grid(tex, *_rotate(vehicle, gsd, cos_y, sin_y, u, v))
        else:
            vals = _texture_runs(tex, vehicle, gsd, cos_y, sin_y, u, v)
    if cfg.lowlight_gain != 1.0 or cfg.lowlight_noise > 0.0:
        vals *= cfg.lowlight_gain
        if cfg.lowlight_noise > 0.0:
            # Same values and stream position as rng.normal(0.0, s, shape).
            eta = rng.standard_normal(vals.shape)
            eta *= cfg.lowlight_noise
            vals += eta
        np.clip(vals, 0.0, 1.0, out=vals)
    return GrayImage._trusted(vals)


class _NoiseAhead:
    """Pixel noise drawn one frame ahead on a helper thread.

    ``standard_normal`` waits for the draw ``fill`` started, or draws on
    the spot, and returns one reused buffer of the shape given here. The
    stream is read in order, so the values equal ``rng``'s own draws.
    numpy releases the GIL while it fills, so the helper uses another core.
    """

    def __init__(self, rng: np.random.Generator, shape: tuple[int, int]) -> None:
        self._rng = rng
        self._buf = np.empty(shape)
        self._thread: threading.Thread | None = None
        self._error: Exception | None = None

    def _draw(self) -> None:
        try:
            self._rng.standard_normal(out=self._buf)
        except Exception as exc:  # raised again in the caller's thread
            self._error = exc

    def fill(self) -> None:
        """Start drawing the next frame's noise on a helper thread."""
        self._thread = threading.Thread(target=self._draw)
        self._thread.start()

    def join(self) -> None:
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def standard_normal(self, shape: tuple[int, int]) -> np.ndarray:
        if self._thread is None:
            self._draw()
        self.join()
        if self._error is not None:
            raise self._error
        return self._buf


def wind_step(
    wind: WindState, cfg: SimConfig, dt: float, rng: np.random.Generator
) -> WindState:
    """Per-axis Ornstein-Uhlenbeck update of the gust acceleration."""
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    if cfg.wind_sigma == 0.0:
        # No forcing, pure mean reversion; the rng is untouched so
        # toggling wind never perturbs other streams.
        decay = 1.0 - cfg.wind_rate * dt
        return WindState(ax=wind.ax * decay, ay=wind.ay * decay)
    nx, ny = rng.normal(0.0, 1.0, 2)
    kick = cfg.wind_sigma * math.sqrt(dt)
    decay = 1.0 - cfg.wind_rate * dt
    return WindState(ax=wind.ax * decay + kick * nx, ay=wind.ay * decay + kick * ny)


def step_dynamics(
    vehicle: VehicleState,
    cmd: AttitudeCommand,
    wind: WindState,
    cfg: SimConfig,
    dt: float,
) -> VehicleState:
    """Semi-implicit Euler step of the planar point-mass dynamics.

    Tilt follows the clamped command through a first-order lag. The
    commanded tilt lives in the body frame (the camera frame), so the
    resulting acceleration rotates with yaw; at yaw zero, roll tilt
    accelerates +X and pitch tilt accelerates +Y.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    # Blend factor capped at 1 so a lag shorter than the step snaps to
    # the command instead of oscillating.
    k = min(dt / cfg.tilt_tau, 1.0)
    roll_cmd = min(max(cmd.roll, -cfg.max_tilt), cfg.max_tilt)
    pitch_cmd = min(max(cmd.pitch, -cfg.max_tilt), cfg.max_tilt)
    tilt_roll = vehicle.tilt_roll + (roll_cmd - vehicle.tilt_roll) * k
    tilt_pitch = vehicle.tilt_pitch + (pitch_cmd - vehicle.tilt_pitch) * k

    ax_body = cfg.gravity * math.tan(tilt_roll)
    ay_body = cfg.gravity * math.tan(tilt_pitch)
    cos_y = math.cos(vehicle.yaw)
    sin_y = math.sin(vehicle.yaw)
    ax = cos_y * ax_body - sin_y * ay_body + wind.ax - cfg.drag_coeff * vehicle.vx
    ay = sin_y * ax_body + cos_y * ay_body + wind.ay - cfg.drag_coeff * vehicle.vy

    vx = vehicle.vx + ax * dt
    vy = vehicle.vy + ay * dt
    return VehicleState(
        x=vehicle.x + vx * dt,
        y=vehicle.y + vy * dt,
        vx=vx,
        vy=vy,
        tilt_roll=tilt_roll,
        tilt_pitch=tilt_pitch,
        yaw=vehicle.yaw + cfg.yaw_rate * dt,
        t=vehicle.t + dt,
    )


def run_episode(
    cfg: SimConfig,
    gains: PidGains | None = None,
    tracker_cfg: TrackerConfig | None = None,
    *,
    on_tick=None,
) -> list[FrameRecord]:
    """Run the closed loop for cfg.duration seconds; one record per camera tick.

    Per tick: render, advance the tracker (acquire on the first frame),
    measure the best-feature displacement, step the controller, then
    hold that command while the physics substeps run to the next tick.
    Fully deterministic for a given config.

    ``on_tick(k, tracker_state)`` is an optional inspection hook called
    after each tick's tracker update; it must not mutate anything.

    With pixel noise, the next frame's noise is drawn on a helper thread
    during the rest of the tick; no helper outlives the call.
    """
    if gains is None:
        gains = PidGains()
    if tracker_cfg is None:
        tracker_cfg = TrackerConfig()

    tex = cfg.make_texture()
    wind_rng = np.random.Generator(np.random.Philox(key=cfg.texture_seed + 1))
    noise = np.random.Generator(np.random.Philox(key=cfg.texture_seed + 2))
    ahead = cfg.lowlight_noise > 0.0
    if ahead:
        noise = _NoiseAhead(noise, (cfg.image_height, cfg.image_width))

    controller = PositionHoldController(gains)
    vehicle = VehicleState(x=cfg.start_x, y=cfg.start_y)
    wind = WindState()
    frame_dt = cfg.frame_dt
    n_ticks = cfg.n_ticks
    substeps = cfg.substeps

    records: list[FrameRecord] = []
    state = None
    prev_img = prev_pyr = None
    last_best = None

    try:
        for k in range(n_ticks + 1):
            img = render_frame(tex, vehicle, cfg, noise)
            if ahead and k < n_ticks:
                noise.fill()
            pyr = build_pyramid(img, tracker_cfg.lk.pyramid_levels)
            flags = set()
            if state is None:
                state = acquire(img, tracker_cfg)
            else:
                state, events = advance(
                    state, prev_img, img, tracker_cfg,
                    prev_pyramid=prev_pyr, next_pyramid=pyr,
                )
                for ev in events:
                    if isinstance(ev, FeatureLost):
                        flags.add("feature_lost")
                    elif isinstance(ev, Reacquired):
                        flags.add("reacquired")
            if state.blind:
                flags.add("blind")
            if on_tick is not None:
                on_tick(k, state)

            if state.best_id != last_best:
                controller.reset_derivative()
                last_best = state.best_id

            disp = best_displacement(state, cfg.image_width, cfg.image_height)
            cmd = controller.step(disp, frame_dt)
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
                    wind = wind_step(wind, cfg, cfg.physics_dt, wind_rng)
                    vehicle = step_dynamics(vehicle, cmd, wind, cfg, cfg.physics_dt)
            prev_img, prev_pyr = img, pyr
    finally:
        if ahead:
            noise.join()
    return records
