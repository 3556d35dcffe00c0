"""Deterministic closed-loop hover test bed.

Planar point-mass vehicle with first-order tilt lag, a nadir pinhole
camera rendering a seeded cell-hash ground texture (hashed once per
cell in view, then gathered into the frame), Ornstein-Uhlenbeck wind
gusts, and optional low-light degradation. One episode runs the full
vision/control loop at the camera rate with fixed-step physics
substeps in between, and is bit-reproducible from its config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from flowhold.control import AttitudeCommand, PidGains, PositionHoldController
from flowhold.flow import build_pyramid
from flowhold.image import GrayImage
from flowhold.telemetry import FrameRecord
from flowhold.tracker import (
    Blind,
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
    structure to latch onto. blank_rect (world meters, inclusive
    x0, y0, x1, y1) overrides the hash with a flat 0.5 region for the
    featureless-ground scenario.
    """

    seed: int
    cell_size: float = 0.25
    blank_rect: tuple[float, float, float, float] | None = None

    def __post_init__(self) -> None:
        if not self.cell_size > 0.0:
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
        # Each check passes only on a valid value, so NaN fails them all.
        for name in (
            "altitude", "focal_px", "camera_rate", "duration", "physics_dt",
            "gravity", "cell_size", "frame_size_cm", "tilt_tau",
        ):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("drag_coeff", "settle_time", "lowlight_noise", "wind_sigma", "wind_rate"):
            if not getattr(self, name) >= 0.0:
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

    @property
    def frame_dt(self) -> float:
        return 1.0 / self.camera_rate

    @property
    def substeps(self) -> int:
        n = round(self.frame_dt / self.physics_dt)
        if n < 1 or abs(n * self.physics_dt - self.frame_dt) > 1e-9:
            raise ConfigError(
                f"physics_dt={self.physics_dt} must divide the frame interval "
                f"{self.frame_dt} exactly"
            )
        return n

    @property
    def ground_sample_distance(self) -> float:
        return self.altitude / self.focal_px

    def make_texture(self) -> GroundTexture:
        inf = math.inf
        rect = (-inf, -inf, inf, inf) if self.blank_ground else None
        return GroundTexture(seed=self.texture_seed, cell_size=self.cell_size, blank_rect=rect)


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


def _texture_grid(tex: GroundTexture, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    # One hash per cell of the index bounding box, then a gather per point.
    inv = 1.0 / tex.cell_size
    i = np.floor(wx * inv).astype(np.int64)
    j = np.floor(wy * inv).astype(np.int64)
    i0, i1, j0, j1 = int(i.min()), int(i.max()), int(j.min()), int(j.max())
    if (i1 - i0 + 1) * (j1 - j0 + 1) <= np.broadcast(i, j).size:
        cols = np.arange(i0, i1 + 1, dtype=np.int64)
        rows = np.arange(j0, j1 + 1, dtype=np.int64)[:, None]
        vals = _hash01(cols, rows, tex.seed)[j - j0, i - i0]
    else:  # cells smaller than pixels: the table would outgrow the frame
        vals = _hash01(i, j, tex.seed)
    if tex.blank_rect is not None:
        x0, y0, x1, y1 = tex.blank_rect
        mask = (wx >= x0) & (wx <= x1) & (wy >= y0) & (wy <= y1)
        vals = np.where(mask, 0.5, vals)
    return vals


def render_frame(
    tex: GroundTexture,
    vehicle: VehicleState,
    cfg: SimConfig,
    rng: np.random.Generator | None = None,
) -> GrayImage:
    """Nadir pinhole render of the ground texture under the vehicle.

    Pixel (u, v) maps to the world point pos + R(yaw) @ offset where
    offset = ((u - cx) * h/f, (v - cy) * h/f). Camera tilt is not
    modeled. Each ground cell in view is hashed once; at sin(yaw) == 0
    world x depends on the column only and y on the row only. Low light
    applies clamp(gain * i + eta, 0, 1) with eta drawn from ``rng`` (a
    fresh seeded stream when omitted).
    """
    u = np.arange(cfg.image_width, dtype=np.float64) - (cfg.image_width // 2)
    v = (np.arange(cfg.image_height, dtype=np.float64) - (cfg.image_height // 2))[:, None]
    gsd = cfg.ground_sample_distance
    cos_y = math.cos(vehicle.yaw)
    sin_y = math.sin(vehicle.yaw)
    if sin_y == 0.0:
        # c*u - 0*v == c*u up to the sign of zero, which floor ignores.
        wx = vehicle.x + gsd * (cos_y * u)
        wy = vehicle.y + gsd * (cos_y * v)
    else:
        wx = vehicle.x + gsd * (cos_y * u - sin_y * v)
        wy = vehicle.y + gsd * (sin_y * u + cos_y * v)
    vals = _texture_grid(tex, wx, wy)
    if cfg.lowlight_gain != 1.0 or cfg.lowlight_noise > 0.0:
        vals *= cfg.lowlight_gain
        if cfg.lowlight_noise > 0.0:
            if rng is None:
                rng = np.random.Generator(np.random.Philox(key=tex.seed + 2))
            # Same values and stream position as rng.normal(0.0, s, shape).
            eta = rng.standard_normal(vals.shape)
            eta *= cfg.lowlight_noise
            vals += eta
        np.clip(vals, 0.0, 1.0, out=vals)
    return GrayImage(vals)


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
    gains: PidGains | tuple[PidGains, PidGains] | None = None,
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
    """
    substeps = cfg.substeps  # validates divisibility before anything runs
    if gains is None:
        gains = PidGains()
    if isinstance(gains, PidGains):
        roll_gains = pitch_gains = gains
    else:
        roll_gains, pitch_gains = gains
    if tracker_cfg is None:
        tracker_cfg = TrackerConfig()

    tex = cfg.make_texture()
    wind_rng = np.random.Generator(np.random.Philox(key=cfg.texture_seed + 1))
    noise_rng = np.random.Generator(np.random.Philox(key=cfg.texture_seed + 2))

    controller = PositionHoldController(roll_gains, pitch_gains)
    vehicle = VehicleState(x=cfg.start_x, y=cfg.start_y)
    wind = WindState()
    frame_dt = cfg.frame_dt
    n_ticks = math.floor(cfg.duration * cfg.camera_rate)

    records: list[FrameRecord] = []
    state = None
    prev_img = prev_pyr = None
    last_best = None

    for k in range(n_ticks + 1):
        img = render_frame(tex, vehicle, cfg, noise_rng)
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
                elif isinstance(ev, Blind):
                    flags.add("blind")
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
    return records
