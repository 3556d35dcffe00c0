"""Deterministic closed-loop hover test bed.

Planar point-mass vehicle with first-order tilt lag, a nadir pinhole
camera rendering a seeded cell-hash ground texture, Ornstein-Uhlenbeck
wind gusts, and optional low-light degradation. One episode runs the full
vision/control loop at the camera rate with fixed-step physics
substeps in between, and is bit-reproducible from its config.

A frame's pixel noise depends only on the noise stream's position, so
``run_episode`` draws the next frame's noise on a helper thread while
the current frame is rendered, tracked and flown, with the same bytes
as ``render_frame``'s serial draw.

The render has two routes, chosen by the yaw, each equal in bytes to
flooring every pixel's world coordinates:

- sin(yaw) == 0: world x depends on the column only and y on the row
  only, so each distinct column cell is hashed against each distinct
  row cell, and the frame is whole columns, then whole rows, of that
  table.
- rotated: the per-pixel expression is evaluated at every ``_RUN``-th
  column and the last. A block whose first column shares a cell with
  the next sampled column takes that cell's hash throughout; only the
  other blocks, which a cell edge may cross, are hashed per pixel.
  This is exact because each rounded step of
  floor((x + gsd*(c*u - s*v)) * (1/cell)), and of its y twin, is
  monotone in the column u: along a row both cell indices are
  monotone step functions, so the columns between two that share a
  cell lie in it too.

However fine the cells, neither route hashes more than one cell per
pixel plus one per block.
"""

from __future__ import annotations

import math
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
        for name in ("drag_coeff", "wind_rate"):
            # A step scales by 1 - rate*physics_dt: negative above 1, unbounded above 2.
            if getattr(self, name) * self.physics_dt > 1.0:
                raise ConfigError(f"{name}={getattr(self, name)} times physics_dt must be <= 1")
        for name in ("yaw_rate", "start_x", "start_y"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not 0.0 < self.max_tilt < math.pi / 2:
            raise ConfigError("max_tilt must lie in (0, pi/2)")
        if self.image_width < 8 or self.image_height < 8:
            raise ConfigError("image dimensions must be at least 8x8")
        if not self._cells_exact(self.start_x, self.start_y):
            raise ConfigError(
                "start_x, start_y, altitude, focal_px, image_width, image_height and cell_size "
                "put the first frame's cell indices beyond 2**53"
            )
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
        # A product within 1e-9 below a whole number (4.6 * 25) counts as that number.
        return math.floor(self.duration * self.camera_rate + 1e-9)

    @property
    def substeps(self) -> int:
        """Physics steps per camera frame; __post_init__ checks they fit exactly."""
        return round(self.frame_dt / self.physics_dt)

    @property
    def ground_sample_distance(self) -> float:
        return self.altitude / self.focal_px

    def make_texture(self) -> GroundTexture:
        return GroundTexture(seed=self.texture_seed, cell_size=self.cell_size)

    def _cells_exact(self, x: float, y: float) -> bool:
        # Render floors world / cell_size to int64 cell indices; below 2**53
        # each is exact. False for a non-finite position too.
        reach = math.hypot(self.image_width, self.image_height) / 2 * self.ground_sample_distance
        return all((abs(c) + reach) / self.cell_size < 2**53 for c in (x, y))


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
    h >>= np.uint64(11)  # in place, so the float64 result is the only new array
    return h * 2.0**-53


def _cells(tex: GroundTexture, wx: np.ndarray, wy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    inv = 1.0 / tex.cell_size
    return np.floor(wx * inv).astype(np.int64), np.floor(wy * inv).astype(np.int64)


def _rotate(
    vehicle: VehicleState, gsd: float, cos_y: float, sin_y: float, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # World point under camera offset (u, v) px, in brute force's operand
    # order, so block ends and mixed blocks round as a per-pixel render.
    return (
        vehicle.x + gsd * (cos_y * u - sin_y * v),
        vehicle.y + gsd * (sin_y * u + cos_y * v),
    )


# Columns per block of the run-length render.
_RUN = 8


def _texture_runs(
    tex: GroundTexture, vehicle: VehicleState, gsd: float, cos_y: float, sin_y: float,
    u: np.ndarray, v: np.ndarray, out: np.ndarray,
) -> None:
    # Block b is tested from its first column to the next block's first
    # column, or the frame's last. The last block is padded with copies
    # of the last column, whose duplicate writes carry equal values.
    h, w = v.shape[0], u.shape[0]
    nb = -(-w // _RUN)
    cols = np.minimum(np.arange(nb * _RUN), w - 1).reshape(nb, _RUN)
    ub = u[cols]
    edges = np.append(ub[:, 0], u[-1])
    i, j = _cells(tex, *_rotate(vehicle, gsd, cos_y, sin_y, edges, v))
    # Indices in range, so "clip" changes nothing; "raise" would go through a temporary.
    _hash01(i[:, :-1], j[:, :-1], tex.seed).take(np.arange(w) // _RUN, axis=1, out=out, mode="clip")
    # Blocks a cell edge may cross: every pixel of them, per pixel.
    mixed = np.flatnonzero((i[:, :-1] != i[:, 1:]) | (j[:, :-1] != j[:, 1:]))
    row, blk = np.divmod(mixed, nb)
    mi, mj = _cells(tex, *_rotate(vehicle, gsd, cos_y, sin_y, ub[blk], v[row]))
    out.reshape(-1)[row[:, None] * w + cols[blk]] = _hash01(mi, mj, tex.seed)


def _render(
    tex: GroundTexture, vehicle: VehicleState, cfg: SimConfig, eta: np.ndarray | None,
    out: np.ndarray,
) -> np.ndarray:
    # render_frame into ``out``, a C-contiguous float64 array of the frame's shape.
    # ``eta`` is the frame's standard-normal draw, scaled in place, or None
    # when the frame has no pixel noise.
    if cfg.blank_ground:
        out.fill(0.5)
    else:
        if not cfg._cells_exact(vehicle.x, vehicle.y):
            raise ConfigError(
                f"sim: at t={vehicle.t:.3f} s the vehicle is at ({vehicle.x:g}, {vehicle.y:g}) m, "
                "where the frame's cell indices reach 2**53 and no longer render exactly; "
                "check wind_sigma, gravity and the gains"
            )
        u = np.arange(cfg.image_width, dtype=np.float64) - (cfg.image_width // 2)
        v = (np.arange(cfg.image_height, dtype=np.float64) - (cfg.image_height // 2))[:, None]
        gsd = cfg.ground_sample_distance
        cos_y = math.cos(vehicle.yaw)
        sin_y = math.sin(vehicle.yaw)
        if sin_y == 0.0:
            # c*u - 0*v == c*u up to the sign of zero, which floor ignores.
            # Distinct column cells x distinct row cells never outnumber the
            # pixels, however fine the cells.
            i, j = _cells(tex, vehicle.x + gsd * (cos_y * u), vehicle.y + gsd * (cos_y * v[:, 0]))
            ci, col = np.unique(i, return_inverse=True)
            cj, row = np.unique(j, return_inverse=True)
            table = _hash01(ci, cj[:, None], tex.seed).take(col, axis=1)
            table.take(row, axis=0, out=out, mode="clip")  # in range; see _texture_runs
        else:
            _texture_runs(tex, vehicle, gsd, cos_y, sin_y, u, v, out)
    if cfg.lowlight_gain != 1.0 or eta is not None:
        out *= cfg.lowlight_gain
        if eta is not None:
            # Same values as rng.normal(0.0, s, shape) from the same position.
            # A product beyond the float range is +-inf, which the clamp
            # maps to the same bound as the true value.
            with np.errstate(over="ignore"):
                eta *= cfg.lowlight_noise
            out += eta
        np.clip(out, 0.0, 1.0, out=out)
    return out


def render_frame(
    tex: GroundTexture,
    vehicle: VehicleState,
    cfg: SimConfig,
    rng: np.random.Generator,
) -> GrayImage:
    """Nadir pinhole render of the ground texture under the vehicle.

    Pixel (u, v) maps to the world point pos + R(yaw) @ offset where
    offset = ((u - cx) * h/f, (v - cy) * h/f). Camera tilt is not
    modeled.

    This is where blank ground is decided: with ``cfg.blank_ground`` set
    the frame is a flat 0.5 and ``tex`` is not read. A textured frame
    whose cell indices would reach 2**53, where int64 floors stop being
    exact, is a ``ConfigError`` naming the time and position. Low light
    applies clamp(gain * i + eta, 0, 1) with eta drawn from ``rng``,
    which is read only when there is pixel noise. Each call returns a
    fresh array.
    """
    shape = (cfg.image_height, cfg.image_width)
    eta = rng.standard_normal(shape) if cfg.lowlight_noise > 0.0 else None
    return GrayImage._trusted(_render(tex, vehicle, cfg, eta, np.empty(shape)))


def wind_step(
    wind: WindState, cfg: SimConfig, dt: float, rng: np.random.Generator
) -> WindState:
    """Per-axis Ornstein-Uhlenbeck update of the gust acceleration."""
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    decay = 1.0 - cfg.wind_rate * dt
    nx, ny = rng.normal(0.0, 1.0, 2)
    kick = cfg.wind_sigma * math.sqrt(dt)
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

    With pixel noise, a single-worker executor draws the next frame's
    noise into the other of two buffers while this frame renders and the
    tick runs; the next draw is queued before the episode waits for this
    one. An error in a draw is raised here, and the helper thread is
    joined before the call returns or raises. A noise-free episode
    submits nothing, so it starts no thread.

    The loop owns its frames: from frame 3 on, frame k is rendered
    into the buffer of frame k-2. No frame lives longer than two ticks:
    LK reads frame k-1 as prev on tick k, ``advance`` and ``acquire``
    keep no image, and ``on_tick`` sees tracker state only. So nothing
    references frame k-2 any more, and a tick allocates no frame.
    Frames 0 to 2 get fresh arrays, and frame 0's is freed after tick 1,
    before frame 2's is allocated. glibc's malloc hands the top of its
    heap back to the system once it exceeds twice the largest mapped
    block freed so far; that one freed frame lifts the bar above the
    tick's smaller temporaries (pyramid levels, the rotated render's
    block arrays), which a fresh process would otherwise trim and fault
    in again on every tick.
    """
    from concurrent.futures import ThreadPoolExecutor  # here, so `import flowhold` skips logging

    if gains is None:
        gains = PidGains()
    if tracker_cfg is None:
        tracker_cfg = TrackerConfig()

    tex = cfg.make_texture()
    wind_rng = np.random.Generator(np.random.Philox(key=cfg.texture_seed + 1))
    shape = (cfg.image_height, cfg.image_width)
    noise = None
    if cfg.lowlight_noise > 0.0:
        noise = np.random.Generator(np.random.Philox(key=cfg.texture_seed + 2))
        etas = (np.empty(shape), np.empty(shape))  # frame k's noise fills etas[k % 2]
    ring = [None, None]

    controller = PositionHoldController(gains)
    vehicle = VehicleState(x=cfg.start_x, y=cfg.start_y)
    wind = WindState()
    frame_dt = cfg.frame_dt
    n_ticks = cfg.n_ticks

    records: list[FrameRecord] = []
    state = None
    prev_img = prev_pyr = None
    last_best = None

    with ThreadPoolExecutor(max_workers=1) as helper:
        draw = None if noise is None else helper.submit(noise.standard_normal, out=etas[0])
        for k in range(n_ticks + 1):
            out = np.empty(shape) if k < 3 else ring[k % 2]
            if k:
                ring[k % 2] = out
            eta = None
            if draw is not None:
                # Frame k+1's draw is queued before the wait for frame k's, into
                # frame k-1's buffer, which nothing reads any more, so the helper
                # goes straight from one draw to the next. Submitted after the
                # wait, a draw starts only once the render lets the helper take
                # the GIL, up to the 5 ms switch interval later.
                ahead = None
                if k < n_ticks:
                    ahead = helper.submit(noise.standard_normal, out=etas[(k + 1) % 2])
                eta, draw = draw.result(), ahead
            # A read-only view: the frame is frozen, the buffer stays writable.
            img = GrayImage._trusted(_render(tex, vehicle, cfg, eta, out).view())
            flags = set()
            pyr = None
            if state is None:
                state = acquire(img, tracker_cfg)
            else:
                if state.features:  # only LK reads a pyramid
                    prev_pyr = prev_pyr or build_pyramid(prev_img, tracker_cfg.lk.pyramid_levels)
                    pyr = build_pyramid(img, tracker_cfg.lk.pyramid_levels)
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
                for _ in range(cfg.substeps):
                    wind = wind_step(wind, cfg, cfg.physics_dt, wind_rng)
                    vehicle = step_dynamics(vehicle, cmd, wind, cfg, cfg.physics_dt)
            prev_img, prev_pyr = img, pyr
    return records
