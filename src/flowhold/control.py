"""Displacement geometry and PID attitude command generation.

Displacement is the signed pixel offset of the tracked feature from the
image center (left of center negative x, upper half negative y) plus
its Euclidean norm. Each axis feeds a PID; the x error drives roll, the
y error drives pitch. While blind the controller emits neutral commands
and freezes its integrators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = [
    "AttitudeCommand",
    "Displacement",
    "PidGains",
    "PidState",
    "PositionHoldController",
    "displacement_from_center",
    "pid_step",
    "reset_derivative",
]


@dataclass(frozen=True)
class Displacement:
    """Signed pixel offset from the image center and its Euclidean norm."""

    x: float
    y: float

    @property
    def d(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class PidGains:
    """Eq-of-motion units: output is radians, error is pixels.

    i_limit clamps the raw integral (pixel-seconds) before ki applies;
    out_limit clamps the final command.
    """

    kp: float = 8e-4
    ki: float = 2e-4
    kd: float = 9e-4
    i_limit: float = 400.0
    out_limit: float = 0.2

    def __post_init__(self) -> None:
        for name in ("kp", "ki", "kd", "i_limit"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN and inf fail too
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 < self.out_limit < math.inf:
            raise ValueError("out_limit must be > 0")


@dataclass(frozen=True)
class PidState:
    """Integral accumulator and previous error; primed gates the derivative."""

    integral: float = 0.0
    prev_error: float = 0.0
    primed: bool = False


@dataclass(frozen=True)
class AttitudeCommand:
    """pitch commands acceleration along body Y, roll along body X (radians)."""

    pitch: float = 0.0
    roll: float = 0.0


def displacement_from_center(
    feature: tuple[float, float],
    width: int,
    height: int,
) -> Displacement:
    """Pixel displacement of ``feature`` from the image center (w//2, h//2).

    The integer center makes the 640x480 arithmetic work out to whole
    pixels.
    """
    fx, fy = float(feature[0]), float(feature[1])
    if not (0.0 <= fx <= width - 1 and 0.0 <= fy <= height - 1):
        raise ValueError(f"feature {feature} outside {width}x{height} image bounds")
    return Displacement(x=fx - width // 2, y=fy - height // 2)


def pid_step(
    gains: PidGains, state: PidState, error: float, dt: float
) -> tuple[float, PidState]:
    """One discrete PID update; returns (clamped output, new state).

    Rectangular integration with anti-windup clamp, backward-difference
    derivative on error. The first step after construction or a
    derivative reset contributes no derivative term.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    integral = state.integral + error * dt
    integral = min(max(integral, -gains.i_limit), gains.i_limit)
    derivative = (error - state.prev_error) / dt if state.primed else 0.0
    raw = gains.kp * error + gains.ki * integral + gains.kd * derivative
    out = min(max(raw, -gains.out_limit), gains.out_limit)
    return out, PidState(integral=integral, prev_error=error, primed=True)


def reset_derivative(state: PidState) -> PidState:
    """Make the next step's derivative zero; the integral is preserved."""
    return replace(state, primed=False)


class PositionHoldController:
    """Two-axis position hold: x displacement -> roll, y -> pitch.

    Owns one PidState per axis. Blind inputs produce a neutral command
    and leave both integrals untouched (and unprime the derivative so
    regaining sight does not kick).
    """

    def __init__(self, roll_gains: PidGains, pitch_gains: PidGains | None = None):
        self.roll_gains = roll_gains
        self.pitch_gains = pitch_gains if pitch_gains is not None else roll_gains
        self.roll_state = PidState()
        self.pitch_state = PidState()

    def step(self, displacement: Displacement | None, dt: float) -> AttitudeCommand:
        if dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {dt}")
        if displacement is None:
            self.reset_derivative()
            return AttitudeCommand(pitch=0.0, roll=0.0)
        roll, self.roll_state = pid_step(self.roll_gains, self.roll_state, displacement.x, dt)
        pitch, self.pitch_state = pid_step(
            self.pitch_gains, self.pitch_state, displacement.y, dt
        )
        return AttitudeCommand(pitch=pitch, roll=roll)

    def reset_derivative(self) -> None:
        """Suppresses the derivative kick after a best-feature switch."""
        self.roll_state = reset_derivative(self.roll_state)
        self.pitch_state = reset_derivative(self.pitch_state)
