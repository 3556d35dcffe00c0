"""Feature lifecycle: acquire in the center ROI, track, replace on loss.

Features are only ever acquired in the central half of the frame (per
axis), so the vehicle is never steered toward structure at the image
edges. Features are held strongest detection first, and the first one,
the best, drives the displacement measurement; when too few features
survive, the whole set is replaced by a fresh acquisition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from flowhold.control import Displacement, displacement_from_center
from flowhold.corners import DetectParams, Rect, detect_corners
from flowhold.flow import FlowStatus, LkParams, track_points
from flowhold.image import GrayImage

__all__ = [
    "Blind",
    "FeatureLost",
    "Reacquired",
    "TrackedFeature",
    "TrackerConfig",
    "TrackerState",
    "acquire",
    "advance",
    "best_displacement",
    "center_roi",
]


@dataclass(frozen=True)
class TrackerConfig:
    detect: DetectParams = field(default_factory=DetectParams)
    lk: LkParams = field(default_factory=LkParams)
    min_alive: int = 5

    def __post_init__(self) -> None:
        if not 1 <= self.min_alive <= self.detect.max_corners:
            raise ValueError("min_alive must lie in [1, detect.max_corners]")


@dataclass(frozen=True)
class TrackedFeature:
    id: int
    position: tuple[float, float]


@dataclass(frozen=True)
class TrackerState:
    """Snapshot of the live feature set between frames; replaced by advance().

    Features are held in ``detect_corners``' order, strongest first, so
    the best feature is the first.
    """

    width: int
    height: int
    features: tuple[TrackedFeature, ...]
    generation: int
    next_id: int

    @property
    def best_id(self) -> int | None:
        return self.features[0].id if self.features else None

    @property
    def n_alive(self) -> int:
        return len(self.features)

    @property
    def blind(self) -> bool:
        return not self.features


@dataclass(frozen=True)
class FeatureLost:
    feature_id: int
    reason: FlowStatus


@dataclass(frozen=True)
class Reacquired:
    pass


@dataclass(frozen=True)
class Blind:
    pass


TrackerEvent = FeatureLost | Reacquired | Blind


def center_roi(width: int, height: int) -> Rect:
    """Central half of the frame along each axis (the acquisition region)."""
    if width < 4 or height < 4:
        raise ValueError(f"image must be at least 4x4, got {width}x{height}")
    return Rect(x=width // 4, y=height // 4, w=width // 2, h=height // 2)


def acquire(
    image: GrayImage, config: TrackerConfig, *, generation: int = 0, next_id: int = 0
) -> TrackerState:
    """Detect a fresh feature set in the center ROI of ``image``.

    Finding nothing is not an error: the returned state is blind and
    downstream control must hold attitude neutral.
    """
    roi = center_roi(image.width, image.height)
    corners = [
        c
        for c in detect_corners(image, roi, config.detect)
        if config.lk.fits(c.x, c.y, image.width, image.height)
    ]
    features = tuple(
        TrackedFeature(id=next_id + i, position=(float(c.x), float(c.y)))
        for i, c in enumerate(corners)
    )
    return TrackerState(
        width=image.width,
        height=image.height,
        features=features,
        generation=generation + 1,
        next_id=next_id + len(features),
    )


def advance(
    state: TrackerState,
    prev: GrayImage,
    next_: GrayImage,
    config: TrackerConfig,
    *,
    prev_pyramid: tuple[np.ndarray, ...] | None = None,
    next_pyramid: tuple[np.ndarray, ...] | None = None,
) -> tuple[TrackerState, list[TrackerEvent]]:
    """Track every feature from ``prev`` into ``next_``.

    Survivors keep their ids and their order; losses leave the set and
    are reported as events. If the best feature died, the strongest
    survivor, now first, takes over on the same frame. If fewer than
    min_alive survive, the entire set is replaced by a fresh
    acquisition on ``next_`` (Reacquired event); dropping to zero
    features additionally reports Blind. Both frames' pyramids are
    required while ``state`` holds features.
    """
    for img, pyr, name in ((prev, prev_pyramid, "prev"), (next_, next_pyramid, "next")):
        if img.width != state.width or img.height != state.height:
            raise ValueError(
                f"{name} frame is {img.width}x{img.height}, state expects "
                f"{state.width}x{state.height}"
            )
        if pyr is None and state.features:
            raise ValueError(f"{name}_pyramid is required while features are held")

    events: list[TrackerEvent] = []
    survivors: list[TrackedFeature] = []
    if state.features:
        points = np.asarray([f.position for f in state.features], dtype=np.float64)
        results = track_points(prev_pyramid, next_pyramid, points, config.lk)
        for feat, res in zip(state.features, results):
            if res.tracked:
                survivors.append(TrackedFeature(id=feat.id, position=res.point))
            else:
                events.append(FeatureLost(feature_id=feat.id, reason=res.status))
    features = tuple(survivors)

    if len(features) < config.min_alive:
        new_state = acquire(
            next_, config, generation=state.generation, next_id=state.next_id
        )
        events.append(Reacquired())
        if new_state.blind and not state.blind:
            events.append(Blind())
        return new_state, events

    return TrackerState(
        width=state.width,
        height=state.height,
        features=features,
        generation=state.generation,
        next_id=state.next_id,
    ), events


def best_displacement(
    state: TrackerState, width: int, height: int
) -> Displacement | None:
    """Displacement of the best (first) feature from the image center, or None when blind."""
    if not state.features:
        return None
    return displacement_from_center(state.features[0].position, width, height)
