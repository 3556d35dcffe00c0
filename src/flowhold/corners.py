"""Min-eigenvalue corner response and greedy corner selection.

The response of a window is the smaller eigenvalue of its structure
tensor (the 2x2 matrix of window-summed gradient products), built from
valid-region Sobel gradients of the edge-padded image. Selection
takes candidates above a quality threshold relative to the strongest
response, greedily by descending response with minimum-distance
suppression.

Detection cuts the frame r+1 rows below and r+1 columns right of the
ROI (r the window radius; at least 2r+3, at most the frame), which
leaves the response inside the ROI bit-identical: the cut keeps the
origin of the window-sum prefix sums, where a top or left cut would not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from flowhold.image import GrayImage, sobel_gradients

__all__ = [
    "Corner",
    "DetectParams",
    "Rect",
    "detect_corners",
    "min_eigenvalue",
    "response_map",
]


@dataclass(frozen=True)
class Corner:
    x: int
    y: int
    response: float


@dataclass(frozen=True)
class Rect:
    """Axis-aligned pixel rectangle: origin (x, y), size (w, h)."""

    x: int
    y: int
    w: int
    h: int

    def contains(self, x: float, y: float) -> bool:
        return self.x <= x < self.x + self.w and self.y <= y < self.y + self.h


@dataclass(frozen=True)
class DetectParams:
    """Corner selection knobs.

    quality_level is relative to the strongest response inside the ROI,
    which keeps the selected set invariant to affine intensity changes.
    """

    max_corners: int = 20
    quality_level: float = 0.05
    min_distance: float = 15.0
    window_radius: int = 2

    def __post_init__(self) -> None:
        if self.max_corners < 1:
            raise ValueError("max_corners must be >= 1")
        if not 0.0 < self.quality_level <= 1.0:
            raise ValueError("quality_level must lie in (0, 1]")
        if not 0.0 <= self.min_distance < math.inf:  # NaN and inf fail too
            raise ValueError("min_distance must be >= 0")
        if self.window_radius < 1:
            raise ValueError("window_radius must be >= 1")


def min_eigenvalue(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Smaller eigenvalue of each 2x2 tensor [[a, b], [b, c]], clamped at zero."""
    lam = 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)
    np.clip(lam, 0.0, None, out=lam)
    return lam


def _box_sum(arr: np.ndarray, radius: int) -> np.ndarray:
    """Sum over the (2r+1)^2 window around each pixel, edge-replicated."""
    k = 2 * radius + 1
    p = np.pad(arr, radius, mode="edge")
    s = np.zeros((p.shape[0] + 1, p.shape[1] + 1), dtype=np.float64)
    np.cumsum(p, axis=0, out=s[1:, 1:])
    np.cumsum(s[1:, 1:], axis=1, out=s[1:, 1:])
    return s[k:, k:] - s[:-k, k:] - s[k:, :-k] + s[:-k, :-k]


def response_map(image: GrayImage, window_radius: int) -> np.ndarray:
    """Per-pixel min-eigenvalue response over (2r+1)^2 gradient windows.

    Windows that exit the image use replicated-border gradients.
    """
    need = 2 * window_radius + 3
    if image.width < need or image.height < need:
        raise ValueError(
            f"image must be at least {need}x{need} for window_radius={window_radius}"
        )
    ix, iy = sobel_gradients(np.pad(image.pixels, 1, mode="edge"))
    if not (ix.any() or iy.any()):
        # Flat image: every tensor is zero, and so is the box-sum path's
        # response, bit for bit (+0.0 everywhere).
        return np.zeros(ix.shape)
    a = _box_sum(ix * ix, window_radius)
    b = _box_sum(ix * iy, window_radius)
    c = _box_sum(iy * iy, window_radius)
    return min_eigenvalue(a, b, c)


def detect_corners(image: GrayImage, roi: Rect, params: DetectParams) -> list[Corner]:
    """Greedy corner pick inside ``roi``, strongest first.

    Candidates must exceed quality_level times the max response in the
    ROI; each pick suppresses later candidates within min_distance
    (Euclidean). Ties in response break by row-major position, which
    makes detection fully deterministic.
    """
    if roi.w < 1 or roi.h < 1:
        raise ValueError(f"roi must be non-empty, got {roi.w}x{roi.h}")
    if roi.x < 0 or roi.y < 0 or roi.x + roi.w > image.width or roi.y + roi.h > image.height:
        raise ValueError("roi must lie fully inside the image")

    r = params.window_radius
    need = 2 * r + 3
    h = min(max(roi.y + roi.h + r + 1, need), image.height)
    w = min(max(roi.x + roi.w + r + 1, need), image.width)
    resp = response_map(GrayImage._trusted(image.pixels[:h, :w]), r)
    sub = resp[roi.y : roi.y + roi.h, roi.x : roi.x + roi.w]
    peak = float(sub.max())
    if peak <= 0.0:
        return []
    threshold = params.quality_level * peak

    ys, xs = np.nonzero(sub > threshold)
    vals = sub[ys, xs]
    order = np.lexsort((xs, ys, -vals))
    xs = xs[order] + roi.x
    ys = ys[order] + roi.y
    vals = vals[order]

    picked: list[Corner] = []
    px = np.empty(params.max_corners, dtype=np.float64)
    py = np.empty(params.max_corners, dtype=np.float64)
    min_d2 = params.min_distance * params.min_distance
    for cx, cy, cv in zip(xs, ys, vals):
        n = len(picked)
        if n and ((px[:n] - cx) ** 2 + (py[:n] - cy) ** 2 < min_d2).any():
            continue
        px[n] = cx
        py[n] = cy
        picked.append(Corner(x=int(cx), y=int(cy), response=float(cv)))
        if len(picked) >= params.max_corners:
            break
    return picked
