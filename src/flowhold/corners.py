"""Min-eigenvalue corner response and greedy corner selection.

The response of a window is the smaller eigenvalue of its structure
tensor (the 2x2 matrix of window-summed gradient products), built from
valid-region Sobel gradients of the edge-padded image. Selection
takes candidates above a quality threshold relative to the strongest
response; each pick is the strongest one left (ties go to the first in
row-major order) and drops the rest within min_distance of it.

Window sums add their (2r+1)^2 values in one fixed order, rows then
columns, so a response depends only on the gradients in its window (r)
and the pixels under their Sobel taps (1). Detection computes it on the
ROI plus r+1 on each side, edge-replicated only where that cut meets
the frame border, and so gets the full frame's bits.
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
    h, w = arr.shape
    k = 2 * radius + 1
    p = np.pad(arr, radius, mode="edge")
    rows = sum((p[i : i + h] for i in range(1, k)), p[:h])
    return sum((rows[:, j : j + w] for j in range(1, k)), rows[:, :w])


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
    ROI. Each pick is the strongest remaining candidate (the first in
    row-major order among equal responses) and removes the rest within
    min_distance (Euclidean) of it. The response is computed on the ROI
    plus r+1 per side, clipped at the frame and grown to 2r+3.
    """
    if roi.w < 1 or roi.h < 1:
        raise ValueError(f"roi must be non-empty, got {roi.w}x{roi.h}")
    if roi.x < 0 or roi.y < 0 or roi.x + roi.w > image.width or roi.y + roi.h > image.height:
        raise ValueError("roi must lie fully inside the image")

    r = params.window_radius
    need = 2 * r + 3
    y0 = min(max(roi.y - r - 1, 0), max(image.height - need, 0))
    x0 = min(max(roi.x - r - 1, 0), max(image.width - need, 0))
    y1 = max(min(roi.y + roi.h + r + 1, image.height), min(need, image.height))
    x1 = max(min(roi.x + roi.w + r + 1, image.width), min(need, image.width))
    resp = response_map(GrayImage._trusted(image.pixels[y0:y1, x0:x1]), r)
    sub = resp[roi.y - y0 : roi.y - y0 + roi.h, roi.x - x0 : roi.x - x0 + roi.w]
    peak = float(sub.max())
    if peak <= 0.0:
        return []
    ys, xs = np.nonzero(sub > params.quality_level * peak)
    vals = sub[ys, xs]
    min_d2 = params.min_distance * params.min_distance
    picked: list[Corner] = []
    while vals.size and len(picked) < params.max_corners:
        k = vals.argmax()
        picked.append(Corner(int(xs[k]) + roi.x, int(ys[k]) + roi.y, float(vals[k])))
        far = (xs - xs[k]) ** 2 + (ys - ys[k]) ** 2 >= min_d2
        far[k] = False
        xs, ys, vals = xs[far], ys[far], vals[far]
    return picked
