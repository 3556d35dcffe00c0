"""Shared fixtures and independent oracle implementations.

The oracles deliberately avoid the library's vectorized code paths:
gradients by direct kernel loops with clamped indices, window sums by
explicit offset loops, eigenvalues by numpy's symmetric eigensolver,
bilinear samples by a per-sample scalar loop, rendering by hashing
every pixel's cell on full-frame coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from flowhold.corners import Corner, DetectParams, Rect
from flowhold.flow import build_pyramid
from flowhold.image import GrayImage
from flowhold.sim import GroundTexture, SimConfig, VehicleState, _hash01
from flowhold.tracker import TrackerConfig, TrackerState, advance

SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64) / 8.0
SOBEL_Y = SOBEL_X.T


def brute_gradients(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h, w = pixels.shape
    ix = np.zeros((h, w))
    iy = np.zeros((h, w))
    for dy in (-1, 0, 1):
        rows = np.clip(np.arange(h) + dy, 0, h - 1)
        for dx in (-1, 0, 1):
            cols = np.clip(np.arange(w) + dx, 0, w - 1)
            shifted = pixels[np.ix_(rows, cols)]
            ix += SOBEL_X[dy + 1, dx + 1] * shifted
            iy += SOBEL_Y[dy + 1, dx + 1] * shifted
    return ix, iy


def brute_response_map(image: GrayImage, window_radius: int) -> np.ndarray:
    """Structure tensor by explicit window loops, eigenvalues via eigvalsh."""
    ix, iy = brute_gradients(image.pixels)
    h, w = image.pixels.shape
    a = np.zeros((h, w))
    b = np.zeros((h, w))
    c = np.zeros((h, w))
    for dy in range(-window_radius, window_radius + 1):
        rows = np.clip(np.arange(h) + dy, 0, h - 1)
        for dx in range(-window_radius, window_radius + 1):
            cols = np.clip(np.arange(w) + dx, 0, w - 1)
            gx = ix[np.ix_(rows, cols)]
            gy = iy[np.ix_(rows, cols)]
            a += gx * gx
            b += gx * gy
            c += gy * gy
    tensors = np.stack(
        [np.stack([a, b], axis=-1), np.stack([b, c], axis=-1)], axis=-2
    ).reshape(-1, 2, 2)
    lam_min = np.linalg.eigvalsh(tensors)[:, 0].reshape(h, w)
    return np.clip(lam_min, 0.0, None)


def brute_bilinear(pixels: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear samples one at a time in Python floats, in a fixed order.

    Floor, clip the corner to [0, w-2] x [0, h-2] (0 on a 1-px axis),
    take x1 = min(x0+1, w-1) and y1 = min(y0+1, h-1), then blend the top
    and bottom rows and blend those as top*(1-fy) + bot*fy.
    """
    h, w = pixels.shape
    px = pixels.tolist()
    out = []
    for x, y in zip(np.ravel(xs).tolist(), np.ravel(ys).tolist()):
        x0 = min(max(math.floor(x), 0), max(w - 2, 0))
        y0 = min(max(math.floor(y), 0), max(h - 2, 0))
        x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
        fx, fy = x - x0, y - y0
        top = px[y0][x0] * (1.0 - fx) + px[y0][x1] * fx
        bot = px[y1][x0] * (1.0 - fx) + px[y1][x1] * fx
        out.append(top * (1.0 - fy) + bot * fy)
    return np.array(out, dtype=np.float64).reshape(np.shape(xs))


def advance_built(state: TrackerState, prev: GrayImage, next_: GrayImage, config: TrackerConfig):
    """``advance`` with both frames' pyramids built at ``config.lk.pyramid_levels``."""
    levels = config.lk.pyramid_levels
    return advance(
        state, prev, next_, config,
        prev_pyramid=build_pyramid(prev, levels), next_pyramid=build_pyramid(next_, levels),
    )


def in_rect(roi: Rect, x: float, y: float) -> bool:
    """Whether (x, y) lies inside ``roi``, its far edges excluded."""
    return roi.x <= x < roi.x + roi.w and roi.y <= y < roi.y + roi.h


def brute_detect(image: GrayImage, roi: Rect, params: DetectParams) -> list[Corner]:
    """Straight-line re-implementation of threshold + greedy suppression."""
    return brute_select(brute_response_map(image, params.window_radius), roi, params)


def brute_select(resp: np.ndarray, roi: Rect, params: DetectParams) -> list[Corner]:
    """Threshold + greedy suppression over a full-frame response map."""
    candidates = []
    peak = 0.0
    for y in range(roi.y, roi.y + roi.h):
        for x in range(roi.x, roi.x + roi.w):
            peak = max(peak, resp[y, x])
    if peak <= 0.0:
        return []
    threshold = params.quality_level * peak
    for y in range(roi.y, roi.y + roi.h):
        for x in range(roi.x, roi.x + roi.w):
            if resp[y, x] > threshold:
                candidates.append((-resp[y, x], y, x))
    candidates.sort()
    min_d2 = params.min_distance * params.min_distance  # inf, not OverflowError, past 1e154
    picked: list[Corner] = []
    for neg, y, x in candidates:
        if len(picked) >= params.max_corners:
            break
        ok = all((p.x - x) ** 2 + (p.y - y) ** 2 >= min_d2 for p in picked)
        if ok:
            picked.append(Corner(x=x, y=y, response=-neg))
    return picked


def brute_render(
    tex: GroundTexture,
    vehicle: VehicleState,
    cfg: SimConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Render by hashing every pixel: per-pixel floor, hash, blank ground, low light.

    World coordinates are full (height, width) arrays from the rotation
    formula; blank ground sets every pixel to 0.5 after hashing; low-light
    noise is drawn with ``rng.normal``.
    """
    h, w = cfg.image_height, cfg.image_width
    v, u = np.mgrid[0:h, 0:w].astype(np.float64)
    u -= w // 2
    v -= h // 2
    gsd = cfg.ground_sample_distance
    cos_y, sin_y = math.cos(vehicle.yaw), math.sin(vehicle.yaw)
    wx = vehicle.x + gsd * (cos_y * u - sin_y * v)
    wy = vehicle.y + gsd * (sin_y * u + cos_y * v)
    inv = 1.0 / tex.cell_size
    i = np.floor(wx * inv).astype(np.int64)
    j = np.floor(wy * inv).astype(np.int64)
    vals = _hash01(i, j, tex.seed)
    if cfg.blank_ground:
        vals[:] = 0.5
    if cfg.lowlight_gain != 1.0 or cfg.lowlight_noise > 0.0:
        vals = vals * cfg.lowlight_gain
        if cfg.lowlight_noise > 0.0:
            vals = vals + rng.normal(0.0, cfg.lowlight_noise, vals.shape)
        vals = np.clip(vals, 0.0, 1.0)
    return vals


def smooth_texture(width: int, height: int, shift=(0.0, 0.0), seed: int = 0) -> GrayImage:
    """Band-limited analytic texture sampled on the pixel grid.

    Shifting the sample grid by ``shift`` produces an exact sub-pixel
    translation of the same continuous field, which gives ground-truth
    flow for tracker tests.
    """
    rng = np.random.default_rng(seed)
    xs = np.arange(width, dtype=np.float64) - shift[0]
    ys = np.arange(height, dtype=np.float64) - shift[1]
    gx, gy = np.meshgrid(xs, ys)
    img = np.full((height, width), 0.5)
    # Waves at evenly spread orientations keep every window conditioned
    # in both directions.
    for k in range(6):
        theta = np.pi * k / 6.0 + rng.uniform(-0.15, 0.15)
        freq = rng.uniform(0.25, 0.45)
        phase = rng.uniform(0.0, 2 * np.pi)
        amp = rng.uniform(0.06, 0.075)
        img += amp * np.sin(freq * (np.cos(theta) * gx + np.sin(theta) * gy) + phase)
    return GrayImage(np.clip(img, 0.02, 0.98))


def square_fixture(size: int = 32, lo: float = 0.1, hi: float = 0.9) -> GrayImage:
    """Bright square on dark ground; corners at the 4 square corners."""
    px = np.full((size, size), lo)
    a, b = size // 4, 3 * size // 4
    px[a:b, a:b] = hi
    return GrayImage(px)


def ssd_best_shift(
    prev: GrayImage, next_: GrayImage, point: tuple[int, int], radius: int, search: int
) -> tuple[int, int]:
    """Exhaustive integer-shift SSD window match, the cross-check for LK."""
    x, y = point
    win = prev.pixels[y - radius : y + radius + 1, x - radius : x + radius + 1]
    best = None
    best_shift = (0, 0)
    for dy in range(-search, search + 1):
        for dx in range(-search, search + 1):
            yy, xx = y + dy, x + dx
            cand = next_.pixels[yy - radius : yy + radius + 1, xx - radius : xx + radius + 1]
            if cand.shape != win.shape:
                continue
            ssd = float(((cand - win) ** 2).sum())
            if best is None or ssd < best:
                best = ssd
                best_shift = (dx, dy)
    return best_shift
