"""Pyramidal iterative Lucas-Kanade sparse optical flow.

Coarse-to-fine, forward-additive: at each pyramid level the 2x2 normal
system G * delta = e is rebuilt from the previous frame's window
gradients and iterated against the next frame until the update norm
drops below epsilon. The window gradients are the valid-region Sobel
gradients of a patch sampled bilinearly once per level with a one-pixel
rim. The flow estimate doubles when moving up a level.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from flowhold.corners import min_eigenvalue
from flowhold.image import GrayImage, bilinear_many, sobel_gradients

__all__ = [
    "FlowResult",
    "FlowStatus",
    "LkParams",
    "Pyramid",
    "build_pyramid",
    "track_points",
]


class FlowStatus(enum.Enum):
    TRACKED = "tracked"
    OUT_OF_BOUNDS = "out_of_bounds"
    ILL_CONDITIONED = "ill_conditioned"
    DIVERGED = "diverged"
    HIGH_RESIDUAL = "high_residual"


@dataclass(frozen=True)
class LkParams:
    """Tracker window, pyramid depth, and termination settings.

    min_eigen_threshold applies to the min eigenvalue of G divided by
    the window pixel count; residual_cap bounds the mean absolute
    window difference a track may report and still count as found.
    """

    window_radius: int = 10
    pyramid_levels: int = 3
    max_iterations: int = 30
    epsilon: float = 0.01
    min_eigen_threshold: float = 1e-4
    residual_cap: float = 0.08

    def __post_init__(self) -> None:
        if self.window_radius < 2:
            raise ValueError("window_radius must be >= 2")
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("epsilon", "min_eigen_threshold", "residual_cap"):
            if not getattr(self, name) > 0.0:  # NaN fails too
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class FlowResult:
    """Where a point landed in the next frame, or why it was lost.

    residual is the mean absolute window intensity difference at the
    final position; NaN when the track failed before it was measurable.
    """

    point: tuple[float, float]
    status: FlowStatus
    residual: float

    @property
    def tracked(self) -> bool:
        return self.status is FlowStatus.TRACKED


@dataclass(frozen=True)
class Pyramid:
    """Level 0 is full resolution; each level halves the dimensions (floor)."""

    levels: tuple[GrayImage, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("pyramid needs at least one level")
        for fine, coarse in zip(self.levels, self.levels[1:]):
            if coarse.width != fine.width // 2 or coarse.height != fine.height // 2:
                raise ValueError("each level must be floor-half of the previous")


def build_pyramid(image: GrayImage, levels: int) -> Pyramid:
    """Box-average pyramid; depth auto-clamps so the deepest level stays >= 8x8."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    out = [image]
    while len(out) < levels:
        cur = out[-1].pixels
        h2, w2 = cur.shape[0] // 2, cur.shape[1] // 2
        if h2 < 8 or w2 < 8:
            break
        block = cur[: 2 * h2, : 2 * w2]
        down = block[0::2, 0::2] + block[0::2, 1::2]
        down += block[1::2, 0::2]
        down += block[1::2, 1::2]
        down *= 0.25
        out.append(GrayImage(down))
    return Pyramid(levels=tuple(out))


_TRACKED = 0
_OOB = 1
_ILL = 2
_DIV = 3
_RES = 4

_STATUS = {
    _TRACKED: FlowStatus.TRACKED,
    _OOB: FlowStatus.OUT_OF_BOUNDS,
    _ILL: FlowStatus.ILL_CONDITIONED,
    _DIV: FlowStatus.DIVERGED,
    _RES: FlowStatus.HIGH_RESIDUAL,
}


def track_points(
    prev: Pyramid,
    next_: Pyramid,
    points: np.ndarray | list[tuple[float, float]],
    params: LkParams,
) -> list[FlowResult]:
    """Track several points from ``prev`` into ``next_`` in one batch.

    All points share the pyramids, so the per-level sampling and the
    2x2 solves are vectorized across features. Ill-starts at deep
    levels where the window does not fit are skipped rather than fatal;
    level 0 must fit (that is the caller's precondition).
    """
    if len(prev.levels) != len(next_.levels):
        raise ValueError("pyramids must have the same depth")
    for a, b in zip(prev.levels, next_.levels):
        if a.width != b.width or a.height != b.height:
            raise ValueError("pyramid level dimensions must match")

    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.size == 0:
        return []
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array of x, y coordinates")

    r = params.window_radius
    w0 = prev.levels[0].width
    h0 = prev.levels[0].height
    margin = r + 1
    bad = (
        (pts[:, 0] < margin)
        | (pts[:, 0] > w0 - 1 - margin)
        | (pts[:, 1] < margin)
        | (pts[:, 1] > h0 - 1 - margin)
    )
    if bad.any():
        i = int(np.nonzero(bad)[0][0])
        raise ValueError(
            f"point {tuple(pts[i])} closer than window_radius+1={margin} px to a border"
        )

    n = pts.shape[0]
    win = 2 * r + 1
    npx = win * win
    oy, ox = np.mgrid[-r : r + 1, -r : r + 1]
    oy2, ox2 = np.mgrid[-r - 1 : r + 2, -r - 1 : r + 2]

    status = np.full(n, _TRACKED, dtype=np.int64)
    flow = np.zeros((n, 2), dtype=np.float64)
    residual = np.full(n, np.nan, dtype=np.float64)

    for level in range(len(prev.levels) - 1, -1, -1):
        scale = 1.0 / (1 << level)
        img_p = prev.levels[level].pixels
        img_n = next_.levels[level].pixels
        hl, wl = img_p.shape
        pl = pts * scale

        fits = (
            (pl[:, 0] >= margin)
            & (pl[:, 0] <= wl - 1 - margin)
            & (pl[:, 1] >= margin)
            & (pl[:, 1] <= hl - 1 - margin)
        )
        idx = np.nonzero((status == _TRACKED) & fits)[0]
        if idx.size:
            cx = pl[idx, 0][:, None, None] + ox2
            cy = pl[idx, 1][:, None, None] + oy2
            patch = bilinear_many(img_p, cx, cy)
            gx, gy = sobel_gradients(patch)
            prev_win = patch[:, 1:-1, 1:-1]
            a = np.einsum("nij,nij->n", gx, gx)
            b = np.einsum("nij,nij->n", gx, gy)
            c = np.einsum("nij,nij->n", gy, gy)
            det = a * c - b * b
            ill = (min_eigenvalue(a, b, c) / npx < params.min_eigen_threshold) | (det <= 0.0)
            if level == 0:
                # Conditioning is judged at full resolution; coarser
                # levels may legitimately blur the structure away, in
                # which case they simply contribute no refinement.
                status[idx[ill]] = _ILL

            idx = idx[~ill]
            if idx.size:
                gx, gy = gx[~ill], gy[~ill]
                prev_win = prev_win[~ill]
                a, b, c, det = a[~ill], b[~ill], c[~ill], det[~ill]
                entry = flow[idx].copy()
                open_ = np.ones(idx.size, dtype=bool)
                for _ in range(params.max_iterations):
                    sub = np.nonzero(open_)[0]
                    if not sub.size:
                        break
                    fi = idx[sub]
                    nx = pl[fi, 0] + flow[fi, 0]
                    ny = pl[fi, 1] + flow[fi, 1]
                    oob = (nx < r) | (nx > wl - 1 - r) | (ny < r) | (ny > hl - 1 - r)
                    if oob.any():
                        status[fi[oob]] = _OOB
                        open_[sub[oob]] = False
                        sub = sub[~oob]
                        if not sub.size:
                            continue
                        fi = idx[sub]
                        nx, ny = nx[~oob], ny[~oob]
                    nwin = bilinear_many(img_n, nx[:, None, None] + ox, ny[:, None, None] + oy)
                    diff = prev_win[sub] - nwin
                    ex = np.einsum("nij,nij->n", gx[sub], diff)
                    ey = np.einsum("nij,nij->n", gy[sub], diff)
                    dx = (c[sub] * ex - b[sub] * ey) / det[sub]
                    dy = (a[sub] * ey - b[sub] * ex) / det[sub]
                    flow[fi, 0] += dx
                    flow[fi, 1] += dy
                    lvl_disp = np.hypot(flow[fi, 0] - entry[sub, 0], flow[fi, 1] - entry[sub, 1])
                    div = lvl_disp > win
                    if div.any():
                        status[fi[div]] = _DIV
                        open_[sub[div]] = False
                    done = np.hypot(dx, dy) < params.epsilon
                    open_[sub[done & ~div]] = False

        if level > 0:
            flow[status == _TRACKED] *= 2.0

    # Final checks at level 0: border margin, then residual.
    idx = np.nonzero(status == _TRACKED)[0]
    if idx.size:
        fx = pts[idx, 0] + flow[idx, 0]
        fy = pts[idx, 1] + flow[idx, 1]
        oob = (fx < margin) | (fx > w0 - 1 - margin) | (fy < margin) | (fy > h0 - 1 - margin)
        status[idx[oob]] = _OOB
        idx = idx[~oob]
        if idx.size:
            cx = pts[idx, 0][:, None, None] + ox
            cy = pts[idx, 1][:, None, None] + oy
            pwin = bilinear_many(prev.levels[0].pixels, cx, cy)
            nwin = bilinear_many(
                next_.levels[0].pixels,
                cx + flow[idx, 0][:, None, None],
                cy + flow[idx, 1][:, None, None],
            )
            res = np.abs(pwin - nwin).mean(axis=(1, 2))
            residual[idx] = res
            status[idx[res > params.residual_cap]] = _RES

    final = pts + flow
    return [
        FlowResult(
            point=(float(final[i, 0]), float(final[i, 1])),
            status=_STATUS[int(status[i])],
            residual=float(residual[i]),
        )
        for i in range(n)
    ]

