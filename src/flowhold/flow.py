"""Pyramidal iterative Lucas-Kanade sparse optical flow.

A pyramid is a tuple of read-only float64 level arrays: the frame's own
pixels first, then each level floor-half of the one before.

Coarse-to-fine, forward-additive: at each pyramid level the 2x2 normal
system G * delta = e is rebuilt from the previous frame's window
gradients and iterated against the next frame until the update norm
drops below epsilon. The window gradients are the valid-region Sobel
gradients of a patch sampled bilinearly once per level with a one-pixel
rim. The flow estimate doubles when moving up a level.

Each level iterates one active set of points: every per-point array
(window, gradients, normal matrix, entry flow) holds exactly the active
rows, and a point that leaves (ill-conditioned, out of bounds, diverged
or converged) is cut from all of them at once. The residual at the end
reuses the level-0 window of the previous frame, which holds the same
samples as a fresh gather at the start points, so only the next frame
is sampled again.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from flowhold.corners import min_eigenvalue
from flowhold.image import GrayImage, bilinear_many, sobel_gradients

__all__ = [
    "FlowResult",
    "FlowStatus",
    "LkParams",
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
            if not 0.0 < getattr(self, name) < math.inf:  # NaN and inf fail too
                raise ValueError(f"{name} must be > 0")

    @property
    def margin(self) -> int:
        """Least px from a start point to a border: the window and its gradient rim."""
        return self.window_radius + 1

    def fits(self, x, y, width: int, height: int):
        """Whether track_points accepts (x, y) as a start in a width x height frame.

        Works elementwise on arrays as well as on scalars.
        """
        return _inside(x, y, width, height, self.margin)


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


def build_pyramid(image: GrayImage, levels: int) -> tuple[np.ndarray, ...]:
    """Box-average pyramid: a tuple of read-only float64 level arrays.

    Level 0 is ``image.pixels`` itself; each level after it halves the
    one before (floor). Depth auto-clamps so the deepest level stays >= 8x8.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    out = [image.pixels]
    while len(out) < levels:
        cur = out[-1]
        h2, w2 = cur.shape[0] // 2, cur.shape[1] // 2
        if h2 < 8 or w2 < 8:
            break
        block = cur[: 2 * h2, : 2 * w2]
        down = block[0::2, 0::2] + block[0::2, 1::2]
        down += block[1::2, 0::2]
        down += block[1::2, 1::2]
        down *= 0.25
        down.setflags(write=False)
        out.append(down)
    return tuple(out)


_TRACKED, _OOB, _ILL, _DIV, _RES = range(5)  # indices into tuple(FlowStatus)


def _inside(x: np.ndarray, y: np.ndarray, w: int, h: int, m: int) -> np.ndarray:
    """True where (x, y) lies at least m px inside a w x h image."""
    return (x >= m) & (x <= w - 1 - m) & (y >= m) & (y <= h - 1 - m)


def _cut(keep: np.ndarray, rows: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """The rows of every array where ``keep`` holds."""
    return rows if keep.all() else tuple(v[keep] for v in rows)


def track_points(
    prev: tuple[np.ndarray, ...],
    next_: tuple[np.ndarray, ...],
    points: np.ndarray | list[tuple[float, float]],
    params: LkParams,
) -> list[FlowResult]:
    """Track several points from ``prev`` into ``next_`` in one batch.

    ``prev`` and ``next_`` are pyramids as ``build_pyramid`` returns
    them: level arrays, full resolution first. All points share them,
    so the per-level sampling and the 2x2 solves are vectorized across
    features. Ill-starts at deep levels where the window does not fit
    are skipped rather than fatal; level 0 must fit (that is the
    caller's precondition).
    """
    if not prev or len(prev) != len(next_):
        raise ValueError("pyramids must have the same depth, at least one level")
    for level, (a, b) in enumerate(zip(prev, next_)):
        if a.shape != b.shape:
            raise ValueError(f"pyramid level {level} shapes differ: {a.shape} vs {b.shape}")
        if level and a.shape != tuple(n // 2 for n in prev[level - 1].shape):
            raise ValueError(f"pyramid level {level} is not floor-half of level {level - 1}")

    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.size == 0:
        return []
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array of x, y coordinates")

    r = params.window_radius
    h0, w0 = prev[0].shape
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise ValueError(f"points must be finite, got {tuple(pts[~finite][0].tolist())}")
    bad = ~params.fits(*pts.T, w0, h0)
    if bad.any():
        raise ValueError(
            f"point {tuple(pts[bad][0].tolist())} closer than "
            f"window_radius+1={params.margin} px to a border"
        )

    n = pts.shape[0]
    win = 2 * r + 1
    oy, ox = np.mgrid[-r : r + 1, -r : r + 1].astype(np.float64)
    oy2, ox2 = np.mgrid[-r - 1 : r + 2, -r - 1 : r + 2].astype(np.float64)

    status = np.full(n, _TRACKED, dtype=np.int64)
    flow = np.zeros((n, 2), dtype=np.float64)
    residual = np.full(n, np.nan, dtype=np.float64)
    act0 = np.empty(0, dtype=np.intp)  # the points that enter level 0 ...
    pwin0 = None  # ... and their level-0 windows, reused for the residual

    for level in range(len(prev) - 1, -1, -1):
        img_p = prev[level]
        img_n = next_[level]
        hl, wl = img_p.shape
        pl = pts * (1.0 / (1 << level))
        act = np.nonzero((status == _TRACKED) & params.fits(*pl.T, wl, hl))[0]
        if act.size:
            patch = bilinear_many(
                img_p, pl[act, 0][:, None, None] + ox2, pl[act, 1][:, None, None] + oy2
            )
            gx, gy = sobel_gradients(patch)
            pwin = patch[:, 1:-1, 1:-1]
            a = np.einsum("nij,nij->n", gx, gx)
            b = np.einsum("nij,nij->n", gx, gy)
            c = np.einsum("nij,nij->n", gy, gy)
            det = a * c - b * b
            ill = (min_eigenvalue(a, b, c) / win**2 < params.min_eigen_threshold) | (det <= 0.0)
            if level == 0:
                # Conditioning is judged at full resolution; coarser
                # levels may legitimately blur the structure away, in
                # which case they simply contribute no refinement.
                status[act[ill]] = _ILL
                act0, pwin0 = act, pwin
            # The per-point arrays, cut together whenever a point leaves.
            rows = _cut(~ill, (act, gx, gy, pwin, a, b, c, det, flow[act]))
            for _ in range(params.max_iterations):
                act = rows[0]
                nx = pl[act, 0] + flow[act, 0]
                ny = pl[act, 1] + flow[act, 1]
                keep = _inside(nx, ny, wl, hl, r)
                status[act[~keep]] = _OOB
                act, gx, gy, pwin, a, b, c, det, entry = rows = _cut(keep, rows)
                if not act.size:
                    break
                nx, ny = nx[keep], ny[keep]
                diff = pwin - bilinear_many(img_n, nx[:, None, None] + ox, ny[:, None, None] + oy)
                ex = np.einsum("nij,nij->n", gx, diff)
                ey = np.einsum("nij,nij->n", gy, diff)
                dx = (c * ex - b * ey) / det
                dy = (a * ey - b * ex) / det
                flow[act, 0] += dx
                flow[act, 1] += dy
                div = np.hypot(flow[act, 0] - entry[:, 0], flow[act, 1] - entry[:, 1]) > win
                status[act[div]] = _DIV
                rows = _cut(~div & ~(np.hypot(dx, dy) < params.epsilon), rows)

        if level > 0:
            flow[status == _TRACKED] *= 2.0

    # Final checks at level 0: border margin, then residual against the
    # level-0 windows (every point still tracked entered level 0).
    final = pts + flow
    status[(status == _TRACKED) & ~params.fits(*final.T, w0, h0)] = _OOB
    ok = status[act0] == _TRACKED
    if ok.any():
        act = act0[ok]
        nwin = bilinear_many(
            next_[0],
            (pts[act, 0][:, None, None] + ox) + flow[act, 0][:, None, None],
            (pts[act, 1][:, None, None] + oy) + flow[act, 1][:, None, None],
        )
        residual[act] = np.abs(pwin0[ok] - nwin).mean(axis=(1, 2))
        status[act[residual[act] > params.residual_cap]] = _RES

    kinds = tuple(FlowStatus)
    return [
        FlowResult(point=(x, y), status=kinds[s], residual=e)
        for (x, y), s, e in zip(final.tolist(), status.tolist(), residual.tolist())
    ]
