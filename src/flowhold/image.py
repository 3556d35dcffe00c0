"""Grayscale raster type, binary PGM I/O, sub-pixel sampling, gradients.

Everything downstream (corners, flow, rendering) works on GrayImage:
a float64 raster normalized to [0, 1]. Eight-bit quantization exists
only at the PGM boundary. The Sobel kernel returns the valid region
only; callers that want same-size gradients pad their input first.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GrayImage",
    "PgmError",
    "load_pgm",
    "save_pgm",
    "sobel_gradients",
]

_WHITESPACE = b" \t\n\r\x0b\x0c"
_TOKEN = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|#[^\r\n]*)*([^ \t\n\r\x0b\x0c]*)")


class PgmError(ValueError):
    """Malformed PGM data; the message names the offending field."""


@dataclass(frozen=True)
class GrayImage:
    """Immutable grayscale raster with intensities in [0, 1].

    ``pixels`` is indexed [row, col], i.e. [y, x]; shape is (height, width).
    The constructor takes ownership of the array and freezes it.
    """

    pixels: np.ndarray

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"pixels must be a non-empty 2-d array, got shape {px.shape}")
        # min and max return NaN if any pixel is NaN, +-inf if one is infinite.
        lo, hi = float(px.min()), float(px.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("pixel intensities must be finite")
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"pixel intensities must lie in [0, 1], got range [{lo}, {hi}]")
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @classmethod
    def full(cls, width: int, height: int, value: float) -> "GrayImage":
        return cls(np.full((height, width), value, dtype=np.float64))

    @classmethod
    def _trusted(cls, px: np.ndarray) -> "GrayImage":
        # For frames the program builds itself: the caller guarantees a
        # non-empty 2-d float64 array in [0, 1], so the checks are skipped.
        img = object.__new__(cls)
        px.setflags(write=False)
        object.__setattr__(img, "pixels", px)
        return img


def _next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    # Skips whitespace and '#' comments up to the line's end, then reads one token.
    m = _TOKEN.match(buf, pos)
    return m[1], m.end()


def _int_token(buf: bytes, pos: int, field: str) -> tuple[int, int]:
    tok, pos = _next_token(buf, pos)
    if not tok:
        raise PgmError(f"{field}: missing header field")
    try:
        value = int(tok)
    except ValueError:
        raise PgmError(f"{field}: expected an integer, got {tok!r}") from None
    return value, pos


def load_pgm(data: bytes) -> GrayImage:
    """Parse a binary (P5) PGM byte string into a GrayImage.

    Pixel value v maps to intensity v / maxval; a sample above maxval is
    a PgmError. Header comments starting with '#' are allowed; only
    maxval <= 255 (single-byte payload) is supported.
    """
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmError(f"magic: expected b'P5', got {magic!r}")
    width, pos = _int_token(data, pos, "width")
    if width < 1:
        raise PgmError(f"width: must be positive, got {width}")
    height, pos = _int_token(data, pos, "height")
    if height < 1:
        raise PgmError(f"height: must be positive, got {height}")
    maxval, pos = _int_token(data, pos, "maxval")
    if not 1 <= maxval <= 255:
        raise PgmError(f"maxval: must lie in [1, 255], got {maxval}")
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise PgmError("payload: expected a single whitespace byte after maxval")
    pos += 1
    need = width * height
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise PgmError(f"payload: truncated, expected {need} bytes, got {len(payload)}")
    raw = np.frombuffer(payload, dtype=np.uint8)
    over = np.flatnonzero(raw > maxval)
    if over.size:
        i = int(over[0])
        raise PgmError(f"payload: sample {i} is {raw[i]}, above maxval {maxval}")
    return GrayImage((raw.astype(np.float64) / maxval).reshape(height, width))


def save_pgm(image: GrayImage) -> bytes:
    """Encode as binary PGM with maxval 255 (intensities rounded to 8 bits)."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    body = np.rint(image.pixels * 255.0).astype(np.uint8).tobytes()
    return header + body


def bilinear_many(pixels: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized bilinear sampling. Coordinates must be in bounds already."""
    h, w = pixels.shape
    # Floor and clip in float (whole numbers, exact below 2**53). After the
    # clip the right and lower neighbours lie 1 and w further in the flat
    # image, or 0 further in an image one pixel wide or tall.
    x0 = np.clip(np.floor(xs), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(ys), 0, max(h - 2, 0))
    fx = xs - x0
    fy = ys - y0
    i = (y0 * w + x0).astype(np.int64)
    dx, dy = (1 if w > 1 else 0), (w if h > 1 else 0)
    flat = pixels.ravel()
    gx = 1.0 - fx
    top = flat.take(i) * gx
    top += flat[dx:].take(i) * fx
    bot = flat[dy:].take(i) * gx
    bot += flat[dy + dx :].take(i) * fx
    top *= 1.0 - fy
    top += bot * fy
    return top


def sobel_gradients(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3x3 Sobel derivatives scaled by 1/8 over the last two axes of ``p``.

    Returns (ix, iy) on the valid region only, two pixels smaller than
    ``p`` along each of those axes; pad by edge replication first for
    same-size gradients. The 1/8 normalization makes a unit-slope ramp
    produce gradient 1.0 per pixel.
    """
    if p.shape[-2] < 3 or p.shape[-1] < 3:
        raise ValueError(f"input must be at least 3x3 in its last two axes, got {p.shape}")
    # Separable, one smoothed array alive at a time. Each output sums the
    # 3x3 kernel's terms in the direct form's order, so the bits match.
    s = p[..., :-2, :] + 2.0 * p[..., 1:-1, :] + p[..., 2:, :]
    ix = (s[..., 2:] - s[..., :-2]) / 8.0
    del s
    s = p[..., :-2] + 2.0 * p[..., 1:-1] + p[..., 2:]
    iy = (s[..., 2:, :] - s[..., :-2, :]) / 8.0
    return ix, iy
