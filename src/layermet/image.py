"""Image and mask value types, grayscale normalization, PGM I/O, overlay rendering.

Pixel data lives in locked numpy arrays: images are float64 in [0, 1], masks
are bool, overlays are uint8 RGB. Every operation here is a pure function;
values are immutable after construction and safe to share across threads.
"""

from dataclasses import dataclass

import numpy as np

from .font import GLYPH_ADVANCE, GLYPH_HEIGHT, GLYPH_WIDTH, glyph

_WHITESPACE = b" \t\n\r\x0b\x0c"

# Overlay constants: tint alpha on the layer, caption band height in rows.
TINT_ALPHA = 0.4
CAPTION_BAND = GLYPH_HEIGHT + 2
MAX_OVERLAY_LINES = 20


class PgmError(ValueError):
    """Malformed PGM data; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class MaskValueError(ValueError):
    """Mask PGM holds a value other than 0 or 255; `index` names the pixel."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _locked(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Grayscale raster, row-major float64 intensities in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.array(self.pixels, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"image must be a nonempty 2-D grid, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("image contains non-finite values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("image values must lie in [0, 1]")
        object.__setattr__(self, "pixels", _locked(arr))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def to_u8(self) -> np.ndarray:
        return np.rint(self.pixels * 255.0).astype(np.uint8)


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Boolean raster; True marks the layer."""

    cells: np.ndarray

    def __post_init__(self):
        arr = np.array(self.cells)
        if arr.dtype != np.bool_:
            raise ValueError(f"mask cells must be boolean, got dtype {arr.dtype}")
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"mask must be a nonempty 2-D grid, got shape {arr.shape}")
        object.__setattr__(self, "cells", _locked(arr))

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def area(self) -> int:
        return int(self.cells.sum())


@dataclass(frozen=True, eq=False)
class RgbImage:
    """8-bit RGB raster, shape (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.array(self.pixels)
        if arr.ndim != 3 or arr.shape[2] != 3 or arr.shape[0] * arr.shape[1] == 0:
            raise ValueError(f"RGB image must have shape (h, w, 3), got {arr.shape}")
        if arr.dtype != np.uint8:
            raise ValueError(f"RGB image must be uint8, got {arr.dtype}")
        object.__setattr__(self, "pixels", _locked(arr))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def normalize(raw) -> GrayImage:
    """Scale an 8-bit grayscale grid to a [0, 1] GrayImage (value / 255)."""
    arr = np.asarray(raw)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"raw grid must be a nonempty 2-D grid, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"raw grid must be integer-valued, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() > 255:
        raise ValueError("raw grid values must lie in [0, 255]")
    return GrayImage(arr.astype(np.float64) / 255.0)


def _next_token(data: bytes, pos: int) -> tuple[bytes, int, int]:
    """Next header token, skipping whitespace and '#' comment lines."""
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord("#"):
            nl = data.find(b"\n", pos)
            pos = n if nl < 0 else nl + 1
        else:
            break
    if pos >= n:
        raise PgmError("unexpected end of data in header", pos)
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    return data[start:pos], start, pos


def read_pgm(data: bytes) -> np.ndarray:
    """Parse a P5 (binary) or P2 (ASCII) PGM with maxval 255 into a uint8 grid."""
    magic, magic_at, pos = _next_token(data, 0)
    if magic not in (b"P5", b"P2"):
        raise PgmError(f"unsupported magic {magic!r}, expected P5 or P2", magic_at)
    dims = []
    for name in ("width", "height", "maxval"):
        tok, tok_at, pos = _next_token(data, pos)
        try:
            value = int(tok)
        except ValueError:
            raise PgmError(f"bad {name} token {tok!r}", tok_at) from None
        dims.append((value, tok_at))
    (width, w_at), (height, _), (maxval, m_at) = dims
    if width < 1 or height < 1:
        raise PgmError(f"dimensions must be positive, got {width}x{height}", w_at)
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval}, expected 255", m_at)
    count = width * height

    if magic == b"P5":
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise PgmError("expected single whitespace byte before payload", pos)
        pos += 1
        if len(data) - pos < count:
            raise PgmError(
                f"truncated payload: expected {count} bytes, found {len(data) - pos}",
                len(data),
            )
        return np.frombuffer(data, np.uint8, count, pos).reshape(height, width).copy()

    # Each pixel token needs a separator and a digit: reject before allocating.
    if len(data) - pos < 2 * count:
        raise PgmError(
            f"truncated payload: {count} pixel tokens need at least {2 * count} bytes, "
            f"found {len(data) - pos}",
            len(data),
        )
    values = np.empty(count, dtype=np.uint8)
    for i in range(count):
        tok, tok_at, pos = _next_token(data, pos)
        try:
            v = int(tok)
        except ValueError:
            raise PgmError(f"bad pixel token {tok!r}", tok_at) from None
        if not 0 <= v <= 255:
            raise PgmError(f"pixel value {v} out of range", tok_at)
        values[i] = v
    return values.reshape(height, width)


def write_pgm(grid) -> bytes:
    """Serialize a uint8 grid as binary P5 with maxval 255."""
    arr = np.asarray(grid)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"grid must be a nonempty 2-D grid, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"grid must be uint8, got dtype {arr.dtype}")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    return header + arr.tobytes()


def mask_to_pgm(mask: BinaryMask) -> bytes:
    """Serialize a mask as P5 with True -> 255 and False -> 0."""
    return write_pgm(np.where(mask.cells, 255, 0).astype(np.uint8))


def pgm_to_mask(data: bytes) -> BinaryMask:
    """Parse a {0, 255}-valued PGM into a mask; intermediate grays are errors."""
    grid = read_pgm(data)
    bad = (grid != 0) & (grid != 255)
    if bad.any():
        index = int(np.flatnonzero(bad.ravel())[0])
        raise MaskValueError(
            f"pixel {index} has value {int(grid.ravel()[index])}, expected 0 or 255",
            index,
        )
    return BinaryMask(grid == 255)


def _bresenham(x0: int, y0: int, x1: int, y1: int):
    """Integer line rasterization between two endpoints, inclusive."""
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    x, y = x0, y0
    while True:
        yield x, y
        if x == x1 and y == y1:
            return
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


def render_overlay(image: GrayImage, mask: BinaryMask, report=None, caption: str = "") -> RgbImage:
    """Compose a diagnostic overlay: tinted layer, sampled chords, caption text.

    The grayscale image is replicated to RGB; mask pixels are blended with pure
    green at alpha 0.4; up to 20 measurement chords from `report` are drawn in
    black (clipped to the mask so nothing outside it is touched); a non-empty
    caption fills the top band and renders white 5x7 glyphs. Pixels outside the
    mask and the caption band are never altered.
    """
    if (image.height, image.width) != (mask.height, mask.width):
        raise ValueError(
            f"image {image.width}x{image.height} and mask {mask.width}x{mask.height} differ"
        )
    gray = image.to_u8().astype(np.float64)
    rgb = np.repeat(gray[:, :, None], 3, axis=2)
    tinted = (1.0 - TINT_ALPHA) * gray + TINT_ALPHA * 255.0
    shaded = (1.0 - TINT_ALPHA) * gray
    cells = mask.cells
    rgb[cells, 0] = shaded[cells]
    rgb[cells, 1] = tinted[cells]
    rgb[cells, 2] = shaded[cells]
    out = np.rint(rgb).astype(np.uint8)

    if report is not None and getattr(report, "samples", None):
        samples = report.samples
        picks = np.unique(
            np.rint(np.linspace(0, len(samples) - 1, min(MAX_OVERLAY_LINES, len(samples)))).astype(int)
        )
        h, w = cells.shape
        for i in picks:
            s = samples[i]
            x0, y0 = int(round(s.upper_hit[0])), int(round(s.upper_hit[1]))
            x1, y1 = int(round(s.lower_hit[0])), int(round(s.lower_hit[1]))
            for x, y in _bresenham(x0, y0, x1, y1):
                if 0 <= x < w and 0 <= y < h and cells[y, x]:
                    out[y, x] = 0

    if caption:
        band = min(CAPTION_BAND, image.height)
        out[:band, :, :] = 0
        x = 1
        for ch in caption:
            rows = glyph(ch)
            if x + GLYPH_WIDTH > image.width:
                break
            for gy in range(min(GLYPH_HEIGHT, image.height - 1)):
                for gx in range(GLYPH_WIDTH):
                    if rows[gy][gx] == "1":
                        out[1 + gy, x + gx] = 255
            x += GLYPH_ADVANCE
    return RgbImage(out)
