"""Image and mask value types, grayscale normalization, PGM I/O, overlay rendering.

Pixel data lives in locked numpy arrays: images are float64 in [0, 1], masks
are bool, overlays are uint8 RGB. Every operation here is a pure function;
values are immutable after construction and safe to share across threads.
"""

from dataclasses import dataclass

import numpy as np

from .font import GLYPH_ADVANCE, GLYPH_HEIGHT, GLYPH_WIDTH, glyph

_WHITESPACE = b" \t\n\r\x0b\x0c"
_IS_WHITESPACE = np.zeros(256, dtype=bool)
_IS_WHITESPACE[list(_WHITESPACE)] = True
_IS_DIGIT = np.zeros(256, dtype=bool)
_IS_DIGIT[ord("0") : ord("9") + 1] = True
_MAX_HEADER_DIGITS = 18  # significant digits; more than any file could need

# Overlay constants: tint alpha on the layer, caption band height in rows.
TINT_ALPHA = 0.4
CAPTION_BAND = GLYPH_HEIGHT + 2
MAX_OVERLAY_LINES = 20

# The tinted RGB of each gray level, rounded as a float64 blend of the
# pixel would be: red and blue shaded, green blended toward 255.
_SHADED = (1.0 - TINT_ALPHA) * np.arange(256.0)
_TINT_RGB = np.rint(np.column_stack([_SHADED, _SHADED + TINT_ALPHA * 255.0, _SHADED])).astype(np.uint8)
# The overlay RGB of gray level g: row g off the layer, row 256 + g on it.
_OVERLAY_RGB = np.concatenate([np.repeat(np.arange(256, dtype=np.uint8)[:, None], 3, axis=1), _TINT_RGB])


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


def _adopt(cls, arr: np.ndarray):
    """A `cls` holding `arr` itself, checked and locked as the constructor
    would but without its copy: for a fresh array of the field's dtype that
    no caller holds. The public constructor copies, so a caller's array is
    never locked or shared."""
    value = object.__new__(cls)
    value._own(arr)
    return value


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Grayscale raster, row-major float64 intensities in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.pixels, dtype=np.float64))

    def _own(self, arr: np.ndarray) -> None:
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
        self._own(np.array(self.pixels))

    def _own(self, arr: np.ndarray) -> None:
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
    """Scale an 8-bit grayscale grid to a [0, 1] GrayImage (value / 255);
    `GrayImage` rejects a grid that is not 2-D and nonempty or leaves [0, 255]."""
    arr = np.asarray(raw)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"raw grid must be integer-valued, got dtype {arr.dtype}")
    return _adopt(GrayImage, arr.astype(np.float64) / 255.0)


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
        digits = tok.lstrip(b"0")
        if not tok.isdigit() or len(digits) > _MAX_HEADER_DIGITS:
            raise PgmError(f"bad {name} token {tok!r}", tok_at)
        dims.append((int(digits or b"0"), tok_at))
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
    return _read_p2_pixels(data, pos, count).reshape(height, width)


def _read_p2_pixels(data: bytes, pos: int, count: int) -> np.ndarray:
    """The first `count` pixel tokens after `pos`, in whole-array passes.

    Tokens split at whitespace, a '#' where a token could start opens a
    comment up to its newline, and a pixel is ASCII digits (leading zeros
    allowed) worth at most 255. The first token that is not, a bad token or
    one out of range, raises before a short payload does.
    The scan starts with room for `count` 3-digit tokens and doubles until it
    holds one token more (or all the data), so bytes after the last pixel
    token cost next to nothing.
    """
    size = 4 * count + 64
    while True:
        raw = np.frombuffer(data, np.uint8, min(size, len(data) - pos), pos)
        blank = _IS_WHITESPACE[raw]  # whitespace, then comments as well
        hashes = np.flatnonzero(raw == ord("#"))
        hashes = hashes[(hashes == 0) | blank[hashes - 1]]
        end = 0
        for i in hashes.tolist():
            if i >= end:  # not inside the comment before it
                nl = data.find(b"\n", pos + i)
                end = len(data) - pos if nl < 0 else nl + 1 - pos
                blank[i:end] = True
        edges = np.flatnonzero(np.diff(blank, prepend=True, append=True))
        if edges.size > 2 * count or pos + raw.size == len(data):
            break
        size *= 2
    starts, ends = edges[0 : 2 * count : 2], edges[1 : 2 * count : 2]
    lengths = ends - starts

    # The value of each token's last three digits. A token is bad if it is
    # above 255, if a nonzero digit comes before those three, or if it holds
    # a byte that is neither blank nor a digit.
    values = np.zeros(starts.size, dtype=np.int64)
    for k, scale in ((1, 1), (2, 10), (3, 100)):
        digit = np.where(lengths >= k, raw[ends - k], ord("0"))
        values += scale * (digit.astype(np.int64) - ord("0"))
    bad = values > 255
    long = np.flatnonzero(lengths > 3)
    if long.size:
        prefixes = np.column_stack([starts[long], ends[long] - 3]).ravel()
        bad[long] |= np.maximum.reduceat(raw, prefixes)[::2] > ord("0")
    odd = np.flatnonzero(~(blank | _IS_DIGIT[raw]))
    if starts.size:
        odd = odd[odd < ends[-1]]
    bad[np.searchsorted(starts, odd, side="right") - 1] = True
    if bad.any():
        t = bad.argmax()
        at = pos + int(starts[t])
        tok = data[at : pos + ends[t]]
        if not tok.isdigit():
            raise PgmError(f"bad pixel token {tok!r}", at)
        raise PgmError(f"pixel value {tok.lstrip(b'0').decode()} out of range", at)
    if starts.size < count:
        raise PgmError("unexpected end of data in header", len(data))
    return values.astype(np.uint8)


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
    cells = mask.cells
    index = np.left_shift(cells, 8, dtype=np.uint16)  # 256 on the layer, 0 off it
    index |= image.to_u8()
    out = _OVERLAY_RGB.take(index, axis=0)

    if report is not None:
        # evenly spaced chord indices, at least 1 apart, so no two coincide
        picks = np.rint(np.linspace(0, report.n - 1, min(MAX_OVERLAY_LINES, report.n))).astype(int)
        ends = np.rint(np.hstack([report.upper[picks], report.lower[picks]])).astype(int)
        h, w = cells.shape
        for x0, y0, x1, y1 in ends.tolist():
            for x, y in _bresenham(x0, y0, x1, y1):
                if 0 <= x < w and 0 <= y < h and cells[y, x]:
                    out[y, x] = 0

    if caption:
        band = min(CAPTION_BAND, image.height)
        out[:band, :, :] = 0
        x = 1
        for ch in caption:
            if x + GLYPH_WIDTH > image.width:
                break
            lit = np.array([[c == "1" for c in row] for row in glyph(ch)])[: image.height - 1]
            out[1 : 1 + len(lit), x : x + GLYPH_WIDTH][lit] = 255
            x += GLYPH_ADVANCE
    return _adopt(RgbImage, out)
