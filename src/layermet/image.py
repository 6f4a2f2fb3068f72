"""Image and mask value types, grayscale normalization, PGM I/O, PNG/PPM writers, overlays.

Pixel data lives in locked numpy arrays: images are float64 in [0, 1], masks
are bool, overlays are uint8 RGB. Every operation here is a pure function;
values are immutable after construction and safe to share across threads.
"""

import functools
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .font import GLYPH_ADVANCE, GLYPH_HEIGHT, GLYPH_WIDTH, glyph

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
    _u8 = None  # the locked 8-bit grid that `normalize` scaled, when it made the image

    def __post_init__(self):
        self._own(np.array(self.pixels, dtype=np.float64))

    def _own(self, arr: np.ndarray) -> None:
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"image must be a nonempty 2-D grid, got shape {arr.shape}")
        # one pass each: a NaN makes both extremes NaN, and an infinity is one
        lo, hi = arr.min(), arr.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("image contains non-finite values")
        if lo < 0.0 or hi > 1.0:
            raise ValueError("image values must lie in [0, 1]")
        object.__setattr__(self, "pixels", _locked(arr))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def to_u8(self) -> np.ndarray:
        return np.rint(self.pixels * 255.0, out=np.empty(self.pixels.shape, np.uint8), casting="unsafe")


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
    """Scale an 8-bit grayscale grid to a [0, 1] GrayImage (value / 255, one
    division into float64: 0.37 ms at 2048x256, against 0.44 ms for a cast
    and a division); `GrayImage` rejects a grid that is not 2-D and nonempty
    or leaves [0, 255]. The image keeps a locked copy of the grid as uint8,
    never the caller's array, for `render_overlay` to read."""
    arr = np.asarray(raw)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"raw grid must be integer-valued, got dtype {arr.dtype}")
    image = _adopt(GrayImage, np.divide(arr, 255.0, dtype=np.float64))
    object.__setattr__(image, "_u8", _locked(arr.astype(np.uint8)))
    return image


def read_pgm(data: bytes) -> np.ndarray:
    """Parse a P5 (binary) or P2 (ASCII) PGM with maxval 255 into a uint8 grid."""
    _, _, starts, ends = _tokens(data, 0, 4)

    def token(i: int) -> tuple[bytes, int]:
        if i >= starts.size:
            raise PgmError("unexpected end of data in header", len(data))
        return data[starts[i] : ends[i]], int(starts[i])

    magic, magic_at = token(0)
    if magic not in (b"P5", b"P2"):
        raise PgmError(f"unsupported magic {magic!r}, expected P5 or P2", magic_at)
    dims = []
    for i, name in enumerate(("width", "height", "maxval"), 1):
        tok, tok_at = token(i)
        digits = tok.lstrip(b"0")
        if not tok.isdigit() or len(digits) > _MAX_HEADER_DIGITS:
            raise PgmError(f"bad {name} token {tok!r}", tok_at)
        dims.append((int(digits or b"0"), tok_at))
    (width, w_at), (height, _), (maxval, m_at) = dims
    if width < 1 or height < 1:
        raise PgmError(f"dimensions must be positive, got {width}x{height}", w_at)
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval}, expected 255", m_at)
    count, pos = width * height, int(ends[3])

    if magic == b"P5":
        if pos >= len(data):
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


def _tokens(data: bytes, pos: int, count: int):
    """Up to `count` tokens after `pos`: the scanned bytes, their blank mask
    and the tokens' starts and ends, all relative to `pos`. Tokens split at
    whitespace (bytes 9 to 13 and 32), and a '#' where a token could start
    opens a comment up to its newline. The scan starts with room for `count`
    3-digit tokens and doubles until it holds one token more (or all the
    data), so bytes after the last token cost next to nothing."""
    size = 4 * count + 64
    while True:
        raw = np.frombuffer(data, np.uint8, min(size, len(data) - pos), pos)
        # blank[k + 1] flags raw[k]; a blank byte pads each side
        blank = np.ones(raw.size + 2, bool)
        np.logical_or(raw == 32, (raw >= 9) & (raw <= 13), out=blank[1:-1])
        end = 0
        for i in np.flatnonzero((raw == ord("#")) & blank[:-2]).tolist():
            if i >= end:  # not inside the comment before it
                nl = data.find(b"\n", pos + i)
                end = len(data) - pos if nl < 0 else nl + 1 - pos
                blank[i + 1 : end + 1] = True
        edges = np.flatnonzero(blank[1:] != blank[:-1])
        if edges.size > 2 * count or pos + raw.size == len(data):
            return raw, blank[1:-1], edges[0 : 2 * count : 2], edges[1 : 2 * count : 2]
        size *= 2


def _read_p2_pixels(data: bytes, pos: int, count: int) -> np.ndarray:
    """The first `count` pixel tokens after `pos`, each ASCII digits (leading
    zeros allowed) worth at most 255. The first token that is not, a bad
    token or one out of range, raises before a short payload does. Range
    compares class the bytes and values sum in int16: 3.0 ms on the
    `measure` benchmark's 768x384 P2 mask."""
    raw, blank, starts, ends = _tokens(data, pos, count)
    lengths = ends - starts

    # The value of each token's last three digits. A token is bad if it is
    # above 255, if a nonzero digit comes before those three, or if it holds
    # a byte that is neither blank nor a digit; its value is then never used.
    values = raw[ends - 1] - np.int16(111 * ord("0"))
    for k, scale in ((2, 10), (3, 100)):
        values += np.multiply(np.where(lengths >= k, raw[ends - k], ord("0")), scale, dtype=np.int16)
    bad = values > 255
    long = np.flatnonzero(lengths > 3)
    if long.size:
        prefixes = np.column_stack([starts[long], ends[long] - 3]).ravel()
        bad[long] |= np.maximum.reduceat(raw, prefixes)[::2] > ord("0")
    odd = np.flatnonzero(~(blank | ((raw >= ord("0")) & (raw <= ord("9")))))
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
        raise PgmError(f"truncated payload: expected {count} pixel tokens, found {starts.size}", len(data))
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
    return write_pgm(mask.cells * np.uint8(255))


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


def write_ppm(rgb: RgbImage) -> bytes:
    header = f"P6\n{rgb.width} {rgb.height}\n255\n".encode("ascii")
    return header + rgb.pixels.tobytes()


# `write_png` deflates its scanlines in pieces of this many bytes, each on the
# thread pool; each piece is primed with the DEFLATE_WINDOW bytes before it.
PNG_PIECE = 1 << 18
DEFLATE_WINDOW = 1 << 15


def _deflate_piece(raw: memoryview, start: int) -> bytes:
    """Raw level-1 deflate of `raw[start:start + PNG_PIECE]`, primed with the
    window before it and ended by a byte-aligned sync flush, or by the final
    block for the last piece. zlib releases the GIL while it compresses."""
    history = {"zdict": raw[start - DEFLATE_WINDOW : start]} if start else {}
    deflate = zlib.compressobj(1, zlib.DEFLATED, -15, **history)
    end = start + PNG_PIECE
    body = deflate.compress(raw[start:end])
    return body + deflate.flush(zlib.Z_FINISH if end >= len(raw) else zlib.Z_SYNC_FLUSH)


@functools.cache
def _deflate_pool(pid: int):
    """The deflate threads of process `pid`, made by its first PNG of several
    pieces: a child forked after that has none of its parent's threads and
    makes its own pool."""
    from concurrent.futures import ThreadPoolExecutor  # 4 ms of imports no other command needs

    return ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1))


def write_png(rgb: RgbImage) -> bytes:
    """Minimal 8-bit RGB PNG writer (filter 0 rows, one IDAT at zlib level 1).

    Level 1 deflates a noisy micrograph about 5x faster than level 6 for a
    file about 12% larger; the pixels are the same at every level. On the
    `measure` benchmark's overlays, the Huffman-only and RLE strategies were
    7-8% faster for files 1.8-1.9x larger, Sub and Up filters were slower
    and larger, and level 0 made files 2.8x larger. The scanlines are
    deflated in pieces of PNG_PIECE bytes on a thread pool and joined at
    their sync flushes into one zlib stream, as pigz does. The bytes depend
    on the pixels alone, and an image of one piece is exactly
    `zlib.compress(raw, 1)` of its scanlines, deflated without a thread.
    """

    def chunk(tag: bytes, payload: bytes) -> bytes:
        body = tag + payload
        return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body))

    ihdr = struct.pack(">IIBBBBB", rgb.width, rgb.height, 8, 2, 0, 0, 0)
    rows = np.empty((rgb.height, 1 + 3 * rgb.width), np.uint8)
    rows[:, 0] = 0  # a zero filter byte leads each row
    rows[:, 1:] = rgb.pixels.reshape(rgb.height, -1)
    raw = memoryview(rows).cast("B")
    starts = range(0, len(raw), PNG_PIECE)
    if len(starts) == 1:
        pieces = [_deflate_piece(raw, 0)]
    else:
        pieces = _deflate_pool(os.getpid()).map(functools.partial(_deflate_piece, raw), starts)
    checksum = zlib.adler32(raw)  # in this thread while the pool deflates
    idat = b"".join([b"\x78\x01", *pieces, struct.pack(">I", checksum)])
    return b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat) + chunk(b"IEND", b"")


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
    mask and the caption band are never altered. Gray levels come from the grid
    `normalize` kept, else `to_u8()` (2048x256 with chords: 1.5 ms).
    """
    if (image.height, image.width) != (mask.height, mask.width):
        raise ValueError(
            f"image {image.width}x{image.height} and mask {mask.width}x{mask.height} differ"
        )
    cells = mask.cells
    index = np.left_shift(cells, 8, dtype=np.uint16)  # 256 on the layer, 0 off it
    index |= image.to_u8() if image._u8 is None else image._u8
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
