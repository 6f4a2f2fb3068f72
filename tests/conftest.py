"""Shared fixtures and independent oracles for the test suite."""

import math
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import settings
from numpy.lib.stride_tricks import sliding_window_view

from layermet.font import GLYPH_ADVANCE, GLYPH_WIDTH, glyph
from layermet.image import (
    _WHITESPACE,
    CAPTION_BAND,
    MAX_OVERLAY_LINES,
    TINT_ALPHA,
    _TINT_RGB,
    BinaryMask,
    GrayImage,
    PgmError,
    _bresenham,
    _next_token,
)
from layermet.nnet.layers import BN_EPS, BN_MOMENTUM
from layermet.postprocess import LabeledRegions, RegionStats
from layermet.synth import CURVE_OVERSAMPLE, SynthSpec, centerline
from layermet.measure import (
    MIN_SAMPLES,
    BoundaryColumns,
    InsufficientCoverageError,
    MidlineFit,
)

settings.register_profile("suite", deadline=None, max_examples=40, derandomize=True)
settings.load_profile("suite")


def band_mask(width: int, top: int, bottom: int, height: int | None = None) -> BinaryMask:
    """Axis-aligned band occupying rows top..bottom over all columns."""
    h = height if height is not None else bottom + top + 10
    cells = np.zeros((h, width), dtype=bool)
    cells[top : bottom + 1, :] = True
    return BinaryMask(cells)


def flood_components(cells: np.ndarray) -> list[set[tuple[int, int]]]:
    """Brute-force 8-connected BFS flood fill; the labeling oracle. Returns
    pixel sets in raster discovery order."""
    steps = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)]
    h, w = cells.shape
    seen = np.zeros_like(cells, dtype=bool)
    regions = []
    for y in range(h):
        for x in range(w):
            if not cells[y, x] or seen[y, x]:
                continue
            queue = [(y, x)]
            seen[y, x] = True
            pixels = set()
            while queue:
                cy, cx = queue.pop()
                pixels.add((cy, cx))
                for dy, dx in steps:
                    ny, nx = cy + dy, cx + dx
                    if 0 <= ny < h and 0 <= nx < w and cells[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        queue.append((ny, nx))
            regions.append(pixels)
    return regions


def spiral_cells(n: int) -> np.ndarray:
    """A one-pixel path winding inward with a one-pixel gap between turns."""
    cells = np.zeros((n, n), dtype=bool)
    y, x, dy, dx = 0, 0, 0, 1
    for _ in range(n * n):
        cells[y, x] = True
        ny, nx = y + dy, x + dx
        ahead = 0 <= ny < n and 0 <= nx < n and not cells[ny, nx]
        beyond = 0 <= ny + dy < n and 0 <= nx + dx < n and cells[ny + dy, nx + dx]
        if not ahead or beyond:
            dy, dx = dx, -dy
            ny, nx = y + dy, x + dx
            if not (0 <= ny < n and 0 <= nx < n) or cells[ny, nx] or cells[ny + dy, nx + dx]:
                break
        y, x = ny, nx
    return cells


def _find(parent: list[int], i: int) -> int:
    root = i
    while parent[root] != root:
        root = parent[root]
    while parent[i] != root:
        parent[i], i = root, parent[i]
    return root


def _union(parent: list[int], a: int, b: int) -> None:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[max(ra, rb)] = min(ra, rb)


def _row_runs(row: np.ndarray) -> list[tuple[int, int]]:
    """Half-open [start, end) runs of True in a boolean row."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], row.astype(np.int8), [0]))))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def reference_label_components(mask: BinaryMask) -> LabeledRegions:
    """`postprocess.label_components` as it was before it became whole-array
    passes: per-row runs merged by a list-based union-find, one run at a time."""
    cells = mask.cells
    height, width = cells.shape

    parent = [0]  # provisional labels start at 1
    all_runs: list[tuple[int, int, int, int]] = []  # (y, start, end, provisional)
    prev: list[tuple[int, int, int]] = []
    for y in range(height):
        cur: list[tuple[int, int, int]] = []
        j = 0
        for start, end in _row_runs(cells[y]):
            label = 0
            # skip previous-row runs ending left of this run's neighborhood
            while j < len(prev) and prev[j][1] < start:
                j += 1
            k = j
            while k < len(prev) and prev[k][0] <= end:
                if label == 0:
                    label = prev[k][2]
                else:
                    _union(parent, label, prev[k][2])
                k += 1
            if label == 0:
                label = len(parent)
                parent.append(label)
            cur.append((start, end, label))
            all_runs.append((y, start, end, label))
        prev = cur

    labels = np.zeros((height, width), dtype=np.int32)
    remap: dict[int, int] = {}
    for y, start, end, provisional in all_runs:
        root = _find(parent, provisional)
        final = remap.setdefault(root, len(remap) + 1)
        labels[y, start:end] = final

    areas = np.bincount(labels.ravel())[1:].tolist()
    return LabeledRegions(labels, tuple(RegionStats(label, area) for label, area in enumerate(areas, start=1)))


def reference_read_pgm(data: bytes) -> np.ndarray:
    """`image.read_pgm` one token at a time: one `_next_token` per pixel, and
    every number matched as ASCII digits, leading zeros allowed (at most 18
    significant digits in the header), with no sign or underscore."""
    magic, magic_at, pos = _next_token(data, 0)
    if magic not in (b"P5", b"P2"):
        raise PgmError(f"unsupported magic {magic!r}, expected P5 or P2", magic_at)
    dims = []
    for name in ("width", "height", "maxval"):
        tok, tok_at, pos = _next_token(data, pos)
        m = re.fullmatch(rb"0*([0-9]{1,18})", tok)
        if m is None:
            raise PgmError(f"bad {name} token {tok!r}", tok_at)
        dims.append((int(m[1]), tok_at))
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

    if len(data) - pos < 2 * count:
        raise PgmError(
            f"truncated payload: {count} pixel tokens need at least {2 * count} bytes, "
            f"found {len(data) - pos}",
            len(data),
        )
    values = np.empty(count, dtype=np.uint8)
    for i in range(count):
        tok, tok_at, pos = _next_token(data, pos)
        m = re.fullmatch(rb"0*([0-9]+)", tok)
        if m is None:
            raise PgmError(f"bad pixel token {tok!r}", tok_at)
        if len(m[1]) > 3 or int(m[1]) > 255:
            raise PgmError(f"pixel value {m[1].decode()} out of range", tok_at)
        values[i] = int(m[1])
    return values.reshape(height, width)


def _first_hit(px, py, ax, ay, nx, ny, side):
    """Closest intersection of the line anchor + s*normal with a polyline.

    `side` is -1 for hits at s <= 0 (toward the top boundary) and +1 for
    s >= 0. Returns (point, s) or None.
    """
    sx, sy = np.diff(px), np.diff(py)
    rx, ry = px[:-1] - ax, py[:-1] - ay
    det = sx * ny - sy * nx
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (sx * ry - sy * rx) / det
        u = (nx * ry - ny * rx) / det
    ok = (np.abs(det) > 1e-12) & (u >= 0.0) & (u <= 1.0)
    if side < 0:
        ok &= s <= 1e-9
    else:
        ok &= s >= -1e-9
    if not ok.any():
        return None
    if side > 0:
        s_hit = float(np.where(ok, s, np.inf).min())
    else:
        s_hit = float(np.where(ok, s, -np.inf).max())
    return (ax + s_hit * nx, ay + s_hit * ny), s_hit


def reference_orthogonal_samples(bounds: BoundaryColumns, fit: MidlineFit):
    """Per-anchor loop that `measure.orthogonal_samples` must reproduce exactly.

    Each interior anchor's ray is intersected with both boundary polylines on
    its own; the steep-slope check is left to the code under test. Returns
    the (n, 2) anchor, upper and lower hit arrays and the (n,) lengths.
    """
    cols = bounds.columns.astype(np.float64)
    top_y = bounds.top - 0.5
    bot_y = bounds.bottom + 0.5
    mids = (bounds.top + bounds.bottom) / 2.0
    nx, ny = fit.normal
    guard = int(math.ceil(float(np.median(bounds.bottom - bounds.top + 1.0))))
    anchor, upper, lower, length = [], [], [], []
    for i in range(cols.size):
        x = cols[i]
        if x - cols[0] < guard or cols[-1] - x < guard:
            continue
        up = _first_hit(cols, top_y, x, mids[i], nx, ny, side=-1)
        dn = _first_hit(cols, bot_y, x, mids[i], nx, ny, side=+1)
        if up is None or dn is None:
            continue
        (ux, uy), _ = up
        (lx, ly), _ = dn
        anchor.append((float(x), float(mids[i])))
        upper.append((ux, uy))
        lower.append((lx, ly))
        length.append(math.hypot(lx - ux, ly - uy))
    if len(length) < MIN_SAMPLES:
        raise InsufficientCoverageError(f"only {len(length)} perpendicular samples")
    return np.array(anchor), np.array(upper), np.array(lower), np.array(length)


def reference_overlay_chords(report, cells: np.ndarray) -> tuple[list, set]:
    """Chords `render_overlay` should draw: min(20, n) evenly spaced picks as
    rounded (x0, y0, x1, y1) endpoints, and the set of (y, x) pixels of
    their lines that fall inside the mask."""
    n = report.n
    m = min(20, n)
    picks = [round(k * (n - 1) / max(m - 1, 1)) for k in range(m)]
    ends = []
    for i in picks:
        (ux, uy), (lx, ly) = report.upper[i].tolist(), report.lower[i].tolist()
        ends.append((round(ux), round(uy), round(lx), round(ly)))
    h, w = cells.shape
    pixels = set()
    for x0, y0, x1, y1 in ends:
        for x, y in _bresenham(x0, y0, x1, y1):
            if 0 <= x < w and 0 <= y < h and cells[y, x]:
                pixels.add((y, x))
    return ends, pixels


def reference_render_overlay(image: GrayImage, mask: BinaryMask, report=None, caption: str = "") -> np.ndarray:
    """`image.render_overlay` as it was before its tint became a 256-entry
    table: a float64 RGB copy of the frame, three boolean gathers and one
    `rint` over the whole frame. Returns the uint8 (h, w, 3) pixels."""
    gray = image.to_u8().astype(np.float64)
    rgb = np.repeat(gray[:, :, None], 3, axis=2)
    tinted = (1.0 - TINT_ALPHA) * gray + TINT_ALPHA * 255.0
    shaded = (1.0 - TINT_ALPHA) * gray
    cells = mask.cells
    rgb[cells, 0] = shaded[cells]
    rgb[cells, 1] = tinted[cells]
    rgb[cells, 2] = shaded[cells]
    out = np.rint(rgb).astype(np.uint8)

    if report is not None:
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
    return out


def reference_tint(gray: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """`render_overlay`'s tinted frame as it was before one gather built it:
    the uint8 gray levels repeated to RGB, then each masked pixel's tinted
    level gathered through the mask and scattered back."""
    out = np.repeat(gray[:, :, None], 3, axis=2)
    out[cells] = _TINT_RGB[gray[cells]]
    return out


def png_chunks(data: bytes) -> list[tuple[bytes, bytes]]:
    """(tag, payload) of each chunk of a PNG, read with `struct`; asserts the
    signature, every length and every CRC."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(data):
        length, tag = struct.unpack(">I4s", data[pos : pos + 8])
        payload = data[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        assert len(payload) == length and crc == zlib.crc32(tag + payload), f"bad {tag!r} chunk"
        chunks.append((tag, payload))
        pos += 12 + length
    return chunks


def decode_png(data: bytes) -> np.ndarray:
    """The (height, width, 3) uint8 pixels of an 8-bit RGB, non-interlaced
    PNG whose rows all use filter 0, decoded with plain `zlib`."""
    chunks = png_chunks(data)
    (tag, ihdr), last = chunks[0], chunks[-1]
    width, height, depth, color, _, _, interlace = struct.unpack(">IIBBBBB", ihdr)
    assert tag == b"IHDR" and (depth, color, interlace) == (8, 2, 0) and last == (b"IEND", b"")
    raw = zlib.decompress(b"".join(payload for tag, payload in chunks if tag == b"IDAT"))
    rows = np.frombuffer(raw, np.uint8).reshape(height, 1 + 3 * width)
    assert not rows[:, 0].any(), "a row uses a filter other than 0"
    return rows[:, 1:].reshape(height, width, 3)


def _row_major_im2col(x: np.ndarray, k: int) -> np.ndarray:
    """Patch matrix (N*H*W, C*k*k) of same-padded k x k windows."""
    n, c, h, w = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    win = sliding_window_view(xp, (k, k), axis=(2, 3))  # (N,C,H,W,k,k) view
    return np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * h * w, c * k * k)


def reference_im2col(x: np.ndarray, k: int) -> np.ndarray:
    """`layers._im2col` as it was before it copied one strided view of a
    padded input: k*k slice copies, each writing its own zero border."""
    n, c, h, w = x.shape
    p = k // 2
    xt = x.transpose(1, 0, 2, 3)
    col = np.empty((c, k, k, n, h, w))
    for i in range(k):
        # output row r reads input row r + di, which exists for r in [top, bottom)
        di = i - p
        top, bottom = min(max(-di, 0), h), max(min(h - di, h), 0)
        for j in range(k):
            dj = j - p
            left, right = min(max(-dj, 0), w), max(min(w - dj, w), 0)
            window = col[:, i, j]  # (C, N, H, W)
            window[:, :, :top] = 0.0
            window[:, :, bottom:] = 0.0
            window[:, :, top:bottom, :left] = 0.0
            window[:, :, top:bottom, right:] = 0.0
            window[:, :, top:bottom, left:right] = xt[:, :, top + di : bottom + di, left + dj : right + dj]
    return col.reshape(c * k * k, n * h * w)


def reference_conv2d(weight: np.ndarray, bias: np.ndarray, x: np.ndarray, dy: np.ndarray):
    """Row-major im2col convolution that `layers.Conv2d` must reproduce.

    Returns (output, dweight, dbias, input gradient) for a same-padded
    stride-1 convolution of `x` and output gradient `dy`.
    """
    out_ch, in_ch, k, _ = weight.shape
    n, _, h, w = x.shape
    col = _row_major_im2col(x, k)
    y = col @ weight.reshape(out_ch, -1).T
    y = np.ascontiguousarray(y.reshape(n, h, w, out_ch).transpose(0, 3, 1, 2))
    y = y + bias[None, :, None, None]
    dy_mat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(n * h * w, out_ch)
    dbias = dy_mat.sum(axis=0)
    dweight = (dy_mat.T @ col).reshape(weight.shape)
    w_rev = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    dx = _row_major_im2col(dy, k) @ w_rev.reshape(in_ch, -1).T
    dx = np.ascontiguousarray(dx.reshape(n, h, w, in_ch).transpose(0, 3, 1, 2))
    return y, dweight, dbias, dx


def reference_relu(x: np.ndarray, dy: np.ndarray):
    """`layers.ReLU` as it was before it used `np.fmax`: (output, input gradient)."""
    mask = x > 0
    return np.where(mask, x, 0.0), np.where(mask, dy, 0.0)


def reference_maxpool2(x: np.ndarray, dy: np.ndarray):
    """`layers.MaxPool2` as it was before it compared strided views: an
    `argmax` over each block laid out by a transpose copy. Returns (output,
    input gradient)."""
    n, c, h, w = x.shape
    blocks = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
    idx = blocks.argmax(axis=-1)
    y = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]
    out = np.zeros((n, c, h // 2, w // 2, 4))
    np.put_along_axis(out, idx[..., None], dy[..., None], axis=-1)
    dx = out.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
    return y, dx


def reference_upsample2(x: np.ndarray, dy: np.ndarray):
    """`layers.Upsample2` as it was before its backward added strided views:
    (output, input gradient)."""
    n, c, h, w = dy.shape
    return x.repeat(2, axis=2).repeat(2, axis=3), dy.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))


def reference_batchnorm2d(x, dy, gamma, beta, running_mean, running_var):
    """`layers.BatchNorm2d` as it was before its in-place passes, on one
    train-mode forward and backward and then one inference forward. Returns
    the train output, input gradient, dgamma, dbeta, the updated running mean
    and variance, and the inference output."""
    momentum, eps = BN_MOMENTUM, BN_EPS
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    running_mean = (1 - momentum) * running_mean + momentum * mean
    running_var = (1 - momentum) * running_var + momentum * var
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None, None]) * ivar[None, :, None, None]
    y = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    m = x.shape[0] * x.shape[2] * x.shape[3]
    dgamma = (dy * xhat).sum(axis=(0, 2, 3))
    dbeta = dy.sum(axis=(0, 2, 3))
    dxhat = dy * gamma[None, :, None, None]
    sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
    dx = (ivar[None, :, None, None] / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
    r_ivar = 1.0 / np.sqrt(running_var + eps)
    r_xhat = (x - running_mean[None, :, None, None]) * r_ivar[None, :, None, None]
    y_infer = gamma[None, :, None, None] * r_xhat + beta[None, :, None, None]
    return y, dx, dgamma, dbeta, running_mean, running_var, y_infer


def reference_box_blur(a: np.ndarray, radius: int) -> np.ndarray:
    """The box blur as it was before `synth._box_blur` became two slice passes."""
    if radius <= 0:
        return a
    k = 2 * radius + 1
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.pad(a, pad, mode="edge")
        csum = np.cumsum(padded, axis=axis)
        zero = np.zeros_like(np.take(csum, [0], axis=axis))
        csum = np.concatenate([zero, csum], axis=axis)
        hi = np.take(csum, np.arange(k, csum.shape[axis]), axis=axis)
        lo = np.take(csum, np.arange(0, csum.shape[axis] - k), axis=axis)
        a = (hi - lo) / k
    return a


def reference_band_mask(spec: SynthSpec, block_elements: int = 2**21) -> np.ndarray:
    """The band mask as it was before `synth._band_mask` kept a running
    minimum: (columns, rows, curve samples) distance blocks of at most
    `block_elements` elements, reduced with `min`."""
    w, h = spec.width, spec.height
    cx = np.arange(w) + 0.5
    cy = np.arange(h) + 0.5
    u = np.arange(CURVE_OVERSAMPLE * w + 1) / CURVE_OVERSAMPLE
    cu = centerline(spec, u)

    slope_bound = abs(math.tan(math.radians(spec.tilt_deg))) + spec.curvature * 2.0 * np.pi / w
    sin_bound = slope_bound / math.hypot(1.0, slope_bound)
    reach = int(math.ceil((spec.thickness / 2.0 + 1.5) * sin_bound)) + 1
    offsets = np.arange(-CURVE_OVERSAMPLE * reach, CURVE_OVERSAMPLE * reach + 1)
    centers = np.rint(CURVE_OVERSAMPLE * cx).astype(int)
    idx = np.clip(centers[:, None] + offsets[None, :], 0, CURVE_OVERSAMPLE * w)

    du = u[idx] - cx[:, None]  # (w, k)
    dv = cu[idx]  # (w, k)
    mask = np.empty((h, w), dtype=bool)
    step = max(1, block_elements // (h * offsets.size))
    for lo in range(0, w, step):
        block = slice(lo, lo + step)
        d2 = du[block, None, :] ** 2 + (dv[block, None, :] - cy[None, :, None]) ** 2
        mask[:, block] = (d2.min(axis=2) <= (spec.thickness / 2.0) ** 2).T
    return mask


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
