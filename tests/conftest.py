"""Shared fixtures and independent oracles for the test suite."""

import math

import numpy as np
import pytest
from hypothesis import settings
from numpy.lib.stride_tricks import sliding_window_view

from layermet.image import BinaryMask
from layermet.measure import (
    MIN_SAMPLES,
    BoundaryColumns,
    InsufficientCoverageError,
    MidlineFit,
    ThicknessSample,
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


def reference_orthogonal_samples(bounds: BoundaryColumns, fit: MidlineFit) -> list[ThicknessSample]:
    """Per-anchor loop that `measure.orthogonal_samples` must reproduce exactly.

    Each interior anchor's ray is intersected with both boundary polylines on
    its own; the steep-slope check is left to the code under test.
    """
    cols = bounds.columns.astype(np.float64)
    top_y = bounds.top - 0.5
    bot_y = bounds.bottom + 0.5
    mids = (bounds.top + bounds.bottom) / 2.0
    nx, ny = fit.normal
    guard = int(math.ceil(float(np.median(bounds.bottom - bounds.top + 1.0))))
    samples = []
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
        samples.append(
            ThicknessSample(
                anchor=(float(x), float(mids[i])),
                upper_hit=(ux, uy),
                lower_hit=(lx, ly),
                length=math.hypot(lx - ux, ly - uy),
            )
        )
    if len(samples) < MIN_SAMPLES:
        raise InsufficientCoverageError(f"only {len(samples)} perpendicular samples")
    return samples


def _row_major_im2col(x: np.ndarray, k: int) -> np.ndarray:
    """Patch matrix (N*H*W, C*k*k) of same-padded k x k windows."""
    n, c, h, w = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    win = sliding_window_view(xp, (k, k), axis=(2, 3))  # (N,C,H,W,k,k) view
    return np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * h * w, c * k * k)


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
