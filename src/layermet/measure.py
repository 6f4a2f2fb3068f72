"""Thickness estimation from a clean single-band mask.

The primary estimator fits a regression line through the per-column midpoints
of the band and measures chords perpendicular to it, intersecting the band's
top and bottom boundary polylines exactly (sub-pixel hits). The legacy
baseline measures three axis-aligned chords at 25/50/75% of the band extent,
which overestimates thickness by 1/cos(tilt) on sloped bands.

Coordinates are column/row indices; the boundary polylines sit half a pixel
outside the extreme mask rows so a flat band of k rows measures exactly k.
"""

import math
from dataclasses import dataclass

import numpy as np

from .image import BinaryMask

MAX_FIT_SLOPE = math.tan(math.radians(60.0))
MIN_SAMPLES = 10
THREE_LINE_POSITIONS = (0.25, 0.5, 0.75)
# anchor x segment pairs per vectorized pass: keeps each float64 temporary at
# 512 kB; 256 anchors x 2047 segments (4 MB each) ran 2-3x slower
BLOCK_PAIRS = 1 << 16


class MeasureError(ValueError):
    """Base class for measurement failures."""


class EmptyMaskError(MeasureError):
    pass


class NonContiguousMaskError(MeasureError):
    """Occupied columns have gaps; the mask was not reduced to one component."""


class DegenerateFitError(MeasureError):
    pass


class SteepLayerError(MeasureError):
    """Band slope exceeds tan(60 deg); the method assumes a mostly horizontal band."""


class InsufficientCoverageError(MeasureError):
    pass


@dataclass(frozen=True, eq=False)
class BoundaryColumns:
    """Per-column extreme mask rows over a contiguous run of occupied columns."""

    columns: np.ndarray  # occupied column indices, ascending and contiguous
    top: np.ndarray  # smallest mask row per column
    bottom: np.ndarray  # largest mask row per column


@dataclass(frozen=True)
class MidlineFit:
    """Least-squares line through the midpoints plus its unit normal."""

    slope: float
    intercept: float
    normal: tuple[float, float]  # unit normal with positive y component
    residual_rms: float


@dataclass(frozen=True)
class ThicknessSample:
    anchor: tuple[float, float]
    upper_hit: tuple[float, float]
    lower_hit: tuple[float, float]
    length: float


@dataclass(frozen=True)
class ThicknessReport:
    method: str  # "orthogonal" | "three_line"
    samples: tuple[ThicknessSample, ...]
    mean: float
    sd: float
    n: int
    scale: float
    mean_scaled: float
    sd_scaled: float


def extract_boundaries(mask: BinaryMask) -> BoundaryColumns:
    """Top and bottom mask rows for every occupied column.

    Columns with interior gaps use the outermost extremes. The occupied
    columns must form one contiguous run; anything else means the mask was
    not post-processed down to a single component.
    """
    cells = mask.cells
    occupied = cells.any(axis=0)
    cols = np.flatnonzero(occupied)
    if cols.size == 0:
        raise EmptyMaskError("mask has no foreground pixels")
    if cols[-1] - cols[0] + 1 != cols.size:
        raise NonContiguousMaskError(
            f"occupied columns have gaps ({cols.size} columns spanning "
            f"{cols[-1] - cols[0] + 1}); run post-processing first"
        )
    sub = cells[:, cols]
    rows = np.arange(cells.shape[0])[:, None]
    top = np.min(np.where(sub, rows, cells.shape[0]), axis=0).astype(np.float64)
    bottom = np.max(np.where(sub, rows, -1), axis=0).astype(np.float64)
    return BoundaryColumns(columns=cols.copy(), top=top, bottom=bottom)


def midpoints(bounds: BoundaryColumns) -> np.ndarray:
    """(x, y) midpoints between top and bottom per occupied column, shape (n, 2)."""
    mids = (bounds.top + bounds.bottom) / 2.0
    return np.column_stack([bounds.columns.astype(np.float64), mids])


def fit_regression_line(points) -> MidlineFit:
    """Ordinary least squares y on x with closed-form slope and intercept."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise DegenerateFitError(f"need at least 2 points, got shape {pts.shape}")
    x, y = pts[:, 0], pts[:, 1]
    if np.unique(x).size < 2:
        raise DegenerateFitError("need at least 2 distinct x values")
    mx, my = x.mean(), y.mean()
    dx = x - mx
    slope = float(np.sum(dx * (y - my)) / np.sum(dx * dx))
    intercept = float(my - slope * mx)
    norm = math.hypot(1.0, slope)
    normal = (-slope / norm, 1.0 / norm)
    residual_rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return MidlineFit(slope=slope, intercept=intercept, normal=normal, residual_rms=residual_rms)


def _closest_hits(px, py, ax, ay, nx, ny, side):
    """Ray parameter s of each anchor's closest hit of anchor + s*normal with a polyline.

    Vectorized over anchors (rows) and segments (columns). `side` is -1 for
    hits at s <= 0 (toward the top boundary) and +1 for s >= 0; a ray that
    misses every segment gets s = side * inf.
    """
    sx, sy = np.diff(px), np.diff(py)
    rx, ry = px[:-1] - ax[:, None], py[:-1] - ay[:, None]
    det = sx * ny - sy * nx
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (sx * ry - sy * rx) / det
        u = (nx * ry - ny * rx) / det
    # side * s maps the top side onto s >= 0 so one min finds the closest hit
    # on either side; negation is exact, so the hits equal a per-side max/min
    ok = (np.abs(det) > 1e-12) & (u >= 0.0) & (u <= 1.0) & (side * s >= -1e-9)
    return side * np.where(ok, side * s, np.inf).min(axis=1)


def orthogonal_samples(bounds: BoundaryColumns, fit: MidlineFit) -> list[ThicknessSample]:
    """Perpendicular chords through every interior midpoint anchor.

    The top polyline joins (x, top - 0.5) points, the bottom polyline joins
    (x, bottom + 0.5); intersections are solved per segment, giving sub-pixel
    hits. Anchors within ceil(median column height) columns of either band end
    are dropped so rays cannot exit through the band's open ends, as are
    anchors whose ray misses either boundary. Samples come in column order.
    """
    if abs(fit.slope) > MAX_FIT_SLOPE:
        raise SteepLayerError(
            f"midline slope {fit.slope:.3f} exceeds tan(60 deg); the perpendicular "
            "method assumes a mostly horizontal band"
        )
    cols = bounds.columns.astype(np.float64)
    mids = (bounds.top + bounds.bottom) / 2.0
    nx, ny = fit.normal
    guard = int(math.ceil(float(np.median(bounds.bottom - bounds.top + 1.0))))
    inside = (cols - cols[0] >= guard) & (cols[-1] - cols >= guard)
    ax, ay = cols[inside], mids[inside]

    s_up, s_dn = np.empty_like(ax), np.empty_like(ax)
    step = max(1, BLOCK_PAIRS // cols.size)
    for lo in range(0, ax.size, step):
        b = slice(lo, lo + step)
        s_up[b] = _closest_hits(cols, bounds.top - 0.5, ax[b], ay[b], nx, ny, side=-1)
        s_dn[b] = _closest_hits(cols, bounds.bottom + 0.5, ax[b], ay[b], nx, ny, side=+1)
    hit = np.isfinite(s_up) & np.isfinite(s_dn)
    ax, ay, s_up, s_dn = ax[hit], ay[hit], s_up[hit], s_dn[hit]
    coords = (ax, ay, ax + s_up * nx, ay + s_up * ny, ax + s_dn * nx, ay + s_dn * ny)
    samples = [
        ThicknessSample((x, y), (ux, uy), (lx, ly), math.hypot(lx - ux, ly - uy))
        for x, y, ux, uy, lx, ly in zip(*(c.tolist() for c in coords))
    ]
    if len(samples) < MIN_SAMPLES:
        raise InsufficientCoverageError(
            f"only {len(samples)} perpendicular samples (need >= {MIN_SAMPLES}); band too short"
        )
    return samples


def _make_report(method: str, samples: list[ThicknessSample], scale: float) -> ThicknessReport:
    lengths = np.array([s.length for s in samples], dtype=np.float64)
    mean = float(lengths.mean())
    sd = float(lengths.std(ddof=1)) if lengths.size > 1 else 0.0
    return ThicknessReport(
        method=method,
        samples=tuple(samples),
        mean=mean,
        sd=sd,
        n=len(samples),
        scale=float(scale),
        mean_scaled=mean * scale,
        sd_scaled=sd * scale,
    )


def orthogonal_report(mask: BinaryMask, scale: float = 1.0) -> ThicknessReport:
    """Full perpendicular-chord measurement of a single-band mask."""
    bounds = extract_boundaries(mask)
    fit = fit_regression_line(midpoints(bounds))
    samples = orthogonal_samples(bounds, fit)
    return _make_report("orthogonal", samples, scale)


def three_line_report(mask: BinaryMask, scale: float = 1.0) -> ThicknessReport:
    """Legacy baseline: vertical chords at 25/50/75% of the band extent.

    Chord length is bottom - top + 1 at the chosen column, so a flat band of k
    rows measures exactly k; tilted bands overestimate by about 1/cos(tilt).
    """
    bounds = extract_boundaries(mask)
    n_cols = bounds.columns.size
    samples = []
    for q in THREE_LINE_POSITIONS:
        i = min(int(math.floor(q * n_cols)), n_cols - 1)
        x = float(bounds.columns[i])
        top, bottom = bounds.top[i], bounds.bottom[i]
        samples.append(
            ThicknessSample(
                anchor=(x, (top + bottom) / 2.0),
                upper_hit=(x, top - 0.5),
                lower_hit=(x, bottom + 0.5),
                length=bottom - top + 1.0,
            )
        )
    return _make_report("three_line", samples, scale)


def report_to_dict(report: ThicknessReport, file_name: str = "") -> dict:
    """JSON-ready form of a report with a stable schema."""
    return {
        "file": file_name,
        "method": report.method,
        "n": report.n,
        "mean_px": report.mean,
        "sd_px": report.sd,
        "scale_nm_per_px": report.scale,
        "mean_nm": report.mean_scaled,
        "sd_nm": report.sd_scaled,
        "samples": [
            {"x": s.anchor[0], "y": s.anchor[1], "len_px": s.length} for s in report.samples
        ],
    }
