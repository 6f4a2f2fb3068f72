"""Thickness estimation from a clean single-band mask.

The primary estimator fits a regression line through the per-column midpoints
of the band and measures chords perpendicular to it, intersecting the band's
top and bottom boundary polylines exactly (sub-pixel hits). The legacy
baseline measures three axis-aligned chords at 25/50/75% of the band extent,
which overestimates thickness by 1/cos(tilt) on sloped bands.

Coordinates are column/row indices; the boundary polylines sit half a pixel
outside the extreme mask rows so a flat band of k rows measures exactly k.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .image import BinaryMask
from .postprocess import label_components

MAX_FIT_SLOPE = math.tan(math.radians(60.0))
MIN_SAMPLES = 10
THREE_LINE_POSITIONS = (0.25, 0.5, 0.75)


class MeasureError(ValueError):
    """Base class for measurement failures."""


class EmptyMaskError(MeasureError):
    pass


class NonContiguousMaskError(MeasureError):
    """The mask holds more than one 8-connected region; it was not reduced to one component."""


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


@dataclass(frozen=True, eq=False)
class ThicknessReport:
    """Chords in column order: anchor, upper and lower hit as (n, 2) arrays of
    (x, y) rows and their lengths as an (n,) array."""

    method: str  # "orthogonal" | "three_line"
    anchor: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    length: np.ndarray
    mean: float
    sd: float
    n: int
    scale: float
    mean_scaled: float
    sd_scaled: float


def extract_boundaries(mask: BinaryMask) -> BoundaryColumns:
    """Top and bottom mask rows for every occupied column.

    The mask must hold exactly one 8-connected region; more than one means it
    was not post-processed down to a single component. One region occupies a
    contiguous run of columns. Columns with interior gaps use the outermost
    extremes, both read from one column-major copy.
    """
    regions = len(label_components(mask).regions)
    if regions == 0:
        raise EmptyMaskError("mask has no foreground pixels")
    if regions > 1:
        raise NonContiguousMaskError(f"mask has {regions} 8-connected regions; run post-processing first")
    cells = mask.cells
    cols = np.flatnonzero(cells.any(axis=0))
    by_column = cells[:, cols[0] : cols[-1] + 1].T.copy()
    top = np.argmax(by_column, axis=1).astype(np.float64)
    bottom = (cells.shape[0] - 1 - np.argmax(by_column[:, ::-1], axis=1)).astype(np.float64)
    return BoundaryColumns(columns=cols, top=top, bottom=bottom)


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


def orthogonal_samples(bounds: BoundaryColumns, fit: MidlineFit) -> tuple[np.ndarray, ...]:
    """Perpendicular chords through every interior midpoint anchor.

    The top polyline joins (x, top - 0.5) points, the bottom polyline joins
    (x, bottom + 0.5); intersections are solved per segment, giving sub-pixel
    hits. Anchors within ceil(median column height) columns of either band end
    are dropped so rays cannot exit through the band's open ends, as are
    anchors whose ray misses either boundary. Returns the (n, 2) anchor,
    upper and lower hit arrays and the (n,) lengths, in column order.
    """
    if abs(fit.slope) > MAX_FIT_SLOPE:
        raise SteepLayerError(
            f"midline slope {fit.slope:.3f} exceeds tan(60 deg); the perpendicular "
            "method assumes a mostly horizontal band"
        )
    cols, mids = midpoints(bounds).T
    nx, ny = fit.normal
    guard = int(math.ceil(float(np.median(bounds.bottom - bounds.top + 1.0))))
    inside = (cols - cols[0] >= guard) & (cols[-1] - cols >= guard)
    ax, ay = cols[inside], mids[inside]
    first = int(np.argmax(inside))  # the anchors are one run of columns

    # ny * (y - line) is a point's signed distance from the fitted line, and a
    # hit H = A + s * normal lies at distance d(A) + s. Along a segment the
    # distance is linear, so no hit is farther than the farthest vertex:
    # |s| <= max |d(A)| + max |d(V)|, and the hit lies within |s * nx| columns
    # of its anchor. Each anchor needs only the segments from reach + 1
    # columns left to reach columns right of it (the + 1 covers rounding at a
    # segment's ends), and never more than all of them on either side.
    line = fit.slope * cols + fit.intercept
    rows = np.stack([bounds.top - 0.5, bounds.bottom + 0.5])  # top, then bottom polyline
    bound = ny * (np.abs(ay - line[inside]).max(initial=0.0) + np.abs(rows - line).max())
    reach = min(int(math.ceil(bound * abs(nx))) + 1, cols.size)
    # start row, rise and determinant with the ray of each segment, padded
    # with reach + 1 NaNs on both sides
    pad = np.full((2, reach + 1), np.nan)
    start = np.hstack([pad, rows[:, :-1], pad])
    rise = np.hstack([pad, np.diff(rows), pad])  # whole rows: exact
    det = ny - rise * nx
    det[np.abs(det) <= 1e-12] = np.nan  # ray and segment near parallel
    # dividing by side * det gives -(s / det) exactly: the top side maps onto
    # s >= 0, so one running min finds the closest hit on either side
    side = np.array([[-1.0], [1.0]])
    side_det = side * det

    # One pass per window column over all anchors and both polylines: each
    # temporary holds 2 x anchors floats, so no pass needs splitting.
    closest = np.full((2, ax.size), np.inf)
    for rx in range(-reach - 1, reach + 1):  # segment start column less the anchor's
        w = slice(first + reach + 1 + rx, first + reach + 1 + rx + ax.size)
        ry = start[:, w] - ay
        s = (ry - rise[:, w] * rx) / side_det[:, w]
        u = (nx * ry - ny * rx) / det[:, w]
        ok = (u >= 0.0) & (u <= 1.0) & (s >= -1e-9)  # False wherever det is NaN
        np.minimum(closest, np.where(ok, s, np.inf), out=closest)
    s_up, s_dn = side * closest  # a ray that misses a polyline keeps an infinite s
    hit = np.isfinite(s_up) & np.isfinite(s_dn)
    n = int(np.count_nonzero(hit))
    if n < MIN_SAMPLES:
        raise InsufficientCoverageError(
            f"only {n} perpendicular samples (need >= {MIN_SAMPLES}); band too short"
        )
    anchor = np.column_stack([ax[hit], ay[hit]])
    upper = anchor + s_up[hit, None] * np.array([nx, ny])
    lower = anchor + s_dn[hit, None] * np.array([nx, ny])
    dx, dy = (lower - upper).T
    # math.hypot, not np.hypot: the two differ in the last bit on some chords
    length = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), np.float64, n)
    return anchor, upper, lower, length


def _make_report(method: str, anchor, upper, lower, length, scale: float) -> ThicknessReport:
    mean = float(length.mean())
    sd = float(length.std(ddof=1)) if length.size > 1 else 0.0
    return ThicknessReport(
        method=method,
        anchor=anchor,
        upper=upper,
        lower=lower,
        length=length,
        mean=mean,
        sd=sd,
        n=length.size,
        scale=float(scale),
        mean_scaled=mean * scale,
        sd_scaled=sd * scale,
    )


def orthogonal_report(mask: BinaryMask, scale: float = 1.0) -> ThicknessReport:
    """Full perpendicular-chord measurement of a single-band mask."""
    bounds = extract_boundaries(mask)
    fit = fit_regression_line(midpoints(bounds))
    return _make_report("orthogonal", *orthogonal_samples(bounds, fit), scale)


def three_line_report(mask: BinaryMask, scale: float = 1.0) -> ThicknessReport:
    """Legacy baseline: vertical chords at 25/50/75% of the band extent.

    Chord length is bottom - top + 1 at the chosen column, so a flat band of k
    rows measures exactly k; tilted bands overestimate by about 1/cos(tilt).
    """
    bounds = extract_boundaries(mask)
    n_cols = bounds.columns.size
    i = np.minimum(np.floor(np.multiply(THREE_LINE_POSITIONS, n_cols)).astype(int), n_cols - 1)
    x = bounds.columns[i].astype(np.float64)
    top, bottom = bounds.top[i], bounds.bottom[i]
    anchor = np.column_stack([x, (top + bottom) / 2.0])
    upper = np.column_stack([x, top - 0.5])
    lower = np.column_stack([x, bottom + 0.5])
    return _make_report("three_line", anchor, upper, lower, bottom - top + 1.0, scale)


def _report_head(report: ThicknessReport, file_name: str) -> dict:
    """Every key of `report_to_dict` but "samples", in its order."""
    return {
        "file": file_name,
        "method": report.method,
        "n": report.n,
        "mean_px": report.mean,
        "sd_px": report.sd,
        "scale_nm_per_px": report.scale,
        "mean_nm": report.mean_scaled,
        "sd_nm": report.sd_scaled,
    }


def report_to_dict(report: ThicknessReport, file_name: str = "") -> dict:
    """JSON-ready form of a report with a stable schema."""
    return {
        **_report_head(report, file_name),
        "samples": [
            {"x": x, "y": y, "len_px": length}
            for x, y, length in zip(*report.anchor.T.tolist(), report.length.tolist())
        ],
    }


# one element of the "samples" list as `json.dumps(..., indent=2)` lays it out
_SAMPLE_JSON = '    {\n      "x": %r,\n      "y": %r,\n      "len_px": %r\n    }'


def report_json(report: ThicknessReport, file_name: str = "") -> str:
    """`json.dumps(report_to_dict(report, file_name), indent=2)`, byte for byte.

    With `indent` set, json encodes in pure Python, a few microseconds per
    sample. Only the scalar head goes through json here; each sample's floats
    are written with `repr`, which is json's own form of a finite float. Both
    estimators keep only finite samples; a report with any other sample value
    raises ValueError.
    """
    if not (np.isfinite(report.anchor).all() and np.isfinite(report.length).all()):
        raise ValueError("report has a non-finite sample")
    head = json.dumps(_report_head(report, file_name), indent=2)
    samples = ",\n".join([_SAMPLE_JSON % s for s in zip(*report.anchor.T.tolist(), report.length.tolist())])
    # the head ends in "\n}": the samples key goes in before that line
    return head[:-2] + ',\n  "samples": ' + (f"[\n{samples}\n  ]" if samples else "[]") + "\n}"
