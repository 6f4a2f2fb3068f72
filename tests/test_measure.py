import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layermet import measure
from layermet.image import BinaryMask
from layermet.measure import (
    DegenerateFitError,
    EmptyMaskError,
    InsufficientCoverageError,
    MeasureError,
    NonContiguousMaskError,
    SteepLayerError,
    ThicknessReport,
    extract_boundaries,
    fit_regression_line,
    midpoints,
    orthogonal_report,
    orthogonal_samples,
    report_json,
    report_to_dict,
    three_line_report,
)
from layermet.synth import SynthSpec, generate

from conftest import band_mask, flood_components, reference_boundaries, reference_orthogonal_samples


@st.composite
def single_region_cells(draw) -> np.ndarray:
    """The 8-connected region through one drawn pixel of a random grid, alone;
    grids of one row or one column are drawn too."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 30))
    density = draw(st.sampled_from([0.3, 0.5, 0.7, 1.0]))
    cells = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((h, w)) < density
    pixel = (draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1)))
    cells[pixel] = True
    region = next(r for r in flood_components(cells) if pixel in r)
    out = np.zeros((h, w), dtype=bool)
    out[tuple(np.array(sorted(region)).T)] = True
    return out


def _gapped_columns() -> np.ndarray:
    # a C: the columns right of the first hold rows 1 and 6 and nothing between
    cells = np.zeros((8, 5), dtype=bool)
    cells[1, :] = cells[6, :] = True
    cells[1:7, 0] = True
    return cells


class TestExtractBoundaries:
    @settings(max_examples=200)
    @given(single_region_cells())
    @example(np.ones((1, 1), dtype=bool))
    @example(np.ones((1, 9), dtype=bool))
    @example(np.ones((7, 1), dtype=bool))
    @example(_gapped_columns())
    def test_equals_per_column_loop(self, cells):
        bounds = extract_boundaries(BinaryMask(cells))
        for got, want in zip((bounds.columns, bounds.top, bounds.bottom), reference_boundaries(cells)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_flat_band(self):
        bounds = extract_boundaries(band_mask(100, 20, 29, height=64))
        assert bounds.columns.tolist() == list(range(100))
        assert (bounds.top == 20).all()
        assert (bounds.bottom == 29).all()

    def test_single_pixel_tall(self):
        bounds = extract_boundaries(band_mask(40, 5, 5, height=16))
        assert (bounds.top == bounds.bottom).all()

    def test_holes_use_outer_extremes(self):
        cells = np.zeros((12, 6), dtype=bool)
        cells[3, :] = True
        cells[7, :] = True
        cells[3:8, 0] = True  # keep it one component via the first column
        bounds = extract_boundaries(BinaryMask(cells))
        assert (bounds.top == 3).all()
        assert (bounds.bottom == 7).all()

    def test_tilted_band_heights(self):
        t, tilt = 10.0, 30.0
        sample = generate(SynthSpec(width=96, height=96, thickness=t, tilt_deg=tilt))
        bounds = extract_boundaries(sample.truth_mask)
        heights = bounds.bottom - bounds.top + 1
        expected = t / math.cos(math.radians(tilt))
        assert (np.abs(heights - expected) <= 1.0).all()

    def test_empty_mask(self):
        with pytest.raises(EmptyMaskError):
            extract_boundaries(BinaryMask(np.zeros((4, 4), dtype=bool)))

    def test_non_contiguous_columns(self):
        cells = np.zeros((8, 10), dtype=bool)
        cells[2:5, 0:3] = True
        cells[2:5, 6:9] = True
        with pytest.raises(NonContiguousMaskError):
            extract_boundaries(BinaryMask(cells))

    @pytest.mark.parametrize("estimator", [orthogonal_report, three_line_report])
    def test_second_region_within_band_columns(self, estimator):
        # the speck shares the band's columns, so no column gap shows it
        cells = generate(SynthSpec(width=200, height=80, thickness=12, tilt_deg=5, seed=1)).truth_mask.cells
        estimator(BinaryMask(cells))
        cells = cells.copy()
        cells[3:5, 100:103] = True
        with pytest.raises(NonContiguousMaskError, match="2 8-connected regions"):
            estimator(BinaryMask(cells))


class TestMidpoints:
    def test_flat_band_midline(self):
        bounds = extract_boundaries(band_mask(30, 10, 19, height=40))
        mids = midpoints(bounds)
        assert (mids[:, 1] == 14.5).all()

    def test_degenerate_band_on_itself(self):
        bounds = extract_boundaries(band_mask(20, 4, 4, height=10))
        assert (midpoints(bounds)[:, 1] == 4.0).all()

    def test_tilted_band_collinear(self):
        sample = generate(SynthSpec(width=96, height=96, thickness=10, tilt_deg=20))
        fit = fit_regression_line(midpoints(extract_boundaries(sample.truth_mask)))
        assert fit.residual_rms <= 0.5
        assert abs(fit.slope - math.tan(math.radians(20))) < 0.03


class TestFitRegressionLine:
    def test_exact_line(self):
        pts = [(x, 2 * x + 1) for x in range(8)]
        fit = fit_regression_line(pts)
        assert abs(fit.slope - 2) < 1e-12
        assert abs(fit.intercept - 1) < 1e-12
        assert fit.residual_rms < 1e-12

    def test_horizontal(self):
        fit = fit_regression_line([(x, 5.0) for x in range(4)])
        assert fit.slope == 0.0
        assert fit.intercept == 5.0
        assert fit.normal == (0.0, 1.0)

    def test_closed_form_three_points(self):
        fit = fit_regression_line([(0, 0), (1, 1), (2, 0)])
        assert abs(fit.slope) < 1e-12
        assert abs(fit.intercept - 1 / 3) < 1e-12

    def test_normal_unit_and_orthogonal(self):
        fit = fit_regression_line([(x, 0.7 * x - 2) for x in range(5)])
        nx, ny = fit.normal
        assert abs(math.hypot(nx, ny) - 1.0) < 1e-9
        assert abs(nx * 1.0 + ny * fit.slope) < 1e-9
        assert ny > 0

    def test_degenerate_x(self):
        with pytest.raises(DegenerateFitError):
            fit_regression_line([(3, 0), (3, 5)])


def _acceptance_corpora() -> list[BinaryMask]:
    """The band masks acceptance criteria 1, 2 and 9 measure, drawn the same way."""
    specs = []
    rng = np.random.default_rng(20240801)
    for i in range(50):
        t, tilt = int(rng.integers(8, 17)), float(rng.uniform(-30.0, 30.0))
        specs.append(SynthSpec(width=128, height=112, thickness=t, tilt_deg=tilt, seed=i))
    for theta in (10.0, 20.0, 30.0):
        specs += [SynthSpec(width=128, height=112, thickness=t, tilt_deg=theta, seed=t) for t in range(9, 17)]
    rng = np.random.default_rng(99)
    for i in range(40):
        t, tilt = int(rng.integers(8, 17)), float(rng.uniform(-25.0, 25.0))
        specs.append(SynthSpec(width=128, height=112, thickness=t, tilt_deg=tilt, seed=5000 + i))
    return [generate(spec).truth_mask for spec in specs]


def _ragged_bands(count: int, seed: int) -> list[BinaryMask]:
    """Wandering bands whose top and bottom rows jump at random per column."""
    rng = np.random.default_rng(seed)
    masks = []
    for _ in range(count):
        width = int(rng.integers(20, 700))
        base = np.cumsum(rng.integers(-1, 2, size=width))
        top = base - rng.integers(2, 12, size=width)
        bottom = base + rng.integers(2, 12, size=width)
        shift = 2 - top.min()  # two background rows above the band
        top, bottom = top + shift, bottom + shift
        cells = np.zeros((int(bottom.max()) + 5, width + 4), dtype=bool)
        for x in range(width):
            cells[top[x] : bottom[x] + 1, x + 2] = True
        masks.append(BinaryMask(cells))
    return masks


def _limit_bands() -> list[BinaryMask]:
    """Bands at the edges of the windowed chord solve: midline slopes near
    MAX_FIT_SLOPE; zigzag bands at slope 1 and -1, half of whose segments run
    parallel to the rays; curved bands at the curvature fit limit; flat bands,
    whose windows reach one column past the anchor."""
    masks = []
    rng = np.random.default_rng(5)
    for slope in (1.72, -1.7, 1.5, -0.5, 1.74):
        for jitter in (0, 2):
            x = np.arange(90)
            top = np.floor(slope * (x - 45)).astype(int) + rng.integers(0, jitter + 1, size=x.size)
            top -= top.min() - 2
            cells = np.zeros((int(top.max()) + 14, x.size + 4), dtype=bool)
            for i in x:
                cells[top[i] : top[i] + 9, i + 2] = True
            masks.append(BinaryMask(cells))
    x = np.arange(80)
    for sign in (1, -1):  # midline slope exactly +-1
        top, bottom = sign * x + 2 * (x % 2), sign * x + 8 - 2 * (x % 2)
        top, bottom = top - top.min() + 2, bottom - top.min() + 2
        cells = np.zeros((int(bottom.max()) + 3, x.size), dtype=bool)
        for i in x:
            cells[top[i] : bottom[i] + 1, i] = True
        masks.append(BinaryMask(cells))
    for width, height, thickness, tilt in ((160, 96, 10.0, 0.0), (300, 128, 14.0, 12.0), (240, 112, 8.5, -20.0)):
        spec = SynthSpec(width, height, thickness, tilt, curvature=(height / 2 - thickness) / 2)
        masks.append(generate(spec).truth_mask)
    masks += [band_mask(100, 20, 29, height=64), band_mask(60, 5, 5, height=16), band_mask(700, 3, 40)]
    return masks


def _arched_bands(count: int, seed: int) -> list[BinaryMask]:
    """Bands whose midline arches: a parabola, a sine or a lopsided V, in turn,
    with its steepest local slope up to 1.6 and ragged per-column half-widths.
    The fitted line runs far from the anchors at an arch's ends and apex, and
    on a lopsided V the short arm runs nearly along the chords, so a hit can
    lie on the other side of the line from its anchor: the window needs the
    anchors' distance from the line as well as the boundaries'."""
    rng = np.random.default_rng(seed)
    masks = []
    for i in range(count):
        width = int(rng.integers(40, 400))
        x = np.linspace(-1.0, 1.0, width)
        if i % 3 == 0:
            shape, steepest = (x - rng.uniform(-1.0, 1.0)) ** 2, rng.uniform(0.3, 1.6)
        elif i % 3 == 1:
            shape = np.sin(np.pi * rng.uniform(0.5, 2.5) * x + rng.uniform(0.0, 2 * np.pi))
            steepest = rng.uniform(0.3, 1.6)
        else:  # the vertex a quarter to three fifths of the half-width off centre
            shape = np.abs(x - rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 0.6))
            steepest = rng.uniform(1.1, 1.6)
        mid = np.floor(steepest * shape / np.abs(np.diff(shape)).max()).astype(int)
        half = int(rng.integers(3, 14))
        top = mid - rng.integers(2, half + 1, size=width)
        bottom = mid + rng.integers(2, half + 1, size=width)
        top, bottom = top - top.min() + 2, bottom - top.min() + 2
        cells = np.zeros((int(bottom.max()) + 3, width + 4), dtype=bool)
        for c in range(width):
            cells[top[c] : bottom[c] + 1, c + 2] = True
        masks.append(BinaryMask(cells))
    return masks


# (width, height, thickness px, tilt deg) of the perfbench `measure` masks
MEASURE_WORKLOAD_BANDS = (
    (512, 384, 24.4, 30.0), (2048, 256, 20.7, 5.0), (768, 384, 28.2, -20.0), (1024, 320, 17.9, 12.0),
    (640, 384, 31.6, -25.0), (1536, 256, 26.3, -3.0), (512, 384, 22.5, 15.0), (1280, 288, 29.1, -10.0),
)


class TestOrthogonalSamples:
    def test_equals_per_anchor_reference(self):
        masks = _acceptance_corpora() + _ragged_bands(30, seed=11) + _limit_bands() + _arched_bands(60, seed=6)
        masks += [
            generate(SynthSpec(width=w, height=h, thickness=t, tilt_deg=tilt, seed=i)).truth_mask
            for i, (w, h, t, tilt) in enumerate(MEASURE_WORKLOAD_BANDS)
        ]
        compared = 0
        for mask in masks:
            bounds = extract_boundaries(mask)
            fit = fit_regression_line(midpoints(bounds))
            if abs(fit.slope) > measure.MAX_FIT_SLOPE:
                with pytest.raises(SteepLayerError):
                    orthogonal_samples(bounds, fit)
                continue
            try:
                expected = reference_orthogonal_samples(bounds, fit)
            except InsufficientCoverageError:
                with pytest.raises(InsufficientCoverageError):
                    orthogonal_samples(bounds, fit)
                continue
            got = orthogonal_samples(bounds, fit)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True))  # exact
            compared += 1
        assert compared >= len(masks) - 7

    def test_traced_peak_on_a_wide_steep_thick_band(self):
        # 4096 columns at 35 deg, 600 rows thick: 2,894 anchors and a window of
        # 288 columns, so one anchors x window float64 matrix would be 6.7 MB.
        # Recorded peak 1.14 MB; the bound leaves a 75% margin.
        x = np.arange(4096)
        top = np.floor(math.tan(math.radians(35.0)) * x) + 2.0
        bounds = measure.BoundaryColumns(columns=x + 3, top=top, bottom=top + 600.0)
        fit = fit_regression_line(midpoints(bounds))
        tracemalloc.start()
        try:
            anchor, *_ = orthogonal_samples(bounds, fit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert anchor.shape == (2894, 2)
        assert peak / 1e6 <= 2.0

    def test_flat_band_exact(self):
        mask = band_mask(100, 20, 29, height=64)
        bounds = extract_boundaries(mask)
        fit = fit_regression_line(midpoints(bounds))
        anchor, upper, lower, length = orthogonal_samples(bounds, fit)
        x = np.arange(10.0, 90.0)  # 10 guard columns at either end
        assert np.array_equal(anchor, np.column_stack([x, np.full(80, 24.5)]))
        assert np.array_equal(upper, np.column_stack([x, np.full(80, 19.5)]))  # perpendicular is vertical
        assert np.array_equal(lower, np.column_stack([x, np.full(80, 29.5)]))
        assert np.array_equal(length, np.full(80, 10.0))

    def test_sample_geometry_invariants(self):
        sample = generate(SynthSpec(width=96, height=96, thickness=10, tilt_deg=25))
        bounds = extract_boundaries(sample.truth_mask)
        fit = fit_regression_line(midpoints(bounds))
        nx, ny = fit.normal
        anchor, upper, lower, length = orthogonal_samples(bounds, fit)
        columns = anchor[:, 0].astype(int) - int(bounds.columns[0])
        assert np.array_equal(anchor[:, 1], (bounds.top + bounds.bottom)[columns] / 2.0)  # on the midpoints
        dx, dy = (lower - upper).T
        assert np.array_equal(length, [math.hypot(a, b) for a, b in zip(dx.tolist(), dy.tolist())])
        assert (np.abs(dx * ny - dy * nx) < 1e-6 * length).all()  # parallel to the fit normal
        assert (length > 0).all()

    def test_insufficient_coverage(self):
        with pytest.raises(InsufficientCoverageError):
            orthogonal_report(band_mask(20, 5, 14, height=32))

    def test_steep_band_rejected(self):
        # band climbing 2 rows per column is beyond the tan(60 deg) limit
        cells = np.zeros((80, 30), dtype=bool)
        for x in range(30):
            cells[2 * x + 2 : 2 * x + 12, x] = True
        with pytest.raises(SteepLayerError):
            orthogonal_report(BinaryMask(cells))


class TestOrthogonalReport:
    def test_flat_band(self):
        report = orthogonal_report(band_mask(100, 20, 29, height=64))
        assert abs(report.mean - 10.0) < 1e-9
        assert report.sd < 1e-6
        assert report.n >= 10
        assert report.method == "orthogonal"

    def test_tilted_band_mean(self):
        sample = generate(SynthSpec(width=128, height=112, thickness=10, tilt_deg=30))
        report = orthogonal_report(sample.truth_mask)
        assert abs(report.mean - 10.0) <= 0.5

    def test_curved_band_mean(self):
        sample = generate(SynthSpec(width=96, height=48, thickness=10, curvature=5))
        report = orthogonal_report(sample.truth_mask)
        assert abs(report.mean - 10.0) <= 0.8

    def test_scale_applied(self):
        report = orthogonal_report(band_mask(100, 20, 29, height=64), scale=0.25)
        assert abs(report.mean_scaled - 2.5) < 1e-9
        assert report.sd_scaled == report.sd * 0.25

    def test_empty_mask(self):
        with pytest.raises(EmptyMaskError):
            orthogonal_report(BinaryMask(np.zeros((4, 4), dtype=bool)))

    def test_translation_invariance(self):
        sample = generate(SynthSpec(width=96, height=80, thickness=9, tilt_deg=14))
        cells = sample.truth_mask.cells
        a = np.zeros((120, 140), dtype=bool)
        b = np.zeros((120, 140), dtype=bool)
        a[5 : 5 + cells.shape[0], 7 : 7 + cells.shape[1]] = cells
        b[31 : 31 + cells.shape[0], 40 : 40 + cells.shape[1]] = cells
        ra, rb = orthogonal_report(BinaryMask(a)), orthogonal_report(BinaryMask(b))
        assert abs(ra.mean - rb.mean) < 1e-9
        assert abs(ra.sd - rb.sd) < 1e-9
        assert ra.n == rb.n

    def test_mirror_invariance(self):
        sample = generate(SynthSpec(width=96, height=80, thickness=9, tilt_deg=14))
        mirrored = BinaryMask(sample.truth_mask.cells[:, ::-1].copy())
        ra = orthogonal_report(sample.truth_mask)
        rb = orthogonal_report(mirrored)
        assert abs(ra.mean - rb.mean) < 1e-6


@st.composite
def synth_bands(draw) -> BinaryMask:
    """Truth masks of synth bands, tilted, curved or near the fit limits.

    A synth band is symmetric under a half turn about the frame's center, so
    one that is never cropped would hide faults that treat its two ends
    differently; the left columns are cropped off to break that symmetry.
    """
    height, width = draw(st.integers(40, 128)), draw(st.integers(24, 320))
    thickness = draw(st.floats(3.0, height / 2 - 1.0))
    spec = SynthSpec(
        width=width,
        height=height,
        thickness=thickness,
        tilt_deg=draw(st.floats(-35.0, 35.0)),
        curvature=draw(st.floats(0.0, (height / 2 - thickness) / 2)),
        seed=draw(st.integers(0, 2**16)),
    )
    crop = draw(st.integers(0, width // 3))
    return BinaryMask(generate(spec).truth_mask.cells[:, crop:].copy())


def _outcome(mask: BinaryMask):
    try:
        return orthogonal_report(mask)
    except MeasureError as exc:
        return type(exc)


class TestChordInvariants:
    def test_lengths_are_math_hypot_of_chords(self):
        # math.hypot keeps the report bytes; np.hypot differs in the last bit on some chords
        for mask in _acceptance_corpora():
            for report in (orthogonal_report(mask), three_line_report(mask)):
                dx, dy = (report.lower - report.upper).T
                expected = [math.hypot(a, b) for a, b in zip(dx.tolist(), dy.tolist())]
                assert report.length.dtype == np.float64
                assert np.array_equal(report.length, expected)

    @given(synth_bands(), st.sampled_from(["horizontal", "vertical", "both"]))
    def test_flip_invariance(self, mask, flip):
        rows = slice(None, None, -1 if flip != "horizontal" else 1)
        cols = slice(None, None, -1 if flip != "vertical" else 1)
        original, flipped = _outcome(mask), _outcome(BinaryMask(mask.cells[rows, cols].copy()))
        if isinstance(original, type):
            assert flipped is original
            return
        assert flipped.n == original.n
        assert abs(flipped.mean - original.mean) <= 1e-12
        assert abs(flipped.sd - original.sd) <= 1e-12
        assert np.allclose(np.sort(flipped.length), np.sort(original.length), rtol=0.0, atol=1e-12)


class TestThreeLineReport:
    def test_flat_band(self):
        report = three_line_report(band_mask(100, 20, 29, height=64))
        assert report.mean == 10.0
        assert report.sd == 0.0
        assert report.n == 3
        assert report.method == "three_line"

    def test_tilted_band_overestimates(self):
        t, tilt = 10.0, 30.0
        sample = generate(SynthSpec(width=128, height=112, thickness=t, tilt_deg=tilt))
        report = three_line_report(sample.truth_mask)
        expected = t / math.cos(math.radians(tilt))
        assert abs(report.mean - expected) <= 1.0
        assert report.mean > orthogonal_report(sample.truth_mask).mean

    def test_four_column_band_positions(self):
        cells = np.zeros((12, 4), dtype=bool)
        cells[3:7, :] = True
        report = three_line_report(BinaryMask(cells))
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(report.anchor, np.column_stack([x, np.full(3, 4.5)]))
        assert np.array_equal(report.upper, np.column_stack([x, np.full(3, 2.5)]))
        assert np.array_equal(report.lower, np.column_stack([x, np.full(3, 6.5)]))
        assert np.array_equal(report.length, np.full(3, 4.0))

    def test_flat_vs_orthogonal_agreement(self):
        mask = band_mask(80, 12, 23, height=48)
        assert three_line_report(mask).mean == orthogonal_report(mask).mean


class TestReportJson:
    def test_schema(self):
        report = orthogonal_report(band_mask(60, 10, 19, height=40), scale=2.0)
        payload = report_to_dict(report, file_name="mask_0000.pgm")
        assert set(payload) == {
            "file",
            "method",
            "n",
            "mean_px",
            "sd_px",
            "scale_nm_per_px",
            "mean_nm",
            "sd_nm",
            "samples",
        }
        assert payload["file"] == "mask_0000.pgm"
        assert payload["mean_nm"] == payload["mean_px"] * 2.0
        assert len(payload["samples"]) == report.n
        assert set(payload["samples"][0]) == {"x", "y", "len_px"}

    @settings(max_examples=300, deadline=None)
    @given(
        head=st.tuples(st.floats(), st.floats(), st.floats(), st.floats(), st.floats()),
        columns=st.integers(0, 12).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
                min_size=3,
                max_size=3,
            )
        ),
        method=st.sampled_from(("orthogonal", "three_line")),
        file_name=st.text(alphabet=st.sampled_from('"\\/ab.\n\t\x00\x7f\xe9\u00b5\u2028\U0001f600'), max_size=8),
    )
    def test_report_json_equals_indented_dumps(self, head, columns, method, file_name):
        # byte for byte, on drawn reports: any finite sample floats (-0.0,
        # subnormals and exponents included), NaN or infinities in the head,
        # file names with quotes, backslashes, control and non-ASCII characters
        report = self._report(method, head, *columns)
        assert report_json(report, file_name) == json.dumps(report_to_dict(report, file_name), indent=2)

    @pytest.mark.parametrize("column", range(3))
    @pytest.mark.parametrize("value", (float("nan"), float("inf"), -float("inf")))
    def test_report_json_rejects_non_finite_sample(self, column, value):
        columns = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        columns[column][1] = value
        with pytest.raises(ValueError, match="non-finite sample"):
            report_json(self._report("orthogonal", (5.5, 0.5, 1.0, 5.5, 0.5), *columns))

    @staticmethod
    def _report(method, head, x, y, length):
        x, y, length = (np.array(c, dtype=np.float64) for c in (x, y, length))
        mean, sd, scale, mean_scaled, sd_scaled = head
        return ThicknessReport(
            method, np.column_stack([x, y]), np.zeros((x.size, 2)), np.zeros((x.size, 2)), length,
            mean, sd, x.size, scale, mean_scaled, sd_scaled,
        )

    @pytest.mark.parametrize("estimator", (orthogonal_report, three_line_report))
    def test_report_json_on_measured_bands(self, estimator):
        for tilt, width in ((0.0, 40), (7.5, 120), (-12.0, 300)):
            mask = generate(SynthSpec(width=width, height=64, thickness=13, tilt_deg=tilt, seed=2)).truth_mask
            report = estimator(mask, scale=0.37)
            assert report_json(report, "mask_0001.pgm") == json.dumps(report_to_dict(report, "mask_0001.pgm"), indent=2)
