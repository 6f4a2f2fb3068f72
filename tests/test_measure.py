import math

import numpy as np
import pytest

from layermet import measure
from layermet.image import BinaryMask
from layermet.measure import (
    DegenerateFitError,
    EmptyMaskError,
    InsufficientCoverageError,
    NonContiguousMaskError,
    SteepLayerError,
    extract_boundaries,
    fit_regression_line,
    midpoints,
    orthogonal_report,
    orthogonal_samples,
    report_to_dict,
    three_line_report,
)
from layermet.synth import SynthSpec, generate

from conftest import band_mask, reference_orthogonal_samples


class TestExtractBoundaries:
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


class TestOrthogonalSamples:
    @pytest.mark.parametrize("pairs", [measure.BLOCK_PAIRS, 1000])
    def test_equals_per_anchor_reference(self, pairs, monkeypatch):
        monkeypatch.setattr(measure, "BLOCK_PAIRS", pairs)  # 1000: several passes per band
        masks = _acceptance_corpora() + _ragged_bands(30, seed=11)
        compared = 0
        for mask in masks:
            bounds = extract_boundaries(mask)
            fit = fit_regression_line(midpoints(bounds))
            try:
                expected = reference_orthogonal_samples(bounds, fit)
            except InsufficientCoverageError:
                with pytest.raises(InsufficientCoverageError):
                    orthogonal_samples(bounds, fit)
                continue
            assert orthogonal_samples(bounds, fit) == expected  # exact, sample for sample
            compared += 1
        assert compared >= len(masks) - 5


    def test_flat_band_exact(self):
        mask = band_mask(100, 20, 29, height=64)
        bounds = extract_boundaries(mask)
        fit = fit_regression_line(midpoints(bounds))
        samples = orthogonal_samples(bounds, fit)
        for s in samples:
            assert abs(s.length - 10.0) < 1e-6
            dx = s.lower_hit[0] - s.upper_hit[0]
            dy = s.lower_hit[1] - s.upper_hit[1]
            assert abs(dx) < 1e-9 and dy > 0  # perpendicular is vertical

    def test_sample_geometry_invariants(self):
        sample = generate(SynthSpec(width=96, height=96, thickness=10, tilt_deg=25))
        bounds = extract_boundaries(sample.truth_mask)
        fit = fit_regression_line(midpoints(bounds))
        nx, ny = fit.normal
        for s in orthogonal_samples(bounds, fit):
            dx = s.lower_hit[0] - s.upper_hit[0]
            dy = s.lower_hit[1] - s.upper_hit[1]
            assert abs(s.length - math.hypot(dx, dy)) < 1e-9
            cross = dx * ny - dy * nx
            assert abs(cross) < 1e-6 * s.length  # parallel to the fit normal
            assert s.length > 0

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
        assert [s.anchor[0] for s in report.samples] == [1.0, 2.0, 3.0]

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
