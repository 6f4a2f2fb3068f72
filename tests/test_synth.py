import math

import numpy as np
import pytest

from layermet import synth
from layermet.postprocess import label_components
from layermet.synth import (
    SynthRanges,
    SynthSpec,
    SynthSpecError,
    draw_spec,
    generate,
    generate_batch,
)

from conftest import reference_band_mask, reference_box_blur


class TestSpecInvariants:
    def test_thin_band_rejected(self):
        with pytest.raises(SynthSpecError):
            SynthSpec(width=64, height=64, thickness=2).validate()

    def test_band_must_fit(self):
        with pytest.raises(SynthSpecError):
            SynthSpec(width=64, height=64, thickness=20, curvature=8).validate()

    def test_brightness_gap_enforced(self):
        with pytest.raises(SynthSpecError):
            SynthSpec(
                width=64, height=64, thickness=10, layer_brightness=0.5, upper_brightness=0.45
            ).validate()

    def test_tilt_bound(self):
        with pytest.raises(SynthSpecError):
            SynthSpec(width=64, height=64, thickness=10, tilt_deg=40).validate()

    def test_generate_validates(self):
        with pytest.raises(SynthSpecError):
            generate(SynthSpec(width=64, height=64, thickness=1))


class TestGenerate:
    def test_flat_band_exact(self):
        sample = generate(SynthSpec(width=40, height=64, thickness=10))
        heights = sample.truth_mask.cells.sum(axis=0)
        assert (heights == 10).all()
        # same rows in every column
        cols = sample.truth_mask.cells.T
        assert (cols == cols[0]).all()

    def test_tilted_band_chord_lengths(self):
        # every vertical chord close to t / cos(tilt), checked by exhaustive scan
        t, tilt = 10.0, 30.0
        sample = generate(SynthSpec(width=96, height=96, thickness=t, tilt_deg=tilt))
        heights = sample.truth_mask.cells.sum(axis=0)
        expected = t / math.cos(math.radians(tilt))
        assert heights.min() >= expected - 1.0
        assert heights.max() <= expected + 1.0

    def test_band_intensities_exact_without_noise(self):
        spec = SynthSpec(width=50, height=64, thickness=12, tilt_deg=8.0)
        sample = generate(spec)
        inside = sample.image.pixels[sample.truth_mask.cells]
        assert (inside == spec.layer_brightness).all()
        outside = sample.image.pixels[~sample.truth_mask.cells]
        assert set(np.unique(outside)) <= {spec.upper_brightness, spec.lower_brightness}

    def test_deterministic_given_seed(self):
        spec = SynthSpec(width=64, height=64, thickness=9, tilt_deg=-12, noise=0.05, seed=77)
        a, b = generate(spec), generate(spec)
        assert (a.image.pixels == b.image.pixels).all()
        assert (a.truth_mask.cells == b.truth_mask.cells).all()

    def test_noise_seed_changes_image(self):
        base = dict(width=64, height=64, thickness=9, noise=0.05)
        a = generate(SynthSpec(**base, seed=1))
        b = generate(SynthSpec(**base, seed=2))
        assert not (a.image.pixels == b.image.pixels).all()

    def test_single_connected_component(self):
        sample = generate(SynthSpec(width=80, height=80, thickness=8, tilt_deg=25, curvature=3))
        assert len(label_components(sample.truth_mask).regions) == 1

    def test_mask_area_tracks_arc_length(self):
        # area ~ thickness * width / cos(tilt) within 5% for zero curvature
        for tilt in (0.0, 12.0, 28.0):
            spec = SynthSpec(width=120, height=110, thickness=12, tilt_deg=tilt)
            area = generate(spec).truth_mask.area
            expected = 12 * 120 / math.cos(math.radians(tilt))
            assert abs(area - expected) / expected < 0.05

    def test_noise_and_blur_stay_in_range(self):
        spec = SynthSpec(width=48, height=64, thickness=10, noise=0.4, blur_radius=2, seed=3)
        img = generate(spec).image
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0

    def test_true_thickness_recorded(self):
        assert generate(SynthSpec(width=32, height=64, thickness=13.5)).true_thickness == 13.5


# Width, height, thickness and tilt of the eight bands of perfbench's
# `measure` workload.
MEASURE_BANDS = [
    (512, 384, 24.4, 30.0), (2048, 256, 20.7, 5.0), (768, 384, 28.2, -20.0), (1024, 320, 17.9, 12.0),
    (640, 384, 31.6, -25.0), (1536, 256, 26.3, -3.0), (512, 384, 22.5, 15.0), (1280, 288, 29.1, -10.0),
]


def _random_band_specs(n: int, seed: int):
    """Bands 1 to 300 px wide, tilted up to +-35 deg, a third of them at the
    largest curvature that fits."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        height = int(rng.integers(8, 121))
        thickness = float(rng.uniform(3.0, height / 2.0))
        limit = (height / 2.0 - thickness) / 2.0
        curvature = limit if rng.random() < 1 / 3 else float(rng.uniform(0.0, limit))
        tilt = float(rng.choice([-35.0, 35.0])) if rng.random() < 0.2 else float(rng.uniform(-35.0, 35.0))
        yield SynthSpec(int(rng.integers(1, 301)), height, thickness, tilt, curvature)


class TestRasterEquivalence:
    """The rasterisers equal the block-evaluated references bit for bit."""

    def test_band_mask_matches_reference(self):
        specs = list(_random_band_specs(200, seed=4021))
        specs += [SynthSpec(w, h, t, tilt) for w, h, t, tilt in MEASURE_BANDS]
        # Flat bands of even thickness in an odd height: whole rows lie exactly t/2 off the centerline.
        specs += [SynthSpec(w, 2 * t + 9, t) for w, t in ((1, 4), (33, 10), (64, 16))]
        for i, spec in enumerate(specs):
            spec.validate()
            budget = (1, 5000, 2**21)[i % 3]
            assert np.array_equal(synth._band_mask(spec), reference_band_mask(spec, budget)), spec

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_box_blur_matches_reference(self, rng, radius):
        shapes = [(1, 1), (1, 37), (37, 1), (2, 2)]
        shapes += [tuple(int(n) for n in rng.integers(1, 60, size=2)) for _ in range(40)]
        for shape in shapes:
            a = rng.random(shape)
            blurred = synth._box_blur(a, radius)
            assert blurred.shape == a.shape
            assert np.array_equal(blurred, reference_box_blur(a, radius)), shape


class TestGenerateBatch:
    def test_single_sample_matches_index_zero_draw(self):
        ranges = SynthRanges()
        batch = generate_batch(1, ranges, seed=42)
        spec = draw_spec(ranges, 42, 0)
        direct = generate(spec)
        assert batch[0].spec == spec
        assert (batch[0].image.pixels == direct.image.pixels).all()

    def test_ranges_contained(self):
        ranges = SynthRanges(thickness=(6.0, 16.0), tilt_deg=(-10.0, 10.0))
        batch = generate_batch(50, ranges, seed=7)
        for sample in batch:
            assert 6.0 <= sample.true_thickness <= 16.0
            assert -10.0 <= sample.spec.tilt_deg <= 10.0

    def test_infeasible_ranges(self):
        with pytest.raises(SynthSpecError):
            generate_batch(1, SynthRanges(thickness=(8.0, 40.0)), seed=0)
        with pytest.raises(SynthSpecError):
            generate_batch(1, SynthRanges(tilt_deg=(-34.0, 34.0)), seed=0)

    @pytest.mark.parametrize(
        "field, bounds, message",
        [
            ("thickness", (2.0, 8.0), "thickness must be >= 3"),
            ("noise", (-0.1, 0.0), "noise sigma must be >= 0"),
            ("blur_radius", (-1, 0), "blur_radius must be >= 0"),
            ("curvature", (-1.0, 2.0), "curvature must be >= 0"),
        ],
    )
    def test_low_corner_rules_enforced_through_ranges(self, field, bounds, message):
        with pytest.raises(SynthSpecError, match=message):
            SynthRanges(**{field: bounds}).validate()

    def test_bad_count(self):
        with pytest.raises(ValueError):
            generate_batch(0, SynthRanges(), seed=0)
