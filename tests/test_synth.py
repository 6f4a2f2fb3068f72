import math

import numpy as np
import pytest

from layermet import synth
from layermet.postprocess import label_components
from layermet.synth import (
    InfeasibleRangesError,
    SynthRanges,
    SynthSpec,
    SynthSpecError,
    draw_spec,
    generate,
    generate_batch,
)


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

    @pytest.mark.parametrize("budget", [1, 5000])
    def test_mask_independent_of_block_size(self, monkeypatch, budget):
        spec = SynthSpec(width=90, height=70, thickness=11.3, tilt_deg=-27, curvature=2.5)
        whole = generate(spec).truth_mask.cells
        monkeypatch.setattr(synth, "BLOCK_ELEMENTS", budget)
        assert np.array_equal(generate(spec).truth_mask.cells, whole)

    def test_true_thickness_recorded(self):
        assert generate(SynthSpec(width=32, height=64, thickness=13.5)).true_thickness == 13.5


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
        with pytest.raises(InfeasibleRangesError):
            generate_batch(1, SynthRanges(thickness=(8.0, 40.0)), seed=0)
        with pytest.raises(InfeasibleRangesError):
            generate_batch(1, SynthRanges(tilt_deg=(-34.0, 34.0)), seed=0)

    def test_bad_count(self):
        with pytest.raises(ValueError):
            generate_batch(0, SynthRanges(), seed=0)
