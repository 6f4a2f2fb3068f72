import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from layermet.image import BinaryMask
from layermet.metrics import dice
from layermet.postprocess import (
    EmptyPredictionError,
    label_components,
    largest_component,
    postprocess,
)

from conftest import flood_components


def _mask_from(rows: list[str]) -> BinaryMask:
    return BinaryMask(np.array([[c == "#" for c in row] for row in rows]))


class TestLabelComponents:
    def test_empty_mask(self):
        out = label_components(BinaryMask(np.zeros((4, 4), dtype=bool)))
        assert out.regions == ()
        assert (out.labels == 0).all()

    def test_single_block_stats(self):
        cells = np.zeros((7, 7), dtype=bool)
        cells[2:5, 3:6] = True
        out = label_components(BinaryMask(cells))
        assert len(out.regions) == 1
        region = out.regions[0]
        assert (region.label, region.area) == (1, 9)
        assert (out.labels == 1).sum() == 9 and out.labels[2:5, 3:6].all()

    def test_diagonal_connectivity(self):
        mask = _mask_from(["#.", ".#"])
        assert len(label_components(mask).regions) == 1

    @given(st.integers(0, 2**32 - 1), st.floats(0.2, 0.8))
    def test_matches_flood_fill_oracle(self, seed, density):
        cells = np.random.default_rng(seed).random((12, 14)) < density
        mask = BinaryMask(cells)
        out = label_components(mask)
        oracle = flood_components(cells)
        assert len(out.regions) == len(oracle)
        # identical partitions, in the same raster discovery order
        for region, pixels in zip(out.regions, oracle):
            got = {
                (y, x)
                for y, x in zip(*np.nonzero(out.labels == region.label))
            }
            assert got == pixels
            assert region.area == len(pixels)
        assert sum(r.area for r in out.regions) == int(cells.sum())

    @given(st.integers(0, 2**32 - 1))
    def test_labels_dense_and_stats_consistent(self, seed):
        cells = np.random.default_rng(seed).random((10, 10)) < 0.45
        out = label_components(BinaryMask(cells))
        labels = sorted(r.label for r in out.regions)
        assert labels == list(range(1, len(labels) + 1))
        assert set(np.unique(out.labels[cells]).tolist()) == set(labels)
        assert (out.labels[~cells] == 0).all()
        for r in out.regions:
            assert r.area == int((out.labels == r.label).sum())


class TestLargestComponent:
    def test_keeps_bigger_blob(self):
        cells = np.zeros((10, 12), dtype=bool)
        cells[1:4, 1:4] = True  # area 9
        cells[6:8, 7:9] = True  # area 4
        out = largest_component(label_components(BinaryMask(cells)))
        assert out.area == 9
        assert out.cells[2, 2] and not out.cells[6, 7]

    def test_single_blob_identity(self):
        cells = np.zeros((5, 5), dtype=bool)
        cells[1:4, 1:3] = True
        out = largest_component(label_components(BinaryMask(cells)))
        assert (out.cells == cells).all()

    def test_tie_goes_to_earlier_raster_discovery(self):
        mask = _mask_from(
            [
                "....##",
                "......",
                "##....",
            ]
        )
        out = largest_component(label_components(mask))
        assert out.cells[0, 4] and out.cells[0, 5]
        assert not out.cells[2, 0]

    def test_empty_raises(self):
        with pytest.raises(EmptyPredictionError):
            largest_component(label_components(BinaryMask(np.zeros((3, 3), dtype=bool))))


class TestPostprocess:
    def test_speck_removed_and_dice_improves(self):
        truth = np.zeros((20, 40), dtype=bool)
        truth[8:14, :] = True
        corrupted = truth.copy()
        corrupted[1:3, 5:8] = True  # spurious speck away from the band
        before = dice(BinaryMask(truth), BinaryMask(corrupted))
        cleaned = postprocess(BinaryMask(corrupted))
        after = dice(BinaryMask(truth), cleaned)
        assert (cleaned.cells == truth).all()
        assert after > before

    def test_already_clean_unchanged(self):
        cells = np.zeros((8, 8), dtype=bool)
        cells[2:5, 1:7] = True
        out = postprocess(BinaryMask(cells))
        assert (out.cells == cells).all()

    def test_empty_raises(self):
        with pytest.raises(EmptyPredictionError):
            postprocess(BinaryMask(np.zeros((4, 4), dtype=bool)))

    @given(st.integers(0, 2**32 - 1))
    def test_subset_single_component_idempotent(self, seed):
        cells = np.random.default_rng(seed).random((12, 12)) < 0.4
        if not cells.any():
            cells[3, 3] = True
        out = postprocess(BinaryMask(cells))
        assert (out.cells <= cells).all()  # only removes pixels
        assert len(flood_components(out.cells)) == 1
        again = postprocess(out)
        assert (again.cells == out.cells).all()
