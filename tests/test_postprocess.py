import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from layermet.image import BinaryMask
from layermet.metrics import dice
from layermet.postprocess import (
    EmptyPredictionError,
    label_components,
    postprocess,
)
from layermet.synth import SynthSpec, generate

from conftest import flood_components, reference_label_components, spiral_cells


def _mask_from(rows: list[str]) -> BinaryMask:
    return BinaryMask(np.array([[c == "#" for c in row] for row in rows]))


def _snake(n: int) -> np.ndarray:
    """Full rows on even lines, joined at alternating ends: one region."""
    cells = np.zeros((n, n), dtype=bool)
    cells[::2] = True
    cells[1::4, -1] = True
    cells[3::4, 0] = True
    return cells


def _last_column_runs(n: int) -> np.ndarray:
    """Runs that end in the last column above runs that start in the first:
    touching only if a row's end wrapped onto the next row's start."""
    cells = np.zeros((n, n), dtype=bool)
    cells[::2, n // 2 :] = True
    cells[1::2, : n // 4] = True
    return cells


# corner contacts only, long merge chains, runs at both row ends, noise
REFERENCE_CASES = {
    "checkerboard": np.indices((64, 48)).sum(axis=0) % 2 == 0,
    "checkerboard_odd": np.indices((33, 65)).sum(axis=0) % 2 == 1,
    "snake": _snake(257),
    "spiral": spiral_cells(256),
    "last_column": _last_column_runs(96),
    "full": np.ones((17, 23), dtype=bool),
    "single_column": np.random.default_rng(3).random((200, 1)) < 0.5,
    "single_row": np.random.default_rng(4).random((1, 200)) < 0.5,
    **{f"noisy_{p}": np.random.default_rng(int(10 * p)).random((256, 256)) < p for p in (0.1, 0.3, 0.5, 0.7, 0.9)},
}


class TestLabelComponents:
    def test_empty_mask(self):
        out = label_components(BinaryMask(np.zeros((4, 4), dtype=bool)))
        assert out.regions.dtype == np.int64 and out.regions.shape == (0,)
        assert (out.labels == 0).all()

    def test_single_block_stats(self):
        cells = np.zeros((7, 7), dtype=bool)
        cells[2:5, 3:6] = True
        out = label_components(BinaryMask(cells))
        assert out.regions.tolist() == [9]
        assert (out.labels == 1).sum() == 9 and out.labels[2:5, 3:6].all()

    def test_diagonal_connectivity(self):
        mask = _mask_from(["#.", ".#"])
        assert len(label_components(mask).regions) == 1

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40), st.floats(0.0, 1.0))
    def test_matches_flood_fill_oracle(self, seed, height, width, density):
        cells = np.random.default_rng(seed).random((height, width)) < density
        mask = BinaryMask(cells)
        out = label_components(mask)
        oracle = flood_components(cells)
        assert len(out.regions) == len(oracle)
        # identical partitions, in the same raster discovery order
        for label, (area, pixels) in enumerate(zip(out.regions.tolist(), oracle), start=1):
            got = {
                (y, x)
                for y, x in zip(*np.nonzero(out.labels == label))
            }
            assert got == pixels
            assert area == len(pixels)
        assert out.regions.sum() == int(cells.sum())

    @pytest.mark.parametrize("cells", list(REFERENCE_CASES.values()), ids=list(REFERENCE_CASES))
    def test_matches_reference_labeler(self, cells):
        out = label_components(BinaryMask(cells))
        ref = reference_label_components(BinaryMask(cells))
        assert out.labels.dtype == np.int32 and out.labels.flags.c_contiguous
        assert np.array_equal(out.labels, ref.labels)
        assert np.array_equal(out.regions, ref.regions)

    @given(st.integers(0, 2**32 - 1))
    def test_labels_dense_and_stats_consistent(self, seed):
        cells = np.random.default_rng(seed).random((10, 10)) < 0.45
        out = label_components(BinaryMask(cells))
        count = len(out.regions)
        assert out.regions.dtype == np.int64 and out.regions.shape == (count,)
        assert not out.regions.flags.writeable
        assert np.unique(out.labels[cells]).tolist() == list(range(1, count + 1))
        assert (out.labels[~cells] == 0).all()
        assert np.array_equal(out.regions, np.bincount(out.labels.ravel(), minlength=count + 1)[1:])

    @given(
        st.integers(0, 2**16),
        st.integers(8, 96),
        st.floats(-35.0, 35.0),
        st.floats(0.0, 0.4),
        st.sampled_from(["horizontal", "vertical", "transpose", "anti-transpose"]),
    )
    def test_areas_invariant_under_flips_and_transposes(self, seed, width, tilt, speckle, move):
        band = generate(SynthSpec(width=width, height=40, thickness=6, tilt_deg=tilt, seed=seed)).truth_mask.cells
        cells = band ^ (np.random.default_rng(seed).random(band.shape) < speckle)
        moved = {
            "horizontal": cells[:, ::-1],
            "vertical": cells[::-1],
            "transpose": cells.T,
            "anti-transpose": cells[::-1, ::-1].T,
        }[move]
        areas = np.sort(label_components(BinaryMask(cells)).regions)
        assert np.array_equal(np.sort(label_components(BinaryMask(moved.copy())).regions), areas)


class TestLargestComponent:
    def test_keeps_bigger_blob(self):
        cells = np.zeros((10, 12), dtype=bool)
        cells[1:4, 1:4] = True  # area 9
        cells[6:8, 7:9] = True  # area 4
        out = postprocess(BinaryMask(cells))
        assert out.area == 9
        assert out.cells[2, 2] and not out.cells[6, 7]

    def test_single_blob_identity(self):
        cells = np.zeros((5, 5), dtype=bool)
        cells[1:4, 1:3] = True
        out = postprocess(BinaryMask(cells))
        assert (out.cells == cells).all()

    def test_tie_goes_to_earlier_raster_discovery(self):
        mask = _mask_from(
            [
                "....##",
                "......",
                "##....",
            ]
        )
        out = postprocess(mask)
        assert out.cells[0, 4] and out.cells[0, 5]
        assert not out.cells[2, 0]


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

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 8), st.integers(1, 12))
    def test_equal_area_specks_keep_the_earliest(self, seed, area, rows, cols):
        """Many straight specks, most of one area, across or down at drawn
        offsets in a grid of cells: the kept region is the oracle's first
        largest in raster discovery order, not the first in cell order."""
        rng = np.random.default_rng(seed)
        step = area + 1  # a background line between cells keeps specks apart
        cells = np.zeros((rows * step, cols * step), dtype=bool)
        for y in range(0, rows * step, step):
            for x in range(0, cols * step, step):
                length = area if rng.random() < 0.7 else int(rng.integers(1, area + 1))
                offset = int(rng.integers(0, area))
                if rng.random() < 0.5:
                    cells[y + offset, x : x + length] = True
                else:
                    cells[y : y + length, x + offset] = True
        largest = max(flood_components(cells), key=len)  # max keeps the first of a tie
        got = set(zip(*np.nonzero(postprocess(BinaryMask(cells)).cells)))
        assert got == largest
