import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from layermet.image import BinaryMask
from layermet.metrics import (
    comparison_fit,
    dice,
    eval_report,
    iou,
    kfold,
    mse,
)


def _mask(seed: int, shape=(4, 4), density=0.5) -> BinaryMask:
    return BinaryMask(np.random.default_rng(seed).random(shape) < density)


class TestDiceIou:
    def test_identity(self):
        m = _mask(1)
        assert dice(m, m) == 1.0
        assert iou(m, m) == 1.0

    def test_disjoint(self):
        a = BinaryMask(np.array([[True, False], [False, False]]))
        b = BinaryMask(np.array([[False, True], [False, False]]))
        assert dice(a, b) == 0.0
        assert iou(a, b) == 0.0

    def test_constructed_overlap(self):
        # |A| = 4, |B| = 4, |A and B| = 2 on a 4x4 grid
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, 0:4] = True
        b[0, 2:4] = True
        b[1, 0:2] = True
        assert dice(BinaryMask(a), BinaryMask(b)) == 0.5
        assert iou(BinaryMask(a), BinaryMask(b)) == pytest.approx(1 / 3, abs=1e-15)

    def test_both_empty(self):
        e = BinaryMask(np.zeros((3, 3), dtype=bool))
        assert dice(e, e) == 1.0
        assert iou(e, e) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dice(BinaryMask(np.zeros((2, 2), dtype=bool)), BinaryMask(np.zeros((2, 3), dtype=bool)))

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_symmetry_and_identity_relation(self, s1, s2):
        a, b = _mask(s1), _mask(s2)
        assert dice(a, b) == dice(b, a)
        assert iou(a, b) == iou(b, a)
        i = iou(a, b)
        assert abs(dice(a, b) - 2 * i / (1 + i)) <= 1e-12

    def test_monotone_in_correct_pixels(self):
        a = np.zeros((4, 4), dtype=bool)
        a[1:3, 1:3] = True
        b = np.zeros((4, 4), dtype=bool)
        b[1, 1] = True
        before = dice(BinaryMask(a), BinaryMask(b))
        b2 = b.copy()
        b2[1, 2] = True  # add a correctly overlapping pixel
        assert dice(BinaryMask(a), BinaryMask(b2)) >= before


class TestMse:
    def test_identical(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_computed(self):
        assert mse([2.0, 4.0], [1.0, 2.0]) == 2.5

    def test_single_difference(self):
        assert mse([5.0], [2.0]) == 9.0

    def test_constant_shift(self):
        x = np.array([1.0, 5.0, 9.0])
        assert mse(x + 0.7, x) == pytest.approx(0.49, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            mse([], [])


class TestKfold:
    def test_even_split(self):
        split = kfold(10, 5, seed=3)
        sizes = [int((split.assignment == f).sum()) for f in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_partition_property(self):
        split = kfold(23, 5, seed=1)
        covered = np.concatenate([split.fold_indices(f) for f in range(5)])
        assert sorted(covered.tolist()) == list(range(23))
        sizes = [split.fold_indices(f).size for f in range(5)]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        assert (kfold(40, 4, seed=9).assignment == kfold(40, 4, seed=9).assignment).all()

    def test_k_greater_than_n(self):
        with pytest.raises(ValueError):
            kfold(3, 5, seed=0)

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            kfold(10, 1, seed=0)


class TestComparisonFit:
    def test_identity_line(self):
        fit = comparison_fit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_affine_line(self):
        x = np.arange(6, dtype=float)
        fit = comparison_fit(x, 2 * x + 3)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(3.0, abs=1e-12)

    def test_noisy_proportional_slope_within_ci(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(5, 15, size=200)
        sigma = 0.3
        y = x + rng.normal(0, sigma, size=200)
        fit = comparison_fit(x, y)
        # closed-form standard error of the OLS slope
        se = sigma / np.sqrt(np.sum((x - x.mean()) ** 2))
        assert abs(fit.slope - 1.0) < 4 * se

    def test_degenerate_x(self):
        with pytest.raises(ValueError):
            comparison_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


class TestEvalReport:
    def test_report_and_schema(self):
        a = _mask(5)
        report = eval_report([("b", a, a), ("a", a, a)])
        assert list(report) == ["per_image", "mean_dice", "mean_iou"]
        assert report["mean_dice"] == 1.0 and report["mean_iou"] == 1.0
        assert report["per_image"] == [{"id": "a", "dice": 1.0, "iou": 1.0}, {"id": "b", "dice": 1.0, "iou": 1.0}]

    def test_iou_never_exceeds_dice(self):
        for seed in range(20):
            a, b = _mask(seed), _mask(seed + 100)
            assert iou(a, b) <= dice(a, b) + 1e-15
