"""Segmentation and regression quality metrics, k-fold splits, comparison fits.

Dice and IoU are computed on the layer class only, from exact integer pixel
counts; a pair of empty masks scores 1.0 (perfect agreement) rather than NaN.
"""

from dataclasses import dataclass

import numpy as np

from .image import BinaryMask
from .measure import fit_regression_line


def _counts(a: BinaryMask, b: BinaryMask) -> tuple[int, int, int]:
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError(
            f"mask dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    inter = int(np.logical_and(a.cells, b.cells).sum())
    return inter, a.area, b.area


def dice(a: BinaryMask, b: BinaryMask) -> float:
    """2|A and B| / (|A| + |B|); 1.0 when both masks are empty."""
    inter, na, nb = _counts(a, b)
    if na + nb == 0:
        return 1.0
    return 2 * inter / (na + nb)


def iou(a: BinaryMask, b: BinaryMask) -> float:
    """|A and B| / |A or B|; 1.0 when both masks are empty."""
    inter, na, nb = _counts(a, b)
    union = na + nb - inter
    if union == 0:
        return 1.0
    return inter / union


def mse(pred, ref) -> float:
    """Mean squared error between two equal-length value series."""
    p = np.asarray(pred, dtype=np.float64)
    r = np.asarray(ref, dtype=np.float64)
    if p.shape != r.shape or p.ndim != 1:
        raise ValueError(f"series must be equal-length 1-D, got {p.shape} vs {r.shape}")
    if p.size == 0:
        raise ValueError("series are empty")
    return float(np.mean((p - r) ** 2))


@dataclass(frozen=True, eq=False)
class FoldSplit:
    """Disjoint covering fold assignment with sizes differing by at most one."""

    k: int
    assignment: np.ndarray  # per-sample fold index in 0..k-1

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)


def kfold(n: int, k: int, seed: int = 0) -> FoldSplit:
    """Deterministic shuffled round-robin assignment of n samples to k folds."""
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    if k > n:
        raise ValueError(f"fold count {k} exceeds sample count {n}")
    perm = np.random.default_rng(seed).permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    assignment[perm] = np.arange(n) % k
    return FoldSplit(k=k, assignment=assignment)


@dataclass(frozen=True)
class ComparisonFit:
    slope: float
    intercept: float
    r2: float


def comparison_fit(x, y) -> ComparisonFit:
    """OLS of a predicted series on a reference series, with r squared."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1 or xv.size < 2:
        raise ValueError(f"need two equal-length series of >= 2 points, got {xv.shape} vs {yv.shape}")
    line = fit_regression_line(np.column_stack([xv, yv]))  # DegenerateFitError on constant x
    ss_res = float(np.sum((yv - (line.slope * xv + line.intercept)) ** 2))
    ss_tot = float(np.sum((yv - yv.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-12 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return ComparisonFit(slope=line.slope, intercept=line.intercept, r2=r2)


def eval_report(scored: list[tuple[str, BinaryMask, BinaryMask]]) -> dict:
    """JSON-ready Dice/IoU report of (id, truth, prediction) triples, by sorted id."""
    scored = sorted(scored, key=lambda item: item[0])
    if not scored:
        raise ValueError("nothing to evaluate")
    mismatched = [
        f"{i}: truth {t.width}x{t.height}, prediction {p.width}x{p.height}"
        for i, t, p in scored
        if (t.height, t.width) != (p.height, p.width)
    ]
    if mismatched:
        raise ValueError("mask sizes differ:\n  " + "\n  ".join(mismatched))
    per_image = [{"id": i, "dice": dice(t, p), "iou": iou(t, p)} for i, t, p in scored]
    return {
        "per_image": per_image,
        "mean_dice": float(np.mean([s["dice"] for s in per_image])),
        "mean_iou": float(np.mean([s["iou"] for s in per_image])),
    }
