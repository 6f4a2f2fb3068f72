"""Connected-component labeling and largest-component filtering for masks.

Labeling is run-based two-pass union-find: row runs of foreground pixels are
merged with the previous row's runs they overlap or touch diagonally
(8-connectivity), then labels are renumbered by raster discovery order so
results are fully deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .image import BinaryMask


class EmptyPredictionError(ValueError):
    """Raised when a prediction has no foreground region to keep."""


@dataclass(frozen=True)
class RegionStats:
    label: int
    area: int


@dataclass(frozen=True, eq=False)
class LabeledRegions:
    """Dense labels 1..R over a mask, 0 meaning background, plus per-label areas."""

    labels: np.ndarray
    regions: tuple[RegionStats, ...]


def _find(parent: list[int], i: int) -> int:
    root = i
    while parent[root] != root:
        root = parent[root]
    while parent[i] != root:
        parent[i], i = root, parent[i]
    return root


def _union(parent: list[int], a: int, b: int) -> None:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[max(ra, rb)] = min(ra, rb)


def _row_runs(row: np.ndarray) -> list[tuple[int, int]]:
    """Half-open [start, end) runs of True in a boolean row."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], row.astype(np.int8), [0]))))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def label_components(mask: BinaryMask) -> LabeledRegions:
    """Label 8-connected foreground regions."""
    cells = mask.cells
    height, width = cells.shape

    parent = [0]  # provisional labels start at 1
    all_runs: list[tuple[int, int, int, int]] = []  # (y, start, end, provisional)
    prev: list[tuple[int, int, int]] = []
    for y in range(height):
        cur: list[tuple[int, int, int]] = []
        j = 0
        for start, end in _row_runs(cells[y]):
            label = 0
            # skip previous-row runs ending left of this run's neighborhood
            while j < len(prev) and prev[j][1] < start:
                j += 1
            k = j
            while k < len(prev) and prev[k][0] <= end:
                if label == 0:
                    label = prev[k][2]
                else:
                    _union(parent, label, prev[k][2])
                k += 1
            if label == 0:
                label = len(parent)
                parent.append(label)
            cur.append((start, end, label))
            all_runs.append((y, start, end, label))
        prev = cur

    labels = np.zeros((height, width), dtype=np.int32)
    remap: dict[int, int] = {}
    for y, start, end, provisional in all_runs:
        root = _find(parent, provisional)
        final = remap.setdefault(root, len(remap) + 1)
        labels[y, start:end] = final

    areas = np.bincount(labels.ravel())[1:].tolist()
    return LabeledRegions(labels, tuple(RegionStats(label, area) for label, area in enumerate(areas, start=1)))


def largest_component(regions: LabeledRegions) -> BinaryMask:
    """Mask of the maximum-area region; ties go to the earliest-discovered label."""
    if not regions.regions:
        raise EmptyPredictionError("prediction has no foreground region")
    best = max(regions.regions, key=lambda r: (r.area, -r.label))
    return BinaryMask(regions.labels == best.label)


def postprocess(mask: BinaryMask) -> BinaryMask:
    """Keep only the largest 8-connected region of a predicted mask."""
    return largest_component(label_components(mask))
