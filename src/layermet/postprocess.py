"""Connected-component labeling and largest-component filtering for masks.

Labeling works on runs of foreground pixels in whole-array passes (Wu, Otoo
& Suzuki, "Optimizing two-pass connected-component labeling algorithms",
2009): one comparison finds every run, two `searchsorted` calls pair each run
with the previous row's runs it overlaps or touches diagonally
(8-connectivity), and an array union-find merges the pairs by hooking roots
and pointer jumping (Shiloach & Vishkin, "An O(log n) parallel connectivity
algorithm", 1982). Regions are numbered in raster discovery order, so results
are fully deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .image import BinaryMask


class EmptyPredictionError(ValueError):
    """Raised when a prediction has no foreground region to keep."""


@dataclass(frozen=True, eq=False)
class LabeledRegions:
    """Dense labels 1..R over a mask, 0 meaning background, and a read-only
    int64 array of the R areas: label k's area is at index k - 1."""

    labels: np.ndarray
    regions: np.ndarray


def label_components(mask: BinaryMask) -> LabeledRegions:
    """Label 8-connected foreground regions."""
    cells = mask.cells
    height, width = cells.shape
    stride = width + 1  # a background column after each row keeps runs inside their row

    padded = np.zeros(1 + height * stride, dtype=bool)  # and one background byte in front
    padded[1:].reshape(height, stride)[:, :width] = cells
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = edges[0::2], edges[1::2]  # half-open runs in raster order

    # run j touches run i one row up when start_i <= end_j - stride and
    # start_j - stride <= end_i: one index range per j, corners included
    lo = np.searchsorted(ends, starts - stride, side="left")
    count = np.maximum(np.searchsorted(starts, ends - stride, side="right") - lo, 0)
    below = np.repeat(np.arange(starts.size), count)
    above = np.arange(below.size) + np.repeat(lo - np.cumsum(count) + count, count)

    # every run points at a smaller run or at itself, so the links form trees
    # whose roots are their smallest runs. A round jumps pointers until each run
    # points at its root, then hooks the larger root of each touching pair that
    # differs onto the smaller one; hooking only roots makes every round merge
    # trees, and the loop ends when no touching pair differs
    root = np.arange(starts.size)
    while True:
        jumped = root[root]
        if not np.array_equal(jumped, root):
            root = jumped
            continue
        a, b = root[above], root[below]
        differ = a != b
        if not differ.any():
            break
        np.minimum.at(root, np.maximum(a, b)[differ], np.minimum(a, b)[differ])

    # numbering the roots in run order numbers the regions in raster discovery order
    run_label = np.cumsum(root == np.arange(starts.size), dtype=np.int32)[root]
    lengths = ends - starts
    labels = np.zeros((height, width), dtype=np.int32)
    labels[cells] = np.repeat(run_label, lengths)
    areas = np.bincount(run_label, weights=lengths)[1:].astype(np.int64)
    areas.flags.writeable = False
    return LabeledRegions(labels, areas)


def postprocess(mask: BinaryMask) -> BinaryMask:
    """Keep only the largest 8-connected region of a predicted mask; ties go
    to the earliest-discovered label."""
    regions = label_components(mask)
    if regions.regions.size == 0:
        raise EmptyPredictionError("prediction has no foreground region")
    return BinaryMask(regions.labels == int(np.argmax(regions.regions)) + 1)
