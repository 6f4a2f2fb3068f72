"""Bright-layer thickness metrology for grayscale micrographs.

Pipeline: generate synthetic layered images with known thickness, train a
compact encoder-decoder segmenter, clean predictions by keeping the largest
connected component, and measure layer thickness along chords perpendicular
to the fitted midline (plus a three-chord baseline and a small regression
net as alternative estimators).
"""

from .image import BinaryMask, GrayImage, RgbImage, normalize, pgm_to_mask, read_pgm, write_pgm
from .measure import orthogonal_report, three_line_report
from .metrics import dice, iou, kfold, mse
from .synth import SynthRanges, SynthSpec, generate, generate_batch

__version__ = "0.1.0"

__all__ = [
    "BinaryMask",
    "GrayImage",
    "RgbImage",
    "SynthRanges",
    "SynthSpec",
    "dice",
    "generate",
    "generate_batch",
    "iou",
    "kfold",
    "mse",
    "normalize",
    "orthogonal_report",
    "pgm_to_mask",
    "read_pgm",
    "three_line_report",
    "write_pgm",
]
