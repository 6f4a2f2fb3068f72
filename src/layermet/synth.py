"""Synthetic layered micrographs with analytically known thickness.

Each sample is a bright band between two darker regions. The band centerline
is a tilted sinusoid; a pixel belongs to the band exactly when its distance to
the centerline curve is at most half the nominal thickness, so the true
perpendicular thickness is known in closed form and serves as the measurement
oracle for the whole pipeline.
"""

import math
from dataclasses import dataclass

import numpy as np

from .image import BinaryMask, GrayImage
from .postprocess import label_components

# Centerline is sampled at 4x column resolution for the distance test.
CURVE_OVERSAMPLE = 4
MIN_BRIGHTNESS_GAP = 0.1
MAX_TILT_DEG = 35.0
# Elements of the (columns, rows, curve samples) distance block that
# `_band_mask` evaluates at once: 16 MB of float64.
BLOCK_ELEMENTS = 2**21
# Brightness ranges `draw_spec` draws from; the layer's minimum clears both
# darker bands' maxima by more than MIN_BRIGHTNESS_GAP.
LAYER_BRIGHTNESS = (0.75, 0.95)
UPPER_BRIGHTNESS = (0.15, 0.45)
LOWER_BRIGHTNESS = (0.15, 0.45)


class SynthSpecError(ValueError):
    """A generation spec violates its invariants."""


class InfeasibleRangesError(ValueError):
    """Batch parameter ranges cannot produce valid specs."""


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic sample; `validate` enforces the invariants."""

    width: int
    height: int
    thickness: float
    tilt_deg: float = 0.0
    curvature: float = 0.0
    noise: float = 0.0
    layer_brightness: float = 0.85
    upper_brightness: float = 0.35
    lower_brightness: float = 0.25
    blur_radius: int = 0
    seed: int = 0

    def validate(self) -> None:
        if self.width < 1 or self.height < 1:
            raise SynthSpecError(f"dimensions must be positive, got {self.width}x{self.height}")
        if self.thickness < 3:
            raise SynthSpecError(f"thickness must be >= 3 px, got {self.thickness}")
        if self.curvature < 0:
            raise SynthSpecError(f"curvature must be >= 0, got {self.curvature}")
        if self.thickness + 2 * self.curvature > self.height / 2:
            raise SynthSpecError(
                f"band does not fit: thickness {self.thickness} + 2*curvature "
                f"{self.curvature} exceeds height/2 = {self.height / 2}"
            )
        if abs(self.tilt_deg) > MAX_TILT_DEG:
            raise SynthSpecError(f"tilt must be within +-{MAX_TILT_DEG} deg, got {self.tilt_deg}")
        if self.noise < 0:
            raise SynthSpecError(f"noise sigma must be >= 0, got {self.noise}")
        for name in ("layer_brightness", "upper_brightness", "lower_brightness"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise SynthSpecError(f"{name} must lie in [0, 1], got {v}")
        floor = max(self.upper_brightness, self.lower_brightness) + MIN_BRIGHTNESS_GAP
        if self.layer_brightness <= floor:
            raise SynthSpecError(
                f"layer_brightness {self.layer_brightness} must exceed the darker "
                f"bands by more than {MIN_BRIGHTNESS_GAP} (needs > {floor})"
            )
        if self.blur_radius < 0:
            raise SynthSpecError(f"blur_radius must be >= 0, got {self.blur_radius}")


@dataclass(frozen=True, eq=False)
class SynthSample:
    image: GrayImage
    truth_mask: BinaryMask
    true_thickness: float
    spec: SynthSpec


def centerline(spec: SynthSpec, x):
    """Band centerline y(x) in continuous coordinates (pixel centers at +0.5)."""
    slope = math.tan(math.radians(spec.tilt_deg))
    x = np.asarray(x, dtype=np.float64)
    return (
        spec.height / 2.0
        + slope * (x - spec.width / 2.0)
        + spec.curvature * np.sin(2.0 * np.pi * x / spec.width)
    )


def _box_blur(a: np.ndarray, radius: int) -> np.ndarray:
    """Separable box blur with edge replication."""
    if radius <= 0:
        return a
    k = 2 * radius + 1
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.pad(a, pad, mode="edge")
        csum = np.cumsum(padded, axis=axis)
        zero = np.zeros_like(np.take(csum, [0], axis=axis))
        csum = np.concatenate([zero, csum], axis=axis)
        hi = np.take(csum, np.arange(k, csum.shape[axis]), axis=axis)
        lo = np.take(csum, np.arange(0, csum.shape[axis] - k), axis=axis)
        a = (hi - lo) / k
    return a


def _band_mask(spec: SynthSpec) -> np.ndarray:
    """Pixels whose center is within thickness/2 of the sampled centerline."""
    w, h = spec.width, spec.height
    cx = np.arange(w) + 0.5
    cy = np.arange(h) + 0.5
    u = np.arange(CURVE_OVERSAMPLE * w + 1) / CURVE_OVERSAMPLE
    cu = centerline(spec, u)

    # Columns whose curve samples can be nearest to in-band pixels: the foot of
    # the perpendicular moves at most d*sin(slope angle) columns sideways.
    slope_bound = abs(math.tan(math.radians(spec.tilt_deg))) + spec.curvature * 2.0 * np.pi / w
    sin_bound = slope_bound / math.hypot(1.0, slope_bound)
    reach = int(math.ceil((spec.thickness / 2.0 + 1.5) * sin_bound)) + 1
    offsets = np.arange(-CURVE_OVERSAMPLE * reach, CURVE_OVERSAMPLE * reach + 1)
    centers = np.rint(CURVE_OVERSAMPLE * cx).astype(int)
    idx = np.clip(centers[:, None] + offsets[None, :], 0, CURVE_OVERSAMPLE * w)

    du = u[idx] - cx[:, None]  # (w, k)
    dv = cu[idx]  # (w, k)
    mask = np.empty((h, w), dtype=bool)
    step = max(1, BLOCK_ELEMENTS // (h * offsets.size))
    for lo in range(0, w, step):
        block = slice(lo, lo + step)
        d2 = du[block, None, :] ** 2 + (dv[block, None, :] - cy[None, :, None]) ** 2
        mask[:, block] = (d2.min(axis=2) <= (spec.thickness / 2.0) ** 2).T
    return mask


def generate(spec: SynthSpec) -> SynthSample:
    """Render one sample: band mask, per-region brightness, noise, then blur."""
    spec.validate()
    mask = _band_mask(spec)
    if not mask.any():
        raise SynthSpecError("band lies entirely outside the image")

    cx = np.arange(spec.width) + 0.5
    cy = np.arange(spec.height) + 0.5
    above = cy[:, None] < centerline(spec, cx)[None, :]
    img = np.where(
        mask,
        spec.layer_brightness,
        np.where(above, spec.upper_brightness, spec.lower_brightness),
    ).astype(np.float64)
    if spec.noise > 0:
        rng = np.random.default_rng(spec.seed)
        img = img + rng.normal(0.0, spec.noise, img.shape)
    img = np.clip(img, 0.0, 1.0)
    if spec.blur_radius > 0:
        img = np.clip(_box_blur(img, spec.blur_radius), 0.0, 1.0)

    truth = BinaryMask(mask)
    if len(label_components(truth).regions) != 1:
        raise SynthSpecError("band rasterized into more than one connected region")
    return SynthSample(GrayImage(img), truth, float(spec.thickness), spec)


@dataclass(frozen=True)
class SynthRanges:
    """Per-field min/max bounds for batch generation."""

    width: int = 96
    height: int = 64
    thickness: tuple[float, float] = (8.0, 16.0)
    tilt_deg: tuple[float, float] = (-18.0, 18.0)
    curvature: tuple[float, float] = (0.0, 2.0)
    noise: tuple[float, float] = (0.0, 0.05)
    blur_radius: tuple[int, int] = (0, 1)

    def validate(self) -> None:
        for name in ("thickness", "tilt_deg", "curvature", "noise", "blur_radius"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise InfeasibleRangesError(f"{name} range [{lo}, {hi}] is inverted")
        t_lo, t_hi = self.thickness
        k_hi = self.curvature[1]
        if t_lo < 3:
            raise InfeasibleRangesError(f"thickness minimum {t_lo} is below 3 px")
        if t_hi + 2 * k_hi > self.height / 2:
            raise InfeasibleRangesError(
                f"thickness {t_hi} + 2*curvature {k_hi} exceeds height/2 = {self.height / 2}"
            )
        if max(abs(self.tilt_deg[0]), abs(self.tilt_deg[1])) > MAX_TILT_DEG:
            raise InfeasibleRangesError(f"tilt range exceeds +-{MAX_TILT_DEG} deg")
        if self.noise[0] < 0 or self.blur_radius[0] < 0:
            raise InfeasibleRangesError("noise and blur_radius must be >= 0")
        # Band must stay inside the frame at the extreme tilt and curvature.
        span = math.tan(math.radians(max(abs(self.tilt_deg[0]), abs(self.tilt_deg[1]))))
        margin = span * self.width / 2.0 + k_hi + t_hi / 2.0 + 2.0
        if margin > self.height / 2.0:
            raise InfeasibleRangesError(
                f"band can leave the frame: extent {margin:.1f} exceeds height/2 = {self.height / 2}"
            )


def draw_spec(ranges: SynthRanges, seed: int, index: int) -> SynthSpec:
    """Deterministic per-index parameter draw (counter-style seeding)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    t = rng.uniform(*ranges.thickness)
    tilt = rng.uniform(*ranges.tilt_deg)
    curv = rng.uniform(*ranges.curvature)
    noise = rng.uniform(*ranges.noise)
    layer_b = rng.uniform(*LAYER_BRIGHTNESS)
    upper_b = rng.uniform(*UPPER_BRIGHTNESS)
    lower_b = rng.uniform(*LOWER_BRIGHTNESS)
    blur = int(rng.integers(ranges.blur_radius[0], ranges.blur_radius[1] + 1))
    sample_seed = int(rng.integers(0, 2**62))
    return SynthSpec(
        width=ranges.width,
        height=ranges.height,
        thickness=t,
        tilt_deg=tilt,
        curvature=curv,
        noise=noise,
        layer_brightness=layer_b,
        upper_brightness=upper_b,
        lower_brightness=lower_b,
        blur_radius=blur,
        seed=sample_seed,
    )


def generate_batch(n: int, ranges: SynthRanges | None = None, seed: int = 0) -> list[SynthSample]:
    """Generate `n` samples with parameters drawn uniformly from `ranges`."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    ranges = ranges or SynthRanges()
    ranges.validate()
    return [generate(draw_spec(ranges, seed, i)) for i in range(n)]
