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
# Brightness ranges `draw_spec` draws from; the layer's minimum clears both
# darker bands' maxima by more than MIN_BRIGHTNESS_GAP.
LAYER_BRIGHTNESS = (0.75, 0.95)
UPPER_BRIGHTNESS = (0.15, 0.45)
LOWER_BRIGHTNESS = (0.15, 0.45)


class SynthSpecError(ValueError):
    """A generation spec violates its invariants."""


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
    """Separable box blur with edge replication; `radius` must be positive."""
    k = 2 * radius + 1
    for _ in range(2):  # rows, then columns through the transpose
        csum = np.cumsum(np.pad(a, ((radius, radius), (0, 0)), mode="edge"), axis=0)
        csum = np.pad(csum, ((1, 0), (0, 0)))
        a = ((csum[k:] - csum[:-k]) / k).T
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
    centers = np.rint(CURVE_OVERSAMPLE * cx).astype(int)
    best = np.full((h, w), np.inf)
    for off in range(-CURVE_OVERSAMPLE * reach, CURVE_OVERSAMPLE * reach + 1):
        idx = np.clip(centers + off, 0, CURVE_OVERSAMPLE * w)
        d2 = (u[idx] - cx) ** 2 + (cu[idx] - cy[:, None]) ** 2
        np.minimum(best, d2, out=best)
    return best <= (spec.thickness / 2.0) ** 2


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
    )
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
                raise SynthSpecError(f"{name} range [{lo}, {hi}] is inverted")
        # Each per-sample rule bounds one drawn field from one side, or bounds
        # thickness + 2*curvature from above, and the brightness draws always
        # pass; so every draw is valid when the low and high corners are.
        tilt = max(self.tilt_deg, key=abs)
        for i in (0, 1):
            t, k, noise, blur = self.thickness[i], self.curvature[i], self.noise[i], self.blur_radius[i]
            SynthSpec(self.width, self.height, t, tilt, k, noise, blur_radius=blur).validate()
        # Band must stay inside the frame at the extreme tilt and curvature.
        span = math.tan(math.radians(abs(tilt)))
        margin = span * self.width / 2.0 + self.curvature[1] + self.thickness[1] / 2.0 + 2.0
        if margin > self.height / 2.0:
            raise SynthSpecError(
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
