"""Segmentation and thickness-regression models plus their training loops.

The segmenter pairs a compact four-block downsampling encoder with a
four-block nearest-upsampling decoder ending in per-pixel two-class logits;
it trains on pixelwise softmax cross-entropy. The regression net maps a band mask
(resampled to a fixed 64x256 grid) to a single mean-thickness scalar and
trains on mean squared error. Both train with plain SGD + momentum and are
bit-deterministic given (data, config, seed).
"""

import math
from dataclasses import dataclass

import numpy as np

from ..image import BinaryMask, GrayImage
from .layers import BatchNorm2d, Conv2d, Dense, Dropout, Flatten, Layer, MaxPool2, ReLU, Upsample2

SEG_ARCH = 1
RCNN_ARCH = 2

SEG_CLASSES = 2
SEG_DOWNSAMPLE = 16
ENCODER_CHANNELS = (1, 8, 16, 32, 64)
DECODER_CHANNELS = (64, 32, 16, 8, 8)

RCNN_INPUT = (64, 256)  # (height, width) of the resampled mask
RCNN_BLOCKS = ((1, 8, 8, 8), (8, 16, 16, 16))
RCNN_DROPOUT = 0.25
RCNN_DENSE = (64, 16)

SGD_MOMENTUM = 0.9


class DivergenceError(RuntimeError):
    """Training loss became non-finite; `epoch` is where it happened."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged (non-finite loss) at epoch {epoch}")
        self.epoch = epoch


@dataclass
class TrainConfig:
    batch_size: int = 4
    epochs: int = 30
    learning_rate: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")


class Model:
    """A layer stack; `arch` tags it as the segmenter or the regressor.

    The segmenter's stack ends in per-class logits and the regressor's in a
    dense layer with a linear output; the losses live outside the stack.
    """

    def __init__(self, arch: int, layers: list[Layer]):
        self.arch = arch
        self.layers = layers

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, dy: np.ndarray) -> None:
        """Fill every layer's parameter gradients from the output gradient `dy`.

        Nothing reads the gradient of the net's input, so the first layer, a
        `Conv2d` in both builders, computes its parameter gradients only.
        """
        for layer in reversed(self.layers[1:]):
            dy = layer.backward(dy)
        self.layers[0].backward_params(dy)

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax across the channel axis of (N, C, H, W), numerically stabilized."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean pixelwise cross-entropy of (N, C, H, W) logits against (N, H, W) class labels.

    Returns the loss and its gradient with respect to the logits.
    """
    probs = softmax(logits)
    onehot = np.stack([labels == k for k in range(logits.shape[1])], axis=1).astype(np.float64)
    loss = float(-(onehot * np.log(probs + 1e-12)).sum() / labels.size)
    return loss, (probs - onehot) / labels.size


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient with respect to `pred`."""
    diff = pred - target
    return float(np.mean(diff**2)), 2.0 * diff / diff.size


def build_segmenter(seed: int = 0) -> Model:
    rng = np.random.default_rng(np.random.SeedSequence([seed, SEG_ARCH]))
    layers: list[Layer] = []
    for cin, cout in zip(ENCODER_CHANNELS, ENCODER_CHANNELS[1:]):
        layers += [Conv2d(cin, cout, 3, rng), ReLU(), BatchNorm2d(cout), MaxPool2()]
    for cin, cout in zip(DECODER_CHANNELS, DECODER_CHANNELS[1:]):
        layers += [Upsample2(), Conv2d(cin, cout, 3, rng), ReLU(), BatchNorm2d(cout)]
    layers += [Conv2d(DECODER_CHANNELS[-1], SEG_CLASSES, 1, rng)]
    return Model(SEG_ARCH, layers)


def build_rcnn(seed: int = 0) -> Model:
    rng = np.random.default_rng(np.random.SeedSequence([seed, RCNN_ARCH]))
    layers: list[Layer] = []
    for i, block in enumerate(RCNN_BLOCKS):
        for cin, cout in zip(block, block[1:]):
            layers += [Conv2d(cin, cout, 3, rng), ReLU()]
        # Pool before dropout: dropout's 1/(1-p) rescale ahead of a max over
        # positive activations would inflate train-mode features relative to
        # inference and bias the regression output low.
        drop_rng = np.random.default_rng(np.random.SeedSequence([seed, 7, i]))
        layers += [MaxPool2(), Dropout(RCNN_DROPOUT, drop_rng)]
    h, w = RCNN_INPUT[0] // 4, RCNN_INPUT[1] // 4
    flat = RCNN_BLOCKS[-1][-1] * h * w
    layers += [Flatten()]
    widths = (flat,) + RCNN_DENSE
    for nin, nout in zip(widths, widths[1:]):
        layers += [Dense(nin, nout, rng), ReLU()]
    layers += [Dense(RCNN_DENSE[-1], 1, rng)]
    return Model(RCNN_ARCH, layers)


def _sgd_step(params, grads, velocity, lr: float) -> None:
    for p, g, v in zip(params, grads, velocity):
        v *= SGD_MOMENTUM
        v += g
        p -= lr * v


def _check_uniform_dims(shapes: list[tuple[int, int]], divisor: int = 1) -> tuple[int, int]:
    first = shapes[0]
    for s in shapes:
        if s != first:
            raise ValueError(f"non-uniform sample dimensions: {first} vs {s}")
    if first[0] % divisor or first[1] % divisor:
        raise ValueError(f"dimensions {first} must be divisible by {divisor}")
    return first


def _run_epochs(model: Model, x, y, cfg: TrainConfig, loss_fn) -> list[float]:
    """Shared SGD loop; `loss_fn(output, target)` returns (loss, output gradient)."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 11]))
    velocity = [np.zeros_like(p) for p in model.params()]
    losses = []
    n = x.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        total, seen = 0.0, 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            loss, dout = loss_fn(model.forward(x[idx], train=True), y[idx])
            if not math.isfinite(loss):
                raise DivergenceError(epoch)
            model.backward(dout)
            _sgd_step(model.params(), model.grads(), velocity, cfg.learning_rate)
            total += loss * idx.size
            seen += idx.size
        losses.append(total / seen)
    return losses


def train_segmenter(data: list[tuple[GrayImage, BinaryMask]], cfg: TrainConfig) -> tuple[Model, list[float]]:
    """Train the segmenter on (image, mask) pairs with pixelwise cross-entropy."""
    if len(data) < 2 * cfg.batch_size:
        raise ValueError(f"need at least {2 * cfg.batch_size} samples, got {len(data)}")
    _check_uniform_dims([(img.height, img.width) for img, _ in data], SEG_DOWNSAMPLE)
    for img, m in data:
        if (img.height, img.width) != (m.height, m.width):
            raise ValueError("image and mask dimensions differ within a sample")
    x = np.stack([img.pixels for img, _ in data])[:, None, :, :]
    y = np.stack([m.cells for _, m in data]).astype(np.int64)

    model = build_segmenter(cfg.seed)
    return model, _run_epochs(model, x, y, cfg, softmax_cross_entropy)


def predict_mask(model: Model, image: GrayImage) -> BinaryMask:
    """Per-pixel argmax over class probabilities; ties go to background."""
    if image.height % SEG_DOWNSAMPLE or image.width % SEG_DOWNSAMPLE:
        raise ValueError(
            f"image dims {image.width}x{image.height} must be divisible by {SEG_DOWNSAMPLE}; "
            "use segment_image for automatic padding"
        )
    probs = softmax(model.forward(image.pixels[None, None, :, :], train=False))
    return BinaryMask(probs[0, 1] > probs[0, 0])


def segment_image(model: Model, image: GrayImage) -> BinaryMask:
    """Reflect-pad to a multiple of 16, predict, and crop back."""
    h, w = image.height, image.width
    ph = (-h) % SEG_DOWNSAMPLE
    pw = (-w) % SEG_DOWNSAMPLE
    if ph == 0 and pw == 0:
        return predict_mask(model, image)
    padded = np.pad(image.pixels, ((0, ph), (0, pw)), mode="reflect")
    mask = predict_mask(model, GrayImage(padded))
    return BinaryMask(mask.cells[:h, :w])


def resample_mask_nearest(mask: BinaryMask, height: int, width: int) -> np.ndarray:
    """Nearest-neighbor resample of mask cells to (height, width) float64 0/1."""
    rows = np.floor((np.arange(height) + 0.5) * mask.height / height).astype(int)
    cols = np.floor((np.arange(width) + 0.5) * mask.width / width).astype(int)
    return mask.cells[np.ix_(rows, cols)].astype(np.float64)


def train_rcnn(data: list[tuple[BinaryMask, float]], cfg: TrainConfig) -> tuple[Model, list[float]]:
    """Train the thickness regressor on (mask, thickness-in-pixels) pairs.

    Masks are resampled to the fixed input grid; targets are rescaled by each
    mask's vertical resample factor so the net learns in resampled units.
    """
    if len(data) < 2 * cfg.batch_size:
        raise ValueError(f"need at least {2 * cfg.batch_size} samples, got {len(data)}")
    x = np.stack([resample_mask_nearest(m, *RCNN_INPUT) for m, _ in data])[:, None, :, :]
    y = np.array([t * (RCNN_INPUT[0] / m.height) for m, t in data], dtype=np.float64)[:, None]

    model = build_rcnn(cfg.seed)
    losses = _run_epochs(model, x, y, cfg, mse_loss)
    if cfg.epochs > 0:
        _recalibrate_output(model, x, y, cfg.batch_size)
    return model, losses


def _recalibrate_output(model: Model, x: np.ndarray, y: np.ndarray, batch_size: int) -> None:
    """Fold the closed-form least-squares fit of the head into its last dense layer.

    Inference-mode predictions on the training set are regressed onto the
    targets (gain and offset), and the fit is absorbed into the head's weights
    and bias. The fit stays because dropout leaves train-mode and
    inference-mode activations in different regimes, and the linear output
    inherits that as a scale/offset error: without the fit, the held-out
    thickness MAE of the benchmark's `train` workload (seed 1) rises from
    0.85 to 5.4 px.
    """
    preds = np.concatenate(
        [model.forward(x[i : i + batch_size], train=False) for i in range(0, x.shape[0], batch_size)]
    )[:, 0]
    targets = y[:, 0]
    mp, mt = preds.mean(), targets.mean()
    var = float(np.sum((preds - mp) ** 2))
    if var > 1e-9:
        gain = float(np.sum((preds - mp) * (targets - mt)) / var)
    else:
        gain = 1.0
    offset = float(mt - gain * mp)
    head = model.layers[-1]
    head.weight *= gain
    head.bias *= gain
    head.bias += offset


def predict_thickness(model: Model, mask: BinaryMask) -> float:
    """Predicted mean thickness in source pixels."""
    if mask.area == 0:
        raise ValueError("cannot predict thickness of an empty mask")
    x = resample_mask_nearest(mask, *RCNN_INPUT)[None, None, :, :]
    out = model.forward(x, train=False)
    return float(out[0, 0]) * (mask.height / RCNN_INPUT[0])
