"""Central finite-difference verification of every layer's backward pass and both losses.

For each layer kind a small random case is built; the scalar loss is the
inner product of the layer output with a fixed random projection, so the
analytic gradient of the loss is exactly backward(projection). Gradients of
the input and of every parameter are compared against central differences.
The two training losses return their own gradient with respect to the net
output, which is compared against central differences of the loss value.
"""

import numpy as np

from .layers import KIND_CODES, BatchNorm2d, Conv2d, Dense, Dropout, MaxPool2, ReLU, Upsample2
from .models import mse_loss, softmax_cross_entropy

STEP = 1e-4
TOLERANCE = 1e-4

ALL_KINDS = tuple(KIND_CODES)
LOSSES = {"softmax_cross_entropy": softmax_cross_entropy, "mse_loss": mse_loss}


def _spaced(rng: np.random.Generator, shape) -> np.ndarray:
    """Random values with pairwise gaps well above the probe step.

    Keeps inputs away from ReLU kinks and max-pool ties so the central
    difference stays valid.
    """
    n = int(np.prod(shape))
    vals = (rng.permutation(n) + 0.5) / n * 2.0 - 1.0
    return vals.reshape(shape)


def _layer_case(kind: str, rng: np.random.Generator):
    if kind == "conv2d":
        return Conv2d(3, 4, 3, rng), rng.normal(size=(2, 3, 6, 6))
    if kind == "relu":
        return ReLU(), _spaced(rng, (2, 3, 5, 5))
    if kind == "batchnorm":
        return BatchNorm2d(3), rng.normal(size=(4, 3, 4, 4))
    if kind == "maxpool2":
        return MaxPool2(), _spaced(rng, (2, 3, 6, 6))
    if kind == "upsample2":
        return Upsample2(), rng.normal(size=(2, 3, 4, 4))
    if kind == "dropout":
        return Dropout(0.25, rng), rng.normal(size=(2, 3, 4, 4))
    if kind == "dense":
        return Dense(10, 7, rng), rng.normal(size=(4, 2, 5))
    raise ValueError(f"no gradient case for layer kind {kind!r}")


def _case(kind: str, rng: np.random.Generator):
    """(tensors, scalar loss of the tensors, analytic gradients) for one check."""
    if kind in LOSSES:
        if kind == "softmax_cross_entropy":
            out, target = rng.normal(size=(2, 2, 3, 3)), rng.integers(0, 2, size=(2, 3, 3))
        else:
            out, target = rng.normal(size=(4, 1)), rng.normal(size=(4, 1))
        fn = LOSSES[kind]
        return [out], lambda: fn(out, target)[0], [fn(out, target)[1]]

    layer, x = _layer_case(kind, rng)
    projection = rng.normal(size=layer.forward(x.copy(), train=True).shape)
    dropout_seed = int(rng.integers(2**32))

    def loss():
        if isinstance(layer, Dropout):
            layer.rng = np.random.default_rng(dropout_seed)  # same mask every call
        return float((layer.forward(x, train=True) * projection).sum())

    loss()
    dx = layer.backward(projection.copy())
    return [x] + layer.params(), loss, [dx] + [g.copy() for g in layer.grads()]


def _rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    num = float(np.abs(analytic - numeric).max())
    # the floor only guards all-zero gradients: small gradients stay relative
    den = max(float(np.abs(analytic).max()), float(np.abs(numeric).max()), 1e-12)
    return num / den


def check_layer(kind: str, seed: int = 0) -> float:
    """Worst relative error across the analytic gradients of one layer kind or loss."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 13]))
    tensors, loss, analytic = _case(kind, rng)

    worst = 0.0
    for tensor, grad in zip(tensors, analytic):
        numeric = np.zeros_like(tensor, dtype=np.float64)
        flat_t = tensor.reshape(-1)
        flat_n = numeric.reshape(-1)
        for i in range(flat_t.size):
            orig = flat_t[i]
            flat_t[i] = orig + STEP
            up = loss()
            flat_t[i] = orig - STEP
            down = loss()
            flat_t[i] = orig
            flat_n[i] = (up - down) / (2.0 * STEP)
        worst = max(worst, _rel_error(np.asarray(grad), numeric))
    return worst


def run_all(seed: int = 0) -> dict[str, float]:
    """Max relative gradient error per layer kind and per loss."""
    return {kind: check_layer(kind, seed=seed) for kind in (*ALL_KINDS, *LOSSES)}
