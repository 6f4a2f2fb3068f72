"""Neural network layers with hand-derived forward and backward passes.

Activations are float64 arrays in (N, C, H, W) order (dense layers use
(N, F)). Every layer caches what its backward pass needs during a train-mode
forward; backward returns the input gradient and fills per-parameter
gradients retrievable via `grads()`.

Convolution is unrolled into one matrix product (Chellapilla et al., 2006).
The patch matrix is channel-major, (C*k*k, N*H*W): row (c, i, j) holds the
padded input shifted by (i, j) for channel c, so it is filled by k*k slice
copies and the weight matrix (out, C*k*k) multiplies it directly. Each conv
returns its (out, N*H*W) product as a contiguous NCHW array. Handing the
next layer the (C, N, H, W) view instead would save that copy, but batchnorm
then reduces its mean, variance and sums in a different memory order and
every gradient of the segmenter changes in the last bits.
"""

import math

import numpy as np

BN_EPS = 1e-5  # added to the variance before its square root
BN_MOMENTUM = 0.1  # weight of each training batch in the running statistics


def he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """Channel-major patch matrix (C*k*k, N*H*W) of same-padded k x k windows."""
    n, c, h, w = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    col = np.empty((c, k, k, n, h, w))
    for i in range(k):
        for j in range(k):
            col[:, i, j] = xp[:, :, i : i + h, j : j + w].transpose(1, 0, 2, 3)
    return col.reshape(c * k * k, n * h * w)


def _to_nchw(y: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
    """Contiguous (N, C, H, W) copy of a (C, N*H*W) product."""
    return np.ascontiguousarray(y.reshape(-1, n, h, w).transpose(1, 0, 2, 3))


class Layer:
    kind = "?"

    def params(self) -> list[np.ndarray]:
        return []

    def grads(self) -> list[np.ndarray]:
        return []

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Conv2d(Layer):
    """k x k same-padding stride-1 convolution; k must be odd."""

    kind = "conv2d"

    def __init__(self, in_ch: int, out_ch: int, ksize: int, rng: np.random.Generator):
        if ksize % 2 != 1:
            raise ValueError(f"kernel size must be odd, got {ksize}")
        self.in_ch, self.out_ch, self.ksize = in_ch, out_ch, ksize
        self.weight = he_uniform(rng, (out_ch, in_ch, ksize, ksize), in_ch * ksize * ksize)
        self.bias = np.zeros(out_ch)
        self.dweight = np.zeros_like(self.weight)
        self.dbias = np.zeros_like(self.bias)
        self._col = None
        self._shape = None

    def params(self):
        return [self.weight, self.bias]

    def grads(self):
        return [self.dweight, self.dbias]

    def forward(self, x, train=False):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise ValueError(f"conv2d expected (N,{self.in_ch},H,W), got {x.shape}")
        n, _, h, w = x.shape
        col = _im2col(x, self.ksize)
        if train:
            self._col, self._shape = col, x.shape
        y = self.weight.reshape(self.out_ch, -1) @ col
        y += self.bias[:, None]
        return _to_nchw(y, n, h, w)

    def backward_params(self, dy):
        """Fill `dweight` and `dbias` from the output gradient; no input gradient."""
        if self._col is None:
            raise RuntimeError("conv2d backward without a cached train-mode forward")
        n, _, h, w = self._shape
        dy_mat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(n * h * w, self.out_ch)
        self.dbias[:] = dy_mat.sum(axis=0)
        self.dweight[:] = (dy_mat.T @ self._col.T).reshape(self.weight.shape)

    def backward(self, dy):
        self.backward_params(dy)
        n, _, h, w = self._shape
        # Input gradient is the correlation of dy with the flipped, transposed kernel.
        w_rev = self.weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _to_nchw(w_rev.reshape(self.in_ch, -1) @ _im2col(dy, self.ksize), n, h, w)


class ReLU(Layer):
    kind = "relu"

    def __init__(self):
        self._mask = None

    def forward(self, x, train=False):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, dy):
        return np.where(self._mask, dy, 0.0)


class BatchNorm2d(Layer):
    """Per-channel batch normalization with running statistics for inference."""

    kind = "batchnorm"

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.dgamma = np.zeros_like(self.gamma)
        self.dbeta = np.zeros_like(self.beta)
        self._cache = None

    def params(self):
        return [self.gamma, self.beta]

    def grads(self):
        return [self.dgamma, self.dbeta]

    def forward(self, x, train=False):
        if x.shape[1] != self.channels:
            raise ValueError(f"batchnorm expected {self.channels} channels, got {x.shape}")
        if train:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
            self.running_var = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var
        else:
            mean, var = self.running_mean, self.running_var
        ivar = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mean[None, :, None, None]) * ivar[None, :, None, None]
        if train:
            self._cache = (xhat, ivar, x.shape[0] * x.shape[2] * x.shape[3])
        return self.gamma[None, :, None, None] * xhat + self.beta[None, :, None, None]

    def backward(self, dy):
        if self._cache is None:
            raise RuntimeError("batchnorm backward without a cached train-mode forward")
        xhat, ivar, m = self._cache
        self.dgamma[:] = (dy * xhat).sum(axis=(0, 2, 3))
        self.dbeta[:] = dy.sum(axis=(0, 2, 3))
        dxhat = dy * self.gamma[None, :, None, None]
        sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        return (ivar[None, :, None, None] / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)


class MaxPool2(Layer):
    """2x2 max pooling with stride 2; ties go to the first element in scan order."""

    kind = "maxpool2"

    def __init__(self):
        self._cache = None

    def forward(self, x, train=False):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"maxpool2 needs even spatial dims, got {x.shape}")
        blocks = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
            n, c, h // 2, w // 2, 4
        )
        idx = blocks.argmax(axis=-1)
        self._cache = (idx, x.shape)
        return np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]

    def backward(self, dy):
        idx, (n, c, h, w) = self._cache
        out = np.zeros((n, c, h // 2, w // 2, 4))
        np.put_along_axis(out, idx[..., None], dy[..., None], axis=-1)
        return out.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)


class Upsample2(Layer):
    """Nearest-neighbor 2x spatial upsampling."""

    kind = "upsample2"

    def forward(self, x, train=False):
        return x.repeat(2, axis=2).repeat(2, axis=3)

    def backward(self, dy):
        n, c, h, w = dy.shape
        return dy.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))


class Dropout(Layer):
    """Inverted dropout: train mode zeroes units and scales survivors by 1/(1-p)."""

    kind = "dropout"

    def __init__(self, p: float, rng: np.random.Generator):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng
        self._mask = None

    def forward(self, x, train=False):
        if not train or self.p == 0.0:
            self._mask = None
            return x
        self._mask = self.rng.random(x.shape) >= self.p
        return np.where(self._mask, x / (1.0 - self.p), 0.0)

    def backward(self, dy):
        if self._mask is None:
            return dy
        return np.where(self._mask, dy / (1.0 - self.p), 0.0)


class Flatten(Layer):
    kind = "flatten"

    def __init__(self):
        self._shape = None

    def forward(self, x, train=False):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        return dy.reshape(self._shape)


class Dense(Layer):
    kind = "dense"

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.n_in, self.n_out = n_in, n_out
        self.weight = he_uniform(rng, (n_in, n_out), n_in)
        self.bias = np.zeros(n_out)
        self.dweight = np.zeros_like(self.weight)
        self.dbias = np.zeros_like(self.bias)
        self._x = None

    def params(self):
        return [self.weight, self.bias]

    def grads(self):
        return [self.dweight, self.dbias]

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ValueError(f"dense expected (N,{self.n_in}), got {x.shape}")
        if train:
            self._x = x
        return x @ self.weight + self.bias

    def backward(self, dy):
        if self._x is None:
            raise RuntimeError("dense backward without a cached train-mode forward")
        self.dweight[:] = self._x.T @ dy
        self.dbias[:] = dy.sum(axis=0)
        return dy @ self.weight.T


KIND_CODES = {
    "conv2d": 1,
    "relu": 2,
    "batchnorm": 3,
    "maxpool2": 4,
    "upsample2": 5,
    "dropout": 6,
    "flatten": 7,
    "dense": 8,
}
# Codes 9 and 10 held the softmax and linear layers of weight-format version 1;
# they stay retired so that no later kind reuses them.
