"""Neural network layers with hand-derived forward and backward passes.

Activations are float64 arrays in (N, C, H, W) order (dense layers flatten
their input to (N, F)). Every layer caches what its backward pass needs during
a train-mode forward; backward returns the input gradient. A layer names
the arrays it stores in `PARAMS` (trained; parameter `name`'s gradient,
filled by backward, is the attribute `"d" + name`) and `BUFFERS` (stored,
not trained: BatchNorm2d's running statistics); `params()` and `grads()`
look the names up at each call, since a train step rebinds some of them,
and a weight-file record holds `PARAMS + BUFFERS` in that order. The
gradient arrays are made by a layer's first backward, so a model that only
infers, built or loaded, holds none, and `grads()` gives `None` for each.

Each layer has one cache slot, `_cache`, which a train-mode forward fills
and `Layer._take_cache` empties: every backward takes its cache on entry, so
a trained model holds only its parameters, gradients and running statistics,
and a cache is freed as soon as its backward stops reading it.
`Conv2d.backward_params` frees the patch matrix once `dweight` is formed,
before the input gradient builds the patch matrix of `dy`; BatchNorm2d frees
`xhat`, ReLU and Dropout their masks, MaxPool2 its winner index and Dense its
input (after `dweight`) when their backward returns. A backward raises
`RuntimeError` unless a train-mode forward has cached since the last backward.

Convolution is unrolled into one matrix product (Chellapilla et al., 2006).
The patch matrix is channel-major, (C*k*k, N*H*W): row (c, i, j) holds the
padded input shifted by (i, j) for channel c, and the weight matrix
(out, C*k*k) multiplies it directly. It is filled by one copy from a strided
(C, k, k, N, H, W) view of a zero-padded, channel-major copy of the input.
A 1x1 kernel's patch matrix is the channel-major input itself: a view of one
image with no copy (the segmenter's head took 34.4 against 129.5 us at
1x8x112x208), one copy for a batch, and the same GEMM operand either way.
Each conv returns its (out, N*H*W) product as a contiguous NCHW array.
Handing the next layer the (C, N, H, W) view instead would save that copy,
but batchnorm then reduces its mean, variance and sums in a different memory
order and every gradient of the segmenter changes in the last bits.

The other layers keep the results of their first numpy versions bit for bit.
A train-mode forward computes its output as an inference forward does and
adds only what backward reads; BatchNorm2d (batch statistics) and Dropout
(the random mask) differ between the modes by definition. The layers avoid
`np.where`, gathers and scatters, which branch or index per element and ran
5-10x slower than a plain ufunc pass of the same size; the one gather left,
MaxPool2's, runs only for an output that holds a NaN:

- ReLU's forward is `np.fmax(x, 0.0)`. It maps -0.0, NaN and -inf to +0.0
  exactly as `np.where(x > 0, x, 0.0)` did; `np.maximum` would pass NaN on.
- MaxPool2 gives the first maximum of each 2x2 block in scan order, as
  `argmax` did, where an element wins only if it is larger, or NaN against a
  number. Its values come from `np.maximum(second, first)` over the column
  pairs and then the row pairs: on a tie (+0.0 against -0.0) it returns its
  second operand, the first element, and of a number and a NaN the NaN. Of
  two NaNs it returns its first operand, the later one, so an output holding
  a NaN is taken again from `x` at the winner. The winner comes from the
  same rule as comparisons, first between the two columns of each row, then
  between the two rows of the column maxima, and is computed only in train
  mode or for a NaN output. Train mode keeps it as a uint8 index (0 to 3 in
  scan order), and backward writes `dy` to the winner of each block and
  +0.0 elsewhere.
- A masked gradient, `np.where(mask, dy, 0.0)`, is `dy`'s bits ANDed with
  all-ones or all-zero words (`_masked`); Dropout masks its scaled input and
  gradient the same way.
- BatchNorm2d computes each sum from the same operands in the same order as
  `mean`, `var` and its first formulas did, and reuses its temporaries.
- Upsample2's backward adds the four strided views of `dy` in the order
  numpy's two-axis sum did. Its forward keeps `repeat`, which measured faster
  here than a `broadcast_to` and `reshape` copy. It repeats the columns
  before the rows, so the element-by-element repeat reads the input rather
  than the row-doubled array, and the row repeat copies whole rows
  (114.1 against 130.8 us at 1x8x56x104).
"""

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

BN_EPS = 1e-5  # added to the variance before its square root
BN_MOMENTUM = 0.1  # weight of each training batch in the running statistics


def he_uniform(rng: np.random.Generator | None, shape, fan_in: int) -> np.ndarray:
    """He-uniform draws from `rng`; zeros without one, for a model a loader fills."""
    if rng is None:
        return np.zeros(shape)
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """Channel-major patch matrix (C*k*k, N*H*W) of same-padded k x k windows."""
    n, c, h, w = x.shape
    if k == 1:
        # the channel-major input itself: a view for one image, one copy for a batch
        return np.ascontiguousarray(x.transpose(1, 0, 2, 3)).reshape(c, n * h * w)
    p = k // 2
    # The patch matrix is allocated before the padded copy, whose border is
    # zeroed by hand: the other order raised the peak RSS of a segment-and-
    # measure loop by 4-7 MB, and np.zeros raised it by 4-6 MB (2 MB huge
    # pages) in 8 of 40 process layouts, against 6 of 120 with these fills.
    col = np.empty((c, k, k, n, h, w))
    src = np.empty((c, n, h + 2 * p, w + 2 * p))
    src[:, :, :p] = 0.0
    src[:, :, p + h :] = 0.0
    src[:, :, p : p + h, :p] = 0.0
    src[:, :, p : p + h, p + w :] = 0.0
    src[:, :, p : p + h, p : p + w] = x.transpose(1, 0, 2, 3)
    sc, sn, sh, sw = src.strides
    # window (c, i, j) of image b is src[c, b] shifted down i rows and right j columns
    np.copyto(col, as_strided(src, (c, k, k, n, h, w), (sc, sh, sw, sn, sh, sw)))
    return col.reshape(c * k * k, n * h * w)


def _to_nchw(y: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
    """Contiguous (N, C, H, W) copy of a (C, N*H*W) product."""
    return np.ascontiguousarray(y.reshape(-1, n, h, w).transpose(1, 0, 2, 3))


def _masked(a: np.ndarray, keep: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`np.where(keep, a, 0.0)` bit for bit, written to `out` if given."""
    bits = np.bitwise_and(
        a.view(np.int64), np.negative(keep, dtype=np.int64), out=None if out is None else out.view(np.int64)
    )
    return bits.view(np.float64)


class Layer:
    kind = "?"
    PARAMS: tuple[str, ...] = ()  # trained arrays; each one's gradient is "d" + name
    BUFFERS: tuple[str, ...] = ()  # arrays that are stored but not trained
    _cache = None  # what backward needs, set by a train-mode forward

    def _take_cache(self):
        """The cache of the last train-mode forward, which the layer then drops."""
        cache = self._cache
        if cache is None:
            raise RuntimeError(f"{self.kind} backward without a cached train-mode forward")
        self._cache = None
        return cache

    def params(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.PARAMS]

    def grads(self) -> list[np.ndarray]:
        return [getattr(self, "d" + name) for name in self.PARAMS]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Conv2d(Layer):
    """k x k same-padding stride-1 convolution; k must be odd."""

    kind = "conv2d"
    PARAMS = ("weight", "bias")
    dweight = dbias = None  # made by the first backward

    def __init__(self, in_ch: int, out_ch: int, ksize: int, rng: np.random.Generator | None):
        if ksize % 2 != 1:
            raise ValueError(f"kernel size must be odd, got {ksize}")
        self.in_ch, self.out_ch, self.ksize = in_ch, out_ch, ksize
        self.weight = he_uniform(rng, (out_ch, in_ch, ksize, ksize), in_ch * ksize * ksize)
        self.bias = np.zeros(out_ch)

    def forward(self, x, train=False):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise ValueError(f"conv2d expected (N,{self.in_ch},H,W), got {x.shape}")
        n, _, h, w = x.shape
        col = _im2col(x, self.ksize)
        if train:
            self._cache = col
        y = self.weight.reshape(self.out_ch, -1) @ col
        y += self.bias[:, None]
        return _to_nchw(y, n, h, w)

    def backward_params(self, dy):
        """Fill `dweight` and `dbias` from the output gradient and release the
        patch matrix; no input gradient."""
        col = self._take_cache()
        n, _, h, w = dy.shape
        dy_mat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(n * h * w, self.out_ch)
        self.dbias = dy_mat.sum(axis=0)
        if self.dweight is None:
            self.dweight = np.empty_like(self.weight)
        np.matmul(dy_mat.T, col.T, out=self.dweight.reshape(self.out_ch, -1))

    def backward(self, dy):
        self.backward_params(dy)
        n, _, h, w = dy.shape
        # Input gradient is the correlation of dy with the flipped, transposed kernel.
        w_rev = self.weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _to_nchw(w_rev.reshape(self.in_ch, -1) @ _im2col(dy, self.ksize), n, h, w)


class ReLU(Layer):
    kind = "relu"

    def forward(self, x, train=False):
        if train:
            self._cache = x > 0
        return np.fmax(x, 0.0)

    def backward(self, dy):
        return _masked(dy, self._take_cache())


class BatchNorm2d(Layer):
    """Per-channel batch normalization with running statistics for inference."""

    kind = "batchnorm"
    PARAMS = ("gamma", "beta")
    BUFFERS = ("running_mean", "running_var")
    dgamma = dbeta = None  # made by the first backward

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x, train=False):
        if x.shape[1] != self.channels:
            raise ValueError(f"batchnorm expected {self.channels} channels, got {x.shape}")
        per_channel = (1, self.channels, 1, 1)
        if train:
            mean = x.mean(axis=(0, 2, 3))
            xhat = x - mean.reshape(per_channel)
            y = np.square(xhat)
            var = y.mean(axis=(0, 2, 3))  # x.var: the same deviations, squared and averaged
            self.running_mean = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
            self.running_var = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var
        else:
            xhat = x - self.running_mean.reshape(per_channel)
            var = self.running_var
            y = xhat  # nothing is cached, so the output overwrites xhat
        ivar = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= ivar.reshape(per_channel)
        if train:
            self._cache = (xhat, ivar, x.shape[0] * x.shape[2] * x.shape[3])
        np.multiply(xhat, self.gamma.reshape(per_channel), out=y)
        y += self.beta.reshape(per_channel)
        return y

    def backward(self, dy):
        xhat, ivar, m = self._take_cache()
        per_channel = (1, self.channels, 1, 1)
        prod = dy * xhat
        self.dgamma = prod.sum(axis=(0, 2, 3))
        self.dbeta = dy.sum(axis=(0, 2, 3))
        dx = dy * self.gamma.reshape(per_channel)  # dxhat until scaled below
        sum_dxhat = dx.sum(axis=(0, 2, 3), keepdims=True)
        sum_dxhat_xhat = np.multiply(dx, xhat, out=prod).sum(axis=(0, 2, 3), keepdims=True)
        # (ivar / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat), in place
        dx *= m
        dx -= sum_dxhat
        dx -= np.multiply(xhat, sum_dxhat_xhat, out=prod)
        dx *= ivar.reshape(per_channel) / m
        return dx


class MaxPool2(Layer):
    """2x2 max pooling with stride 2; ties go to the first element in scan order,
    and a NaN beats every number."""

    kind = "maxpool2"

    def forward(self, x, train=False):
        _, _, h, w = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"maxpool2 needs even spatial dims, got {x.shape}")
        # the first element goes second, so a tie keeps it (see the module docstring)
        cols = np.maximum(x[:, :, :, 1::2], x[:, :, :, 0::2])
        y = np.maximum(cols[:, :, 1::2], cols[:, :, 0::2])
        nan = np.isnan(y).any()
        if not (train or nan):
            return y
        # the winner: the first of a pair stays unless the second is larger,
        # or NaN against a number
        left = x[:, :, :, 0::2] >= x[:, :, :, 1::2]
        left |= np.isnan(x[:, :, :, 0::2])
        top = cols[:, :, 0::2] >= cols[:, :, 1::2]
        top |= np.isnan(cols[:, :, 0::2])
        bottom = ~top
        right_top, right_bottom = ~left[:, :, 0::2], ~left[:, :, 1::2]
        right = right_top ^ ((right_top ^ right_bottom) & bottom)
        win = 2 * bottom.view(np.uint8) + right.view(np.uint8)
        if nan:
            # of two NaNs np.maximum returns the later, so take the winner's bits
            y = np.choose(win, [x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)])
        if train:
            self._cache = win
        return y

    def backward(self, dy):
        win = self._take_cache()
        n, c, h, w = dy.shape
        dx = np.empty((n, c, 2 * h, 2 * w))
        for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            _masked(dy, win == k, out=dx[:, :, i::2, j::2])
        return dx


class Upsample2(Layer):
    """Nearest-neighbor 2x spatial upsampling."""

    kind = "upsample2"

    def forward(self, x, train=False):
        return x.repeat(2, axis=3).repeat(2, axis=2)

    def backward(self, dy):
        # Each row's column pair, then the two rows: the order in which
        # numpy's sum(axis=(3, 5)) of the (N, C, H/2, 2, W/2, 2) view adds.
        # At width 2 the four terms lie together and it adds them in turn.
        dx = dy[:, :, 0::2, 0::2] + dy[:, :, 0::2, 1::2]
        if dy.shape[3] == 2:
            dx += dy[:, :, 1::2, 0::2]
            dx += dy[:, :, 1::2, 1::2]
        else:
            dx += dy[:, :, 1::2, 0::2] + dy[:, :, 1::2, 1::2]
        return dx


class Dropout(Layer):
    """Inverted dropout: train mode zeroes units and scales survivors by 1/(1-p)."""

    kind = "dropout"

    def __init__(self, p: float, rng: np.random.Generator):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng

    def forward(self, x, train=False):
        if not train:
            return x
        self._cache = mask = self.rng.random(x.shape) >= self.p
        y = x / (1.0 - self.p)
        return _masked(y, mask, out=y)

    def backward(self, dy):
        mask = self._take_cache()
        dx = dy / (1.0 - self.p)
        return _masked(dx, mask, out=dx)


class Dense(Layer):
    """Fully connected layer; an (N, ...) input is flattened to (N, n_in)."""

    kind = "dense"
    PARAMS = ("weight", "bias")
    dweight = dbias = None  # made by the first backward

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator | None):
        self.n_in, self.n_out = n_in, n_out
        self.weight = he_uniform(rng, (n_in, n_out), n_in)
        self.bias = np.zeros(n_out)

    def forward(self, x, train=False):
        if x.ndim < 2 or math.prod(x.shape[1:]) != self.n_in:
            raise ValueError(f"dense expected (N,...) with {self.n_in} features, got {x.shape}")
        flat = x.reshape(x.shape[0], self.n_in)
        if train:
            self._cache = flat, x.shape
        return flat @ self.weight + self.bias

    def backward(self, dy):
        flat, shape = self._take_cache()
        if self.dweight is None:
            self.dweight = np.empty_like(self.weight)
        np.matmul(flat.T, dy, out=self.dweight)
        self.dbias = dy.sum(axis=0)
        return (dy @ self.weight.T).reshape(shape)


KIND_CODES = {
    "conv2d": 1,
    "relu": 2,
    "batchnorm": 3,
    "maxpool2": 4,
    "upsample2": 5,
    "dropout": 6,
    "dense": 8,
}
# Code 7 held the flatten layer that `Dense` absorbed, and codes 9 and 10 the
# softmax and linear layers of weight-format version 1; they stay retired so
# that no later kind reuses them.
