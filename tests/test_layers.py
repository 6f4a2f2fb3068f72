import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from layermet.nnet import gradcheck, layers
from layermet.nnet.gradcheck import ALL_KINDS, LOSSES, TOLERANCE, check_layer, run_all
from layermet.nnet.layers import BatchNorm2d, Conv2d, Dense, Dropout, MaxPool2, ReLU, Upsample2
from layermet.nnet.models import build_rcnn, build_segmenter, softmax

from conftest import (
    reference_batchnorm2d,
    reference_conv2d,
    reference_im2col,
    reference_maxpool2,
    reference_relu,
    reference_upsample2,
)

# (height, width) of the benchmark's inspect images after segment_image pads
# them to multiples of 16
INSPECT_PADDED = ((48, 80), (64, 96), (80, 128), (96, 160), (64, 112), (48, 64), (80, 144), (112, 208))
# signed zeros, infinities, two ordered numbers and two quiet NaNs with
# different payloads: every case where a max can return other bits
POOL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, 2.0, np.nan, np.int64(0x7FF8000000000001).view(np.float64)])
NON_CONV = ("relu", "batchnorm", "maxpool2", "upsample2")
REFERENCES = {"relu": reference_relu, "maxpool2": reference_maxpool2, "upsample2": reference_upsample2}


def _conv_cases(model, x):
    """(conv, its input) for every conv of `model` on a train-mode forward of `x`."""
    cases = []
    for layer in model.layers:
        if isinstance(layer, Conv2d):
            cases.append((layer, x))
        x = layer.forward(x, train=True)
    return cases


class TestForwardSemantics:
    def test_conv_delta_kernel_is_identity(self, rng):
        conv = Conv2d(1, 1, 3, rng)
        conv.weight[:] = 0.0
        conv.weight[0, 0, 1, 1] = 1.0
        conv.bias[:] = 0.0
        x = rng.normal(size=(2, 1, 6, 8))
        assert np.allclose(conv.forward(x), x)

    def test_conv_shape_error(self, rng):
        conv = Conv2d(3, 4, 3, rng)
        with pytest.raises(ValueError, match="expected"):
            conv.forward(rng.normal(size=(1, 2, 8, 8)))

    def test_upsample_replicates(self):
        x = np.array([[[[3.5]]]])
        out = Upsample2().forward(x)
        assert out.shape == (1, 1, 2, 2)
        assert (out == 3.5).all()

    def test_maxpool_takes_block_max(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2().forward(x)
        assert out[0, 0].tolist() == [[5.0, 7.0], [13.0, 15.0]]

    def test_softmax_uniform_on_equal_logits(self):
        x = np.zeros((1, 2, 3, 3))
        out = softmax(x)
        assert np.allclose(out, 0.5)

    def test_softmax_sums_to_one(self, rng):
        x = rng.normal(scale=4.0, size=(2, 5, 6, 6))
        out = softmax(x)
        sums = out.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-6
        assert (out > 0).all() and (out < 1).all()

    def test_relu_clamps(self):
        x = np.array([[-1.0, 0.5]])
        assert ReLU().forward(x).tolist() == [[0.0, 0.5]]

    def test_dense_backward_closed_form(self, rng):
        dense = Dense(5, 3, rng)
        x = rng.normal(size=(4, 5))
        g = rng.normal(size=(4, 3))
        dense.forward(x, train=True)
        dx = dense.backward(g)
        assert np.allclose(dense.dweight, x.T @ g)
        assert np.allclose(dense.dbias, g.sum(axis=0))
        assert np.allclose(dx, g @ dense.weight.T)

    def test_dense_flattens_its_input(self, rng):
        x = rng.normal(size=(4, 3, 4, 4))
        g = rng.normal(size=(4, 5))
        flat = Dense(48, 5, np.random.default_rng(1))
        multi = Dense(48, 5, np.random.default_rng(1))
        y_flat = flat.forward(x.reshape(4, 48), train=True)
        y_multi = multi.forward(x, train=True)
        dx_flat, dx_multi = flat.backward(g), multi.backward(g)
        assert (y_multi == y_flat).all()
        assert (multi.dweight == flat.dweight).all() and (multi.dbias == flat.dbias).all()
        assert dx_multi.shape == x.shape
        assert (dx_multi == dx_flat.reshape(x.shape)).all()

    @pytest.mark.parametrize("net", ("segmenter", "rcnn", "gradcheck"))
    def test_conv_equals_row_major_reference(self, net, rng):
        # the training shapes of the acceptance criteria, and gradcheck's 3->4 case
        if net == "segmenter":
            cases = _conv_cases(build_segmenter(1), rng.uniform(size=(4, 1, 48, 80)))
        elif net == "rcnn":
            cases = _conv_cases(build_rcnn(1), (rng.uniform(size=(4, 1, 64, 256)) > 0.5) * 1.0)
        else:
            cases = [(Conv2d(3, 4, 3, rng), rng.normal(size=(2, 3, 6, 6)))]
        for conv, x in cases:
            y = conv.forward(x, train=True)
            dy = rng.normal(size=y.shape)
            dx = conv.backward(dy)
            ref_y, ref_dweight, ref_dbias, ref_dx = reference_conv2d(conv.weight, conv.bias, x, dy)
            assert np.array_equal(y, ref_y)
            assert np.array_equal(conv.dweight, ref_dweight)
            assert np.array_equal(conv.dbias, ref_dbias)
            assert dx.flags.c_contiguous and y.flags.c_contiguous
            if conv.in_ch >= 8:
                assert np.array_equal(dx, ref_dx)
            else:
                # with fewer than 8 output rows the BLAS product of the new
                # layout sums in another order (measured <= 4.2e-16 relative)
                assert np.abs(dx - ref_dx).max() <= 1e-12 * np.abs(ref_dx).max()

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.sampled_from((1, 3, 5)),
        n=st.sampled_from((1, 3)),
        c=st.integers(1, 3),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_im2col_equals_slice_copy_reference(self, k, n, c, h, w, seed):
        # bit for bit, inputs smaller than the kernel included; -0.0, NaN and
        # infinities must come through as they are
        x = np.random.default_rng(seed).normal(size=(n, c, h, w))
        x.flat[:: max(1, x.size // 3)] = (-0.0, np.nan, np.inf, -np.inf)[seed % 4]
        col, ref = layers._im2col(x, k), reference_im2col(x, k)
        assert col.shape == ref.shape == (c * k * k, n * h * w)
        assert _same(col, ref)
        if k == 1 and n == 1:
            assert np.shares_memory(col, x)  # one image's 1x1 patch matrix is the input

    def test_zero_upstream_gives_zero_grads(self, rng):
        conv = Conv2d(2, 3, 3, rng)
        x = rng.normal(size=(2, 2, 4, 4))
        conv.forward(x, train=True)
        dx = conv.backward(np.zeros((2, 3, 4, 4)))
        assert (dx == 0).all()
        assert (conv.dweight == 0).all() and (conv.dbias == 0).all()


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bits, so -0.0 differs from +0.0 and NaNs compare."""
    bits = [np.ascontiguousarray(v).view(np.int64) for v in (a, b)]
    return a.shape == b.shape and np.array_equal(*bits)


def _assert_matches_reference(kind: str, x: np.ndarray, rng) -> None:
    """A fresh layer of `kind` gives its reference's bits in an inference
    forward, a train-mode forward and backward, and (batchnorm) the running
    statistics and a later inference forward."""
    if kind == "batchnorm":
        bn = BatchNorm2d(x.shape[1])
        for value in (bn.gamma, bn.beta, bn.running_mean):
            value[:] = rng.normal(size=value.shape)
        bn.running_var[:] = rng.uniform(0.5, 2.0, size=bn.running_var.shape)
        state = [a.copy() for a in (bn.gamma, bn.beta, bn.running_mean, bn.running_var)]
        dy = rng.normal(size=x.shape)
        y, dx, dgamma, dbeta, running_mean, running_var, y_infer = reference_batchnorm2d(x, dy, *state)
        assert _same(bn.forward(x, train=True), y)
        assert _same(bn.backward(dy), dx)
        assert _same(bn.dgamma, dgamma) and _same(bn.dbeta, dbeta)
        assert _same(bn.running_mean, running_mean) and _same(bn.running_var, running_var)
        assert _same(bn.forward(x), y_infer)
        return
    layer = {"relu": ReLU, "maxpool2": MaxPool2, "upsample2": Upsample2}[kind]()
    y_infer = layer.forward(x)
    dy = rng.normal(size=y_infer.shape)
    y, dx = REFERENCES[kind](x, dy)
    assert _same(y_infer, y)
    assert _same(layer.forward(x, train=True), y)
    assert _same(layer.backward(dy), dx)


CACHING = ("conv2d", "relu", "batchnorm", "maxpool2", "dropout", "dense")


def _caching_layer(kind: str, rng):
    """A layer of `kind` that takes a (2, 2, 4, 4) input."""
    return {
        "conv2d": lambda: Conv2d(2, 3, 3, rng),
        "relu": ReLU,
        "batchnorm": lambda: BatchNorm2d(2),
        "maxpool2": MaxPool2,
        "dropout": lambda: Dropout(0.5, rng),
        "dense": lambda: Dense(32, 3, rng),
    }[kind]()


class TestNonConvAgainstReference:
    """ReLU, MaxPool2, BatchNorm2d and Upsample2 against their first numpy
    versions in `conftest.py`, on the inputs each meets in the nets."""

    @pytest.mark.parametrize(
        "net, shape",
        [("segmenter", (4, 1, 48, 80)), ("rcnn", (4, 1, 64, 256))]
        + [("segmenter", (1, 1, h, w)) for h, w in INSPECT_PADDED],
    )
    def test_layers_in_net(self, net, shape, rng):
        if net == "segmenter":
            model, x = build_segmenter(1), rng.uniform(size=shape)
        else:
            model, x = build_rcnn(1), (rng.uniform(size=shape) > 0.5) * 1.0
        for kind in NON_CONV:
            _assert_matches_reference(kind, x, rng)
        seen = set()
        for layer in model.layers:
            if layer.kind in NON_CONV:
                _assert_matches_reference(layer.kind, x, rng)
                seen.add(layer.kind)
            x = layer.forward(x, train=True)
        assert seen == (set(NON_CONV) if net == "segmenter" else {"relu", "maxpool2"})

    @pytest.mark.parametrize(
        "shape", [(1, 1, 2, 2), (3, 2, 6, 2), (2, 3, 2, 8), (1, 2, 10, 2), (2, 1, 4, 1), (3, 2, 5, 1)]
    )
    def test_narrow_shapes(self, shape, rng):
        # widths 1 and 2 reach the layouts where numpy's two-axis sum adds in another order
        x = rng.normal(size=shape) * np.exp(rng.uniform(0.0, 30.0, size=shape))
        for kind in ("relu", "batchnorm", "upsample2") + (("maxpool2",) if shape[3] % 2 == 0 else ()):
            _assert_matches_reference(kind, x, rng)

    def test_relu_special_values(self):
        x = np.array([-0.0, 0.0, np.nan, -np.nan, -np.inf, np.inf, -5e-324, 5e-324])
        expected = np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.inf, 0.0, 5e-324])
        for train in (False, True):
            y = ReLU().forward(x, train=train)
            assert y.view(np.int64).tolist() == expected.view(np.int64).tolist()

    @pytest.mark.parametrize(
        "values",
        [
            (0.0, 1.0, 2.0),  # 2-4 equal maxima in many blocks
            (-0.0, 0.0, -1.0),  # signed zeros tie
            (np.nan, -np.nan, 1.0, -0.0, 0.0, np.inf, -np.inf),
            (0.0, 1.0),  # a 0/1 mask
        ],
    )
    def test_maxpool_ties(self, values, rng):
        x = rng.choice(np.array(values), size=(3, 4, 8, 12))
        x[0, 0] = 1.0  # whole blocks of one value
        x[0, 1] = 0.0
        blocks = x.reshape(3, 4, 4, 2, 6, 2).transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4)
        if not np.isnan(blocks).any():
            ties = (blocks == blocks.max(axis=1, keepdims=True)).sum(axis=1)
            assert {2, 3, 4} <= set(ties.tolist())
        routes = rng.permutation(x.size // 4).reshape(3, 4, 4, 6) + 1.0  # a distinct value per block
        for dy in (routes, rng.choice(np.array(values), size=routes.shape)):
            y, dx = reference_maxpool2(x, dy)
            pool = MaxPool2()
            assert _same(pool.forward(x), y)
            assert _same(pool.forward(x, train=True), y)
            assert _same(pool.backward(dy), dx)

    @settings(max_examples=300, deadline=None)
    @given(
        picks=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 5)).flatmap(
            lambda s: arrays(np.int8, (s[0], s[1], 2 * s[2], 2 * s[3]), elements=st.integers(0, POOL_VALUES.size - 1))
        )
    )
    def test_maxpool_inference_bits(self, picks):
        # both modes take the values from np.maximum and any NaN output from
        # the winner; the backward routes a distinct dy per block to it, so
        # blocks with both NaN payloads pin the winner index too
        x = POOL_VALUES[picks]
        dy = np.arange(1.0, x.size // 4 + 1).reshape(*x.shape[:2], x.shape[2] // 2, x.shape[3] // 2)
        y, dx = reference_maxpool2(x, dy)
        assert _same(MaxPool2().forward(x), y)
        pool = MaxPool2()
        assert _same(pool.forward(x, train=True), y)
        assert _same(pool.backward(dy), dx)

    @pytest.mark.parametrize("kind", CACHING)
    def test_backward_needs_train_forward(self, kind, rng):
        layer = _caching_layer(kind, rng)
        y = layer.forward(rng.normal(size=(2, 2, 4, 4)))
        with pytest.raises(RuntimeError, match=f"{kind} backward without a cached train-mode forward"):
            layer.backward(np.ones_like(y))

    @pytest.mark.parametrize("kind", CACHING)
    def test_backward_releases_its_cache(self, kind, rng):
        # one train-mode forward serves one backward
        layer = _caching_layer(kind, rng)
        y = layer.forward(rng.normal(size=(2, 2, 4, 4)), train=True)
        dx = layer.backward(np.ones_like(y))
        assert dx.shape == (2, 2, 4, 4)
        with pytest.raises(RuntimeError, match=f"{kind} backward without a cached train-mode forward"):
            layer.backward(np.ones_like(y))
        layer.forward(rng.normal(size=(2, 2, 4, 4)), train=True)
        assert layer.backward(np.ones_like(y)).shape == (2, 2, 4, 4)

    @pytest.mark.parametrize("kind", CACHING)
    def test_forward_caches_in_one_slot(self, kind, rng):
        # a train-mode forward adds `_cache` and rebinds nothing of the
        # constructor's but batchnorm's running statistics
        layer = _caching_layer(kind, rng)
        built = dict(vars(layer))
        layer.forward(rng.normal(size=(2, 2, 4, 4)), train=True)
        changed = {name for name, value in vars(layer).items() if name not in built or built[name] is not value}
        assert changed - {"running_mean", "running_var"} == {"_cache"}


class TestBatchNorm:
    def test_train_mode_normalizes(self, rng):
        bn = BatchNorm2d(4)
        x = rng.normal(loc=3.0, scale=2.5, size=(8, 4, 6, 6))
        out = bn.forward(x, train=True)
        # gamma=1, beta=0 at init, so the output is the pre-affine normalization
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-5
        assert np.abs(out.var(axis=(0, 2, 3)) - 1.0).max() < 1e-3

    def test_infer_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        x = rng.normal(size=(4, 2, 4, 4))
        bn.forward(x, train=True)
        y1 = bn.forward(x, train=False)
        y2 = bn.forward(x, train=False)
        assert (y1 == y2).all()


class TestDropout:
    def test_infer_is_identity(self, rng):
        drop = Dropout(0.5, rng)
        x = rng.normal(size=(10, 10))
        assert (drop.forward(x, train=False) == x).all()

    def test_train_zeroes_fraction_and_scales(self):
        p = 0.3
        drop = Dropout(p, np.random.default_rng(3))
        x = np.ones((200, 200))
        out = drop.forward(x, train=True)
        dropped = float((out == 0).mean())
        assert abs(dropped - p) < 0.05
        survivors = out[out != 0]
        assert np.allclose(survivors, 1.0 / (1.0 - p))

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("p", (0.25, 0.5))
    def test_matches_where_reference(self, p, rng):
        # the masks of `np.where(mask, v / (1 - p), 0.0)`, on the signed
        # zeros, NaNs and infinities as well
        shape = (2, 16, 32, 64)
        x = rng.normal(size=shape)
        x.reshape(-1)[:8] = (-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324)
        dy = rng.normal(size=shape)
        drop = Dropout(p, np.random.default_rng(4))
        mask = np.random.default_rng(4).random(shape) >= p
        assert _same(drop.forward(x, train=True), np.where(mask, x / (1.0 - p), 0.0))
        assert _same(drop.backward(dy), np.where(mask, dy / (1.0 - p), 0.0))

    def test_zero_rate_passes_through(self, rng):
        # every unit is kept and divided by 1.0, which leaves each value's bits
        drop = Dropout(0.0, rng)
        x, dy = rng.normal(size=(2, 3, 4, 4)), rng.normal(size=(2, 3, 4, 4))
        x.reshape(-1)[:8] = (-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324)
        assert _same(drop.forward(x, train=True), x)
        assert _same(drop.backward(dy), dy)
        with pytest.raises(RuntimeError, match="dropout backward without a cached train-mode forward"):
            drop.backward(dy)


class TestGradients:
    @pytest.mark.parametrize("kind", (*ALL_KINDS, *LOSSES))
    def test_analytic_matches_finite_differences(self, kind):
        assert check_layer(kind, seed=0) <= TOLERANCE

    def test_corrupt_negative_control(self, monkeypatch):
        backward = Dense.backward
        monkeypatch.setattr(Dense, "backward", lambda self, grad: backward(self, grad) * 1.01)
        errors = run_all(seed=0)
        assert errors.pop("dense") > TOLERANCE
        assert max(errors.values()) <= TOLERANCE

    def test_small_loss_gradient_error_detected(self, monkeypatch):
        # the cross-entropy gradient entries sit far below 1, so a 0.1% error
        # is only visible to a relative comparison
        loss = LOSSES["softmax_cross_entropy"]

        def scaled(logits, labels):
            value, grad = loss(logits, labels)
            return value, grad * 1.001

        monkeypatch.setitem(gradcheck.LOSSES, "softmax_cross_entropy", scaled)
        assert check_layer("softmax_cross_entropy", seed=0) > TOLERANCE
