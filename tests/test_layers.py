import numpy as np
import pytest

from layermet.nnet import gradcheck
from layermet.nnet.gradcheck import ALL_KINDS, LOSSES, TOLERANCE, check_layer, run_all
from layermet.nnet.layers import BatchNorm2d, Conv2d, Dense, Dropout, MaxPool2, ReLU, Upsample2
from layermet.nnet.models import build_rcnn, build_segmenter, softmax

from conftest import reference_conv2d


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

    def test_zero_upstream_gives_zero_grads(self, rng):
        conv = Conv2d(2, 3, 3, rng)
        x = rng.normal(size=(2, 2, 4, 4))
        conv.forward(x, train=True)
        dx = conv.backward(np.zeros((2, 3, 4, 4)))
        assert (dx == 0).all()
        assert (conv.dweight == 0).all() and (conv.dbias == 0).all()


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
