import struct

import numpy as np
import pytest

from layermet.image import BinaryMask, GrayImage
from layermet.metrics import dice
from layermet.nnet import (
    ArchitectureMismatchError,
    Conv2d,
    ModelFormatError,
    TrainConfig,
    build_rcnn,
    build_segmenter,
    layers,
    load_model,
    mse_loss,
    predict_mask,
    predict_thickness,
    resample_mask_nearest,
    save_model,
    segment_image,
    softmax,
    softmax_cross_entropy,
    train_rcnn,
    train_segmenter,
)
from layermet.synth import SynthSpec, generate


def _flat_band_data(n=50, width=32, height=16, seed=5):
    rng = np.random.default_rng(seed)
    data = []
    for i in range(n):
        t = int(rng.integers(4, 9))
        spec = SynthSpec(
            width=width,
            height=height,
            thickness=t,
            seed=i,
            layer_brightness=0.9,
            upper_brightness=0.3,
            lower_brightness=0.2,
        )
        s = generate(spec)
        data.append((s.image, s.truth_mask))
    return data


@pytest.fixture(scope="module")
def flat_band_run():
    data = _flat_band_data()
    cfg = TrainConfig(batch_size=4, epochs=30, learning_rate=0.03, seed=0)
    model, losses = train_segmenter(data, cfg)
    return data, cfg, model, losses


@pytest.fixture(scope="module")
def constant_rcnn_run():
    # constant-thickness masks: the regressor should converge to the constant
    data = []
    for i in range(12):
        s = generate(SynthSpec(width=64, height=32, thickness=8, tilt_deg=0.5 * (i % 3)))
        data.append((s.truth_mask, 8.0))
    cfg = TrainConfig(batch_size=2, epochs=30, learning_rate=2e-4, seed=1)
    model, losses = train_rcnn(data, cfg)
    return data, cfg, model, losses


class TestSegModelForward:
    def test_output_shape_and_probability_sums(self, rng):
        model = build_segmenter(seed=3)
        x = rng.random((2, 1, 32, 48))
        out = softmax(model.forward(x, train=False))
        assert out.shape == (2, 2, 32, 48)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-6

    def test_spatial_dims_preserved_when_divisible(self, rng):
        model = build_segmenter(seed=3)
        img = GrayImage(rng.random((48, 80)))
        mask = predict_mask(model, img)
        assert (mask.height, mask.width) == (48, 80)

    def test_indivisible_dims_rejected(self, rng):
        model = build_segmenter(seed=3)
        with pytest.raises(ValueError, match="divisible"):
            predict_mask(model, GrayImage(rng.random((30, 40))))

    def test_segment_image_pads_and_crops(self, rng):
        model = build_segmenter(seed=3)
        img = GrayImage(rng.random((50, 70)))
        mask = segment_image(model, img)
        assert (mask.height, mask.width) == (50, 70)

    def test_forced_foreground_prediction(self):
        model = build_segmenter(seed=0)
        head = model.layers[-1]
        head.weight[:] = 0.0
        head.bias[:] = (0.0, 10.0)
        mask = predict_mask(model, GrayImage(np.full((32, 32), 0.5)))
        assert mask.area == 32 * 32

    def test_tie_goes_to_background(self):
        model = build_segmenter(seed=0)
        head = model.layers[-1]
        head.weight[:] = 0.0
        head.bias[:] = (0.0, 0.0)
        mask = predict_mask(model, GrayImage(np.full((32, 32), 0.5)))
        assert mask.area == 0


class TestTrainSegmenter:
    def test_flat_band_memorized(self, flat_band_run):
        data, _, model, _ = flat_band_run
        scores = [dice(mask, predict_mask(model, img)) for img, mask in data]
        assert float(np.mean(scores)) >= 0.99

    def test_loss_nonincreasing_over_windows(self, flat_band_run):
        _, _, _, losses = flat_band_run
        window = 10
        means = [float(np.mean(losses[i : i + window])) for i in range(len(losses) - window + 1)]
        for earlier, later in zip(means, means[1:]):
            assert later <= earlier + 1e-9

    def test_deterministic_weights(self, flat_band_run):
        data, _, _, _ = flat_band_run
        cfg = TrainConfig(batch_size=4, epochs=3, learning_rate=0.03, seed=2)
        first, _ = train_segmenter(data, cfg)
        second, _ = train_segmenter(data, cfg)
        assert save_model(first) == save_model(second)

    def test_zero_learning_rate_is_invalid(self, flat_band_run):
        data, _, _, _ = flat_band_run
        with pytest.raises(ValueError):
            train_segmenter(data, TrainConfig(epochs=1, learning_rate=0.0))

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_is_invalid(self, lr):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(learning_rate=lr).validate()

    def test_zero_epochs_returns_initial_model(self, flat_band_run):
        data, _, _, _ = flat_band_run
        cfg = TrainConfig(batch_size=4, epochs=0, learning_rate=0.1, seed=0)
        model, losses = train_segmenter(data, cfg)
        assert losses == []
        assert save_model(model) == save_model(build_segmenter(seed=0))

    def test_nonuniform_dims_rejected(self, rng):
        a = GrayImage(rng.random((32, 32)))
        b = GrayImage(rng.random((32, 48)))
        m_a = BinaryMask(np.zeros((32, 32), dtype=bool))
        m_b = BinaryMask(np.zeros((32, 48), dtype=bool))
        with pytest.raises(ValueError, match="non-uniform"):
            train_segmenter([(a, m_a), (b, m_b)] * 4, TrainConfig(epochs=1))

    def test_too_few_samples_rejected(self, rng):
        img = GrayImage(rng.random((32, 32)))
        mask = BinaryMask(np.zeros((32, 32), dtype=bool))
        with pytest.raises(ValueError, match="at least"):
            train_segmenter([(img, mask)] * 3, TrainConfig(batch_size=4, epochs=1))


class TestRcnn:
    def test_resample_nearest_shape_and_values(self):
        cells = np.zeros((10, 20), dtype=bool)
        cells[4:7, :] = True
        out = resample_mask_nearest(BinaryMask(cells), 64, 256)
        assert out.shape == (64, 256)
        assert set(np.unique(out)) <= {0.0, 1.0}
        # band fraction roughly preserved by nearest-neighbor resampling
        assert abs(out.mean() - cells.mean()) < 0.05

    def test_constant_dataset_converges(self, constant_rcnn_run):
        data, _, model, losses = constant_rcnn_run
        assert losses[-1] < 0.05  # MSE in resampled pixel units
        pred = predict_thickness(model, data[0][0])
        assert abs(pred - 8.0) <= 1.0

    def test_inference_deterministic(self, constant_rcnn_run):
        data, _, model, _ = constant_rcnn_run
        a = predict_thickness(model, data[0][0])
        b = predict_thickness(model, data[0][0])
        assert a == b

    def test_zero_epochs_returns_initial(self, constant_rcnn_run):
        data, _, _, _ = constant_rcnn_run
        model, losses = train_rcnn(data, TrainConfig(epochs=0, seed=1))
        assert losses == []
        assert save_model(model) == save_model(build_rcnn(seed=1))

    def test_deterministic_training(self, constant_rcnn_run):
        data, _, _, _ = constant_rcnn_run
        cfg = TrainConfig(batch_size=2, epochs=2, learning_rate=2e-4, seed=3)
        first, _ = train_rcnn(data[:4], cfg)
        second, _ = train_rcnn(data[:4], cfg)
        assert save_model(first) == save_model(second)

    def test_empty_mask_rejected(self, constant_rcnn_run):
        _, _, model, _ = constant_rcnn_run
        with pytest.raises(ValueError, match="empty"):
            predict_thickness(model, BinaryMask(np.zeros((8, 8), dtype=bool)))


@pytest.mark.parametrize("arch", ("segmenter", "rcnn"))
def test_backward_skips_the_input_gradient(arch, monkeypatch, rng):
    # a train step builds one patch matrix per conv forward and one per conv
    # input gradient; nothing reads the gradient of the net's input
    calls = []
    im2col = layers._im2col
    monkeypatch.setattr(layers, "_im2col", lambda x, k: calls.append(k) or im2col(x, k))
    if arch == "segmenter":
        model = build_segmenter(0)
        loss, target = softmax_cross_entropy, rng.integers(0, 2, size=(2, 32, 48))
        x = rng.uniform(size=(2, 1, 32, 48))
    else:
        model = build_rcnn(0)
        loss, target = mse_loss, rng.uniform(size=(2, 1))
        x = rng.uniform(size=(2, 1, 64, 256))
    _, dout = loss(model.forward(x, train=True), target)
    model.backward(dout)
    convs = sum(isinstance(layer, Conv2d) for layer in model.layers)
    assert len(calls) == 2 * convs - 1
    assert all(np.isfinite(g).all() for g in model.grads())


class TestSerialization:
    def test_round_trip_bitwise(self):
        model = build_segmenter(seed=9)
        blob = save_model(model)
        loaded = load_model(blob)
        assert save_model(loaded) == blob
        for a, b in zip(model.params(), loaded.params()):
            assert (a == b).all()

    def test_rcnn_round_trip(self):
        blob = save_model(build_rcnn(seed=4))
        assert save_model(load_model(blob)) == blob

    def test_bad_magic(self):
        with pytest.raises(ModelFormatError) as err:
            load_model(b"NOPE" + b"\x00" * 32)
        assert err.value.offset == 0

    def test_version_mismatch(self):
        blob = bytearray(save_model(build_rcnn(seed=0)))
        for version in (1, 99):  # 1 is the retired format with softmax and linear records
            blob[4] = version
            with pytest.raises(ModelFormatError, match="version"):
                load_model(bytes(blob))

    @pytest.mark.parametrize("extents", [(2**31 - 1, 2**31 - 1, 2**31 - 1, 3), (65536,) * 4])
    def test_oversized_extents_report_offset(self, extents):
        # The first record is the segmenter's first conv weight, a 4-D array
        # whose extents start at byte 12.
        blob = bytearray(save_model(build_segmenter(seed=0)))
        blob[12:28] = struct.pack("<4i", *extents)
        with pytest.raises(ModelFormatError, match="truncated") as err:
            load_model(bytes(blob))
        assert err.value.offset == 28

    def test_truncated_reports_offset(self):
        blob = save_model(build_segmenter(seed=0))
        with pytest.raises(ModelFormatError) as err:
            load_model(blob[: len(blob) // 2])
        assert 0 < err.value.offset <= len(blob) // 2

    def test_wrong_architecture_tag(self):
        blob = bytearray(save_model(build_segmenter(seed=0)))
        blob[8] = 7
        with pytest.raises(ArchitectureMismatchError):
            load_model(bytes(blob))

    def test_trailing_data_rejected(self):
        blob = save_model(build_rcnn(seed=0))
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(blob + b"\x00")
