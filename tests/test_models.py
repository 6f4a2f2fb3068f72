import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from layermet.image import BinaryMask, GrayImage
from layermet.metrics import dice
from layermet.nnet import ArchitectureMismatchError, ModelFormatError, layers
from layermet.nnet.io import load_model, save_model
from layermet.nnet.layers import Conv2d
from layermet.nnet.models import (
    SEG_ARCH,
    SEG_DOWNSAMPLE,
    Model,
    TrainConfig,
    _sgd_step,
    build_rcnn,
    build_segmenter,
    mse_loss,
    predict_thickness,
    resample_mask_nearest,
    segment_image,
    softmax,
    softmax_cross_entropy,
    train_rcnn,
    train_segmenter,
)
from layermet.synth import SynthSpec, generate

from conftest import reference_predict_mask


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
        mask = segment_image(model, img)
        assert (mask.height, mask.width) == (48, 80)

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
        mask = segment_image(model, GrayImage(np.full((32, 32), 0.5)))
        assert mask.area == 32 * 32

    def test_tie_goes_to_background(self):
        model = build_segmenter(seed=0)
        head = model.layers[-1]
        head.weight[:] = 0.0
        head.bias[:] = (0.0, 0.0)
        mask = segment_image(model, GrayImage(np.full((32, 32), 0.5)))
        assert mask.area == 0

    def test_rounded_tie_goes_to_background(self):
        # exp(-1e-20) rounds to 1, so the two probabilities tie
        model = build_segmenter(seed=0)
        head = model.layers[-1]
        head.weight[:] = 0.0
        head.bias[:] = (0.0, 1e-20)
        mask = segment_image(model, GrayImage(np.full((32, 32), 0.5)))
        assert mask.area == 0


class TestTrainSegmenter:
    def test_flat_band_memorized(self, flat_band_run):
        data, _, model, _ = flat_band_run
        scores = [dice(mask, segment_image(model, img)) for img, mask in data]
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

    def test_indivisible_dims_rejected(self, rng):
        img = GrayImage(rng.random((24, 32)))
        mask = BinaryMask(np.zeros((24, 32), dtype=bool))
        with pytest.raises(ValueError, match=r"dimensions \(24, 32\) must be divisible by 16"):
            train_segmenter([(img, mask)] * 8, TrainConfig(epochs=1))

    def test_image_and_mask_sizes_differ(self, rng):
        img = GrayImage(rng.random((32, 32)))
        mask = BinaryMask(np.zeros((32, 48), dtype=bool))
        with pytest.raises(ValueError, match="image and mask dimensions differ"):
            train_segmenter([(img, mask)] * 8, TrainConfig(epochs=1))

    def test_dimension_errors_in_order(self, rng):
        # non-uniform sizes first, then divisibility, then image against mask
        img, wide = GrayImage(rng.random((24, 32))), GrayImage(rng.random((24, 48)))
        mask = BinaryMask(np.zeros((24, 48), dtype=bool))
        with pytest.raises(ValueError, match=r"^non-uniform sample dimensions: \(24, 32\) vs \(24, 48\)$"):
            train_segmenter([(img, mask)] * 7 + [(wide, mask)], TrainConfig(epochs=1))
        with pytest.raises(ValueError, match=r"^dimensions \(24, 32\) must be divisible by 16$"):
            train_segmenter([(img, mask)] * 8, TrainConfig(epochs=1))


class _FixedLogits:
    """A segmenter stand-in whose forward returns the given (1, 2, H, W) logits."""

    def __init__(self, logits: np.ndarray):
        self.logits = logits

    def forward(self, x, train=False):
        return self.logits


def _masks_and_warnings(model, image) -> list:
    """(mask cells, numpy warnings raised) of segment_image and of the reference."""
    out = []
    for predict in (segment_image, reference_predict_mask):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out.append((predict(model, image).cells, [str(w.message) for w in caught]))
    return out


# (background logit, layer logit) pairs at the edges of the softmax rule: ties,
# gaps the softmax rounds to a tie, tiny and overflowing gaps, infinities and NaNs
GAP_CASES = [
    (0.0, 0.0),
    (0.0, -0.0),
    (0.0, 1e-20),
    (1.0, 1.0 + 2e-16),
    (0.0, 5e-7),
    (0.0, 1e-6),
    (0.0, 2e-6),
    (0.0, -2e-6),
    (1e308, -1e308),
    (-1e308, 1e308),
    (np.inf, 0.0),
    (0.0, np.inf),
    (-np.inf, 0.0),
    (0.0, -np.inf),
    (np.inf, np.inf),
    (-np.inf, -np.inf),
    (np.inf, -np.inf),
    (-np.inf, np.inf),
    (np.nan, 0.0),
    (0.0, np.nan),
    (np.nan, np.inf),
]


class TestPredictMaskGap:
    """segment_image's mask is the softmax rule of conftest.reference_predict_mask
    bit for bit: on ties, rounded ties, infinities and NaNs, alone or among
    gaps of every scale, and on the benchmark's sizes, padded ones included."""

    @pytest.mark.parametrize("pair", GAP_CASES, ids=repr)
    def test_gap_cases_match_softmax(self, pair):
        logits = np.empty((1, 2, 16, 16))
        logits[0, 0], logits[0, 1] = pair
        (mask, warned), (ref, ref_warned) = _masks_and_warnings(_FixedLogits(logits), GrayImage(np.zeros((16, 16))))
        assert np.array_equal(mask, ref)
        assert ref_warned or not warned  # no numpy warning the softmax did not raise

    def test_mixed_grid_matches_softmax(self, rng):
        # the gap cases scattered among gaps of every scale around zero
        logits = rng.normal(size=(1, 2, 48, 64))
        logits[0, 1] = logits[0, 0] + rng.choice((-1.0, 1.0), size=(48, 64)) * 10.0 ** rng.uniform(-22, 3, (48, 64))
        spots = rng.choice(48 * 64, size=(len(GAP_CASES), 20), replace=False)
        for pair, where in zip(GAP_CASES, spots):
            logits[0, 0].flat[where], logits[0, 1].flat[where] = pair
        with np.errstate(over="ignore", invalid="ignore"):
            mask = segment_image(_FixedLogits(logits), GrayImage(np.zeros((48, 64))))
            ref = reference_predict_mask(_FixedLogits(logits), GrayImage(np.zeros((48, 64))))
        assert np.array_equal(mask.cells, ref.cells)

    @pytest.mark.parametrize(
        "size", [(80, 48), (96, 64), (120, 72), (160, 96), (100, 60), (64, 48), (144, 80), (200, 100)]
    )
    def test_segment_image_matches_softmax(self, size, flat_band_run):
        # the benchmark's inspect sizes, three of them reflect-padded: the
        # reference runs on the padded image and is cropped to the top left
        _, _, model, _ = flat_band_run
        w, h = size
        image = generate(SynthSpec(width=w, height=h, thickness=0.2 * h, tilt_deg=4.0, noise=0.05, seed=w)).image
        mask = segment_image(model, image)
        padded = np.pad(image.pixels, ((0, -h % SEG_DOWNSAMPLE), (0, -w % SEG_DOWNSAMPLE)), mode="reflect")
        ref = reference_predict_mask(model, GrayImage(padded)).cells[:h, :w]
        assert 0 < mask.area < w * h
        assert np.array_equal(mask.cells, ref)


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

    def test_too_few_masks_rejected(self, constant_rcnn_run):
        data, _, _, _ = constant_rcnn_run
        with pytest.raises(ValueError, match="need at least 8 samples, got 7"):
            train_rcnn(data[:7], TrainConfig(batch_size=4, epochs=1))

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


def _cache_nbytes(model: Model) -> int:
    """Bytes of every array a layer holds beyond its parameters, gradients
    and running statistics: what its backward caches left behind."""
    total = 0
    for layer in model.layers:
        state = {id(a) for a in layer.params() + layer.grads()}
        for name, value in vars(layer).items():
            if name in ("running_mean", "running_var"):
                continue
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray) and id(a) not in state:
                    total += a.nbytes
    return total


def test_trained_models_hold_no_caches(flat_band_run, constant_rcnn_run):
    # the last batch's patch matrices, xhat, masks and pool indices are
    # freed by the backward that read them
    for run in (flat_band_run, constant_rcnn_run):
        assert _cache_nbytes(run[2]) == 0


def _one_sgd_step(model: Model, seed: int) -> list[np.ndarray]:
    """The parameters after one momentum SGD step of `model` on a seeded batch."""
    rng = np.random.default_rng(seed)
    if model.arch == SEG_ARCH:
        loss, x, target = softmax_cross_entropy, rng.uniform(size=(2, 1, 32, 48)), rng.integers(0, 2, size=(2, 32, 48))
    else:
        loss, x, target = mse_loss, (rng.uniform(size=(2, 1, 64, 256)) > 0.5) * 1.0, rng.uniform(size=(2, 1))
    velocity = [np.zeros_like(p) for p in model.params()]
    _, dout = loss(model.forward(x, train=True), target)
    model.backward(dout)
    _sgd_step(model.params(), model.grads(), velocity, 0.01)
    return model.params()


@pytest.mark.parametrize("build", (build_segmenter, build_rcnn))
def test_gradient_arrays_made_by_the_first_backward(build):
    # an inference-only model, built or loaded, holds no gradient arrays
    net = build(0)
    loaded = load_model(save_model(net))
    for model in (net, loaded):
        assert all(g is None for g in model.grads())
        model.forward(np.zeros((1, 1, 64, 256)))
        assert all(g is None for g in model.grads())
    # one step on the loaded copy moves the parameters exactly as on the net
    for after, loaded_after in zip(_one_sgd_step(net, 4), _one_sgd_step(loaded, 4)):
        assert after.tobytes() == loaded_after.tobytes()
    for model in (net, loaded):
        assert [g.shape for g in model.grads()] == [p.shape for p in model.params()]


# Traced peak of one train step at the training shapes, parameters and
# momentum excluded: about 10% over the measured 28.6 MB (segmenter) and
# 68.2 MB (regressor), and below the 37.4 and 88.5 MB of caches that live
# on after their backward.
STEP_PEAK_MB = {"segmenter": 31.5, "regressor": 75.0}


@pytest.mark.parametrize("arch", ("segmenter", "regressor"))
def test_train_step_traced_peak(arch, rng):
    if arch == "segmenter":
        model, loss = build_segmenter(0), softmax_cross_entropy
        x, target = rng.uniform(size=(4, 1, 48, 80)), rng.integers(0, 2, size=(4, 48, 80))
    else:
        model, loss = build_rcnn(0), mse_loss
        x, target = (rng.uniform(size=(2, 1, 64, 256)) > 0.5) * 1.0, rng.uniform(size=(2, 1))
    velocity = [np.zeros_like(p) for p in model.params()]
    # an untraced step makes the gradient arrays, as every step after the first finds them
    _, dout = loss(model.forward(x, train=True), target)
    model.backward(dout)
    tracemalloc.start()
    try:
        _, dout = loss(model.forward(x, train=True), target)
        model.backward(dout)
        _sgd_step(model.params(), model.grads(), velocity, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= STEP_PEAK_MB[arch]
    assert _cache_nbytes(model) == 0


# The weight-file records as the README describes them: each kind's code and
# the arrays its record holds, in order. Written out here, not read from
# `io` or from the layers' declarations, so the two can be checked against it.
DOCUMENTED_RECORDS = {
    "conv2d": (1, ("weight", "bias")),
    "relu": (2, ()),
    "batchnorm": (3, ("gamma", "beta", "running_mean", "running_var")),
    "maxpool2": (4, ()),
    "upsample2": (5, ()),
    "dropout": (6, ()),
    "dense": (8, ("weight", "bias")),
}


def _read_records(blob: bytes) -> tuple[bytes, list]:
    """The 9-byte header and (kind code, arrays) per record, read from the
    README's layout: uint8 kind, uint8 count, then per array uint8 ndim,
    int32 extents and float64 values, all little-endian."""
    records, pos = [], 9
    while pos < len(blob):
        kind, count = blob[pos], blob[pos + 1]
        pos += 2
        arrays = []
        for _ in range(count):
            ndim = blob[pos]
            shape = struct.unpack_from(f"<{ndim}i", blob, pos + 1)
            pos += 1 + 4 * ndim
            size = int(np.prod(shape))
            arrays.append(np.frombuffer(blob, "<f8", size, pos).reshape(shape))
            pos += 8 * size
        records.append((kind, arrays))
    return blob[:9], records


class TestSerialization:
    @pytest.mark.parametrize("build", [build_segmenter, build_rcnn])
    def test_records_hold_the_documented_arrays_in_order(self, build):
        model = build(seed=0)
        expected, start = [], 0
        for layer in model.layers:
            code, names = DOCUMENTED_RECORDS[layer.kind]
            for name in names:  # values that no other array of the model holds
                arr = getattr(layer, name)
                arr[...] = np.arange(start, start + arr.size).reshape(arr.shape)
                start += arr.size
            expected.append((code, [getattr(layer, name).copy() for name in names]))
        header, records = _read_records(save_model(model))
        assert header == b"LMET" + struct.pack("<IB", 2, model.arch)
        assert [kind for kind, _ in records] == [code for code, _ in expected]
        for (kind, arrays), (_, want) in zip(records, expected):
            assert len(arrays) == len(want), kind
            for got, arr in zip(arrays, want):
                assert got.shape == arr.shape and np.array_equal(got, arr), kind

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

    def test_zero_extent_beside_huge_extents_is_a_shape_mismatch(self):
        # A zero extent needs no payload, but numpy refuses to shape an array
        # whose other extents overflow its size limit.
        blob = bytearray(save_model(build_segmenter(seed=0)))
        blob[12:28] = struct.pack("<4i", 0, 2**31 - 1, 2**31 - 1, 2**31 - 1)
        with pytest.raises(ModelFormatError, match="does not match") as err:
            load_model(bytes(blob))
        assert err.value.offset == 11

    def test_truncated_reports_offset(self):
        blob = save_model(build_segmenter(seed=0))
        with pytest.raises(ModelFormatError) as err:
            load_model(blob[: len(blob) // 2])
        assert 0 < err.value.offset <= len(blob) // 2

    def test_wrong_architecture_tag(self):
        blob = bytearray(save_model(build_segmenter(seed=0)))
        blob[8] = 7
        with pytest.raises(ArchitectureMismatchError, match="unknown architecture tag 7") as err:
            load_model(bytes(blob))
        assert err.value.offset == 8

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("build", [build_segmenter, build_rcnn])
    def test_non_finite_value_rejected_at_its_byte(self, build, value):
        # A value past the first record, so the offset is not the first payload's.
        model = build(seed=0)
        blob = save_model(model)
        at = len(blob) - 8 * model.layers[-1].bias.size  # the head's first bias value
        bad = blob[:at] + struct.pack("<d", value) + blob[at + 8 :]
        with pytest.raises(ModelFormatError, match="non-finite") as err:
            load_model(bad)
        assert err.value.offset == at

    @pytest.mark.parametrize("build", [build_segmenter, build_rcnn])
    def test_finite_weights_whose_squares_overflow_load(self, build):
        # The loader's finiteness check sums squares, which overflow here; the
        # values are finite, so they load bit for bit and warn of nothing.
        model = build(seed=0)
        weight = model.layers[0].weight
        weight[...] = np.where(np.arange(weight.size).reshape(weight.shape) % 2, 1e300, -1.7e308)
        blob = save_model(model)
        assert save_model(load_model(blob)) == blob

    def test_retired_flatten_record_rejected(self):
        # Regressor files from before `Dense` flattened its input carry a
        # parameterless flatten record (kind code 7) ahead of the first dense one.
        model = build_rcnn(seed=0)
        first_dense = next(i for i, layer in enumerate(model.layers) if isinstance(layer, layers.Dense))
        at = len(save_model(Model(model.arch, model.layers[:first_dense])))
        blob = save_model(model)
        with pytest.raises(ArchitectureMismatchError, match="kind code 7") as err:
            load_model(blob[:at] + b"\x07\x00" + blob[at:])
        assert err.value.offset == at

    def test_load_draws_no_weights(self, monkeypatch):
        # every parameter is overwritten from the file, so the loader's model
        # starts from zeros instead of He-uniform draws
        draws = []
        he_uniform = layers.he_uniform
        monkeypatch.setattr(layers, "he_uniform", lambda rng, *a: draws.append(rng) or he_uniform(rng, *a))
        for build in (build_segmenter, build_rcnn):
            draws.clear()
            blob = save_model(build(5))
            assert draws and all(isinstance(rng, np.random.Generator) for rng in draws)
            draws.clear()
            assert save_model(load_model(blob)) == blob
            assert draws and not any(isinstance(rng, np.random.Generator) for rng in draws)

    def test_loaded_regressor_keeps_the_dropout_streams_of_seed_0(self):
        loaded = load_model(save_model(build_rcnn(4)))
        fresh = build_rcnn(0)
        streams = [
            (a.rng.bit_generator.state, b.rng.bit_generator.state)
            for a, b in zip(loaded.layers, fresh.layers)
            if isinstance(a, layers.Dropout)
        ]
        assert len(streams) == 2 and all(a == b for a, b in streams)

    def test_trailing_data_rejected(self):
        blob = save_model(build_rcnn(seed=0))
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(blob + b"\x00")
