"""Acceptance suite: quantitative synthetic-proxy targets and property checks.

Each test prints one `[ACCEPTANCE n] name: PASS/FAIL` line (visible with
`pytest -s tests/test_acceptance.py`) and asserts the criterion at its stated
tolerance. The two training criteria are the slow ones; the whole module is
sized to finish well inside its runtime budgets on one CPU core.
"""

import json
import math
import shutil
import time

import numpy as np
import pytest

from layermet.cli import main
from layermet.image import BinaryMask
from layermet.measure import orthogonal_report, three_line_report
from layermet.metrics import comparison_fit, dice, iou, kfold, mse
from layermet.nnet import (
    TrainConfig,
    predict_mask,
    predict_thickness,
    run_all,
    softmax,
    train_rcnn,
    train_segmenter,
)
from layermet.nnet.gradcheck import TOLERANCE
from layermet.nnet.layers import Dropout
from layermet.postprocess import EmptyPredictionError, label_components, postprocess
from layermet.synth import SynthRanges, SynthSpec, generate, generate_batch


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_geometry_oracle():
    rng = np.random.default_rng(20240801)
    t0 = time.time()
    worst = 0.0
    for i in range(50):
        t = int(rng.integers(8, 17))
        tilt = float(rng.uniform(-30.0, 30.0))
        spec = SynthSpec(width=128, height=112, thickness=t, tilt_deg=tilt, seed=i)
        report = orthogonal_report(generate(spec).truth_mask)
        worst = max(worst, abs(report.mean - t))
    elapsed = time.time() - t0
    ok = worst <= 0.5 and elapsed < 10.0
    _report(1, "geometry oracle", ok, f"worst |mean - t| = {worst:.3f} px in {elapsed:.1f}s")


def test_criterion_2_slope_bias_reproduction():
    orth_sq, three_sq = [], []
    ratio_devs = []
    for theta in (10.0, 20.0, 30.0):
        ratios = []
        for t in range(9, 17):
            mask = generate(
                SynthSpec(width=128, height=112, thickness=t, tilt_deg=theta, seed=t)
            ).truth_mask
            ro = orthogonal_report(mask)
            r3 = three_line_report(mask)
            ratios.append(r3.mean / ro.mean)
            orth_sq.append((ro.mean - t) ** 2)
            three_sq.append((r3.mean - t) ** 2)
        target = 1.0 / math.cos(math.radians(theta))
        ratio_devs.append(abs(float(np.mean(ratios)) / target - 1.0))
    orth_mse = float(np.mean(orth_sq))
    three_mse = float(np.mean(three_sq))
    ok = max(ratio_devs) <= 0.05 and three_mse > orth_mse
    _report(
        2,
        "slope-bias reproduction",
        ok,
        f"ratio dev <= {max(ratio_devs):.3%}; MSE three-line {three_mse:.3f} > orthogonal {orth_mse:.3f}",
    )


def test_criterion_3_metric_oracle_equivalence():
    rng = np.random.default_rng(33)
    worst_rel = 0.0
    for _ in range(1000):
        a = rng.random((8, 8)) < rng.uniform(0.1, 0.9)
        b = rng.random((8, 8)) < rng.uniform(0.1, 0.9)
        ma, mb = BinaryMask(a), BinaryMask(b)
        set_a = {(y, x) for y, x in zip(*np.nonzero(a))}
        set_b = {(y, x) for y, x in zip(*np.nonzero(b))}
        inter, union = len(set_a & set_b), len(set_a | set_b)
        oracle_dice = 1.0 if not set_a and not set_b else 2 * inter / (len(set_a) + len(set_b))
        oracle_iou = 1.0 if union == 0 else inter / union
        d, i = dice(ma, mb), iou(ma, mb)
        assert d == oracle_dice and i == oracle_iou
        worst_rel = max(worst_rel, abs(d - 2 * i / (1 + i)))
    ok = worst_rel <= 1e-12
    _report(3, "metric oracle equivalence", ok, f"1000 pairs exact; identity dev {worst_rel:.2e}")


def test_criterion_4_postprocess_improvement():
    rng = np.random.default_rng(44)
    before, after = [], []
    single = True
    idempotent = True
    for i in range(100):
        t = int(rng.integers(8, 15))
        spec = SynthSpec(
            width=64, height=64, thickness=t, tilt_deg=float(rng.uniform(-8, 8)), seed=1000 + i
        )
        truth = generate(spec).truth_mask
        corrupted = truth.cells.copy()
        band_area = truth.area
        for _ in range(int(rng.integers(1, 4))):
            bh, bw = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            x0 = int(rng.integers(0, 64 - bw))
            corrupted[1 : 1 + bh, x0 : x0 + bw] = True  # rows 1..4: clear of the band
            assert bh * bw < 0.3 * band_area
        pred = BinaryMask(corrupted)
        cleaned = postprocess(pred)
        before.append(dice(truth, pred))
        after.append(dice(truth, cleaned))
        single &= len(label_components(cleaned).regions) == 1
        idempotent &= bool((postprocess(cleaned).cells == cleaned.cells).all())
    ok = float(np.mean(after)) > float(np.mean(before)) and single and idempotent
    _report(
        4,
        "post-processing improvement",
        ok,
        f"mean dice {np.mean(before):.4f} -> {np.mean(after):.4f}; single-component={single} idempotent={idempotent}",
    )


@pytest.fixture(scope="module")
def segmenter_proxy():
    t0 = time.time()
    ranges = SynthRanges(
        width=80,
        height=48,
        thickness=(12.0, 20.0),
        tilt_deg=(-12.0, 12.0),
        curvature=(0.0, 2.0),
        noise=(0.0, 0.08),
        blur_radius=(0, 1),
    )
    samples = generate_batch(250, ranges, seed=101)
    split = kfold(250, 5, seed=101)
    held_out = set(split.fold_indices(0).tolist())
    train = [(samples[i].image, samples[i].truth_mask) for i in range(250) if i not in held_out]
    cfg = TrainConfig(batch_size=4, epochs=15, learning_rate=0.1, seed=0)
    model, losses = train_segmenter(train, cfg)
    test = [samples[i] for i in sorted(held_out)]
    return model, losses, test, t0


def test_criterion_5_segmenter_proxy(segmenter_proxy):
    model, _, test, t0 = segmenter_proxy
    dices, ious = [], []
    for sample in test:
        pred = predict_mask(model, sample.image)
        try:
            pred = postprocess(pred)
        except EmptyPredictionError:
            pass
        dices.append(dice(sample.truth_mask, pred))
        ious.append(iou(sample.truth_mask, pred))
    elapsed = time.time() - t0
    mean_dice, mean_iou = float(np.mean(dices)), float(np.mean(ious))
    ok = mean_dice >= 0.90 and mean_iou >= 0.82 and elapsed <= 900.0
    _report(
        5,
        "segmenter proxy (200 train / 50 held-out, fold 0 of 5)",
        ok,
        f"dice {mean_dice:.4f} (>= 0.90), iou {mean_iou:.4f} (>= 0.82), {elapsed:.0f}s (<= 900)",
    )


@pytest.fixture(scope="module")
def rcnn_proxy():
    t0 = time.time()
    ranges = SynthRanges(
        width=96,
        height=96,
        thickness=(8.0, 18.0),
        tilt_deg=(-30.0, 30.0),
        curvature=(0.0, 0.0),
        noise=(0.0, 0.0),
        blur_radius=(0, 0),
    )
    n_train = 64
    samples = generate_batch(104, ranges, seed=77)
    masks = [s.truth_mask for s in samples]
    targets = [orthogonal_report(m).mean for m in masks]
    cfg = TrainConfig(batch_size=4, epochs=60, learning_rate=1e-4, seed=0)
    model, _ = train_rcnn(list(zip(masks[:n_train], targets[:n_train])), cfg)
    return model, samples, masks, targets, n_train, t0


def test_criterion_6_rcnn_proxy(rcnn_proxy):
    model, samples, masks, targets, n_train, t0 = rcnn_proxy
    test_idx = list(range(n_train, len(samples)))
    preds = {i: predict_thickness(model, masks[i]) for i in test_idx}
    refs = [targets[i] for i in test_idx]
    model_mse = mse([preds[i] for i in test_idx], refs)
    baseline_mse = mse([float(np.mean(targets[:n_train]))] * len(refs), refs)
    tilted = [i for i in test_idx if abs(samples[i].spec.tilt_deg) >= 10.0]
    model_tilted = mse([preds[i] for i in tilted], [targets[i] for i in tilted])
    three_tilted = mse(
        [three_line_report(masks[i]).mean for i in tilted], [targets[i] for i in tilted]
    )
    elapsed = time.time() - t0
    ok = model_mse <= 0.5 * baseline_mse and model_tilted <= three_tilted and elapsed <= 600.0
    _report(
        6,
        "regression net proxy",
        ok,
        f"MSE {model_mse:.3f} (<= {0.5 * baseline_mse:.3f}); tilted {model_tilted:.3f} vs "
        f"three-line {three_tilted:.3f}; {elapsed:.0f}s (<= 600)",
    )


def test_criterion_7_gradient_suite(rng):
    errors = run_all(seed=7)
    worst = max(errors.values())
    softmax_dev = np.abs(
        softmax(rng.normal(scale=3.0, size=(2, 4, 5, 5))).sum(axis=1) - 1.0
    ).max()
    drop = Dropout(0.25, np.random.default_rng(1))
    x = rng.normal(size=(64, 64))
    identity = bool((drop.forward(x, train=False) == x).all())
    ok = worst <= TOLERANCE and softmax_dev <= 1e-6 and identity
    _report(
        7,
        "gradient suite",
        ok,
        f"max rel err {worst:.2e} (<= 1e-4); softmax dev {softmax_dev:.2e}; dropout identity {identity}",
    )


def _run_pipeline(root):
    data = root / "data"
    pred = root / "pred"
    pred.mkdir(parents=True)
    rc = [
        main(
            [
                "synth", "--n", "8", "--out", str(data), "--seed", "3", "--quiet",
                "--width", "48", "--height", "32", "--thickness", "6:10",
                "--tilt=-5:5", "--curvature", "0:1", "--noise", "0:0.02",
            ]
        )
    ]
    model = root / "seg.lmet"
    rc.append(
        main(
            [
                "train-seg", "--data", str(data), "--epochs", "20", "--lr", "0.1",
                "--seed", "5", "--out", str(model), "--quiet",
            ]
        )
    )
    for i in range(8):
        rc.append(
            main(
                [
                    "segment", "--model", str(model), "--image", str(data / f"img_{i:04d}.pgm"),
                    "--out", str(pred / f"mask_{i:04d}.pgm"), "--quiet",
                ]
            )
        )
    rc.append(
        main(
            [
                "measure", "--mask", str(pred / "mask_0000.pgm"), "--json",
                str(root / "measure.json"), "--overlay", str(root / "overlay.ppm"), "--quiet",
            ]
        )
    )
    rc.append(
        main(
            [
                "eval", "--pred-dir", str(pred), "--truth-dir", str(data),
                "--json", str(root / "eval.json"), "--quiet",
            ]
        )
    )
    assert all(code == 0 for code in rc), f"pipeline exit codes {rc}"
    artifacts = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            artifacts[str(path.relative_to(root))] = path.read_bytes()
    return artifacts


def test_criterion_8_pipeline_determinism(tmp_path):
    a = _run_pipeline(tmp_path / "run_a")
    b = _run_pipeline(tmp_path / "run_b")
    same_names = set(a) == set(b)
    diffs = [name for name in a if same_names and a[name] != b.get(name)]
    ok = same_names and not diffs
    _report(
        8,
        "pipeline determinism",
        ok,
        f"{len(a)} artifacts byte-identical" if ok else f"differs: {diffs}",
    )
    shutil.rmtree(tmp_path / "run_a", ignore_errors=True)
    shutil.rmtree(tmp_path / "run_b", ignore_errors=True)


def test_criterion_9_comparison_fit_sanity():
    rng = np.random.default_rng(99)
    truths, measured = [], []
    for i in range(40):
        t = int(rng.integers(8, 17))
        tilt = float(rng.uniform(-25.0, 25.0))
        spec = SynthSpec(width=128, height=112, thickness=t, tilt_deg=tilt, seed=5000 + i)
        truths.append(float(t))
        measured.append(orthogonal_report(generate(spec).truth_mask).mean)
    fit = comparison_fit(truths, measured)
    ok = 0.95 <= fit.slope <= 1.05 and fit.r2 >= 0.98
    _report(
        9,
        "comparison fit sanity",
        ok,
        f"slope {fit.slope:.4f} in [0.95, 1.05]; r2 {fit.r2:.5f} >= 0.98",
    )
