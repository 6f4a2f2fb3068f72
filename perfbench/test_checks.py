"""Each independent check passes the program's real output and fails a
corrupted copy of it; the last test keeps BENCHMARK.json's per-layer list in
step with the tracer. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from layermet import BinaryMask, GrayImage, cli, measure, synth  # noqa: E402
from layermet.image import RgbImage, mask_to_pgm, render_overlay  # noqa: E402


@pytest.fixture(scope="module")
def tilted():
    """A 20 deg band 24 px thick on a noisy micrograph, measured both ways."""
    sample = synth.generate(synth.SynthSpec(width=160, height=128, thickness=24.0, tilt_deg=20.0,
                                            noise=0.03, seed=4))
    band = np.array(sample.truth_mask.cells)
    orthogonal = measure.orthogonal_report(sample.truth_mask)
    three_line = measure.three_line_report(sample.truth_mask)
    gray = sample.image.to_u8()
    overlay = render_overlay(GrayImage(gray / 255.0), sample.truth_mask, report=orthogonal, caption="mask MT=24")
    return {
        "band": band, "gray": gray, "orthogonal": orthogonal.mean, "three_line": three_line.mean,
        "report": measure.report_to_dict(orthogonal, "mask.pgm"), "png": cli.write_png(overlay),
        "drawn": sample.true_thickness, "tilt": 20.0,
    }


def _measure(case, **changes):
    args = dict(clean=case["band"], band=case["band"], orthogonal_mean=case["orthogonal"],
                three_line_mean=case["three_line"], tilt_deg=case["tilt"], drawn=case["drawn"],
                report=case["report"], png=case["png"], gray=case["gray"])
    args.update(changes)
    return checks.check_measure(**args)


def test_measure_passes_program_output(tilted):
    assert _measure(tilted) == []


def test_measure_fails_mask_shifted_two_rows(tilted):
    shifted = np.roll(tilted["band"], 2, axis=0)
    assert any("differs from the clean band" in f for f in _measure(tilted, clean=shifted))


def test_measure_fails_orthogonal_mean_off_by_more_than_half_pixel(tilted):
    failures = _measure(tilted, orthogonal_mean=tilted["drawn"] + 0.6, three_line_mean=(tilted["drawn"] + 0.6) / math.cos(math.radians(20)))
    assert any("orthogonal mean" in f for f in failures)


def test_measure_fails_three_line_without_slope_bias(tilted):
    assert any("1/cos(tilt)" in f for f in _measure(tilted, three_line_mean=tilted["orthogonal"]))


def test_measure_skips_ratio_below_ten_degrees(tilted):
    assert not any("1/cos" in f for f in _measure(tilted, three_line_mean=tilted["orthogonal"], tilt_deg=9.0))


def test_measure_fails_report_mean_not_from_samples(tilted):
    report = dict(tilted["report"], mean_px=tilted["report"]["mean_px"] + 0.1)
    assert any("mean_px" in f for f in _measure(tilted, report=report))


def test_measure_fails_overlay_pixel_outside_mask(tilted):
    rgb = checks.decode_png(tilted["png"]).copy()
    y, x = np.argwhere(~tilted["band"][checks.CAPTION_ROWS:])[0]
    rgb[y + checks.CAPTION_ROWS, x] ^= 1
    png = cli.write_png(RgbImage(rgb))
    assert any("outside the mask" in f for f in _measure(tilted, png=png))


def test_measure_fails_truncated_or_resized_overlay(tilted):
    assert any("overlay PNG" in f for f in _measure(tilted, png=tilted["png"][:-20]))
    small = cli.write_png(RgbImage(checks.decode_png(tilted["png"])[:-1]))
    assert any("overlay shape" in f for f in _measure(tilted, png=small))


def test_png_decoder_reads_what_the_program_wrote(tilted):
    rgb = checks.decode_png(tilted["png"])
    assert rgb.shape == tilted["gray"].shape + (3,)


def test_inspect_passes_program_mask_and_fails_shifted_or_mismeasured(tilted):
    band, drawn = tilted["band"], tilted["drawn"]
    pgm = mask_to_pgm(BinaryMask(band))
    report = {"mean_px": tilted["orthogonal"]}
    failures, score, error = checks.check_inspect(pgm, band, report, drawn, 0.8, 4.0)
    assert failures == [] and score == 1.0 and error < 0.5
    # A shift by a quarter of the band's height drops Dice below the floor;
    # a two-row shift on this 24 px band is caught by a floor above 0.92.
    shifted = mask_to_pgm(BinaryMask(np.roll(band, 8, axis=0)))
    assert any("dice" in f for f in checks.check_inspect(shifted, band, report, drawn, 0.8, 4.0)[0])
    shifted = mask_to_pgm(BinaryMask(np.roll(band, 2, axis=0)))
    assert any("dice" in f for f in checks.check_inspect(shifted, band, report, drawn, 0.95, 4.0)[0])
    off = {"mean_px": drawn + 4.5}
    assert any("measured" in f for f in checks.check_inspect(pgm, band, off, drawn, 0.8, 4.0)[0])


def test_inspect_fails_malformed_or_gray_mask(tilted):
    band = tilted["band"]
    report = {"mean_px": tilted["drawn"]}
    assert checks.check_inspect(b"P5\n3 3\n255\n\x00", band, report, tilted["drawn"], 0.8, 4.0)[0]
    gray = checks.encode_p5(np.where(band, 200, 0).astype(np.uint8))
    assert any("other than 0 and 255" in f for f in checks.check_inspect(gray, band, report, tilted["drawn"], 0.8, 4.0)[0])


def _fold(**changes):
    args = dict(
        losses={"segmenter": [0.4, 0.1], "regressor": [300.0, 80.0]},
        predicted=np.array([10.0, 15.0, 20.0]), drawn_held=np.array([10.5, 14.0, 19.0]),
        drawn_train=np.array([8.0, 12.0, 16.0, 20.0]),
        reload_identical={"segmenter": True, "regressor": True},
    )
    args.update(changes)
    return checks.check_fold(**args)[0]


def test_fold_passes_learning_nets():
    assert _fold() == []


def test_fold_fails_non_finite_or_rising_loss():
    assert _fold(losses={"segmenter": [0.4, math.nan], "regressor": [3.0, 1.0]})
    assert _fold(losses={"segmenter": [0.4, 0.1], "regressor": [80.0, 300.0]})
    assert _fold(losses={"segmenter": [], "regressor": [3.0, 1.0]})


def test_fold_fails_regressor_no_better_than_constant_mean():
    held = np.array([10.5, 14.0, 19.0])
    assert any("constant-mean" in f for f in _fold(predicted=np.full(3, 14.0), drawn_held=held))


def test_fold_fails_reload_mismatch():
    assert any("reloaded regressor" in f for f in _fold(reload_identical={"segmenter": True, "regressor": False}))


def test_pgm_encoders_round_trip_through_the_program():
    from layermet.image import read_pgm

    grid = (np.arange(35 * 17) % 256).astype(np.uint8).reshape(17, 35)
    assert np.array_equal(checks.parse_p5(checks.encode_p5(grid)), grid)
    assert np.array_equal(read_pgm(checks.encode_p2(grid)), grid)
    assert np.array_equal(read_pgm(checks.encode_p5(grid)), grid)


def test_traced_metrics_match_benchmark_json():
    import json

    from tracing import Tracer, unit_of

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    reported = Tracer().layer_metrics()
    assert [m["name"] for m in declared] == list(reported)
    assert all(m["unit"] == unit_of(m["name"]) for m in declared)
