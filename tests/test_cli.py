import hashlib
import json
import struct

import numpy as np
import pytest

from layermet.cli import MAX_SYNTH_SIDE, main
from layermet.image import BinaryMask, mask_to_pgm, pgm_to_mask, write_pgm
from layermet.nnet import build_rcnn, build_segmenter, load_model, save_model
from layermet.nnet.layers import BN_EPS, BatchNorm2d, Conv2d, Dense
from layermet.postprocess import label_components
from layermet.synth import SynthRanges, SynthSpec, generate, generate_batch

from conftest import band_mask


def craft_threshold_segmenter(gain=8.0, threshold=0.5):
    """Hand-built pass-through segmenter: layer iff local 16x16 block max > threshold.

    Delta-kernel convs copy channel 0, batchnorm running stats are set to the
    identity, so the encoder/decoder reduce to a blockwise max. Gives a
    deterministic spatially varying prediction without training.
    """
    model = build_segmenter(seed=0)
    for layer in model.layers:
        if isinstance(layer, Conv2d):
            layer.weight[:] = 0.0
            layer.bias[:] = 0.0
            layer.weight[0, 0, layer.ksize // 2, layer.ksize // 2] = 1.0
        elif isinstance(layer, BatchNorm2d):
            layer.running_mean[:] = 0.0
            layer.running_var[:] = 1.0 - BN_EPS
    head = model.layers[-1]
    head.weight[:] = 0.0
    head.bias[:] = (0.0, -gain * threshold)
    head.weight[1, 0, 0, 0] = gain
    return model


def _write_band_image(path, speck=False):
    img = np.full((48, 48), 51, dtype=np.uint8)
    img[2:10, :] = 230
    if speck:
        img[36:39, 20:23] = 230
    path.write_bytes(write_pgm(img))


def _dir_digest(root):
    digest = hashlib.sha256()
    for path in sorted(root.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestSynthCommand:
    def test_writes_samples_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = main(["synth", "--n", "3", "--out", str(out), "--seed", "4"])
        assert code == 0
        assert len(list(out.glob("img_*.pgm"))) == 3
        assert len(list(out.glob("mask_*.pgm"))) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest) == 3
        assert "wrote 3 samples" in capsys.readouterr().out

    def test_rerun_identical_directory_hash(self, tmp_path):
        args = ["synth", "--n", "4", "--seed", "9", "--quiet", "--out"]
        main(args + [str(tmp_path / "a")])
        main(args + [str(tmp_path / "b")])
        assert _dir_digest(tmp_path / "a") == _dir_digest(tmp_path / "b")

    def test_deterministic_outputs(self, tmp_path):
        args = ["synth", "--n", "4", "--seed", "5", "--quiet", "--out"]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        main(args + [str(dir_a)])
        main(args + [str(dir_b)])
        for name in ("manifest.json", "img_0003.pgm", "mask_0000.pgm"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_manifest_schema(self, tmp_path):
        main(["synth", "--n", "3", "--seed", "1", "--quiet", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [m["index"] for m in manifest] == [0, 1, 2]
        assert set(manifest[0]) == {"index", "true_thickness", "tilt_deg", "curvature", "noise", "seed"}

    def test_written_images_match_samples(self, tmp_path):
        main(["synth", "--n", "2", "--seed", "9", "--quiet", "--out", str(tmp_path)])
        batch = generate_batch(2, SynthRanges(), seed=9)
        raw = (tmp_path / "img_0001.pgm").read_bytes()
        assert raw == write_pgm(batch[1].image.to_u8())

    def test_infeasible_ranges_exit_2(self, tmp_path):
        code = main(
            ["synth", "--n", "1", "--out", str(tmp_path / "x"), "--thickness", "8:200"]
        )
        assert code == 2

    def test_bad_range_syntax_is_usage_error(self, tmp_path):
        assert main(["synth", "--n", "1", "--out", str(tmp_path), "--tilt", "oops"]) == 1

    @pytest.mark.parametrize("args", [["--thickness", "nan:nan"], ["--noise", "0:inf"], ["--tilt=-inf:5"]])
    def test_non_finite_range_is_usage_error(self, tmp_path, capsys, args):
        assert main(["synth", "--n", "1", "--out", str(tmp_path / "x"), *args]) == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestTrainCommands:
    @pytest.fixture()
    def data_dir(self, tmp_path):
        out = tmp_path / "train"
        assert (
            main(
                [
                    "synth", "--n", "8", "--out", str(out), "--seed", "3", "--quiet",
                    "--width", "32", "--height", "32",
                    "--thickness", "6:10", "--tilt=-5:5",
                    "--curvature", "0:1", "--noise", "0:0.02",
                ]
            )
            == 0
        )
        return out

    def test_train_seg_writes_model_and_curve(self, tmp_path, data_dir):
        model_path = tmp_path / "seg.lmet"
        code = main(
            [
                "train-seg", "--data", str(data_dir), "--epochs", "2",
                "--lr", "0.03", "--out", str(model_path), "--quiet",
            ]
        )
        assert code == 0
        loaded = load_model(model_path.read_bytes())
        assert loaded.arch == 1
        rows = (tmp_path / "seg.lmet.loss.csv").read_text().strip().splitlines()
        assert rows[0] == "epoch,loss"
        assert len(rows) - 1 == 2

    @pytest.mark.parametrize("command", ["train-seg", "train-rcnn"])
    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-1"])
    def test_non_positive_or_non_finite_lr_is_usage_error(self, tmp_path, data_dir, capsys, command, lr):
        model_path = tmp_path / "model.lmet"
        args = [command, "--data", str(data_dir), "--epochs", "1", "--lr", lr, "--out", str(model_path)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "positive finite" in captured.err and captured.out == ""
        assert not model_path.exists()

    def test_train_seg_zero_epochs_emits_initialized_model(self, tmp_path, data_dir):
        model_path = tmp_path / "seg0.lmet"
        code = main(
            ["train-seg", "--data", str(data_dir), "--epochs", "0", "--out", str(model_path), "--quiet"]
        )
        assert code == 0
        assert model_path.read_bytes() == save_model(build_segmenter(seed=0))

    def test_train_seg_deterministic(self, tmp_path, data_dir):
        paths = [tmp_path / "m1.lmet", tmp_path / "m2.lmet"]
        for p in paths:
            assert (
                main(
                    [
                        "train-seg", "--data", str(data_dir), "--epochs", "1",
                        "--lr", "0.03", "--seed", "5", "--out", str(p), "--quiet",
                    ]
                )
                == 0
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_train_seg_missing_dir_exit_2(self, tmp_path):
        code = main(
            ["train-seg", "--data", str(tmp_path / "nope"), "--epochs", "1", "--out", str(tmp_path / "m")]
        )
        assert code == 2

    def test_train_seg_corrupt_file_listed(self, tmp_path, data_dir, capsys):
        (data_dir / "img_0003.pgm").write_bytes(b"P5\n4 4\n255\nxx")
        model_path = tmp_path / "seg.lmet"
        code = main(["train-seg", "--data", str(data_dir), "--epochs", "1", "--out", str(model_path)])
        assert code == 2
        assert "img_0003.pgm" in capsys.readouterr().err

    def test_train_seg_corrupt_and_missing_masks_listed_by_path(self, tmp_path, data_dir, capsys):
        (data_dir / "mask_0002.pgm").write_bytes(b"XX\n4 4\n255\n")
        (data_dir / "mask_0005.pgm").unlink()
        code = main(["train-seg", "--data", str(data_dir), "--epochs", "1", "--out", str(tmp_path / "seg.lmet")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{data_dir / 'mask_0002.pgm'}: unsupported magic" in err
        assert f"{data_dir / 'mask_0005.pgm'}: missing" in err
        assert not (tmp_path / "seg.lmet").exists()

    def test_train_rcnn_unmeasurable_mask_listed(self, tmp_path, data_dir, capsys):
        (data_dir / "mask_0001.pgm").write_bytes(mask_to_pgm(BinaryMask(np.zeros((32, 32), dtype=bool))))
        code = main(["train-rcnn", "--data", str(data_dir), "--epochs", "1", "--out", str(tmp_path / "r.lmet")])
        assert code == 2
        assert "mask_0001.pgm: " in capsys.readouterr().err
        assert not (tmp_path / "r.lmet").exists()

    def test_train_rcnn_tiny(self, tmp_path):
        out = tmp_path / "rdata"
        assert (
            main(
                [
                    "synth", "--n", "4", "--out", str(out), "--seed", "6", "--quiet",
                    "--width", "48", "--height", "32", "--thickness", "6:9",
                    "--tilt=-4:4", "--curvature", "0:0", "--noise", "0:0",
                ]
            )
            == 0
        )
        model_path = tmp_path / "rcnn.lmet"
        code = main(
            [
                "train-rcnn", "--data", str(out), "--epochs", "1", "--batch", "2",
                "--lr", "0.0001", "--out", str(model_path), "--quiet",
            ]
        )
        assert code == 0
        assert load_model(model_path.read_bytes()).arch == 2
        rows = (tmp_path / "rcnn.lmet.loss.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 1


class TestSegmentCommand:
    @pytest.fixture()
    def model_file(self, tmp_path):
        path = tmp_path / "thresh.lmet"
        path.write_bytes(save_model(craft_threshold_segmenter()))
        return path

    def test_postprocessed_output_single_component(self, tmp_path, model_file):
        img = tmp_path / "img.pgm"
        _write_band_image(img, speck=True)
        out = tmp_path / "mask.pgm"
        assert main(["segment", "--model", str(model_file), "--image", str(img), "--out", str(out), "--quiet"]) == 0
        mask = pgm_to_mask(out.read_bytes())
        assert len(label_components(mask).regions) == 1

    def test_no_postprocess_keeps_spurious_component(self, tmp_path, model_file):
        img = tmp_path / "img.pgm"
        _write_band_image(img, speck=True)
        out = tmp_path / "raw.pgm"
        assert (
            main(
                [
                    "segment", "--model", str(model_file), "--image", str(img),
                    "--out", str(out), "--no-postprocess", "--quiet",
                ]
            )
            == 0
        )
        mask = pgm_to_mask(out.read_bytes())
        assert len(label_components(mask).regions) == 2

    def test_flag_changes_nothing_without_spurious_parts(self, tmp_path, model_file):
        img = tmp_path / "img.pgm"
        _write_band_image(img, speck=False)
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        main(["segment", "--model", str(model_file), "--image", str(img), "--out", str(a), "--quiet"])
        main(
            [
                "segment", "--model", str(model_file), "--image", str(img),
                "--out", str(b), "--no-postprocess", "--quiet",
            ]
        )
        assert a.read_bytes() == b.read_bytes()

    def test_empty_prediction_exit_3(self, tmp_path):
        model_path = tmp_path / "bg.lmet"
        model = craft_threshold_segmenter()
        model.layers[-1].bias[:] = (0.0, -10.0)  # background wins everywhere
        model_path.write_bytes(save_model(model))
        img = tmp_path / "img.pgm"
        _write_band_image(img)
        code = main(["segment", "--model", str(model_path), "--image", str(img), "--out", str(tmp_path / "m.pgm")])
        assert code == 3

    def test_rcnn_model_rejected(self, tmp_path):
        model_path = tmp_path / "wrong.lmet"
        model_path.write_bytes(save_model(build_rcnn(seed=0)))
        img = tmp_path / "img.pgm"
        _write_band_image(img)
        code = main(["segment", "--model", str(model_path), "--image", str(img), "--out", str(tmp_path / "m.pgm")])
        assert code == 2

    def test_garbage_model_exit_2(self, tmp_path):
        model_path = tmp_path / "junk.lmet"
        model_path.write_bytes(b"garbage")
        img = tmp_path / "img.pgm"
        _write_band_image(img)
        code = main(["segment", "--model", str(model_path), "--image", str(img), "--out", str(tmp_path / "m.pgm")])
        assert code == 2

    def test_oversized_weight_extents_exit_2(self, tmp_path, capsys):
        blob = bytearray(save_model(build_segmenter(seed=0)))
        blob[12:28] = struct.pack("<4i", 2**31 - 1, 2**31 - 1, 2**31 - 1, 3)  # first conv weight
        model_path = tmp_path / "huge.lmet"
        model_path.write_bytes(bytes(blob))
        img = tmp_path / "img.pgm"
        _write_band_image(img)
        code = main(["segment", "--model", str(model_path), "--image", str(img), "--out", str(tmp_path / "m.pgm")])
        assert code == 2
        assert "(byte 28)" in capsys.readouterr().err


class TestMeasureCommand:
    @pytest.fixture()
    def flat_mask_file(self, tmp_path):
        path = tmp_path / "band.pgm"
        path.write_bytes(mask_to_pgm(band_mask(100, 20, 29, height=64)))
        return path

    def test_flat_summary_line(self, flat_mask_file, capsys):
        assert main(["measure", "--mask", str(flat_mask_file)]) == 0
        out = capsys.readouterr().out
        assert "MT=10.0000" in out and "SD=0.0000" in out and "n=80" in out

    def test_json_report_schema(self, tmp_path, flat_mask_file):
        report_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "measure", "--mask", str(flat_mask_file), "--scale", "0.5",
                    "--json", str(report_path), "--quiet",
                ]
            )
            == 0
        )
        payload = json.loads(report_path.read_text())
        assert payload["file"] == "band.pgm"
        assert payload["method"] == "orthogonal"
        assert payload["mean_px"] == 10.0
        assert payload["mean_nm"] == 5.0

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1", "0"])
    def test_non_positive_or_non_finite_scale_is_usage_error(self, tmp_path, flat_mask_file, capsys, scale):
        report_path = tmp_path / "report.json"
        args = ["measure", "--mask", str(flat_mask_file), "--scale", scale, "--json", str(report_path)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "positive finite" in captured.err and captured.out == ""
        assert not report_path.exists()

    def test_three_line_exceeds_orthogonal_on_tilt(self, tmp_path, capsys):
        sample = generate(SynthSpec(width=128, height=112, thickness=10, tilt_deg=25))
        mask_path = tmp_path / "tilted.pgm"
        mask_path.write_bytes(mask_to_pgm(sample.truth_mask))
        j1, j2 = tmp_path / "o.json", tmp_path / "t.json"
        main(["measure", "--mask", str(mask_path), "--json", str(j1), "--quiet"])
        main(["measure", "--mask", str(mask_path), "--method", "three-line", "--json", str(j2), "--quiet"])
        orth = json.loads(j1.read_text())
        three = json.loads(j2.read_text())
        assert abs(orth["mean_px"] - 10.0) <= 0.5
        assert three["mean_px"] > orth["mean_px"]
        assert three["method"] == "three_line"
        assert three["n"] == 3

    def test_overlay_ppm_and_png(self, tmp_path, flat_mask_file):
        ppm = tmp_path / "overlay.ppm"
        png = tmp_path / "overlay.png"
        main(["measure", "--mask", str(flat_mask_file), "--overlay", str(ppm), "--quiet"])
        main(["measure", "--mask", str(flat_mask_file), "--overlay", str(png), "--quiet"])
        assert ppm.read_bytes().startswith(b"P6\n100 64\n255\n")
        assert png.read_bytes().startswith(b"\x89PNG\r\n\x1a\n")

    def test_empty_mask_exit_3(self, tmp_path):
        path = tmp_path / "empty.pgm"
        path.write_bytes(mask_to_pgm(BinaryMask(np.zeros((16, 16), dtype=bool))))
        assert main(["measure", "--mask", str(path)]) == 3

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["measure", "--mask", str(tmp_path / "nothing.pgm")]) == 2

    def test_p2_header_larger_than_data_exit_2(self, tmp_path, capsys):
        # A million-by-million header over three pixels: rejected before any allocation.
        path = tmp_path / "huge.pgm"
        path.write_bytes(b"P2\n1000000 1000000\n255\n0 0 0\n")
        assert main(["measure", "--mask", str(path)]) == 2
        assert "truncated payload" in capsys.readouterr().err


class TestEvalCommand:
    def test_perfect_and_disjoint(self, tmp_path, capsys):
        pred, truth = tmp_path / "pred", tmp_path / "truth"
        pred.mkdir(), truth.mkdir()
        cells = np.zeros((8, 8), dtype=bool)
        cells[2:5, :] = True
        (truth / "mask_0000.pgm").write_bytes(mask_to_pgm(BinaryMask(cells)))
        (pred / "mask_0000.pgm").write_bytes(mask_to_pgm(BinaryMask(cells)))
        assert main(["eval", "--pred-dir", str(pred), "--truth-dir", str(truth)]) == 0
        assert "dice=1.0000 iou=1.0000" in capsys.readouterr().out

    def test_known_dice_half(self, tmp_path, capsys):
        pred, truth = tmp_path / "pred", tmp_path / "truth"
        pred.mkdir(), truth.mkdir()
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, 0:4] = True
        b[0, 2:4] = True
        b[1, 0:2] = True
        (truth / "mask_0000.pgm").write_bytes(mask_to_pgm(BinaryMask(a)))
        (pred / "mask_0000.pgm").write_bytes(mask_to_pgm(BinaryMask(b)))
        report_path = tmp_path / "eval.json"
        assert (
            main(
                [
                    "eval", "--pred-dir", str(pred), "--truth-dir", str(truth),
                    "--json", str(report_path), "--quiet",
                ]
            )
            == 0
        )
        payload = json.loads(report_path.read_text())
        assert payload["mean_dice"] == 0.5
        assert payload["per_image"][0]["id"] == "mask_0000.pgm"

    def test_unmatched_files_listed(self, tmp_path, capsys):
        pred, truth = tmp_path / "pred", tmp_path / "truth"
        pred.mkdir(), truth.mkdir()
        cells = np.ones((4, 4), dtype=bool)
        (truth / "mask_0000.pgm").write_bytes(mask_to_pgm(BinaryMask(cells)))
        (truth / "mask_0001.pgm").write_bytes(mask_to_pgm(BinaryMask(cells)))
        (pred / "mask_0000.pgm").write_bytes(mask_to_pgm(BinaryMask(cells)))
        assert main(["eval", "--pred-dir", str(pred), "--truth-dir", str(truth)]) == 2
        assert "mask_0001.pgm" in capsys.readouterr().err

    def test_corrupt_truth_and_prediction_listed_by_path(self, tmp_path, capsys):
        pred, truth = tmp_path / "pred", tmp_path / "truth"
        pred.mkdir(), truth.mkdir()
        good = mask_to_pgm(BinaryMask(np.ones((4, 4), dtype=bool)))
        for folder in (pred, truth):
            for i in range(3):
                (folder / f"mask_{i:04d}.pgm").write_bytes(good)
        (truth / "mask_0000.pgm").write_bytes(b"XX\n4 4\n255\n")
        (pred / "mask_0001.pgm").unlink()
        (pred / "mask_0001.pgm").mkdir()
        (pred / "mask_0002.pgm").write_bytes(b"P2\n2 1\n255\n0 128\n")
        assert main(["eval", "--pred-dir", str(pred), "--truth-dir", str(truth)]) == 2
        err = capsys.readouterr().err
        assert f"{truth / 'mask_0000.pgm'}: unsupported magic" in err
        assert f"{pred / 'mask_0001.pgm'}: Is a directory" in err
        assert f"{pred / 'mask_0002.pgm'}: pixel 1 has value 128" in err
        assert str(pred / "mask_0000.pgm") not in err


class TestGradcheckCommand:
    def test_passes_and_lists_every_kind(self, capsys):
        assert main(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for kind in (
            "conv2d", "relu", "batchnorm", "maxpool2", "upsample2",
            "dropout", "flatten", "dense", "softmax_cross_entropy", "mse_loss",
        ):
            assert kind in out

    def test_corrupt_negative_control(self, monkeypatch, capsys):
        backward = Dense.backward
        monkeypatch.setattr(Dense, "backward", lambda self, grad: backward(self, grad) * 1.01)
        assert main(["gradcheck"]) == 3
        rows = [line.split() for line in capsys.readouterr().out.splitlines() if "max_rel_err" in line]
        status = {row[0]: row[-1] for row in rows}
        assert status.pop("dense") == "FAIL"
        assert set(status.values()) == {"ok"}


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["synth", "--n", "2"]) == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["synth", "--n", "0"],
            ["synth", "--n", "-3"],
            ["synth", "--n", "1", "--width", str(MAX_SYNTH_SIDE + 1)],
            ["synth", "--n", "1", "--height", "100000"],
            ["synth", "--n", "1", "--width", "0"],
            ["train-seg", "--batch", "0"],
            ["train-rcnn", "--batch", "-2"],
        ],
    )
    def test_count_or_size_out_of_range_is_usage_error(self, tmp_path, capsys, args):
        command, *flags = args
        if command == "synth":
            flags += ["--out", str(tmp_path / "out")]
        else:
            flags += ["--data", str(tmp_path), "--epochs", "1", "--out", str(tmp_path / "out")]
        assert main([command, *flags]) == 1
        captured = capsys.readouterr()
        assert "error: argument" in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()
