import hashlib
import json
import os
import signal
import struct
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from layermet import cli
from layermet.cli import MAX_SYNTH_SIDE, main, write_png, write_ppm
from layermet.image import BinaryMask, GrayImage, RgbImage, mask_to_pgm, pgm_to_mask, render_overlay, write_pgm
from layermet.nnet import build_rcnn, build_segmenter, load_model, save_model
from layermet.nnet.layers import BN_EPS, BatchNorm2d, Conv2d, Dense
from layermet.postprocess import label_components
from layermet.synth import SynthRanges, SynthSpec, generate, generate_batch

from conftest import band_mask, decode_png, png_chunks


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

    def test_negative_curvature_exit_2_before_out_exists(self, tmp_path, capsys):
        out = tmp_path / "cv"
        assert main(["synth", "--n", "6", "--out", str(out), "--curvature=-1:2"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: curvature must be >= 0, got -1.0"]
        assert not out.exists()

    def test_out_is_regular_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "afile"
        out.write_bytes(b"keep")
        assert main(["synth", "--n", "1", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "File exists" in lines[0]
        assert out.read_bytes() == b"keep"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    def test_unwritable_out_exit_2(self, tmp_path, capsys, monkeypatch):
        # Denied writes are simulated: permission bits do not stop a root user.
        def denied(self, data):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "write_bytes", denied)
        assert main(["synth", "--n", "1", "--out", str(tmp_path / "x")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "Permission denied" in lines[0]

    def test_non_empty_out_exit_2_and_left_alone(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["synth", "--n", "4", "--quiet", "--out", str(out)]) == 0
        before = _dir_digest(out)
        assert main(["synth", "--n", "2", "--seed", "5", "--quiet", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and str(out) in lines[0]
        assert _dir_digest(out) == before

    def test_inverted_range_exit_2_before_out_exists(self, tmp_path, capsys):
        out = tmp_path / "inv"
        assert main(["synth", "--n", "1", "--out", str(out), "--thickness", "12:8"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: thickness range [12.0, 8.0] is inverted"]
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["train-seg", "train-rcnn"])
    def test_divergence_exit_3_with_one_error_line(self, tmp_path, data_dir, capsys, command):
        model_path = tmp_path / "model.lmet"
        args = [command, "--data", str(data_dir), "--epochs", "2", "--lr", "1e300", "--out", str(model_path)]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: training diverged (non-finite loss) at epoch 0"]
        assert captured.out == "" and not model_path.exists()

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

    @pytest.mark.parametrize("command, trainer", [("train-seg", "train_segmenter"), ("train-rcnn", "train_rcnn")])
    def test_missing_out_folder_exit_2_before_training(self, tmp_path, data_dir, capsys, monkeypatch, command, trainer):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{trainer} ran although --out cannot be written")

        monkeypatch.setattr(cli, trainer, refuse)
        folder = tmp_path / "nodir"
        assert main([command, "--data", str(data_dir), "--epochs", "1", "--out", str(folder / "m.lmet")]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: --out folder not found: {folder}"]
        assert captured.out == "" and not folder.exists()

    def test_train_seg_missing_dir_exit_2(self, tmp_path):
        code = main(
            ["train-seg", "--data", str(tmp_path / "nope"), "--epochs", "1", "--out", str(tmp_path / "m")]
        )
        assert code == 2

    @pytest.mark.parametrize("command, pattern", [("train-seg", "img_*.pgm"), ("train-rcnn", "mask_*.pgm")])
    def test_folder_without_matching_files_exit_2(self, tmp_path, capsys, command, pattern):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "notes.txt").write_text("no samples here\n")
        model_path = tmp_path / "m.lmet"
        assert main([command, "--data", str(empty), "--epochs", "1", "--out", str(model_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: no {pattern} files in {empty}"]
        assert not model_path.exists()

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

    def test_empty_raw_prediction_exit_3(self, tmp_path, capsys):
        model = craft_threshold_segmenter()
        model.layers[-1].bias[:] = (100.0, -100.0)  # background wins everywhere
        model_path = tmp_path / "bg.lmet"
        model_path.write_bytes(save_model(model))
        img = tmp_path / "img.pgm"
        _write_band_image(img)
        out = tmp_path / "m.pgm"
        args = ["segment", "--model", str(model_path), "--image", str(img), "--out", str(out), "--no-postprocess"]
        assert main(args) == 3
        assert capsys.readouterr().err.splitlines() == ["error: prediction has no foreground region"]
        assert not out.exists()

    def test_overflowing_weights_print_one_error_line(self, tmp_path, capsys):
        # The first conv weight's payload starts at byte 28; two huge weights
        # overflow its matrix product, and the prediction ends up empty.
        blob = bytearray(save_model(craft_threshold_segmenter()))
        blob[28:44] = struct.pack("<2d", 1e308, 1e308)
        model_path = tmp_path / "huge.lmet"
        model_path.write_bytes(bytes(blob))
        img = tmp_path / "img.pgm"
        _write_band_image(img)
        code = main(["segment", "--model", str(model_path), "--image", str(img), "--out", str(tmp_path / "m.pgm")])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == ["error: prediction has no foreground region"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weight_exit_2(self, tmp_path, capsys, value):
        blob = bytearray(save_model(craft_threshold_segmenter()))
        blob[36:44] = struct.pack("<d", value)  # the first conv's second weight
        model_path = tmp_path / "bad.lmet"
        model_path.write_bytes(bytes(blob))
        img = tmp_path / "img.pgm"
        _write_band_image(img)
        code = main(["segment", "--model", str(model_path), "--image", str(img), "--out", str(tmp_path / "m.pgm")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: conv2d array holds non-finite value {value} (byte 36)"
        ]

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


# Images whose filter-0 scanlines hold 4 bytes; exactly one deflate piece
# (1 + 3 * 87381 = 262,144); one byte more (5 * (1 + 3 * 17476) = 262,145);
# exactly two pieces; and seven, the last of 256 bytes.
PIECE_SHAPES = [(1, 1), (1, 87381), (5, 17476), (2, 87381), (256, 2048)]
PIECE_IDS = ["4_bytes", "one_piece", "one_piece_and_a_byte", "two_pieces", "seven_pieces"]


def _speckled_pixels(height: int, width: int) -> np.ndarray:
    """Mostly flat gray with sparse noise, so deflate finds matches that
    reach back across piece boundaries."""
    rng = np.random.default_rng(height * width)
    pixels = np.full((height, width, 3), 90, dtype=np.uint8)
    speckle = rng.random((height, width, 3)) < 0.05
    pixels[speckle] = rng.integers(0, 256, size=int(speckle.sum()), dtype=np.uint8)
    return pixels


def _scanlines(pixels: np.ndarray) -> bytes:
    """The raw bytes a PNG deflates: each row led by a zero filter byte."""
    return np.pad(pixels.reshape(pixels.shape[0], -1), ((0, 0), (1, 0))).tobytes()


def _idat(png: bytes) -> bytes:
    return b"".join(payload for tag, payload in png_chunks(png) if tag == b"IDAT")


class TestWritePng:
    @pytest.mark.parametrize(
        "height, width", [(7, 1), (5, 3), (9, 100), (1, 50)], ids=["width1", "width3", "width100", "one_row"]
    )
    def test_round_trip_to_ppm_pixels(self, height, width):
        pixels = np.random.default_rng(height * width).integers(0, 256, size=(height, width, 3), dtype=np.uint8)
        self._assert_round_trip(RgbImage(pixels))

    def test_round_trip_caption_only_overlay(self):
        gray = GrayImage(np.random.default_rng(3).random((20, 60)))
        self._assert_round_trip(render_overlay(gray, BinaryMask(np.zeros((20, 60), bool)), caption="MT=1.00"))

    @pytest.mark.parametrize("height, width", PIECE_SHAPES, ids=PIECE_IDS)
    def test_round_trip_at_piece_boundaries(self, height, width):
        self._assert_round_trip(RgbImage(_speckled_pixels(height, width)))

    @pytest.mark.parametrize("height, width", [(1, 1), (9, 100), (1, 87381)], ids=["4_bytes", "2709_bytes", "one_piece"])
    def test_one_piece_is_zlib_compress(self, height, width):
        pixels = _speckled_pixels(height, width)
        idat, raw = _idat(write_png(RgbImage(pixels))), _scanlines(pixels)
        assert len(raw) <= cli.PNG_PIECE and idat == zlib.compress(raw, 1)

    @pytest.mark.parametrize("height, width", PIECE_SHAPES[2:], ids=PIECE_IDS[2:])
    def test_pooled_pieces_equal_serial_pieces(self, height, width):
        pixels = _speckled_pixels(height, width)
        raw = _scanlines(pixels)
        starts = range(0, len(raw), cli.PNG_PIECE)
        serial = [cli._deflate_piece(memoryview(raw), start) for start in starts]
        assert len(serial) == -(-len(raw) // cli.PNG_PIECE) >= 2
        expected = b"\x78\x01" + b"".join(serial) + struct.pack(">I", zlib.adler32(raw))
        assert _idat(write_png(RgbImage(pixels))) == expected

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_forked_after_a_pooled_write_writes_a_png(self, tmp_path):
        rgb = RgbImage(_speckled_pixels(256, 2048))
        png = write_png(rgb)  # starts the pool's threads, which a forked child lacks
        out = tmp_path / "child.png"
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                out.write_bytes(write_png(rgb))
                code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while (done := os.waitpid(pid, os.WNOHANG)) == (0, 0) and time.monotonic() < deadline:
            time.sleep(0.01)
        if done == (0, 0):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's write_png did not return within 30 s")
        assert os.waitstatus_to_exitcode(done[1]) == 0
        assert out.read_bytes() == png

    @staticmethod
    def _assert_round_trip(rgb: RgbImage):
        png = write_png(rgb)
        assert _idat(png)[:2] == b"\x78\x01"  # zlib header of deflate level 1
        ppm = write_ppm(rgb)
        assert decode_png(png).tobytes() == ppm[len(f"P6\n{rgb.width} {rgb.height}\n255\n") :]


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

    def test_overflowing_scale_exit_2_before_any_output(self, tmp_path, flat_mask_file, capsys):
        report, overlay = tmp_path / "r.json", tmp_path / "o.png"
        args = ["measure", "--mask", str(flat_mask_file), "--scale", "1e308", "--json", str(report)]
        assert main(args + ["--overlay", str(overlay)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --scale")
        assert captured.out == "" and not report.exists() and not overlay.exists()

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
        header = b"P6\n100 64\n255\n"
        assert ppm.read_bytes().startswith(header)
        assert decode_png(png.read_bytes()).tobytes() == ppm.read_bytes()[len(header) :]

    def test_image_without_overlay_is_usage_error(self, tmp_path, capsys):
        # Neither file exists: reading either one would exit 2.
        report = tmp_path / "r.json"
        mask, image = tmp_path / "m.pgm", tmp_path / "x.pgm"
        args = ["measure", "--mask", str(mask), "--image", str(image), "--json", str(report)]
        assert main(args) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "--image" in lines[0] and "--overlay" in lines[0]
        assert captured.out == "" and not report.exists()

    @pytest.mark.parametrize("name", ["o.jpg", "o", "o.png.txt"])
    def test_overlay_suffix_other_than_png_or_ppm_is_usage_error(self, tmp_path, capsys, name):
        # The mask does not exist: reading it would exit 2.
        report, overlay = tmp_path / "r.json", tmp_path / name
        args = ["measure", "--mask", str(tmp_path / "m.pgm"), "--json", str(report), "--overlay", str(overlay)]
        assert main(args) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --overlay")
        assert captured.out == "" and not report.exists() and not overlay.exists()

    def test_empty_mask_exit_3(self, tmp_path):
        path = tmp_path / "empty.pgm"
        path.write_bytes(mask_to_pgm(BinaryMask(np.zeros((16, 16), dtype=bool))))
        assert main(["measure", "--mask", str(path)]) == 3

    def test_second_region_exit_3(self, tmp_path, capsys):
        cells = generate(SynthSpec(width=200, height=80, thickness=12, tilt_deg=5, seed=1)).truth_mask.cells.copy()
        cells[3:5, 100:103] = True
        path = tmp_path / "speck.pgm"
        path.write_bytes(mask_to_pgm(BinaryMask(cells)))
        assert main(["measure", "--mask", str(path), "--json", str(tmp_path / "r.json")]) == 3
        assert "run post-processing first" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("image", ["narrow", "truncated", "missing"])
    def test_bad_image_exit_2_before_any_output(self, tmp_path, flat_mask_file, capsys, image):
        path = tmp_path / "img.pgm"
        if image == "narrow":
            path.write_bytes(write_pgm(np.zeros((64, 99), dtype=np.uint8)))
        elif image == "truncated":
            path.write_bytes(write_pgm(np.zeros((64, 100), dtype=np.uint8))[:-1])
        report, overlay = tmp_path / "r.json", tmp_path / "o.png"
        args = ["measure", "--mask", str(flat_mask_file), "--image", str(path), "--json", str(report)]
        assert main(args + ["--overlay", str(overlay)]) == 2
        assert capsys.readouterr().out == ""
        assert not report.exists() and not overlay.exists()

    @pytest.mark.parametrize("missing", ("--json", "--overlay"))
    def test_missing_output_folder_exit_2_before_any_output(self, tmp_path, flat_mask_file, capsys, missing):
        folder = tmp_path / "nodir"
        outputs = {"--json": tmp_path / "r.json", "--overlay": tmp_path / "o.png"}
        outputs[missing] = folder / outputs[missing].name
        args = ["measure", "--mask", str(flat_mask_file)] + [str(a) for item in outputs.items() for a in item]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {missing} folder not found: {folder}"]
        assert not any(path.exists() for path in outputs.values())
        # the folder is checked before the mask is read
        args[2] = str(tmp_path / "nothing.pgm")
        assert main(args) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {missing} folder not found: {folder}"]

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["measure", "--mask", str(tmp_path / "nothing.pgm")]) == 2

    def test_any_os_error_exit_2(self, tmp_path, flat_mask_file, capsys):
        # a file name longer than the file system allows (ENAMETOOLONG)
        report = tmp_path / ("a" * 300 + ".json")
        assert main(["measure", "--mask", str(flat_mask_file), "--json", str(report), "--quiet"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

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

    def test_size_mismatched_pairs_listed(self, tmp_path, capsys):
        pred, truth = tmp_path / "pred", tmp_path / "truth"
        pred.mkdir(), truth.mkdir()
        for i in range(3):
            (truth / f"mask_{i:04d}.pgm").write_bytes(mask_to_pgm(BinaryMask(np.ones((32, 48), dtype=bool))))
        (pred / "mask_0000.pgm").write_bytes(mask_to_pgm(BinaryMask(np.ones((32, 48), dtype=bool))))
        (pred / "mask_0001.pgm").write_bytes(mask_to_pgm(BinaryMask(np.ones((32, 40), dtype=bool))))
        (pred / "mask_0002.pgm").write_bytes(mask_to_pgm(BinaryMask(np.ones((30, 48), dtype=bool))))
        assert main(["eval", "--pred-dir", str(pred), "--truth-dir", str(truth)]) == 2
        err = capsys.readouterr().err
        assert "mask_0001.pgm: truth 48x32, prediction 40x32" in err
        assert "mask_0002.pgm: truth 48x32, prediction 48x30" in err
        assert "mask_0000.pgm" not in err


class TestGradcheckCommand:
    def test_passes_and_lists_every_kind(self, capsys):
        assert main(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for kind in (
            "conv2d", "relu", "batchnorm", "maxpool2", "upsample2",
            "dropout", "dense", "softmax_cross_entropy", "mse_loss",
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


class TestOneProcess:
    """Sequential `main` calls share the parser and nothing else."""

    @pytest.fixture()
    def mask_file(self, tmp_path):
        path = tmp_path / "band.pgm"
        spec = SynthSpec(width=160, height=64, thickness=12, tilt_deg=15, seed=1)
        path.write_bytes(mask_to_pgm(generate(spec).truth_mask))
        return path

    def test_method_does_not_carry_over(self, tmp_path, mask_file):
        report = tmp_path / "report.json"
        args = ["measure", "--mask", str(mask_file), "--json", str(report), "--quiet"]
        assert main([*args, "--method", "three-line"]) == 0
        assert json.loads(report.read_text())["method"] == "three_line"
        assert main(args) == 0
        assert json.loads(report.read_text())["method"] == "orthogonal"

    def test_quiet_does_not_carry_over(self, mask_file, capsys):
        assert main(["measure", "--mask", str(mask_file), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["measure", "--mask", str(mask_file)]) == 0
        assert capsys.readouterr().out.startswith("MT=")

    @pytest.mark.parametrize("first, code", [(["measure"], 1), (["--help"], 0), (["measure", "--help"], 0)])
    def test_valid_call_after_usage_error_or_help(self, mask_file, capsys, first, code):
        assert main(first) == code
        assert capsys.readouterr().out.startswith("usage:") == (code == 0)
        assert main(["measure", "--mask", str(mask_file)]) == 0
        assert capsys.readouterr().out.startswith("MT=")
