"""Command-line pipeline: generate, train, segment, measure, evaluate.

Exit codes are a stable contract: 0 success, 1 usage error, 2 bad input,
3 pipeline failure (segmentation or measurement could not produce a result).
All randomness flows from --seed; there is no wall-clock or OS entropy.
"""

import argparse
import json
import math
import struct
import sys
import zlib
from pathlib import Path

import numpy as np

from . import measure, metrics, synth
from .image import (
    BinaryMask,
    GrayImage,
    MaskValueError,
    PgmError,
    RgbImage,
    mask_to_pgm,
    normalize,
    pgm_to_mask,
    read_pgm,
    render_overlay,
)
from .nnet import (
    ArchitectureMismatchError,
    DivergenceError,
    ModelFormatError,
    TrainConfig,
    load_model,
    run_all,
    save_model,
    segment_image,
    train_rcnn,
    train_segmenter,
)
from .nnet.models import SEG_ARCH
from .postprocess import EmptyPredictionError, postprocess

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_INPUT = 2
EXIT_PIPELINE = 3

_INPUT_ERRORS = (
    PgmError,
    MaskValueError,
    synth.SynthSpecError,
    synth.InfeasibleRangesError,
    ModelFormatError,
    FileNotFoundError,
    NotADirectoryError,
    IsADirectoryError,
    ValueError,
)
_PIPELINE_ERRORS = (measure.MeasureError, EmptyPredictionError, DivergenceError)


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageExit()


def _range_pair(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a range like 4:12, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"range bounds must be finite, got {text!r}")
    return lo, hi


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def write_ppm(rgb: RgbImage) -> bytes:
    header = f"P6\n{rgb.width} {rgb.height}\n255\n".encode("ascii")
    return header + rgb.pixels.tobytes()


def write_png(rgb: RgbImage) -> bytes:
    """Minimal 8-bit RGB PNG writer (filter 0 rows, one IDAT)."""

    def chunk(tag: bytes, payload: bytes) -> bytes:
        body = tag + payload
        return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body))

    ihdr = struct.pack(">IIBBBBB", rgb.width, rgb.height, 8, 2, 0, 0, 0)
    rows = rgb.pixels.reshape(rgb.height, rgb.width * 3)
    raw = np.pad(rows, ((0, 0), (1, 0))).tobytes()  # a zero filter byte leads each row
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw))
        + chunk(b"IEND", b"")
    )


def _write_overlay(path: Path, rgb: RgbImage) -> None:
    data = write_png(rgb) if path.suffix.lower() == ".png" else write_ppm(rgb)
    path.write_bytes(data)


def _load_mask(path: Path) -> BinaryMask:
    return pgm_to_mask(path.read_bytes())


def _load_image(path: Path) -> GrayImage:
    return normalize(read_pgm(path.read_bytes()))


def _load_pairs(data_dir: Path) -> list[tuple[str, GrayImage, BinaryMask]]:
    """Load img_/mask_ pairs from a generated directory, listing corrupt files."""
    if not data_dir.is_dir():
        raise NotADirectoryError(f"data directory not found: {data_dir}")
    images = sorted(data_dir.glob("img_*.pgm"))
    if not images:
        raise ValueError(f"no img_*.pgm files in {data_dir}")
    pairs = []
    bad = []
    for img_path in images:
        mask_path = data_dir / img_path.name.replace("img_", "mask_", 1)
        try:
            image = _load_image(img_path)
        except (PgmError, ValueError) as exc:
            bad.append(f"{img_path.name}: {exc}")
            continue
        try:
            mask = _load_mask(mask_path)
        except FileNotFoundError:
            bad.append(f"{mask_path.name}: missing")
            continue
        except (PgmError, MaskValueError, ValueError) as exc:
            bad.append(f"{mask_path.name}: {exc}")
            continue
        pairs.append((img_path.name, image, mask))
    if bad:
        raise ValueError("corrupt data files:\n  " + "\n  ".join(bad))
    return pairs


def _train_config(args) -> TrainConfig:
    return TrainConfig(batch_size=args.batch, epochs=args.epochs, learning_rate=args.lr, seed=args.seed)


def _save_trained(args, model, losses: list[float], summary: str) -> int:
    """Write the weight file and the `epoch,loss` CSV, then print the summary line."""
    out = Path(args.out)
    out.write_bytes(save_model(model))
    curve = Path(args.curve) if args.curve else out.with_suffix(out.suffix + ".loss.csv")
    lines = ["epoch,loss"] + [f"{i},{loss!r}" for i, loss in enumerate(losses)]
    curve.write_text("\n".join(lines) + "\n")
    if not args.quiet:
        final = f"{losses[-1]:.6f}" if losses else "n/a"
        print(f"trained {summary}, {args.epochs} epochs, final loss {final}")
    return EXIT_OK


def cmd_synth(args) -> int:
    ranges = synth.SynthRanges(
        width=args.width,
        height=args.height,
        thickness=args.thickness,
        tilt_deg=args.tilt,
        curvature=args.curvature,
        noise=args.noise,
    )
    synth.generate_batch(args.n, ranges, seed=args.seed, out_dir=args.out)
    if not args.quiet:
        print(f"wrote {args.n} samples to {args.out}")
    return EXIT_OK


def cmd_train_seg(args) -> int:
    pairs = _load_pairs(Path(args.data))
    model, losses = train_segmenter([(img, m) for _, img, m in pairs], _train_config(args))
    return _save_trained(args, model, losses, f"segmenter on {len(pairs)} samples")


def cmd_train_rcnn(args) -> int:
    data_dir = Path(args.data)
    if not data_dir.is_dir():
        raise NotADirectoryError(f"data directory not found: {data_dir}")
    mask_paths = sorted(data_dir.glob("mask_*.pgm"))
    if not mask_paths:
        raise ValueError(f"no mask_*.pgm files in {data_dir}")
    data = []
    bad = []
    for path in mask_paths:
        try:
            mask = _load_mask(path)
            target = measure.orthogonal_report(mask).mean
        except (PgmError, MaskValueError, measure.MeasureError, ValueError) as exc:
            bad.append(f"{path.name}: {exc}")
            continue
        data.append((mask, target))
    if bad:
        raise ValueError("corrupt data files:\n  " + "\n  ".join(bad))
    model, losses = train_rcnn(data, _train_config(args))
    return _save_trained(args, model, losses, f"regressor on {len(data)} masks")


def cmd_segment(args) -> int:
    model = load_model(Path(args.model).read_bytes())
    if model.arch != SEG_ARCH:
        raise ArchitectureMismatchError("model file is not a segmenter", 8)
    image = _load_image(Path(args.image))
    mask = segment_image(model, image)
    if not args.no_postprocess:
        mask = postprocess(mask)  # raises EmptyPredictionError on empty prediction
    elif mask.area == 0:
        raise EmptyPredictionError("prediction has no foreground region")
    Path(args.out).write_bytes(mask_to_pgm(mask))
    if not args.quiet:
        print(f"segmented {args.image}: {mask.area} layer pixels -> {args.out}")
    return EXIT_OK


def cmd_measure(args) -> int:
    mask_path = Path(args.mask)
    mask = _load_mask(mask_path)
    method = args.method.replace("-", "_")
    if method == "orthogonal":
        report = measure.orthogonal_report(mask, scale=args.scale)
    else:
        report = measure.three_line_report(mask, scale=args.scale)
    if not args.quiet:
        print(f"MT={report.mean_scaled:.4f} SD={report.sd_scaled:.4f} n={report.n}")
    if args.json:
        payload = measure.report_to_dict(report, file_name=mask_path.name)
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    if args.overlay:
        if args.image:
            image = _load_image(Path(args.image))
        else:
            image = GrayImage(mask.cells.astype(np.float64))
        caption = f"{mask_path.name} MT={report.mean_scaled:.2f} SD={report.sd_scaled:.2f}"
        rgb = render_overlay(image, mask, report=report, caption=caption)
        _write_overlay(Path(args.overlay), rgb)
    return EXIT_OK


def cmd_eval(args) -> int:
    pred_dir, truth_dir = Path(args.pred_dir), Path(args.truth_dir)
    for d in (pred_dir, truth_dir):
        if not d.is_dir():
            raise NotADirectoryError(f"directory not found: {d}")
    pred_names = {p.name for p in pred_dir.glob("mask_*.pgm")}
    truth_names = {p.name for p in truth_dir.glob("mask_*.pgm")}
    unmatched = sorted(pred_names ^ truth_names)
    if unmatched:
        raise ValueError("unmatched files:\n  " + "\n  ".join(unmatched))
    if not pred_names:
        raise ValueError("no mask_*.pgm files to evaluate")
    scored = []
    for name in sorted(pred_names):
        truth = _load_mask(truth_dir / name)
        pred = _load_mask(pred_dir / name)
        scored.append((name, truth, pred))
    report = metrics.build_eval_report(scored)
    if not args.quiet:
        print(f"dice={report.mean_dice:.4f} iou={report.mean_iou:.4f} n={len(scored)}")
    if args.json:
        Path(args.json).write_text(json.dumps(metrics.eval_report_to_dict(report), indent=2) + "\n")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .nnet.gradcheck import TOLERANCE

    errors = run_all(seed=args.seed)
    worst = max(errors.values())
    for kind, err in errors.items():
        status = "ok" if err <= TOLERANCE else "FAIL"
        print(f"{kind:<22s} max_rel_err={err:.3e} {status}")
    if worst > TOLERANCE:
        print(f"gradient check failed: worst error {worst:.3e} > {TOLERANCE:.0e}")
        return EXIT_PIPELINE
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="layermet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic layered micrographs")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--width", type=int, default=96)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--thickness", type=_range_pair, default=(8.0, 16.0), metavar="A:B")
    p.add_argument("--tilt", type=_range_pair, default=(-18.0, 18.0), metavar="A:B")
    p.add_argument("--curvature", type=_range_pair, default=(0.0, 2.0), metavar="A:B")
    p.add_argument("--noise", type=_range_pair, default=(0.0, 0.05), metavar="A:B")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-seg", help="train the segmenter on a generated directory")
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=_nonneg_int, required=True)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--lr", type=_positive_float, default=0.1)
    p.add_argument("--out", required=True, help="weight file path")
    p.add_argument("--curve", default=None, help="loss CSV path (default <out>.loss.csv)")
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train_seg)

    p = sub.add_parser("train-rcnn", help="train the thickness regressor on mask files")
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=_nonneg_int, required=True)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--lr", type=_positive_float, default=1e-4)
    p.add_argument("--out", required=True)
    p.add_argument("--curve", default=None)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train_rcnn)

    p = sub.add_parser("segment", help="predict a layer mask for one image")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-postprocess", action="store_true", help="keep the raw argmax mask")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("measure", help="measure layer thickness from a mask")
    p.add_argument("--mask", required=True)
    p.add_argument("--method", choices=("orthogonal", "three-line"), default="orthogonal")
    p.add_argument("--scale", type=_positive_float, default=1.0, help="nm per pixel")
    p.add_argument("--json", default=None, help="write the report JSON here")
    p.add_argument("--overlay", default=None, help="write an overlay (.ppm or .png)")
    p.add_argument("--image", default=None, help="grayscale source for the overlay")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("eval", help="score predicted masks against ground truth")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--truth-dir", required=True)
    p.add_argument("--json", default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of every layer kind")
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit:
        return EXIT_USAGE
    try:
        return args.func(args)
    except _PIPELINE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
