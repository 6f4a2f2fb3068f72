"""Command-line pipeline: generate, train, segment, measure, evaluate.

Exit codes are a stable contract: 0 success, 1 usage error, 2 bad input,
3 pipeline failure (segmentation or measurement could not produce a result).
All randomness flows from --seed; there is no wall-clock or OS entropy.
"""

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import measure, metrics, synth
from .image import (
    BinaryMask,
    GrayImage,
    MaskValueError,
    PgmError,
    mask_to_pgm,
    normalize,
    pgm_to_mask,
    read_pgm,
    render_overlay,
    write_pgm,
    write_png,
    write_ppm,
)
from .nnet import ArchitectureMismatchError, DivergenceError, ModelFormatError
from .postprocess import EmptyPredictionError, postprocess

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_INPUT = 2
EXIT_PIPELINE = 3

# Largest `synth --width`/`--height`, checked before anything is allocated:
# generating one 4096x4096 sample peaks near 1 GB of memory.
MAX_SYNTH_SIDE = 4096

# Suffix of the `epoch,loss` file that a training command writes beside `--out`.
LOSS_CSV = ".loss.csv"

_INPUT_ERRORS = (
    PgmError,
    MaskValueError,
    synth.SynthSpecError,
    ModelFormatError,
    OSError,
    ValueError,
)
_PIPELINE_ERRORS = (measure.MeasureError, EmptyPredictionError, DivergenceError)


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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _image_side(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_SYNTH_SIDE:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_SYNTH_SIDE}, got {value}")
    return value


def _parse_image(data: bytes) -> GrayImage:
    return normalize(read_pgm(data))


def _scan(folder: Path, pattern: str) -> list[Path]:
    """The files in `folder` that match `pattern`, sorted by name."""
    if not folder.is_dir():
        raise NotADirectoryError(f"data directory not found: {folder}")
    paths = sorted(folder.glob(pattern))
    if not paths:
        raise ValueError(f"no {pattern} files in {folder}")
    return paths


def _read_all(jobs) -> list:
    """`parse(path.read_bytes())` for each `(path, parse)` job; one ValueError lists every bad file."""
    results = []
    bad = []
    for path, parse in jobs:
        try:
            results.append(parse(path.read_bytes()))
        except FileNotFoundError:
            bad.append(f"{path}: missing")
        except OSError as exc:
            bad.append(f"{path}: {exc.strerror}")
        except ValueError as exc:
            bad.append(f"{path}: {exc}")
    if bad:
        raise ValueError("corrupt data files:\n  " + "\n  ".join(bad))
    return results


def _check_out_folder(flag: str, path: str | None) -> None:
    """Fail before any input is read if output `path` is a directory or its folder is missing."""
    if path is None:
        return
    out = Path(path)
    if out.is_dir():
        raise IsADirectoryError(f"{flag} is a directory: {path}")
    if not out.parent.is_dir():
        raise NotADirectoryError(f"{flag} folder not found: {out.parent}")


def _train(args, trainer, data: list, summary: str) -> int:
    """Train with `trainer`, write the weight file and its `<out>.loss.csv` of
    `epoch,loss`, then print the summary line."""
    from .nnet.io import save_model
    from .nnet.models import TrainConfig

    config = TrainConfig(batch_size=args.batch, epochs=args.epochs, learning_rate=args.lr, seed=args.seed)
    model, losses = trainer(data, config)
    Path(args.out).write_bytes(save_model(model))
    lines = ["epoch,loss"] + [f"{i},{loss!r}" for i, loss in enumerate(losses)]
    Path(args.out + LOSS_CSV).write_text("\n".join(lines) + "\n")
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
    ranges.validate()
    out = Path(args.out)
    if out.is_dir() and any(out.iterdir()):
        raise FileExistsError(f"--out {out} is not empty; synth writes only into a new or empty folder")
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i in range(args.n):
        spec = synth.draw_spec(ranges, args.seed, i)
        sample = synth.generate(spec)
        (out / f"img_{i:04d}.pgm").write_bytes(write_pgm(sample.image.to_u8()))
        (out / f"mask_{i:04d}.pgm").write_bytes(mask_to_pgm(sample.truth_mask))
        manifest.append(
            {
                "index": i,
                "true_thickness": spec.thickness,
                "tilt_deg": spec.tilt_deg,
                "curvature": spec.curvature,
                "noise": spec.noise,
                "seed": spec.seed,
            }
        )
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    if not args.quiet:
        print(f"wrote {args.n} samples to {args.out}")
    return EXIT_OK


def cmd_train_seg(args) -> int:
    from .nnet.models import train_segmenter

    for path in (args.out, args.out + LOSS_CSV):
        _check_out_folder("--out", path)
    jobs = []
    for path in _scan(Path(args.data), "img_*.pgm"):
        jobs += [(path, _parse_image), (path.with_name(path.name.replace("img_", "mask_", 1)), pgm_to_mask)]
    loaded = _read_all(jobs)
    pairs = list(zip(loaded[::2], loaded[1::2]))
    return _train(args, train_segmenter, pairs, f"segmenter on {len(pairs)} samples")


def _parse_target(data: bytes) -> tuple[BinaryMask, float]:
    """A mask and its orthogonal mean thickness, the regressor's target."""
    mask = pgm_to_mask(data)
    return mask, measure.orthogonal_report(mask).mean


def cmd_train_rcnn(args) -> int:
    from .nnet.models import train_rcnn

    for path in (args.out, args.out + LOSS_CSV):
        _check_out_folder("--out", path)
    data = _read_all((path, _parse_target) for path in _scan(Path(args.data), "mask_*.pgm"))
    return _train(args, train_rcnn, data, f"regressor on {len(data)} masks")


def cmd_segment(args) -> int:
    from .nnet.io import ARCH_OFFSET, load_model
    from .nnet.models import SEG_ARCH, segment_image

    _check_out_folder("--out", args.out)
    model = load_model(Path(args.model).read_bytes())
    if model.arch != SEG_ARCH:
        raise ArchitectureMismatchError("model file is not a segmenter", ARCH_OFFSET)
    image = _parse_image(Path(args.image).read_bytes())
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
    if args.image is not None and args.overlay is None:
        print("error: --image is only read for an --overlay; add --overlay or drop --image", file=sys.stderr)
        return EXIT_USAGE
    if args.overlay is not None and Path(args.overlay).suffix.lower() not in (".png", ".ppm"):
        print(f"error: --overlay {args.overlay} must end in .png or .ppm", file=sys.stderr)
        return EXIT_USAGE
    for flag, path in (("--json", args.json), ("--overlay", args.overlay)):
        _check_out_folder(flag, path)
    mask_path = Path(args.mask)
    mask = pgm_to_mask(mask_path.read_bytes())
    estimator = measure.orthogonal_report if args.method == "orthogonal" else measure.three_line_report
    report = estimator(mask, scale=args.scale)
    if not (math.isfinite(report.mean_scaled) and math.isfinite(report.sd_scaled)):
        raise ValueError(f"--scale {args.scale:g} makes the scaled thickness overflow to infinity")
    if args.overlay:  # rendered before any output, so a bad --image leaves no file behind
        grid = read_pgm(Path(args.image).read_bytes()) if args.image else mask.cells * np.uint8(255)
        image = normalize(grid)
        caption = f"{mask_path.name} MT={report.mean_scaled:.2f} SD={report.sd_scaled:.2f}"
        rgb = render_overlay(image, mask, report=report, caption=caption)
    if not args.quiet:
        print(f"MT={report.mean_scaled:.4f} SD={report.sd_scaled:.4f} n={report.n}")
    if args.json:
        Path(args.json).write_text(measure.report_json(report, file_name=mask_path.name) + "\n")
    if args.overlay:
        overlay = Path(args.overlay)
        overlay.write_bytes(write_png(rgb) if overlay.suffix.lower() == ".png" else write_ppm(rgb))
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_out_folder("--json", args.json)
    pred_dir, truth_dir = Path(args.pred_dir), Path(args.truth_dir)
    names = [p.name for p in _scan(pred_dir, "mask_*.pgm")]
    unmatched = sorted(set(names) ^ {p.name for p in _scan(truth_dir, "mask_*.pgm")})
    if unmatched:
        raise ValueError("unmatched files:\n  " + "\n  ".join(unmatched))
    masks = _read_all((folder / name, pgm_to_mask) for name in names for folder in (truth_dir, pred_dir))
    report = metrics.eval_report(list(zip(names, masks[::2], masks[1::2])))
    if not args.quiet:
        print(f"dice={report['mean_dice']:.4f} iou={report['mean_iou']:.4f} n={len(names)}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .nnet.gradcheck import TOLERANCE, run_all

    errors = run_all(seed=args.seed)
    worst = max(errors.values())
    for kind, err in errors.items():
        status = "ok" if err <= TOLERANCE else "FAIL"
        print(f"{kind:<22s} max_rel_err={err:.3e} {status}")
    if worst > TOLERANCE:
        print(f"gradient check failed: worst error {worst:.3e} > {TOLERANCE:.0e}")
        return EXIT_PIPELINE
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then shared: every
    `parse_args` starts from a new namespace and leaves the parser as it was."""
    parser = argparse.ArgumentParser(prog="layermet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic layered micrographs")
    p.add_argument("--n", type=_positive_int, required=True, help="number of samples")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--width", type=_image_side, default=96)
    p.add_argument("--height", type=_image_side, default=64)
    p.add_argument("--thickness", type=_range_pair, default=(8.0, 16.0), metavar="A:B")
    p.add_argument("--tilt", type=_range_pair, default=(-18.0, 18.0), metavar="A:B")
    p.add_argument("--curvature", type=_range_pair, default=(0.0, 2.0), metavar="A:B")
    p.add_argument("--noise", type=_range_pair, default=(0.0, 0.05), metavar="A:B")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_synth)

    for name, func, lr, text in (
        ("train-seg", cmd_train_seg, 0.1, "train the segmenter on a generated directory"),
        ("train-rcnn", cmd_train_rcnn, 1e-4, "train the thickness regressor on mask files"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--data", required=True)
        p.add_argument("--epochs", type=_nonneg_int, required=True)
        p.add_argument("--batch", type=_positive_int, default=4)
        p.add_argument("--lr", type=_positive_float, default=lr)
        p.add_argument("--out", required=True, help="weight file path; the loss CSV goes to <out>.loss.csv")
        p.add_argument("--seed", type=_nonneg_int, default=0)
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(func=func)

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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits with 0 after --help and 2 on a usage error
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        # an overflow is reported once, by the error it leads to, not also as numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except _PIPELINE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
