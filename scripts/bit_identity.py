"""Hash what the library computes, to show that a change keeps it bit-identical.

Prints one sha256 per group; run it on two checkouts and compare the lines:

- nets: 164 arrays from training both nets at seeds 0 and 3 (parameters,
  batchnorm running statistics, loss curves, `segment_image` masks of 6
  odd-sized images and `predict_thickness` of their 6 true masks); the
  script exits 1 if any of those masks is empty;
- synth: the folders `layermet synth` writes at seeds 0, 3 and 11, and the
  image and mask of `generate` on specs the CLI's ranges never draw (tilt
  +-35 deg, curvature at the fit limit, blur radius 2 and 3, frames 1 px and
  2048 px wide);
- measure: on the masks of acceptance criteria 1, 2 and 9 and 30 seeded
  tilted bands with speckle, the `label_components` labels and areas, the
  `report_json` text of both estimators after `postprocess` (or the error
  they raise), which is the text of `json.dumps(report_to_dict(...),
  indent=2)`, the mask `pgm_to_mask` reads back from a P2 encoding, and two
  overlay PNGs with a hash of the RGB pixels decoded from each; the overlay
  PNG of a noisy 2048x256 band, whose 1.5 MB of scanlines take several
  deflate pieces, and its decoded pixels; and the labels and areas of three
  noisy 257x301 masks, a 256x256 spiral and a checkerboard;
- overlays: the decoded pixel hashes alone, so a change to the PNG encoder
  that keeps the pixels moves the measure line but not this one;
- pipeline: the artifacts of acceptance criterion 8's CLI pipeline, except
  `eval.json`, which gets its own line;
- weights: `save_model(load_model(save_model(net)))` for the four nets the
  nets line trains and an untrained net of each architecture, so a change to
  the loader shows even where no pipeline reloads that net;
- malformed: what `pgm_to_mask` makes of each MALFORMED_P2 input (the grid,
  or the error with its offset or pixel index), so a change to what the PGM
  reader accepts moves this line and leaves the measure line as it was.

Before the hash lines it prints, as `#` lines, the Python, numpy and BLAS
versions and the OPENBLAS_NUM_THREADS setting, since the nets' hashes belong
to one BLAS build. Run from the repository root:

    PYTHONPATH=src python scripts/bit_identity.py
    PYTHONPATH=src python scripts/bit_identity.py --expect BIT_IDENTITY.txt

With `--expect`, it compares its hash lines with a file this script wrote,
names on stderr each line that moved, and exits 1 if any did.
"""

import argparse
import hashlib
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from layermet.cli import main, write_png
from layermet.image import BinaryMask, GrayImage, MaskValueError, PgmError, pgm_to_mask, render_overlay
from layermet.measure import MeasureError, orthogonal_report, report_json, three_line_report
from layermet.nnet.io import load_model, save_model
from layermet.nnet.models import (
    TrainConfig,
    build_rcnn,
    build_segmenter,
    predict_thickness,
    segment_image,
    train_rcnn,
    train_segmenter,
)
from layermet.postprocess import label_components, postprocess
from layermet.synth import SynthRanges, SynthSpec, generate, generate_batch

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import decode_png, spiral_cells  # noqa: E402
from test_acceptance import _run_pipeline  # noqa: E402

ODD_SIZES = [(37, 29), (50, 41), (61, 33), (45, 31), (71, 27), (33, 35)]


def net_arrays(seed: int) -> tuple[list, dict]:
    """Everything both nets compute when trained at `seed`, as a list of
    arrays, and the two trained nets by name."""
    seg_ranges = SynthRanges(
        width=48, height=32, thickness=(6.0, 10.0), tilt_deg=(-5.0, 5.0), curvature=(0.0, 1.0)
    )
    seg_data = [(s.image, s.truth_mask) for s in generate_batch(12, seg_ranges, seed=seed)]
    # 10 epochs: after 3, the segmenter finds no foreground in any ODD_SIZES
    # image, so a change to how segment_image pads or crops moved no hash
    seg_cfg = TrainConfig(batch_size=4, epochs=10, learning_rate=0.1, seed=seed)
    seg, seg_losses = train_segmenter(seg_data, seg_cfg)
    rcnn_samples = generate_batch(8, SynthRanges(width=96, height=96), seed=seed)
    rcnn_data = [(s.truth_mask, s.true_thickness) for s in rcnn_samples]
    rcnn_cfg = TrainConfig(batch_size=2, epochs=2, learning_rate=1e-4, seed=seed)
    rcnn, rcnn_losses = train_rcnn(rcnn_data, rcnn_cfg)

    odd = [
        generate(SynthSpec(width=w, height=h, thickness=6.0, tilt_deg=4 * i - 10.0, noise=0.03, seed=i))
        for i, (w, h) in enumerate(ODD_SIZES)
    ]
    arrays = list(seg.params())
    arrays += [getattr(layer, name) for layer in seg.layers for name in layer.BUFFERS]
    arrays.append(np.asarray(seg_losses))
    masks = [segment_image(seg, s.image) for s in odd]
    empty = [size for size, mask in zip(ODD_SIZES, masks) if mask.area == 0]
    if empty:
        # an empty mask looks the same however segment_image pads and crops
        sys.exit(f"segment_image found no foreground in ODD_SIZES {empty} at seed {seed}")
    arrays += [mask.cells for mask in masks]
    arrays += list(rcnn.params())
    arrays.append(np.asarray(rcnn_losses))
    arrays += [np.float64(predict_thickness(rcnn, s.truth_mask)) for s in odd]
    return arrays, {f"segmenter_seed{seed}": seg, f"regressor_seed{seed}": rcnn}


# Specs outside the CLI's ranges: (width, height, thickness, tilt, curvature, noise, blur radius).
EDGE_SPECS = [
    (160, 240, 12.5, 35.0, 0.0, 0.0, 0),
    (160, 240, 17.0, -35.0, 1.5, 0.04, 2),
    (96, 64, 10.0, 8.0, 11.0, 0.0, 0),
    (120, 96, 20.0, -30.0, 14.0, 0.03, 3),
    (1, 16, 5.0, 0.0, 0.0, 0.05, 2),
    (1, 40, 9.5, 35.0, 5.0, 0.0, 3),
    (2048, 512, 30.0, 6.0, 40.0, 0.02, 2),
    (2048, 256, 64.0, -3.0, 32.0, 0.05, 3),
    (2048, 256, 40.0, 35.0, 0.0, 0.02, 2),  # leaves through the top and bottom edges
]


def edge_arrays() -> list:
    """Image and mask of `generate` on each of EDGE_SPECS."""
    arrays = []
    for i, (w, h, t, tilt, curvature, noise, blur) in enumerate(EDGE_SPECS):
        sample = generate(SynthSpec(w, h, t, tilt, curvature, noise, blur_radius=blur, seed=i))
        arrays += [sample.image.pixels, sample.truth_mask.cells]
    return arrays


def measure_corpus():
    """(name, image, mask) for the criterion 1, 2 and 9 bands and 30 speckled bands."""
    rng = np.random.default_rng(20240801)  # criterion 1's draws
    specs = {}
    for i in range(50):
        t, tilt = int(rng.integers(8, 17)), float(rng.uniform(-30.0, 30.0))
        specs[f"c1_{i:02d}"] = SynthSpec(width=128, height=112, thickness=t, tilt_deg=tilt, seed=i)
    for theta in (10.0, 20.0, 30.0):
        for t in range(9, 17):
            specs[f"c2_{theta:.0f}_{t}"] = SynthSpec(width=128, height=112, thickness=t, tilt_deg=theta, seed=t)
    rng = np.random.default_rng(99)  # criterion 9's draws
    for i in range(40):
        t, tilt = int(rng.integers(8, 17)), float(rng.uniform(-25.0, 25.0))
        specs[f"c9_{i:02d}"] = SynthSpec(width=128, height=112, thickness=t, tilt_deg=tilt, seed=5000 + i)
    for name, spec in specs.items():
        sample = generate(spec)
        yield name, GrayImage(sample.truth_mask.cells.astype(np.float64)), sample.truth_mask

    rng = np.random.default_rng(31)
    for i in range(30):
        spec = SynthSpec(
            width=192,
            height=96,
            thickness=float(rng.uniform(6.0, 20.0)),
            tilt_deg=float(rng.uniform(-15.0, 15.0)),
            curvature=float(rng.uniform(0.0, 3.0)),
            noise=0.05,
            seed=i,
        )
        sample = generate(spec)
        cells = sample.truth_mask.cells | (rng.random((96, 192)) < 0.004)
        for _ in range(int(rng.integers(1, 5))):  # a few blobs of 2x2 to 4x4 px
            y, x, size = int(rng.integers(0, 92)), int(rng.integers(0, 188)), int(rng.integers(2, 5))
            cells[y : y + size, x : x + size] = True
        yield f"speckle_{i:02d}", sample.image, BinaryMask(cells)


# P2 inputs at the edges of read_pgm's tokenizer, most of them refused:
# comments at a token start and inside one, signs, underscores, every
# whitespace byte, leading zeros, 4+ digit and out-of-range values, int()'s
# digit limit, short, long and cut-off payloads, and a gray value in a mask.
MALFORMED_P2 = [
    b"P2\n2 2\n255\n0 # a comment\n255\n# another\n0 255",
    b"P2\n2 2\n255\n0 255#not a comment 0 255",
    b"P2\n2 2\n255\n+0 +255 0 255\n",
    b"P2\n2 2\n255\n-0 255 0 -255\n",
    b"P2\n2 2\n255\n2_5_5 0 0 255\n",
    b"P2\n2 2\n255\t0\x0b255\x0c0\r255\r\n",
    b"P2\n2 2\n255\n0000255 000 00 0\n",
    b"P2\n2 2\n255\n0 255 1000 0\n",
    b"P2\n2 2\n255\n0 256 0 0\n",
    b"P2\n2 2\n255\n0 255 " + b"0" * 4301 + b" 0\n",
    b"P2\n2 2\n255\n0 255 1" + b"0" * 700 + b" 0\n",
    b"P2\n2 2\n255\n0 255 7x",
    b"P2\n2 2\n255\n0 255   ",
    b"P2\n2 2\n255\n0 255 0 255 17 x9 -1\n",
    b"P2\n2 2\n255\n0 255 0 # 255\n",
    b"P2\n2 2\n255\n0 255 0 #",
    b"P2\n2 2\n255\n0 255\n0 25",
    b"P2\n3 1\n255\n0 128 255\n",
    b"P2 # header comment\n2 1 255 255 0",
    b"P2\n2 2\n255\n\xff 0 0 0\n",
]


def encode_p2(name: str, cells: np.ndarray, per_line: int) -> bytes:
    """A mask as P2 text with a comment line and `per_line` values a line."""
    values = np.where(cells, 255, 0).ravel().tolist()
    lines = [" ".join(map(str, values[i : i + per_line])) for i in range(0, len(values), per_line)]
    header = f"P2\n# {name}\n{cells.shape[1]} {cells.shape[0]}\n255\n"
    return (header + "\n".join(lines) + "\n").encode("ascii")


def read_mask(data: bytes) -> bytes:
    """What `pgm_to_mask` makes of `data`: a hash of the mask, or the error."""
    try:
        return hash_arrays([pgm_to_mask(data).cells]).encode()
    except PgmError as exc:
        return f"PgmError: {exc} @ {exc.offset}".encode()
    except MaskValueError as exc:
        return f"MaskValueError: {exc} @ {exc.index}".encode()


def measure_files() -> dict:
    """Labels, areas, report JSON and P2 read-back per corpus mask, three
    overlay PNGs and their pixel hashes, and the labels and areas of each
    labeling_corpus mask."""
    files = {}
    overlays = {"c2_30_12": orthogonal_report, "speckle_07": three_line_report}
    for i, (name, image, mask) in enumerate(measure_corpus()):
        files[f"{name}/labels"] = label_hash(mask)
        files[f"{name}/p2"] = read_mask(encode_p2(name, mask.cells, (7, 16, mask.width)[i % 3]))
        cleaned = postprocess(mask)
        for estimator in (orthogonal_report, three_line_report):
            try:
                report = estimator(cleaned)
                text = report_json(report, file_name=name)
            except MeasureError as exc:
                report, text = None, f"{type(exc).__name__}: {exc}"
            files[f"{name}/{estimator.__name__}.json"] = text.encode()
            if overlays.get(name) is estimator:
                caption = f"{name} MT={report.mean_scaled:.2f} SD={report.sd_scaled:.2f}"
                png = write_png(render_overlay(image, cleaned, report, caption))
                files[f"{name}/overlay.png"] = png
                files[f"{name}/overlay.png.rgb"] = hash_arrays([decode_png(png)]).encode()
    wide = generate(SynthSpec(width=2048, height=256, thickness=20.7, tilt_deg=5.0, noise=0.03, seed=2048))
    report = orthogonal_report(wide.truth_mask)
    png = write_png(render_overlay(wide.image, wide.truth_mask, report, f"wide MT={report.mean_scaled:.2f}"))
    files["wide_2048x256/overlay.png"] = png
    files["wide_2048x256/overlay.png.rgb"] = hash_arrays([decode_png(png)]).encode()
    for name, cells in labeling_corpus():
        files[f"{name}/labels"] = label_hash(BinaryMask(cells))
    return files


def label_hash(mask: BinaryMask) -> bytes:
    """A hash of the `label_components` labels and areas of `mask`."""
    regions = label_components(mask)
    return hash_arrays([regions.labels, regions.regions]).encode()


def labeling_corpus():
    """(name, cells) with many regions or long merge chains: seeded noise,
    a one-pixel spiral and a checkerboard that joins only at corners."""
    for p in (0.3, 0.45, 0.6):
        yield f"noise_{p}", np.random.default_rng(int(100 * p)).random((257, 301)) < p
    yield "spiral_256", spiral_cells(256)
    yield "checkerboard", np.indices((256, 256)).sum(axis=0) % 2 == 0


def hash_arrays(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


def hash_files(files: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\0")
        digest.update(files[name])
    return digest.hexdigest()


def folder_files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def environment() -> list[str]:
    """The `#` lines naming what the hashes depend on beyond the source."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", f"unset ({os.cpu_count()} CPUs)")
    return [
        f"# python {platform.python_version()}",
        f"# numpy {np.__version__}",
        f"# blas {blas['name']} {blas['version']}",
        f"# OPENBLAS_NUM_THREADS {threads}",
    ]


def hash_lines(lines: list[str]) -> dict:
    """Each hash line's name and hash."""
    return dict(line.split()[:2] for line in lines if line.strip() and not line.startswith("#"))


def compare(recorded: list[str], lines: list[str]) -> list[str]:
    """A note for each environment line that differs from the recorded one,
    then a `moved:` line for each hash line that differs or that one side
    lacks."""
    report = [
        f"note: recorded {old[2:]!r}, this run {new[2:]!r}"
        for old, new in zip(recorded, lines)
        if old.startswith("#") and new.startswith("#") and old != new
    ]
    want, got = hash_lines(recorded), hash_lines(lines)
    for name in dict.fromkeys([*want, *got]):
        if want.get(name) != got.get(name):
            report.append(f"moved: {name} (expected {want.get(name)}, got {got.get(name)})")
    return report


def main_script():
    parser = argparse.ArgumentParser(description="Hash what the library computes.")
    parser.add_argument("--expect", type=Path, help="a file this script wrote; exit 1 if a hash line moved")
    args = parser.parse_args()
    recorded = args.expect.read_text().splitlines() if args.expect else None
    lines = []

    def emit(line: str) -> None:
        lines.append(line)
        print(line, flush=True)

    for line in environment():
        emit(line)
    (arrays0, nets), (arrays3, nets3) = net_arrays(0), net_arrays(3)
    arrays = arrays0 + arrays3
    emit(f"nets      {hash_arrays(arrays)}  ({len(arrays)} arrays)")
    nets |= nets3 | {"segmenter_untrained": build_segmenter(0), "regressor_untrained": build_rcnn(0)}
    reloaded = {name: save_model(load_model(save_model(net))) for name, net in nets.items()}

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for seed in (0, 3, 11):
            out = root / f"seed{seed}"
            code = main(["synth", "--n", "6", "--seed", str(seed), "--quiet", "--out", str(out)])
            if code != 0:
                sys.exit(f"synth --seed {seed} exited {code}")
        files = folder_files(root)
        files["edge_specs"] = hash_arrays(edge_arrays()).encode()
        emit(f"synth     {hash_files(files)}")

        files = measure_files()
        failed = sum(name.endswith(".json") and not files[name].startswith(b"{") for name in files)
        emit(f"measure   {hash_files(files)}  ({len(files)} files, {failed} reports raised)")
        pixels = {name: data for name, data in files.items() if name.endswith(".rgb")}
        emit(f"overlays  {hash_files(pixels)}  ({len(pixels)} decoded overlays)")

        artifacts = _run_pipeline(root / "pipeline")
        report = artifacts.pop("eval.json")
        emit(f"pipeline  {hash_files(artifacts)}  ({len(artifacts)} artifacts)")
        emit(f"eval.json {hashlib.sha256(report).hexdigest()}")
    emit(f"weights   {hash_files(reloaded)}  ({len(reloaded)} weight files)")
    malformed = {f"malformed_p2/{i:02d}": read_mask(data) for i, data in enumerate(MALFORMED_P2)}
    emit(f"malformed {hash_files(malformed)}  ({len(malformed)} inputs)")

    if recorded is not None:
        report = compare(recorded, lines)
        moved = any(line.startswith("moved:") for line in report)
        if not moved:
            report.append(f"all {len(hash_lines(lines))} hash lines match {args.expect}")
        print("\n".join(report), file=sys.stderr)
        sys.exit(int(moved))


if __name__ == "__main__":
    main_script()
