"""Hash what the library computes, to show that a change keeps it bit-identical.

Prints one sha256 per group; run it on two checkouts and compare the lines:

- nets: 164 arrays from training both nets at seeds 0 and 3 (parameters,
  batchnorm running statistics, loss curves, `segment_image` masks of 6
  odd-sized images and `predict_thickness` of their 6 true masks);
- synth: the folders `layermet synth` writes at seeds 0, 3 and 11;
- pipeline: the artifacts of acceptance criterion 8's CLI pipeline, except
  `eval.json`, which gets its own line.

Run from the repository root:

    PYTHONPATH=src python scripts/bit_identity.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from layermet.cli import main
from layermet.nnet import (
    BatchNorm2d,
    TrainConfig,
    predict_thickness,
    segment_image,
    train_rcnn,
    train_segmenter,
)
from layermet.synth import SynthRanges, SynthSpec, generate, generate_batch

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from test_acceptance import _run_pipeline  # noqa: E402

ODD_SIZES = [(37, 29), (50, 41), (61, 33), (45, 47), (71, 27), (33, 35)]


def net_arrays(seed: int) -> list:
    """Everything both nets compute when trained at `seed`, as a list of arrays."""
    seg_ranges = SynthRanges(
        width=48, height=32, thickness=(6.0, 10.0), tilt_deg=(-5.0, 5.0), curvature=(0.0, 1.0)
    )
    seg_data = [(s.image, s.truth_mask) for s in generate_batch(12, seg_ranges, seed=seed)]
    seg_cfg = TrainConfig(batch_size=4, epochs=3, learning_rate=0.1, seed=seed)
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
    for layer in seg.layers:
        if isinstance(layer, BatchNorm2d):
            arrays += [layer.running_mean, layer.running_var]
    arrays.append(np.asarray(seg_losses))
    arrays += [segment_image(seg, s.image).cells for s in odd]
    arrays += list(rcnn.params())
    arrays.append(np.asarray(rcnn_losses))
    arrays += [np.float64(predict_thickness(rcnn, s.truth_mask)) for s in odd]
    return arrays


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


def main_script():
    arrays = net_arrays(0) + net_arrays(3)
    print(f"nets      {hash_arrays(arrays)}  ({len(arrays)} arrays)")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for seed in (0, 3, 11):
            out = root / f"seed{seed}"
            code = main(["synth", "--n", "6", "--seed", str(seed), "--quiet", "--out", str(out)])
            if code != 0:
                sys.exit(f"synth --seed {seed} exited {code}")
        print(f"synth     {hash_files(folder_files(root))}")

        artifacts = _run_pipeline(root / "pipeline")
        report = artifacts.pop("eval.json")
        print(f"pipeline  {hash_files(artifacts)}  ({len(artifacts)} artifacts)")
        print(f"eval.json {hashlib.sha256(report).hexdigest()}")


if __name__ == "__main__":
    main_script()
