"""End-to-end demo: generate data, train the segmenter, segment, measure, evaluate.

Runs the CLI subcommands exactly as an operator would, into ./pipeline_out
(cleared first, since `synth` refuses a non-empty folder), and prints the measured thickness of the first image next to its true value.
Takes a couple of minutes on one core.
"""

import json
import shutil
import sys
from pathlib import Path

from layermet.cli import main

OUT = Path("pipeline_out")


def run(args):
    print("$ layermet " + " ".join(args))
    code = main(args)
    if code != 0:
        sys.exit(f"step failed with exit code {code}")


def main_script():
    shutil.rmtree(OUT, ignore_errors=True)
    data = OUT / "data"
    pred = OUT / "pred"
    pred.mkdir(parents=True, exist_ok=True)
    model = OUT / "segmenter.lmet"

    run(
        [
            "synth", "--n", "60", "--out", str(data), "--seed", "11",
            "--width", "80", "--height", "48",
            "--thickness", "12:20", "--tilt=-12:12",
            "--curvature", "0:2", "--noise", "0:0.06",
        ]
    )
    run(
        [
            "train-seg", "--data", str(data), "--epochs", "12",
            "--lr", "0.1", "--seed", "0", "--out", str(model),
        ]
    )
    for i in range(60):
        run(
            [
                "segment", "--model", str(model),
                "--image", str(data / f"img_{i:04d}.pgm"),
                "--out", str(pred / f"mask_{i:04d}.pgm"), "--quiet",
            ]
        )
    run(
        [
            "measure", "--mask", str(pred / "mask_0000.pgm"),
            "--image", str(data / "img_0000.pgm"),
            "--json", str(OUT / "report.json"),
            "--overlay", str(OUT / "overlay.png"),
        ]
    )
    run(["eval", "--pred-dir", str(pred), "--truth-dir", str(data), "--json", str(OUT / "eval.json")])

    manifest = json.loads((data / "manifest.json").read_text())
    report = json.loads((OUT / "report.json").read_text())
    print(
        f"\nimage 0: true thickness {manifest[0]['true_thickness']:.2f} px, "
        f"measured {report['mean_px']:.2f} px (sd {report['sd_px']:.2f}, n={report['n']})"
    )
    print(f"outputs in {OUT}/")


if __name__ == "__main__":
    main_script()
