"""Plant known faults in a copy of the source, one at a time, and list the ones no test catches.

Each fault is a file under `src/layermet/`, an exact string in it, its
replacement, and the fast tests that should catch it. For each fault the
script copies `src/`, `tests/`, `scripts/`, `pyproject.toml` and
`BIT_IDENTITY.txt` into a temporary folder, applies the fault there, and runs
all the named tests with pytest on the copy, past the first failure. A fault
is caught when, under every named node id, at least one test fails or errs;
the script names each id that caught nothing. First the union of the named
tests runs once on the unchanged copy and must pass, so a fault counts as
caught only by tests that pass without it. Run from the repository root:

    python scripts/planted_faults.py

It prints one line per fault and exits 1 if any fault survives, if a named
id catches nothing, if a fault's string is not found exactly once, or if the
unchanged copy fails a named test.
Tier-1 does not collect this script (its name does not start with `test_`).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Fault:
    name: str
    file: str  # under src/layermet/
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


FAULTS = (
    Fault(
        "im2col kernel-offset strides swapped",
        "nnet/layers.py",
        "(sc, sh, sw, sn, sh, sw)",
        "(sc, sw, sh, sn, sh, sw)",
        ("tests/test_layers.py::TestForwardSemantics::test_im2col_equals_slice_copy_reference",),
    ),
    Fault(
        "deflate dictionary window shifted one byte",
        "image.py",
        "raw[start - DEFLATE_WINDOW : start]",
        "raw[start - DEFLATE_WINDOW - 1 : start - 1]",
        ("tests/test_cli.py::TestWritePng",),
    ),
    Fault(
        "last deflate piece without Z_FINISH",
        "image.py",
        "zlib.Z_FINISH if end >= len(raw) else zlib.Z_SYNC_FLUSH",
        "zlib.Z_SYNC_FLUSH",
        ("tests/test_cli.py::TestWritePng",),
    ),
    Fault(
        "report_json writes sample x with %.17g",
        "measure.py",
        '"x": %r',
        '"x": %.17g',
        ("tests/test_measure.py::TestReportJson",),
    ),
    Fault(
        "midline normal's x part with the wrong sign",
        "measure.py",
        "normal = (-slope / norm, 1.0 / norm)",
        "normal = (slope / norm, 1.0 / norm)",
        ("tests/test_measure.py::TestFitRegressionLine", "tests/test_measure.py::TestOrthogonalSamples"),
    ),
    Fault(
        "chord window without the anchors' distance",
        "measure.py",
        "np.abs(ay - line[inside]).max(initial=0.0) + np.abs(rows - line).max()",
        "np.abs(rows - line).max()",
        ("tests/test_measure.py::TestOrthogonalSamples::test_equals_per_anchor_reference",),
    ),
    Fault(
        "maxpool column pass keeps the second of a tie",
        "nnet/layers.py",
        "cols = np.maximum(x[:, :, :, 1::2], x[:, :, :, 0::2])",
        "cols = np.maximum(x[:, :, :, 0::2], x[:, :, :, 1::2])",
        (
            "tests/test_layers.py::TestNonConvAgainstReference::test_maxpool_inference_bits",
            "tests/test_layers.py::TestNonConvAgainstReference::test_maxpool_ties",
        ),
    ),
    Fault(
        "P2 whitespace range without \\r (byte 13)",
        "image.py",
        "(raw >= 9) & (raw <= 13)",
        "(raw >= 9) & (raw <= 12)",
        (
            "tests/test_image.py::TestP2ByteClasses::test_whitespace_is_the_documented_set",
            "tests/test_image.py::TestP2ByteClasses",
            "tests/test_image.py::TestP2Oracle",
        ),
    ),
    Fault(
        "end of data before the magic reported at byte 0",
        "image.py",
        'raise PgmError("unexpected end of data in header", len(data))\n        return data[',
        'raise PgmError("unexpected end of data in header", len(data) if i else 0)\n        return data[',
        (
            "tests/test_image.py::TestP2Oracle::test_equals_per_token_reader",
            "tests/test_image.py::TestP2Oracle::test_p5_equals_per_token_reader",
        ),
    ),
    Fault(
        "bottom extreme read from the unreversed column-major copy",
        "measure.py",
        "np.argmax(by_column[:, ::-1], axis=1)",
        "np.argmax(by_column, axis=1)",
        ("tests/test_measure.py::TestExtractBoundaries",),
    ),
    Fault(
        "normalize keeps the caller's uint8 array instead of a copy",
        "image.py",
        "arr.astype(np.uint8)",
        "arr.astype(np.uint8, copy=False)",
        ("tests/test_image.py::TestNormalize",),
    ),
    Fault(
        "postprocess keeps the last of a tie",
        "postprocess.py",
        "int(np.argmax(regions.regions)) + 1",
        "len(regions.regions) - int(np.argmax(regions.regions[::-1]))",
        (
            "tests/test_postprocess.py::TestLargestComponent::test_tie_goes_to_earlier_raster_discovery",
            "tests/test_postprocess.py::TestPostprocess::test_equal_area_specks_keep_the_earliest",
        ),
    ),
    Fault(
        "segment_image crops the padded mask from the bottom right",
        "nnet/models.py",
        "mask[:h, :w]",
        "mask[-h:, -w:]",
        (
            "tests/test_models.py::TestPredictMaskGap::test_segment_image_matches_softmax",
            "tests/test_bit_identity.py",
        ),
    ),
    Fault(
        "a tie goes to the layer",
        "nnet/models.py",
        "probs[0, 1] > probs[0, 0]",
        "probs[0, 1] >= probs[0, 0]",
        (
            "tests/test_models.py::TestSegModelForward::test_tie_goes_to_background",
            "tests/test_models.py::TestPredictMaskGap::test_gap_cases_match_softmax",
        ),
    ),
    Fault(
        "logits compared instead of probabilities",
        "nnet/models.py",
        "mask = probs[0, 1] > probs[0, 0]",
        "mask = logits[0, 1] > logits[0, 0]",
        (
            "tests/test_models.py::TestSegModelForward::test_rounded_tie_goes_to_background",
            "tests/test_cli.py::TestSegmentCommand::test_overflowing_weights_print_one_error_line",
        ),
    ),
    Fault(
        "batchnorm running statistics stored in swapped order",
        "nnet/layers.py",
        'BUFFERS = ("running_mean", "running_var")',
        'BUFFERS = ("running_var", "running_mean")',
        ("tests/test_models.py::TestSerialization::test_records_hold_the_documented_arrays_in_order",),
    ),
    Fault(
        "synth manifest rounds tilt_deg to two decimals",
        "cli.py",
        '"tilt_deg": spec.tilt_deg,',
        '"tilt_deg": round(spec.tilt_deg, 2),',
        ("tests/test_bit_identity.py",),
    ),
)


def _copy_checkout(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=skip)
    shutil.copytree(ROOT / "scripts", dest / "scripts", ignore=skip)
    for name in ("pyproject.toml", "BIT_IDENTITY.txt"):
        shutil.copy2(ROOT / name, dest / name)


def _pytest(checkout: Path, tests) -> subprocess.CompletedProcess:
    # every named test runs, and -rfE lists each failed or erroring one by node id
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=checkout, env=env, capture_output=True, text=True,
    )


def _caught_nothing(result: subprocess.CompletedProcess, tests) -> list[str]:
    """The named node ids under which no test failed or erred."""
    failed = [
        line.split()[1] for line in result.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))
    ]
    return [t for t in tests if not any(f == t or f.startswith((t + "::", t + "[")) for f in failed)]


def _run(fault: Fault | None, tests) -> subprocess.CompletedProcess:
    """The named tests on a fresh copy of the checkout, with `fault` applied."""
    with tempfile.TemporaryDirectory(prefix="planted-") as tmp:
        checkout = Path(tmp)
        _copy_checkout(checkout)
        if fault is not None:
            path = checkout / "src" / "layermet" / fault.file
            text = path.read_text()
            found = text.count(fault.old)
            if found != 1:
                raise SystemExit(f"error: {fault.name}: {fault.old!r} occurs {found} times in {fault.file}")
            path.write_text(text.replace(fault.old, fault.new))
        return _pytest(checkout, tests)


def _summary(result: subprocess.CompletedProcess) -> str:
    lines = (result.stdout.strip() or result.stderr.strip()).splitlines()
    return lines[-1] if lines else "(no output)"


def main() -> int:
    start = time.perf_counter()
    every_test = sorted({t for fault in FAULTS for t in fault.tests})
    clean = _run(None, every_test)
    if clean.returncode != 0:
        print(clean.stdout + clean.stderr, file=sys.stderr)
        print("error: the named tests fail on the unchanged source", file=sys.stderr)
        return 1
    print(f"unchanged source: {_summary(clean)}")
    survivors = []
    for fault in FAULTS:
        result = _run(fault, fault.tests)
        # pytest exits 1 when a test failed; 0 means none did, and any other
        # code (collection error, no tests found) is no catch either. A fault
        # is caught only when a test under every named id failed.
        missed = _caught_nothing(result, fault.tests)
        verdict = {0: "SURVIVED", 1: "partly" if missed else "caught"}.get(
            result.returncode, f"ERROR (pytest exit {result.returncode})"
        )
        print(f"{verdict:9} {fault.name}: {_summary(result)}")
        for test in missed:
            print(f"          caught nothing: {test}")
        if result.returncode != 1 or missed:
            survivors.append(fault.name)
    elapsed = time.perf_counter() - start
    print(f"{len(FAULTS) - len(survivors)} of {len(FAULTS)} faults caught in {elapsed:.1f} s")
    for name in survivors:
        print(f"not caught: {name}", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
