"""The hash lines of `scripts/bit_identity.py` against `BIT_IDENTITY.txt`.

The script runs in a fresh interpreter at one BLAS thread and compares its
hash lines with the file. The lines that hash trained nets belong to the
Python, numpy and BLAS the file names in its `#` lines: where this run's
differ, the test names the differing line and lets only those net lines move,
naming them too. Every other line must match. The file is only read.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDED = "BIT_IDENTITY.txt"
# what the hashes depend on beyond the source, as the script's `#` lines start
ENVIRONMENT = ("# python ", "# numpy ", "# blas ")
# the hash lines of trained nets, which another BLAS build may move
NET_LINES = ("nets", "pipeline", "eval.json", "weights")


def test_hash_lines_match_the_recorded_file():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH="src")
    run = subprocess.run(
        [sys.executable, "scripts/bit_identity.py", "--expect", RECORDED],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    report = run.stderr.splitlines()
    moved = [line for line in report if line.startswith("moved: ")]
    # a run that compared ends in its `moved:` lines or in one "all N hash lines match"
    assert moved or (run.returncode == 0 and report and report[-1].startswith("all ")), run.stderr[-4000:]

    was = _environment((ROOT / RECORDED).read_text().splitlines())
    now = _environment(run.stdout.splitlines())
    differ = [
        f"{RECORDED} has {was.get(key)!r}, this run {now.get(key)!r}" for key in ENVIRONMENT if was.get(key) != now.get(key)
    ]
    relaxed = NET_LINES if differ else ()
    if differ:
        moved_nets = [line.split()[1] for line in moved if line.split()[1] in relaxed]
        warnings.warn(
            f"{'; '.join(differ)}: the net lines {', '.join(NET_LINES)} may move"
            f" (moved: {', '.join(moved_nets) or 'none'})"
        )
    unexplained = [line for line in moved if line.split()[1] not in relaxed]
    assert not unexplained, "\n".join([f"hash lines moved from {RECORDED}:", *unexplained, *differ])


def _environment(lines: list[str]) -> dict:
    """Each ENVIRONMENT prefix's line among `lines`."""
    return {key: line for line in lines for key in ENVIRONMENT if line.startswith(key)}
