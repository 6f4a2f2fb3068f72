"""Benchmark of the layermet metrology pipeline.

    python3 perfbench/run.py --workload {inspect,measure,train} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from src/. Set-up
runs at least SETUP_REPEATS times and for SETUP_MIN_S seconds, and setup_s is
the median. Then the workload's warm-up items run untimed, and whole rounds
of items run until S seconds have passed. One client, closed loop: an item
starts when the previous one ends.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics, end-to-end ones with --trace 0 and per-layer ones with
--trace 1. An item that raises or exits non-zero counts as failed; `correct`
says whether every other item passed its checks. A traced run also writes
its spans and self-time table to .perfbench_out/.
"""

import os

# BLAS threads are fixed before numpy loads: one thread was no slower than
# two on the conv shapes here, and it keeps runs from contending for cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats at least this often and for at least this long in total.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0


def _load_program() -> None:
    """Put the checkout's src/ first on the path and import layermet from it."""
    src = ROOT / "src"
    if not (src / "layermet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no layermet package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layermet

    if Path(layermet.__file__).resolve().parent != (src / "layermet").resolve():
        sys.exit(f"perfbench: imported layermet from {layermet.__file__}, not from {src}")


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure_run(workload_cls, seed: int, seconds: float, workdir: Path, tracer=None) -> dict:
    from workloads import OperationFailed

    current = ["setup", time.perf_counter()]

    def mark(phase: str) -> str:
        """Start a phase of the trace, charging the wall time since the last
        mark to the phase it ends; returns that phase."""
        now = time.perf_counter()
        ended, since = current
        if tracer is not None:
            tracer.phase_wall[ended] = tracer.phase_wall.get(ended, 0.0) + now - since
            tracer.phase = phase
        current[:] = [phase, now]
        return ended

    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        workload = workload_cls(seed, _fresh(workdir))
        workload.setup()
        setup_times.append(time.perf_counter() - t0)

    tally = {"attempted": 0, "failed": 0, "correct": True}
    times, dices, errors = [], [], []

    def attempt(item, timed):
        tally["attempted"] += 1
        workload.prepare(item)
        t0 = time.perf_counter()
        try:
            out = workload.run(item)
        except OperationFailed as exc:
            print(f"perfbench: item {item} failed: {exc}", file=sys.stderr)
            tally["failed"] += 1
            return
        except Exception:
            traceback.print_exc()
            tally["failed"] += 1
            return
        elapsed = time.perf_counter() - t0
        resume = mark("check")
        outcome = workload.check(item, out)
        mark(resume)
        if outcome.failures:
            tally["correct"] = False
            print(f"perfbench: item {item} is wrong: {'; '.join(outcome.failures)}", file=sys.stderr)
        if timed:
            times.append(elapsed)
            dices.append(outcome.dice)
            errors.append(outcome.thickness_error)

    mark("warmup")
    for item in workload.round()[: workload.WARMUP]:
        attempt(item, timed=False)
    mark("timed")
    start, rounds = time.perf_counter(), 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for item in workload.round():
            attempt(item, timed=True)
        rounds += 1
    mark("end")

    result = dict(tally, rounds=rounds, setup_times=setup_times)
    if times:
        result["metrics"] = {
            "setup_s": (statistics.median(setup_times), "s"),
            "items_per_s": (len(times) / sum(times), "1/s"),
            "item_ms_p50": (1e3 * statistics.median(times), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "dice_mean": (statistics.fmean(dices), "ratio"),
            "thickness_mae_px": (statistics.fmean(errors), "px"),
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    from tracing import Tracer, unit_of

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    print(f"perfbench: {args.workload} seed={args.seed} BLAS threads={BLAS_THREADS}", file=sys.stderr)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure_run(WORKLOADS[args.workload], args.seed, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it
    if "metrics" not in result:
        print("perfbench: no item completed in the timed phase", file=sys.stderr)
        return 3

    e2e = {name: round(value, 6) for name, (value, _) in result["metrics"].items()}
    print(f"perfbench: {len(result['setup_times'])} set-ups, {result['rounds']} timed rounds: {e2e}", file=sys.stderr)
    if tracer is None:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    else:
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in tracer.layer_metrics().items()}
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        stem = out / f"trace-{args.workload}-seed{args.seed}"
        tracer.dump(stem)
        with open(f"{stem}.txt", "a") as f:
            f.write(f"end-to-end figures of this traced run: {json.dumps(e2e)}\n")
        print(f"perfbench: spans and self-time table in {stem}.json and {stem}.txt", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
