"""Span tracer for the traced benchmark run.

The tracer wraps public functions of each layermet module and the forward and
backward methods of every layer class, from the benchmark's side: it rebinds
each wrapped name in every loaded layermet module, so calls between modules go
through the wrapper too. Spans are kept in memory as (name, start, end,
parent, phase, counts) and written out when the run ends, together with a
per-layer self-time table. A layer's self time is its spans' duration minus
the part covered by their child spans.

FLOPs and bytes of conv2d are computed from shapes, not counted by hardware:
forward is one GEMM of 2*N*H*W*C_out*C_in*k*k FLOPs, backward two of the same
size (weight and input gradient), and im2col_mb is the size of the two patch
matrices a backward call works on, (N*H*W) x (C_in + C_out)*k*k float64.
"""

import json
import math
import sys
import time

import numpy as np

# Span name -> (module, attribute) of the public functions wrapped.
FUNCTIONS = {
    "synth.generate": ("layermet.synth", "generate"),
    "image.read_pgm": ("layermet.image", "read_pgm"),
    "image.pgm_to_mask": ("layermet.image", "pgm_to_mask"),
    "image.mask_to_pgm": ("layermet.image", "mask_to_pgm"),
    "image.render_overlay": ("layermet.image", "render_overlay"),
    "postprocess.postprocess": ("layermet.postprocess", "postprocess"),
    "postprocess.label_components": ("layermet.postprocess", "label_components"),
    "measure.orthogonal_report": ("layermet.measure", "orthogonal_report"),
    "measure.three_line_report": ("layermet.measure", "three_line_report"),
    "measure.report_to_dict": ("layermet.measure", "report_to_dict"),
    "metrics.dice": ("layermet.metrics", "dice"),
    "metrics.mse": ("layermet.metrics", "mse"),
    "metrics.kfold": ("layermet.metrics", "kfold"),
    "nnet.models.segment_image": ("layermet.nnet.models", "segment_image"),
    "nnet.models.predict_thickness": ("layermet.nnet.models", "predict_thickness"),
    "nnet.models.train_segmenter": ("layermet.nnet.models", "train_segmenter"),
    "nnet.models.train_rcnn": ("layermet.nnet.models", "train_rcnn"),
    "nnet.io.load_model": ("layermet.nnet.io", "load_model"),
    "nnet.io.save_model": ("layermet.nnet.io", "save_model"),
    "cli.main": ("layermet.cli", "main"),
    "cli.write_png": ("layermet.cli", "write_png"),
}


def _conv_forward_counts(args, out):
    layer, x = args[0], args[1]
    n, _, h, w = x.shape
    k2 = layer.ksize * layer.ksize
    return (2.0 * n * h * w * layer.out_ch * layer.in_ch * k2, 0.0)


def _conv_backward_counts(args, out):
    layer, dy = args[0], args[1]
    n, _, h, w = dy.shape
    k2 = layer.ksize * layer.ksize
    flop = 2 * 2.0 * n * h * w * layer.out_ch * layer.in_ch * k2
    return (flop, 8.0 * n * h * w * k2 * (layer.in_ch + layer.out_ch))


def _steps(args, out):
    data, cfg = args[0], args[1]
    return (float(math.ceil(len(data) / cfg.batch_size) * cfg.epochs), 0.0)


COUNTS = {
    "nnet.layers.conv2d.forward": _conv_forward_counts,
    "nnet.layers.conv2d.backward": _conv_backward_counts,
    "nnet.models.segment_image": lambda a, out: (float(a[1].width * a[1].height), 0.0),
    "postprocess.label_components": lambda a, out: (float(a[0].width * a[0].height), float(len(out.regions))),
    "measure.orthogonal_report": lambda a, out: (float(out.n), 0.0),
    "image.read_pgm": lambda a, out: (float(len(a[0])) if bytes(a[0][:2]) == b"P2" else 0.0, 0.0),
    "nnet.models.train_segmenter": _steps,
    "nnet.models.train_rcnn": _steps,
}

NAME, START, END, PARENT, PHASE, COUNT = range(6)

_UNITS = (("gflop_per_s", "GFLOP/s"), ("mpx_per_s", "Mpx/s"), ("mb_per_s", "MB/s"), ("_mb", "MB"), ("ms", "ms"))


def unit_of(metric: str) -> str:
    return next((unit for suffix, unit in _UNITS if metric.endswith(suffix)), "count")


class Tracer:
    """In-memory spans; `phase` labels the spans opened while it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self.phase_wall: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn):
        counts = COUNTS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.phase, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counts is not None:
                span[COUNT] = counts(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap FUNCTIONS and every layer class's forward/backward in place."""
        from layermet.nnet import layers

        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            traced = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "layermet" or mod_name.startswith("layermet."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)
        for cls in vars(layers).values():
            if isinstance(cls, type) and issubclass(cls, layers.Layer) and cls is not layers.Layer:
                for method in ("forward", "backward"):
                    if method in vars(cls):
                        span = f"nnet.layers.{cls.__name__.lower()}.{method}"
                        setattr(cls, method, self.wrap(span, vars(cls)[method]))

    def self_times(self) -> np.ndarray:
        durations = np.array([s[END] - s[START] for s in self.spans])
        own = durations.copy()
        for s, d in zip(self.spans, durations):
            if s[PARENT] >= 0:
                own[s[PARENT]] -= d
        return own

    def table(self) -> str:
        """Per-layer self time for each phase, largest first."""
        own = self.self_times()
        lines = []
        for phase, wall in self.phase_wall.items():
            rows: dict[str, list[float]] = {}
            for s, t in zip(self.spans, own):
                if s[PHASE] == phase:
                    row = rows.setdefault(s[NAME], [0, 0.0, 0.0])
                    row[0] += 1
                    row[1] += s[END] - s[START]
                    row[2] += t
            covered = sum(s[END] - s[START] for s in self.spans if s[PHASE] == phase and s[PARENT] < 0)
            lines.append(f"## {phase}: {wall:.3f} s wall, {wall - covered:.3f} s outside any span")
            lines.append(f"{'span':<36} {'calls':>8} {'total_ms':>12} {'self_ms':>12} {'self_%':>7}")
            for name, (calls, total, self_t) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
                share = 100.0 * self_t / wall if wall > 0 else 0.0
                lines.append(f"{name:<36} {calls:>8} {1e3 * total:>12.2f} {1e3 * self_t:>12.2f} {share:>7.2f}")
            lines.append("")
        return "\n".join(lines)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the timed phase, or from set-up for spans
        that only run there; 0 where a layer does not run in the workload."""
        own = self.self_times()
        by_name: dict[str, dict[str, list[int]]] = {}
        for i, s in enumerate(self.spans):
            by_name.setdefault(s[NAME], {}).setdefault(s[PHASE], []).append(i)

        def pick(*names):
            idx = []
            for phase in ("timed", "setup"):
                idx = [i for n in names for i in by_name.get(n, {}).get(phase, [])]
                if idx:
                    break
            dur = np.array([self.spans[i][END] - self.spans[i][START] for i in idx])
            cnt = np.array([self.spans[i][COUNT] or (0.0, 0.0) for i in idx]).reshape(-1, 2)
            return idx, dur, cnt

        def mean_ms(*names):
            _, dur, _ = pick(*names)
            return 1e3 * float(dur.mean()) if dur.size else 0.0

        def rate(name, scale, col=0, only_counted=False):
            _, dur, cnt = pick(name)
            if only_counted:
                keep = cnt[:, col] > 0
                dur, cnt = dur[keep], cnt[keep]
            total = float(dur.sum())
            return float(cnt[:, col].sum()) / total / scale if total > 0 else 0.0

        def mean_count(name, col):
            _, _, cnt = pick(name)
            return float(cnt[:, col].mean()) if cnt.size else 0.0

        def per_step_ms(name):
            _, dur, cnt = pick(name)
            steps = float(cnt[:, 0].sum())
            return 1e3 * float(dur.sum()) / steps if steps else 0.0

        cli_idx, _, _ = pick("cli.main")
        layer = "nnet.layers."
        return {
            "nnet.layers.conv2d.fwd_ms": mean_ms(layer + "conv2d.forward"),
            "nnet.layers.conv2d.fwd_gflop_per_s": rate(layer + "conv2d.forward", 1e9),
            "nnet.layers.conv2d.bwd_ms": mean_ms(layer + "conv2d.backward"),
            "nnet.layers.conv2d.bwd_gflop_per_s": rate(layer + "conv2d.backward", 1e9),
            "nnet.layers.conv2d.im2col_mb": mean_count(layer + "conv2d.backward", 1) / 1e6,
            "nnet.layers.batchnorm2d.ms": mean_ms(layer + "batchnorm2d.forward", layer + "batchnorm2d.backward"),
            "nnet.layers.relu.ms": mean_ms(layer + "relu.forward", layer + "relu.backward"),
            "nnet.layers.maxpool2.ms": mean_ms(layer + "maxpool2.forward", layer + "maxpool2.backward"),
            "nnet.layers.upsample2.ms": mean_ms(layer + "upsample2.forward", layer + "upsample2.backward"),
            "nnet.layers.dense.ms": mean_ms(layer + "dense.forward", layer + "dense.backward"),
            "nnet.models.segment_image.ms": mean_ms("nnet.models.segment_image"),
            "nnet.models.segment_image.mpx_per_s": rate("nnet.models.segment_image", 1e6),
            "nnet.models.predict_thickness.ms": mean_ms("nnet.models.predict_thickness"),
            "nnet.models.train_segmenter.step_ms": per_step_ms("nnet.models.train_segmenter"),
            "nnet.models.train_rcnn.step_ms": per_step_ms("nnet.models.train_rcnn"),
            "nnet.io.load_model.ms": mean_ms("nnet.io.load_model"),
            "nnet.io.save_model.ms": mean_ms("nnet.io.save_model"),
            "postprocess.label_components.ms": mean_ms("postprocess.label_components"),
            "postprocess.label_components.mpx_per_s": rate("postprocess.label_components", 1e6),
            "postprocess.label_components.regions": mean_count("postprocess.label_components", 1),
            "measure.orthogonal_report.ms": mean_ms("measure.orthogonal_report"),
            "measure.orthogonal_report.samples": mean_count("measure.orthogonal_report", 0),
            "measure.three_line_report.ms": mean_ms("measure.three_line_report"),
            "image.read_pgm.ms": mean_ms("image.read_pgm"),
            "image.read_pgm.p2_mb_per_s": rate("image.read_pgm", 1e6, only_counted=True),
            "image.render_overlay.ms": mean_ms("image.render_overlay"),
            "image.mask_to_pgm.ms": mean_ms("image.mask_to_pgm"),
            "cli.write_png.ms": mean_ms("cli.write_png"),
            "cli.self_ms": 1e3 * float(own[cli_idx].mean()) if cli_idx else 0.0,
            "synth.generate.ms": mean_ms("synth.generate"),
        }

    def dump(self, path_stem) -> None:
        """Write spans as JSON and the self-time table as text."""
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [
            [s[NAME], round(1e6 * (s[START] - origin), 1), round(1e6 * (s[END] - origin), 1), s[PARENT], s[PHASE]]
            for s in self.spans
        ]
        with open(f"{path_stem}.json", "w") as f:
            json.dump({"fields": ["name", "start_us", "end_us", "parent", "phase"], "spans": rows}, f)
        with open(f"{path_stem}.txt", "w") as f:
            f.write(self.table())
