"""Checks of the program's outputs against computations made apart from it.

Nothing here imports layermet. Masks, PNGs and reports are decoded and scored
with plain numpy, zlib and json, so a fault in the program cannot hide behind
the same fault in the code that checks it. Every check returns a list of
failure messages; an empty list means the output passed.
"""

import math
import re
import struct
import zlib

import numpy as np

# render_overlay fills the top GLYPH_HEIGHT + 2 = 9 rows with the caption.
CAPTION_ROWS = 9

_P5_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+255\s")


def parse_p5(data: bytes) -> np.ndarray:
    """Decode an 8-bit binary PGM into a (height, width) uint8 array."""
    m = _P5_HEADER.match(data)
    if m is None:
        raise ValueError("not a P5 PGM with maxval 255")
    width, height = int(m.group(1)), int(m.group(2))
    payload = data[m.end():]
    if len(payload) != width * height:
        raise ValueError(f"payload holds {len(payload)} bytes, expected {width * height}")
    return np.frombuffer(payload, np.uint8).reshape(height, width)


def encode_p5(grid: np.ndarray) -> bytes:
    return f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode("ascii") + grid.tobytes()


def encode_p2(grid: np.ndarray) -> bytes:
    """ASCII PGM, 16 values a line, as P2 files in the wild are laid out."""
    flat = grid.ravel()
    lines = [" ".join(map(str, flat[i : i + 16].tolist())) for i in range(0, flat.size, 16)]
    header = f"P2\n# layer mask\n{grid.shape[1]} {grid.shape[0]}\n255\n"
    return (header + "\n".join(lines) + "\n").encode("ascii")


def decode_png(data: bytes) -> np.ndarray:
    """Decode an 8-bit RGB, non-interlaced PNG whose rows all use filter 0."""
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("bad PNG signature")
    pos, idat, header = 8, [], None
    while pos < len(data):
        if pos + 8 > len(data):
            raise ValueError("truncated chunk header")
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 4 : pos + 8 + length]
        if len(body) != 4 + length or pos + 12 + length > len(data):
            raise ValueError(f"truncated {tag!r} chunk")
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        if zlib.crc32(body) != crc:
            raise ValueError(f"CRC mismatch in {tag!r} chunk")
        if tag == b"IHDR":
            header = struct.unpack(">IIBBBBB", body[4:])
        elif tag == b"IDAT":
            idat.append(body[4:])
        elif tag == b"IEND":
            break
        pos += 12 + length
    if header is None:
        raise ValueError("no IHDR chunk")
    width, height, depth, color, _, _, interlace = header
    if (depth, color, interlace) != (8, 2, 0):
        raise ValueError(f"unsupported PNG form depth={depth} color={color} interlace={interlace}")
    raw = zlib.decompress(b"".join(idat))
    stride = 1 + 3 * width
    if len(raw) != height * stride:
        raise ValueError(f"image data holds {len(raw)} bytes, expected {height * stride}")
    rows = np.frombuffer(raw, np.uint8).reshape(height, stride)
    if rows[:, 0].any():
        raise ValueError("a row uses a filter other than 0")
    return rows[:, 1:].reshape(height, width, 3)


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """2|A and B| / (|A| + |B|) of two boolean arrays; 1.0 when both are empty."""
    total = int(a.sum()) + int(b.sum())
    return 1.0 if total == 0 else 2.0 * int((a & b).sum()) / total


def check_inspect(pred_pgm: bytes, truth: np.ndarray, report: dict, drawn: float,
                  dice_floor: float, tolerance_px: float) -> tuple[list[str], float, float]:
    """One segmented and measured image; returns (failures, dice, |thickness error|)."""
    failures = []
    try:
        grid = parse_p5(pred_pgm)
    except ValueError as exc:
        return [f"predicted mask: {exc}"], math.nan, math.nan
    if grid.shape != truth.shape:
        return [f"predicted mask shape {grid.shape} != image shape {truth.shape}"], math.nan, math.nan
    if not np.isin(grid, (0, 255)).all():
        failures.append("predicted mask holds values other than 0 and 255")
    score = dice(grid == 255, truth)
    if not score >= dice_floor:
        failures.append(f"dice {score:.4f} below {dice_floor}")
    error = abs(float(report.get("mean_px", math.nan)) - drawn)
    if not error <= tolerance_px:
        failures.append(f"measured {report.get('mean_px')} px vs drawn {drawn:.3f} px")
    return failures, score, error


def check_measure(clean: np.ndarray, band: np.ndarray, orthogonal_mean: float,
                  three_line_mean: float, tilt_deg: float, drawn: float, report: dict,
                  png: bytes, gray: np.ndarray) -> list[str]:
    """One wide mask through post-processing, both estimators and the overlay."""
    failures = []
    if clean.shape != band.shape or not np.array_equal(clean, band):
        failures.append("post-processed mask differs from the clean band")
    if not abs(orthogonal_mean - drawn) <= 0.5:
        failures.append(f"orthogonal mean {orthogonal_mean:.3f} px vs drawn {drawn:.3f} px")
    if abs(tilt_deg) >= 10.0:
        expected = 1.0 / math.cos(math.radians(tilt_deg))
        ratio = three_line_mean / orthogonal_mean
        if not abs(ratio / expected - 1.0) <= 0.05:
            failures.append(f"three-line/orthogonal {ratio:.4f} vs 1/cos(tilt) {expected:.4f}")
    lengths = [s["len_px"] for s in report.get("samples", [])]
    if report.get("n") != len(lengths) or not lengths:
        failures.append(f"report n={report.get('n')} but {len(lengths)} samples")
    elif not math.isclose(report.get("mean_px", math.nan), float(np.mean(lengths)), rel_tol=1e-9):
        failures.append("report mean_px is not the mean of its samples")
    try:
        rgb = decode_png(png)
    except (ValueError, zlib.error) as exc:
        return failures + [f"overlay PNG: {exc}"]
    if rgb.shape != gray.shape + (3,):
        return failures + [f"overlay shape {rgb.shape} != image shape {gray.shape}"]
    untouched = ~clean
    untouched[:CAPTION_ROWS] = False
    if not (rgb[untouched] == gray[untouched][:, None]).all():
        failures.append("overlay alters pixels outside the mask and caption band")
    return failures


def check_fold(losses: dict[str, list[float]], predicted: np.ndarray, drawn_held: np.ndarray,
               drawn_train: np.ndarray, reload_identical: dict[str, bool]) -> tuple[list[str], float]:
    """One k-fold split; returns (failures, regressor held-out MAE)."""
    failures = []
    for net, curve in losses.items():
        if not curve or not all(math.isfinite(v) for v in curve):
            failures.append(f"{net} loss curve is empty or not finite: {curve}")
        elif not curve[-1] < curve[0]:
            failures.append(f"{net} last-epoch loss {curve[-1]:.4g} not below first {curve[0]:.4g}")
    mae = float(np.mean(np.abs(predicted - drawn_held)))
    baseline = float(np.mean(np.abs(drawn_train.mean() - drawn_held)))
    if not mae < baseline:
        failures.append(f"regressor held-out MAE {mae:.3f} not below constant-mean {baseline:.3f}")
    for net, same in reload_identical.items():
        if not same:
            failures.append(f"reloaded {net} predicts differently")
    return failures, mae
