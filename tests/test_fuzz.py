"""Parser fuzzing: mutated valid files and random bytes may only raise the
documented format errors (`PgmError`, `MaskValueError`, `ModelFormatError`),
and a folder of them only the folder reader's one `corrupt data files:` error."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from layermet.cli import _parse_target, _read_all
from layermet.image import MaskValueError, PgmError, pgm_to_mask, read_pgm
from layermet.nnet import ModelFormatError
from layermet.nnet.io import load_model, save_model
from layermet.nnet.models import build_segmenter

_GRID = np.array([[0, 255, 255, 0], [255, 0, 0, 255], [0, 0, 255, 255]], dtype=np.uint8)
PGM_FILES = [
    b"P5\n4 3\n255\n" + _GRID.tobytes(),
    b"P5 # comment\n4 3 255\t" + _GRID.tobytes(),
    b"P2\n4 3\n255\n" + "\n".join(" ".join(str(v) for v in row) for row in _GRID).encode() + b"\n",
    b"P2\n# made by hand\n2 2\n255\n0 12\n255 7\n",
]
SEG_FILE = save_model(build_segmenter(seed=0))


def _structure_offsets(blob: bytes) -> list[int]:
    """Byte offsets of the file header and of every record and array header:
    all bytes of the weight file but the float payloads."""
    offsets, pos = list(range(9)), 9
    for layer in build_segmenter(seed=0).layers:
        offsets += [pos, pos + 1]
        pos += 2
        for name in layer.PARAMS + layer.BUFFERS:
            arr = getattr(layer, name)
            header = 1 + 4 * arr.ndim
            offsets += range(pos, pos + header)
            pos += header + 8 * arr.size
    assert pos == len(blob)
    return offsets


# A byte value, often one that turns a header token into a huge, negative or
# unterminated number or a comment.
BYTES = st.one_of(st.sampled_from(b"0123456789 \n#-+\x00\x7f\xff"), st.integers(0, 255))
OPS = st.sampled_from(["set", "insert", "delete", "truncate"])


def _mutate(data: bytes, edits) -> bytes:
    """Apply (operation, position, byte) edits; positions wrap around the length."""
    out = bytearray(data)
    for op, pos, value in edits:
        pos %= len(out) + 1
        if op == "set" and pos < len(out):
            out[pos] = value
        elif op == "insert":
            out[pos:pos] = bytes([value])
        elif op == "delete":
            del out[pos : pos + 1 + value % 8]
        elif op == "truncate":
            del out[pos:]
        if not out:
            break
    return bytes(out)


def _parse_pgm_both(data: bytes) -> None:
    try:
        read_pgm(data)
    except PgmError:
        pass
    try:
        pgm_to_mask(data)
    except (PgmError, MaskValueError):
        pass


@settings(max_examples=300)
@given(st.sampled_from(PGM_FILES), st.lists(st.tuples(OPS, st.integers(0, 64), BYTES), min_size=1, max_size=4))
def test_mutated_pgm_raises_only_documented_errors(data, edits):
    _parse_pgm_both(_mutate(data, edits))


@settings(max_examples=300)
@given(st.sampled_from([b"", b"P5", b"P5 ", b"P2\n", b"P5\n4 3\n255\n"]), st.binary(max_size=64))
def test_random_pgm_bytes_raise_only_documented_errors(prefix, tail):
    _parse_pgm_both(prefix + tail)


def _load(data: bytes) -> None:
    try:
        load_model(data)
    except ModelFormatError:
        pass


@settings(max_examples=150)
@given(st.lists(st.tuples(OPS, st.sampled_from(_structure_offsets(SEG_FILE)), BYTES), min_size=1, max_size=3))
def test_mutated_weight_file_raises_only_documented_errors(edits):
    _load(_mutate(SEG_FILE, edits))


@settings(max_examples=300)
@given(st.sampled_from([b"", b"LMET", SEG_FILE[:8], SEG_FILE[:9], SEG_FILE[:12]]), st.binary(max_size=64))
def test_random_weight_bytes_raise_only_documented_errors(prefix, tail):
    _load(prefix + tail)


_BAND = np.where(np.arange(12)[:, None] // 3 == 1, 255, 0).repeat(40, axis=1).astype(np.uint8)
MASK_FILES = [  # the band measures 3 px thick over 40 columns, so `_parse_target` can succeed
    b"P5\n40 12\n255\n" + _BAND.tobytes(),
    b"P2\n# band\n40 12\n255\n" + "\n".join(" ".join(map(str, row)) for row in _BAND.tolist()).encode(),
] + PGM_FILES
# How each job's file is made: written after its edits, never written, or a directory.
KINDS = st.sampled_from(["file", "file", "file", "missing", "directory"])


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(MASK_FILES), st.lists(st.tuples(OPS, st.integers(0, 600), BYTES), max_size=3), KINDS
        ),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from([pgm_to_mask, _parse_target]),
)
def test_mask_folder_raises_only_corrupt_data_files(files, parse):
    with tempfile.TemporaryDirectory() as tmp:
        jobs, bad = [], []
        for i, (data, edits, kind) in enumerate(files):
            path = Path(tmp) / f"mask_{i:04d}.pgm"
            if kind == "file":
                path.write_bytes(_mutate(data, edits))
            elif kind == "directory":
                path.mkdir()
            jobs.append((path, parse))
            try:
                parse(path.read_bytes())
            except (OSError, ValueError):
                bad.append(path)
        try:
            _read_all(jobs)
        except ValueError as exc:
            header, *lines = str(exc).split("\n")
            assert header == "corrupt data files:"
            assert len(lines) == len(bad)
            assert all(line.startswith(f"  {path}: ") for line, path in zip(lines, bad))
        else:
            assert not bad
