"""Binary weight-file format: exact round-trip of parameters and running stats.

Layout (little-endian):
    magic "LMET" | uint32 version | uint8 arch tag | per-layer records
Each record is: uint8 kind code | uint8 array count | per array:
    uint8 ndim | int32 * ndim extents | float64 * prod(extents) data
A record holds the arrays its layer declares, `PARAMS` then `BUFFERS`:
weight, bias for conv2d and dense; gamma, beta, running_mean, running_var
for batchnorm; none for the other kinds. One `Struct` per fixed field
writes it and reads it back.
Version 2 dropped the parameterless softmax and linear records that ended the
two nets in version 1; version 1 files are rejected.
"""

import functools
import math
import struct

import numpy as np

from . import ArchitectureMismatchError, ModelFormatError
from .layers import KIND_CODES, Layer
from .models import _BUILDERS, Model

MAGIC = b"LMET"
VERSION = 2
ARCH_OFFSET = 8  # byte position of the architecture tag


# The fixed fields' layouts; `_extents` gives an array's.
_MAGIC = struct.Struct("<4s")
_U32 = struct.Struct("<I")
_U8 = struct.Struct("<B")
_RECORD = struct.Struct("<BB")  # kind code, array count
_F8 = np.dtype("<f8")


@functools.cache
def _extents(ndim: int) -> struct.Struct:
    return struct.Struct(f"<{ndim}i")


def save_model(model: Model) -> bytes:
    """Serialize a model's architecture tag, parameters, and running stats."""
    out = bytearray(_MAGIC.pack(MAGIC) + _U32.pack(VERSION) + _U8.pack(model.arch))
    for layer in model.layers:
        names = layer.PARAMS + layer.BUFFERS
        out += _RECORD.pack(KIND_CODES[layer.kind], len(names))
        for name in names:
            arr = getattr(layer, name)
            out += _U8.pack(arr.ndim)
            out += _extents(arr.ndim).pack(*arr.shape)
            out += np.ascontiguousarray(arr, dtype=_F8).tobytes()
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _need(self, size: int) -> None:
        if self.pos + size > len(self.data):
            raise ModelFormatError(
                f"truncated: needed {size} bytes, found {len(self.data) - self.pos}",
                self.pos,
            )

    def take(self, layout: struct.Struct) -> tuple:
        self._need(layout.size)
        values = layout.unpack_from(self.data, self.pos)
        self.pos += layout.size
        return values

    def take_array(self) -> tuple[tuple[int, ...], np.ndarray]:
        """An array record's declared shape and its flat payload."""
        (ndim,) = self.take(_U8)
        shape = self.take(_extents(ndim))
        if shape and min(shape) < 0:
            raise ModelFormatError(f"negative extent in shape {shape}", self.pos)
        count = math.prod(shape)  # exact: declared extents may not fit in int64
        self._need(8 * count)
        flat = np.frombuffer(self.data, _F8, count, self.pos)
        self.pos += 8 * count
        return shape, flat


def load_model(data: bytes) -> Model:
    """Reconstruct a model; validates magic, version, architecture, shapes and finite values."""
    reader = _Reader(data)
    (magic,) = reader.take(_MAGIC)
    if magic != MAGIC:
        raise ModelFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    (version,) = reader.take(_U32)
    if version != VERSION:
        raise ModelFormatError(f"unsupported format version {version}", 4)
    (arch,) = reader.take(_U8)
    if arch not in _BUILDERS:
        raise ArchitectureMismatchError(f"unknown architecture tag {arch}", ARCH_OFFSET)
    model = _BUILDERS[arch](None)
    with np.errstate(over="ignore"):  # a sum of squares below may overflow
        for layer in model.layers:
            _read_record(reader, layer)
    if reader.pos != len(data):
        raise ModelFormatError(f"{len(data) - reader.pos} trailing bytes", reader.pos)
    return model


def _read_record(reader: _Reader, layer: Layer) -> None:
    """Fill `layer`'s arrays from its record, checking kind, count, shapes and values."""
    record_at = reader.pos
    kind_code, n_arrays = reader.take(_RECORD)
    if kind_code != KIND_CODES[layer.kind]:
        raise ArchitectureMismatchError(
            f"layer kind code {kind_code} does not match expected "
            f"{KIND_CODES[layer.kind]} ({layer.kind})",
            record_at,
        )
    names = layer.PARAMS + layer.BUFFERS
    if n_arrays != len(names):
        raise ModelFormatError(f"{layer.kind} carries {n_arrays} arrays, expected {len(names)}", record_at)
    for name in names:
        target = getattr(layer, name)
        arr_at = reader.pos
        shape, flat = reader.take_array()
        if shape != target.shape:  # before the reshape, which rejects some shapes
            raise ModelFormatError(
                f"{layer.kind} array shape {shape} does not match declared {target.shape}",
                arr_at,
            )
        target[...] = flat.reshape(shape)
        # One pass: a sum of squares is finite unless a value is not finite
        # or the sum overflows, which the scan for the culprit tells apart.
        if not math.isfinite(np.vdot(target, target)):
            finite = np.isfinite(flat)
            if not finite.all():
                first = int(finite.argmin())
                raise ModelFormatError(
                    f"{layer.kind} array holds non-finite value {flat[first]}",
                    reader.pos - flat.nbytes + 8 * first,
                )
