"""Binary weight-file format: exact round-trip of parameters and running stats.

Layout (little-endian):
    magic "LMET" | uint32 version | uint8 arch tag | per-layer records
Each record is: uint8 kind code | uint8 array count | per array:
    uint8 ndim | int32 * ndim extents | float64 * prod(extents) data
BatchNorm records append running mean and variance after gamma and beta.
Version 2 dropped the parameterless softmax and linear records that ended the
two nets in version 1; version 1 files are rejected.
"""

import math
import struct

import numpy as np

from .layers import KIND_CODES, BatchNorm2d, Layer
from .models import _BUILDERS, Model

MAGIC = b"LMET"
VERSION = 2
ARCH_OFFSET = 8  # byte position of the architecture tag


class ModelFormatError(ValueError):
    """Weight data is malformed; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class ArchitectureMismatchError(ModelFormatError):
    pass


def _state_arrays(layer: Layer) -> list[np.ndarray]:
    arrays = list(layer.params())
    if isinstance(layer, BatchNorm2d):
        arrays += [layer.running_mean, layer.running_var]
    return arrays


def save_model(model: Model) -> bytes:
    """Serialize a model's architecture tag, parameters, and running stats."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<B", model.arch)
    for layer in model.layers:
        arrays = _state_arrays(layer)
        out += struct.pack("<BB", KIND_CODES[layer.kind], len(arrays))
        for arr in arrays:
            out += struct.pack("<B", arr.ndim)
            out += struct.pack(f"<{arr.ndim}i", *arr.shape)
            out += np.ascontiguousarray(arr, dtype="<f8").tobytes()
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

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        self._need(size)
        values = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return values

    def take_array(self) -> tuple[tuple[int, ...], np.ndarray]:
        """An array record's declared shape and its flat payload."""
        (ndim,) = self.take("<B")
        shape = self.take(f"<{ndim}i")
        if any(d < 0 for d in shape):
            raise ModelFormatError(f"negative extent in shape {shape}", self.pos)
        count = math.prod(shape)  # exact: declared extents may not fit in int64
        self._need(8 * count)
        flat = np.frombuffer(self.data, "<f8", count, self.pos)
        self.pos += 8 * count
        return shape, flat


def load_model(data: bytes) -> Model:
    """Reconstruct a model; validates magic, version, architecture, shapes and finite values."""
    reader = _Reader(data)
    magic = bytes(reader.take("<4s")[0])
    if magic != MAGIC:
        raise ModelFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    (version,) = reader.take("<I")
    if version != VERSION:
        raise ModelFormatError(f"unsupported format version {version}", 4)
    (arch,) = reader.take("<B")
    if arch not in _BUILDERS:
        raise ArchitectureMismatchError(f"unknown architecture tag {arch}", ARCH_OFFSET)
    model = _BUILDERS[arch](None)

    for layer in model.layers:
        record_at = reader.pos
        kind_code, n_arrays = reader.take("<BB")
        if kind_code != KIND_CODES[layer.kind]:
            raise ArchitectureMismatchError(
                f"layer kind code {kind_code} does not match expected "
                f"{KIND_CODES[layer.kind]} ({layer.kind})",
                record_at,
            )
        arrays = _state_arrays(layer)
        if n_arrays != len(arrays):
            raise ModelFormatError(
                f"{layer.kind} carries {n_arrays} arrays, expected {len(arrays)}", record_at
            )
        for target in arrays:
            arr_at = reader.pos
            shape, flat = reader.take_array()
            if shape != target.shape:  # before the reshape, which rejects some shapes
                raise ModelFormatError(
                    f"{layer.kind} array shape {shape} does not match declared {target.shape}",
                    arr_at,
                )
            finite = np.isfinite(flat)
            if not finite.all():
                first = int(finite.argmin())
                raise ModelFormatError(
                    f"{layer.kind} array holds non-finite value {flat[first]}",
                    reader.pos - flat.nbytes + 8 * first,
                )
            target[...] = flat.reshape(shape)
    if reader.pos != len(data):
        raise ModelFormatError(f"{len(data) - reader.pos} trailing bytes", reader.pos)
    return model
