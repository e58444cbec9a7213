"""PQCT tensor container and checkpoint serialization.

The container serializes model weights only: features never reach disk,
since ``training.FeatureStore`` computes them from the media files.

Layout (all little-endian): magic ``PQCT``, version u16, rank u16, one
u32 extent per axis, then the payload as row-major float32.

A checkpoint is a single file of consecutive PQCT containers plus a
text index ``<file>.idx`` with one ``name offset d0xd1x...`` line per
tensor, in insertion order.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"PQCT"
VERSION = 1

__all__ = [
    "FormatError",
    "tensor_to_bytes",
    "tensor_from_bytes",
    "save_checkpoint",
    "load_checkpoint",
]


class FormatError(ValueError):
    """The byte stream is not a valid PQCT container."""


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=np.float32, order="C")  # rank 0 stays rank 0
    header = MAGIC + struct.pack("<HH", VERSION, arr.ndim)
    extents = struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = arr.astype("<f4", copy=False).tobytes()
    return header + extents + payload


def tensor_from_bytes(data: bytes | memoryview) -> np.ndarray:
    """Parse one container from the head of ``data`` (trailing bytes ignored)."""
    if len(data) < 8:
        raise FormatError("truncated header")
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {bytes(data[:4])!r}")
    version, rank = struct.unpack("<HH", data[4:8])
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    need = 8 + 4 * rank
    if len(data) < need:
        raise FormatError("truncated extents")
    shape = struct.unpack(f"<{rank}I", data[8:need])
    count = math.prod(shape)  # Python ints cannot wrap; 1 for rank 0
    end = need + 4 * count
    if len(data) < end:
        raise FormatError(
            f"truncated payload: need {end} bytes, have {len(data)}"
        )
    flat = np.frombuffer(data[need:end], dtype="<f4")
    return flat.reshape(shape).astype(np.float32, copy=True)


def save_checkpoint(path: str | Path, named: dict[str, np.ndarray]) -> None:
    path = Path(path)
    offset = 0
    index_lines = []
    with open(path, "wb") as fh:
        for name, arr in named.items():
            blob = tensor_to_bytes(arr)
            shape = "x".join(str(d) for d in np.asarray(arr).shape)
            index_lines.append(f"{name} {offset} {shape}")
            fh.write(blob)
            offset += len(blob)
    Path(str(path) + ".idx").write_text("\n".join(index_lines) + "\n")


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read every tensor the index lists; each must have its indexed shape.

    A malformed or repeated index line, or a malformed container, raises
    :class:`FormatError` naming the file and the index line where there is one.
    """
    path = Path(path)
    index = Path(str(path) + ".idx")
    view = memoryview(path.read_bytes())
    named: dict[str, np.ndarray] = {}
    for number, line in enumerate(index.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            name, offset, shape = line.split(" ")  # a scalar's shape is ""
            start = int(offset)
        except ValueError:
            raise FormatError(
                f"{index}: line {number} is not 'name offset shape': {line!r}") from None
        if name in named:
            raise FormatError(f"{index}: line {number} repeats tensor {name!r}: {line!r}")
        try:
            arr = tensor_from_bytes(view[start:])
        except FormatError as exc:
            raise FormatError(f"{path}: tensor {name} (index line {number}): {exc}") from None
        found = "x".join(str(d) for d in arr.shape)
        if found != shape:
            raise FormatError(
                f"{path}: tensor {name} has shape {found}, index says {shape}")
        named[name] = arr
    return named
