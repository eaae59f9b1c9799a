"""Binary checkpoint files and checkpoint averaging.

Layout: magic "TRCK", u32 version=1, u32 entry count, then per entry
u16 name length, UTF-8 name, u8 rank, u32 per dimension, float32 data.
All integers and floats are little-endian. Writes go to a temp file in the
same directory followed by an atomic rename.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError

MAGIC = b"TRCK"
VERSION = 1


def save_checkpoint(path, state: dict[str, np.ndarray]) -> None:
    """Write `state` entry by entry to a temp file, then rename it into place;
    no copy of the whole file is held in memory. The temp file's name is fixed
    before the file is made, so the `except` removes it however the write
    ends, an interrupt included."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + struct.pack("<II", VERSION, len(state)))
            for name in sorted(state):
                arr = np.asarray(state[name], dtype="<f4")
                if not arr.flags.c_contiguous:
                    arr = np.ascontiguousarray(arr)
                encoded = name.encode("utf-8")
                if len(encoded) > 0xFFFF:
                    raise ValueError(f"parameter name too long: {name!r}")
                if arr.ndim > 0xFF:
                    raise ValueError(f"rank {arr.ndim} exceeds format limit for {name!r}")
                fh.write(struct.pack("<H", len(encoded)) + encoded
                         + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; each array is copied once out of the file's bytes."""
    blob = memoryview(Path(path).read_bytes())
    off = 0

    def need(n: int, what: str) -> memoryview:
        nonlocal off
        if off + n > len(blob):
            raise FormatError(f"checkpoint truncated at byte {off} while reading {what}")
        chunk = blob[off:off + n]
        off += n
        return chunk

    if need(4, "magic") != MAGIC:
        raise FormatError("bad checkpoint magic at byte 0")
    version, count = struct.unpack("<II", need(8, "header"))
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version} at byte 4")
    state: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", need(2, "name length"))
        try:
            name = str(need(nlen, "name"), "utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"undecodable parameter name at byte {off - nlen}") from e
        (rank,) = struct.unpack("<B", need(1, "rank"))
        dims = struct.unpack(f"<{rank}I", need(4 * rank, "dims"))
        n = 1
        for d in dims:
            n *= d
        if n > len(blob):  # cheap sanity bound before allocating
            raise FormatError(f"implausible element count {n} for {name!r} at byte {off}")
        arr = np.frombuffer(need(4 * n, f"data of {name!r}"), dtype="<f4").reshape(dims)
        if name in state:
            raise FormatError(f"duplicate parameter {name!r} in checkpoint")
        state[name] = arr.copy()  # arr is a read-only view into blob
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} trailing bytes after byte {off}")
    return state


def average_checkpoints(paths) -> dict[str, np.ndarray]:
    """Arithmetic mean per parameter across identically-shaped checkpoints."""
    paths = list(paths)
    if not paths:
        raise ValueError("no checkpoints to average")
    states = [load_checkpoint(p) for p in paths]
    ref = states[0]
    for p, st in zip(paths[1:], states[1:]):
        if set(st) != set(ref):
            raise ShapeError(f"parameter names in {p} differ from {paths[0]}")
        for name in ref:
            if st[name].shape != ref[name].shape:
                raise ShapeError(f"shape of {name!r} in {p} differs from {paths[0]}")
    out = {}
    for name in ref:
        acc = np.zeros_like(ref[name], dtype=np.float64)
        for st in states:
            acc += st[name]
        out[name] = (acc / len(states)).astype(np.float32)
    return out
