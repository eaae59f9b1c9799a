"""Files of named arrays, read one entry at a time through an `ArrayFile`
whose index comes from a checkpoint's header (`open_checkpoint`) or is kept
as the S-KD teacher's raw bytes are written (`snapshot_teacher`).

Checkpoint layout: magic "TRCK", u32 version=1, u32 entry count, then per entry
u16 name length, UTF-8 name, u8 rank, u32 per dimension, float32 data.
All integers and floats are little-endian.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from collections import namedtuple
from collections.abc import Mapping
from contextlib import AbstractContextManager, ExitStack
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError
from .optim import ParameterStore

MAGIC = b"TRCK"
VERSION = 1
Entry = namedtuple("Entry", "offset shape dtype")  # of one array in an ArrayFile


class ArrayFile(Mapping, AbstractContextManager):
    """Name -> array over an open file and its `index` of name -> `Entry`:
    `[name]` reads that entry into a new array. `close()` or `with` closes it."""

    def __init__(self, file, index: dict[str, Entry], label: str):
        self._file, self.index, self._label = file, index, label

    def __getitem__(self, name: str) -> np.ndarray:
        offset, shape, dtype = self.index[name]
        arr = np.empty(shape, dtype)
        if (done := os.preadv(self._file.fileno(), [arr], offset)) != arr.nbytes:
            raise FormatError(f"{self._label} truncated: read {done} of {arr.nbytes} bytes "
                              f"of {name!r} at byte {offset}")
        return arr

    def __iter__(self):
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)

    @property
    def closed(self) -> bool:
        return self._file.closed

    def close(self) -> None:
        self._file.close()

    def __exit__(self, *exc) -> None:
        self.close()


def write_atomically(path, chunks) -> None:
    """Write the byte strings (or arrays) of `chunks` to a temp file beside
    `path`, then rename it into place, so `path` holds its old content or the
    new, never a part. The temp file's name is fixed before the file is made,
    and the file is bound to `fh` before the `with` takes it, so the `except`
    closes and removes it however the write ends, an interrupt included."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    fh = None
    try:
        fh = open(tmp, "wb")
        with fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if fh is not None:
            fh.close()
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, state: dict[str, np.ndarray]) -> None:
    """Write `state` entry by entry, each from its array's own buffer, through
    `write_atomically`; no copy of the whole file is held in memory."""
    write_atomically(path, _entries(state))


def _entries(state: dict[str, np.ndarray]):
    """`state` in the checkpoint layout, as the chunks `write_atomically` writes."""
    yield MAGIC + struct.pack("<II", VERSION, len(state))
    for name in sorted(state):
        arr = np.require(state[name], "<f4", "C")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"parameter name too long: {name!r}")
        if arr.ndim > 0xFF:
            raise ValueError(f"rank {arr.ndim} exceeds format limit for {name!r}")
        yield (struct.pack("<H", len(encoded)) + encoded
               + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
        yield arr


def open_checkpoint(path) -> ArrayFile:
    """Index a checkpoint from its header; no entry is read until asked for."""
    with ExitStack() as on_error:
        fh = on_error.enter_context(open(path, "rb"))
        size, off = os.fstat(fh.fileno()).st_size, 0

        def need(n: int, what: str) -> int:  # steps over n bytes that must be in the file
            nonlocal off
            if off + n > size:
                raise FormatError(f"checkpoint truncated at byte {off} while reading {what}")
            off += n
            return n

        if fh.read(need(4, "magic")) != MAGIC:
            raise FormatError("bad checkpoint magic at byte 0")
        version, count = struct.unpack("<II", fh.read(need(8, "header")))
        if version != VERSION:
            raise FormatError(f"unsupported checkpoint version {version} at byte 4")
        index = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", fh.read(need(2, "name length")))
            try:
                name = str(fh.read(need(nlen, "name")), "utf-8")
            except UnicodeDecodeError as e:
                raise FormatError(f"undecodable parameter name at byte {off - nlen}") from e
            (rank,) = struct.unpack("<B", fh.read(need(1, "rank")))
            dims = struct.unpack(f"<{rank}I", fh.read(need(4 * rank, "dims")))
            n = math.prod(dims)
            if n > size:  # more elements than the file has bytes
                raise FormatError(f"implausible element count {n} for {name!r} at byte {off}")
            if name in index:
                raise FormatError(f"duplicate parameter {name!r} in checkpoint")
            index[name] = Entry(off, dims, np.dtype("<f4"))
            fh.seek(need(4 * n, f"data of {name!r}"), os.SEEK_CUR)
        if off != size:
            raise FormatError(f"{size - off} trailing bytes after byte {off}")
        on_error.pop_all()
    return ArrayFile(fh, index, f"checkpoint {path}")


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Every array of a checkpoint, each read once from the file."""
    with open_checkpoint(path) as ckpt:
        return dict(ckpt)


def average_checkpoints(paths) -> dict[str, np.ndarray]:
    """Arithmetic mean per parameter across identically-shaped checkpoints, read
    side by side one entry at a time; each is summed in float64 in path order."""
    paths = list(paths)
    if not paths:
        raise ValueError("no checkpoints to average")
    with ExitStack() as stack:
        files = [stack.enter_context(open_checkpoint(p)) for p in paths]
        ref = files[0]
        for p, f in zip(paths[1:], files[1:]):
            if set(f) != set(ref):
                raise ShapeError(f"parameter names in {p} differ from {paths[0]}")
            for name in ref:
                if f.index[name].shape != ref.index[name].shape:
                    raise ShapeError(f"shape of {name!r} in {p} differs from {paths[0]}")
        out = {}
        for name in ref:
            acc = np.zeros(ref.index[name].shape, dtype=np.float64)
            for f in files:
                acc += f[name]
            out[name] = (acc / len(files)).astype(np.float32)
    return out


def snapshot_teacher(params: ParameterStore, directory=None) -> ArrayFile:
    """Copy the student's parameters as a frozen teacher: each one's raw bytes,
    in its own dtype, to an unnamed temporary file in `directory` (default:
    the system's), gone once closed or once its process ends, however it ends."""
    with ExitStack() as on_error:
        file = on_error.enter_context(tempfile.TemporaryFile(dir=directory))
        index = {}
        for name, t in params.items():
            index[name] = Entry(file.tell(), t.data.shape, t.data.dtype)
            file.write(np.ascontiguousarray(t.data))
        file.flush()
        on_error.pop_all()
    return ArrayFile(file, index, "teacher file")
