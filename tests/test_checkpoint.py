"""Checkpoint format round-trips, corruption handling, averaging, reads of
checkpoints and teacher files one entry at a time, and their memory."""

import itertools
import json
import os
import re
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from trasr.checkpoint import (average_checkpoints, load_checkpoint, open_checkpoint,
                              save_checkpoint, snapshot_teacher, write_atomically)
from trasr.config import resolve
from trasr.errors import FormatError, ShapeError
from trasr.model import init_model_params
from trasr.optim import ParameterStore
from trasr.tensor import Tensor


def sample_state(rng):
    return {
        "a.w": rng.normal(size=(3, 4)).astype(np.float32),
        "a.b": rng.normal(size=4).astype(np.float32),
        "scalar": np.float32(rng.normal()),
    }


def test_round_trip_bit_identical(tmp_path):
    state = sample_state(np.random.default_rng(0))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(state)
    for name in state:
        assert np.array_equal(loaded[name], np.asarray(state[name], dtype=np.float32))
        assert loaded[name].dtype == np.float32


def test_loaded_arrays_own_their_data(tmp_path):
    # not views of the file's bytes, which would be read-only
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_state(np.random.default_rng(0)))
    for arr in load_checkpoint(path).values():
        assert arr.flags.writeable and arr.base is None


def test_file_bytes_follow_the_format(tmp_path):
    # float64, Fortran-order and 0-d entries, against bytes built by hand
    f_order = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    state = {"b.f": f_order, "a.scalar": np.float64(0.5), "c.v": np.array([1.5, -2.0])}
    want = b"TRCK" + struct.pack("<II", 1, 3)
    for name, dims, values in (("a.scalar", (), [0.5]), ("b.f", (2, 3), range(6)),
                               ("c.v", (2,), [1.5, -2.0])):
        want += struct.pack("<H", len(name)) + name.encode()
        want += struct.pack(f"<B{len(dims)}I", len(dims), *dims)
        want += struct.pack(f"<{len(values)}f", *values)
    save_checkpoint(tmp_path / "m.ckpt", state)
    assert (tmp_path / "m.ckpt").read_bytes() == want


def test_no_partial_file_on_disk(tmp_path):
    save_checkpoint(tmp_path / "m.ckpt", sample_state(np.random.default_rng(0)))
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]  # temp file renamed away


def _interrupt_each_line(save, check) -> int:
    """Run `save` with a KeyboardInterrupt at its first line, then at its
    second, and so on (library code included), calling `check(k)` after the
    run interrupted at line k; returns the count of lines of the run that
    ended uninterrupted."""
    outer = sys.gettrace()
    for k in itertools.count():
        lines = itertools.count()

        def trace(frame, event, arg):
            if event == "line" and next(lines) == k:
                raise KeyboardInterrupt  # an error also ends the tracing
            return trace

        sys.settrace(trace)
        try:
            save()
            return k  # the save ran fewer than k + 1 lines
        except KeyboardInterrupt:
            pass
        finally:
            sys.settrace(outer)
        check(k)


def test_an_interrupt_at_any_line_of_a_save_leaves_no_temp_file(tmp_path):
    """KeyboardInterrupt at each line, in turn, that a save runs (library
    code included) leaves the earlier checkpoint or the new one, and no
    temp file."""
    state = sample_state(np.random.default_rng(0))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"old": np.zeros(2, dtype=np.float32)})

    def check(k):
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"], k
        assert set(load_checkpoint(path)) in ({"old"}, set(state)), k

    assert _interrupt_each_line(lambda: save_checkpoint(path, state), check) > 0
    assert set(load_checkpoint(path)) == set(state)
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


@pytest.mark.parametrize("name, old, new", [
    ("best.json", json.dumps(["epoch0001.ckpt"]),
     json.dumps(["epoch0003.ckpt", "epoch0001.ckpt"])),
    ("report.json", json.dumps({"utterances": 2, "wer": 0.5}, indent=2),
     json.dumps({"utterances": 3, "wer": 0.25, "skipped": []}, indent=2)),
])
def test_an_interrupt_at_any_line_of_a_json_write_leaves_old_or_new(tmp_path, name, old, new):
    """`best.json` and `report.json` are written as `run_training` and
    `decode` write them: each interrupt leaves the old or the new complete
    file, and no temp file."""
    path = tmp_path / name
    path.write_text(old, encoding="utf-8")

    def check(k):
        assert [p.name for p in tmp_path.iterdir()] == [name], k
        assert path.read_text(encoding="utf-8") in (old, new), k

    assert _interrupt_each_line(lambda: write_atomically(path, [new.encode("utf-8")]),
                                check) > 0
    assert path.read_text(encoding="utf-8") == new
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_bad_magic(tmp_path):
    p = tmp_path / "m.ckpt"
    p.write_bytes(b"NOPE" + b"\0" * 20)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(p)


def test_bad_version(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, {"a": np.zeros(1, dtype=np.float32)})
    blob = bytearray(p.read_bytes())
    blob[4] = 9
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(p)


def test_truncation_reports_byte_offset(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, sample_state(np.random.default_rng(0)))
    blob = p.read_bytes()
    p.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(FormatError, match="byte"):
        load_checkpoint(p)


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, sample_state(np.random.default_rng(0)))
    p.write_bytes(p.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(p)


def test_average_single_checkpoint_is_identity(tmp_path):
    state = sample_state(np.random.default_rng(1))
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, state)
    avg = average_checkpoints([p])
    for name in state:
        assert np.array_equal(avg[name], np.asarray(state[name], dtype=np.float32))


def test_average_k_copies_bit_equal(tmp_path):
    state = sample_state(np.random.default_rng(2))
    paths = []
    for i in range(5):
        p = tmp_path / f"m{i}.ckpt"
        save_checkpoint(p, state)
        paths.append(p)
    avg = average_checkpoints(paths)
    for name in state:
        assert np.array_equal(avg[name], np.asarray(state[name], dtype=np.float32))


def test_average_two_point_exact(tmp_path):
    a = {"w": np.asarray([1.0], dtype=np.float32)}
    b = {"w": np.asarray([3.0], dtype=np.float32)}
    save_checkpoint(tmp_path / "a.ckpt", a)
    save_checkpoint(tmp_path / "b.ckpt", b)
    avg = average_checkpoints([tmp_path / "a.ckpt", tmp_path / "b.ckpt"])
    assert np.array_equal(avg["w"], [2.0])


def test_average_name_mismatch_raises(tmp_path):
    save_checkpoint(tmp_path / "a.ckpt", {"w": np.zeros(1, dtype=np.float32)})
    save_checkpoint(tmp_path / "b.ckpt", {"v": np.zeros(1, dtype=np.float32)})
    with pytest.raises(ShapeError):
        average_checkpoints([tmp_path / "a.ckpt", tmp_path / "b.ckpt"])


def test_average_shape_mismatch_raises(tmp_path):
    save_checkpoint(tmp_path / "a.ckpt", {"w": np.zeros(1, dtype=np.float32)})
    save_checkpoint(tmp_path / "b.ckpt", {"w": np.zeros(2, dtype=np.float32)})
    with pytest.raises(ShapeError):
        average_checkpoints([tmp_path / "a.ckpt", tmp_path / "b.ckpt"])


# -- reads one entry at a time ------------------------------------------------


def test_a_checkpoint_cut_short_after_it_was_indexed_names_the_entry(tmp_path):
    p, state = tmp_path / "m.ckpt", sample_state(np.random.default_rng(0))
    save_checkpoint(p, state)
    with open_checkpoint(p) as ckpt:
        os.truncate(p, p.stat().st_size - 2)  # half of the last entry, "scalar"
        assert np.array_equal(ckpt["a.w"], state["a.w"])
        with pytest.raises(FormatError, match=re.escape(
                f"read 2 of 4 bytes of 'scalar' at byte {ckpt.index['scalar'].offset}")):
            ckpt["scalar"]


def test_a_teacher_file_cut_short_names_the_entry():
    store = ParameterStore()
    store.add("a", Tensor(np.ones(3)))
    store.add("b", Tensor(np.zeros((2, 2))))
    with snapshot_teacher(store) as teacher:
        offset = teacher.index["b"].offset
        os.ftruncate(teacher._file.fileno(), offset + 8)  # one of b's four float64s
        with pytest.raises(FormatError, match=re.escape(
                f"teacher file truncated: read 8 of 32 bytes of 'b' at byte {offset}")):
            teacher["b"]
        assert np.array_equal(teacher["a"], np.ones(3))


@pytest.fixture(scope="module")
def paper_checkpoint(tmp_path_factory):
    """A checkpoint of the paper-size model (the default config) and the
    bytes of its parameters."""
    params = init_model_params(resolve({}).model, 0)
    path = tmp_path_factory.mktemp("paper") / "paper.ckpt"
    save_checkpoint(path, params.state_dict())
    return path, sum(t.data.nbytes for _, t in params.items())


def _traced_peak(fn) -> int:
    """The peak of traced memory above what was live when `fn` started."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_load_into_a_live_model_holds_one_entry_at_a_time(paper_checkpoint):
    # the path of `trasr decode` and of `--init`
    path, param_bytes = paper_checkpoint
    params = init_model_params(resolve({}).model, 1)

    def load():
        with open_checkpoint(path) as ckpt:
            params.load_state_dict(ckpt)

    peak = _traced_peak(load)
    assert peak < 0.25 * param_bytes, (peak, param_bytes)
    with open_checkpoint(path) as ckpt:
        assert all(np.array_equal(params[name].data, ckpt[name]) for name in ckpt)


def test_averaging_memory_stays_flat_in_the_number_of_files(paper_checkpoint):
    # k paths to one file: the files are open side by side, as for k files
    path, param_bytes = paper_checkpoint
    peaks = {k: _traced_peak(lambda: average_checkpoints([path] * k)) for k in (2, 4)}
    assert peaks[4] < 1.15 * param_bytes, (peaks, param_bytes)
    assert peaks[4] - peaks[2] <= 0.02 * param_bytes, (peaks, param_bytes)
