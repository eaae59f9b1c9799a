"""Process environment for benchmark runs: BLAS thread pinning, the trasr
import from the checkout's `src/`, and the environment record.

`pin_blas` must run before numpy is imported anywhere in the process.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORK_DIR = BENCH_DIR / "work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS thread: the desk matrices are too small to gain from a second one,
# and on a shared 2-CPU host one thread gave steadier train-paper calls.
BLAS_THREADS_MAX = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas() -> int:
    threads = min(BLAS_THREADS_MAX, nproc())
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def seconds_since_start() -> float:
    """Wall seconds since this process started: its start time in
    /proc/self/stat (field 22, clock ticks since boot) against the boot-time
    clock, so interpreter start-up and imports count."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()  # fields[0] is field 3
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


class MissingProgram(RuntimeError):
    """The checkout holds no trasr sources to benchmark."""


def import_trasr():
    """Import trasr from `<checkout>/src`, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "trasr" / "__init__.py").is_file():
        raise MissingProgram(f"no trasr package under {src}")
    sys.path.insert(0, str(src))
    import trasr
    if Path(trasr.__file__).resolve().parent != (src / "trasr").resolve():
        raise MissingProgram(f"trasr imported from {trasr.__file__}, not from {src}")
    return trasr


def record(seed: int, input_set: int, blas_threads: int) -> dict:
    """Versions, BLAS library and thread settings that every result carries."""
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        blas = f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()
    except (TypeError, AttributeError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": nproc(),
        "machine": platform.machine(),
        "seed": seed,
        "input_set": input_set,
    }
