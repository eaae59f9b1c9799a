"""Harness arithmetic: percentiles with the ten-samples-beyond rule, span
self time, real-time factor and word errors. Checked by `selftest.py`."""

from __future__ import annotations

import statistics

BEYOND = 10  # a reported tail percentile needs this many samples above it
TAIL = 90    # the tail percentile reported when there are enough samples


def samples_beyond(n: int, pct: int) -> int:
    """Samples strictly above the nearest-rank `pct`-th percentile of `n`."""
    rank = -(-pct * n // 100)  # ceil(pct * n / 100) in exact integers
    return n - max(rank, 1)


def tail_pct(n: int) -> int:
    """The highest whole percentile <= TAIL with BEYOND samples above it
    (50 at the least: below the median a tail is not a tail)."""
    for pct in range(TAIL, 50, -1):
        if samples_beyond(n, pct) >= BEYOND:
            return pct
    return 50


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile: a value that was actually measured."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(-(-pct * len(ordered) // 100), 1)
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the durations of direct children.

    `spans` are (name, start, end, parent_index_or_-1, ...) tuples. Spans of
    one thread nest, so children never overlap each other.
    """
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def rtf(wall_s: float, frames: int, frame_s: float) -> float:
    """Processing time per second of input audio."""
    return wall_s / (frames * frame_s)


def word_errors(ref: str, hyp: str) -> int:
    """Levenshtein distance between the word sequences."""
    r, h = ref.split(), hyp.split()
    prev = list(range(len(h) + 1))
    for i, rw in enumerate(r, start=1):
        cur = [i]
        for j, hw in enumerate(h, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (rw != hw)))
        prev = cur
    return prev[-1]
