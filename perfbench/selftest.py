"""Fast self-tests of the harness arithmetic and tracer; `run.py` calls
`run_all()` before every run, and `python3 perfbench/selftest.py` runs them
alone. Failures raise `SelfTestError` rather than relying on `assert`,
which `python -O` removes."""

from __future__ import annotations

import sys
import types

import stats
import tracing


class SelfTestError(RuntimeError):
    pass


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SelfTestError(what)


def test_ten_beyond_rule() -> None:
    check(stats.samples_beyond(100, 90) == 10, "100 samples leave 10 beyond p90")
    check(stats.samples_beyond(99, 90) == 9, "99 samples leave 9 beyond p90")
    check(stats.samples_beyond(1000, 99) == 10, "1000 samples leave 10 beyond p99")
    check(stats.tail_pct(100) == 90, "p90 needs 100 samples")
    check(stats.tail_pct(110) == 90, "tail is capped at p90")
    check(stats.tail_pct(99) == 89, "99 samples support p89 at most")
    check(stats.tail_pct(24) == 58, "24 samples support p58 at most")
    check(stats.tail_pct(12) == 50, "too few samples fall back to the median")
    xs = list(range(1, 101))
    check(stats.percentile(xs, 90) == 90, "nearest-rank p90 of 1..100")
    check(sum(x > stats.percentile(xs, 90) for x in xs) == 10, "10 samples beyond p90")
    check(stats.percentile([5.0], 90) == 5.0, "one sample is every percentile")


def test_self_time() -> None:
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8].
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 5.0, 9.0, 0),
             ("c", 6.0, 8.0, 2)]
    check(stats.self_times(spans) == [3.0, 3.0, 2.0, 2.0], "self = duration - children")
    check(sum(stats.self_times(spans)) == 10.0, "self times add up to the root")


def test_tracer_nesting_and_absent() -> None:
    mod = types.ModuleType("perfbench_selftest_mod")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    tracer = tracing.Tracer()
    try:
        tracer.install([
            tracing.Target(mod.__name__, "outer", "outer", metrics=("outer_s",)),
            tracing.Target(mod.__name__, "inner", "inner", {"inner_calls": tracing._one},
                           ("inner_calls",)),
            tracing.Target(mod.__name__, "removed_by_refactor", "gone",
                           metrics=("gone_s",)),
        ])
        with tracer.span("root"):
            check(mod.outer(1) == 4, "wrapped functions return their results")
    finally:
        tracer.uninstall()
        del sys.modules[mod.__name__]
    check(mod.outer is outer and mod.inner is inner, "uninstall restores originals")
    check(tracer.absent == {"gone_s"}, "a missing attribute is an absent metric")
    check(tracer.counters == {"inner_calls": 1}, "counts are exact")
    names = [(s[0], s[3]) for s in tracer.spans]
    check(names == [("root", -1), ("outer", 0), ("inner", 1)], "spans nest by call")
    by_name = tracer.self_time_by_name()
    total = tracer.spans[0][2] - tracer.spans[0][1]
    check(abs(sum(by_name.values()) - total) < 1e-12, "self times partition the root span")


def test_rtf_and_wer() -> None:
    check(abs(stats.rtf(0.5, 100, 0.01) - 0.5) < 1e-12, "0.5 s for 1 s of audio")
    check(abs(stats.rtf(3.0, 50, 0.01) - 6.0) < 1e-12, "3 s for 0.5 s of audio")
    check(stats.word_errors("ab cd", "ab cd") == 0, "equal texts")
    check(stats.word_errors("ab cd", "ab") == 1, "one deletion")
    check(stats.word_errors("ab cd", "ab ce cd") == 1, "one insertion")
    check(stats.word_errors("ab cd", "") == 2, "empty hypothesis")
    check(stats.word_errors("ab cd", "cd ab") == 2, "two substitutions")


def run_all() -> None:
    test_ten_beyond_rule()
    test_self_time()
    test_tracer_nesting_and_absent()
    test_rtf_and_wer()


if __name__ == "__main__":
    run_all()
    print("selftest ok")
