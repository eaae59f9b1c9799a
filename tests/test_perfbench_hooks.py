"""The benchmark's tracer wraps trasr attributes by name; a renamed one
would be skipped there and reported only as `trace.absent` > 0. This test
fails instead. `perfbench/tracing.py` is loaded from its file, unchanged."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing imports perfbench's `stats`
    monkeypatch.delitem(sys.modules, "stats", raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("stats", None)


@pytest.mark.parametrize("e1", [0, 2])
def test_every_traced_target_resolves(tracing, e1):
    targets = tracing.trasr_targets(e1)
    assert targets
    for t in targets:
        module_name, _, cls = t.owner.partition(":")
        owner = importlib.import_module(module_name)
        if cls:
            assert t.attr in getattr(owner, cls).__dict__, f"{t.owner}.{t.attr}"
        else:
            assert callable(getattr(owner, t.attr, None)), f"{t.owner}.{t.attr}"


def test_traced_arguments_keep_their_positions():
    """The tracer reads the prefix of `decode_forward` (for its position
    count) and of `encoder_layer` (to tell layers before and after the
    time reduction) by position or by that keyword."""
    import trasr.model as model

    assert list(inspect.signature(model.decode_forward).parameters)[0] == "prefix"
    assert list(inspect.signature(model.encoder_layer).parameters)[2] == "prefix"
