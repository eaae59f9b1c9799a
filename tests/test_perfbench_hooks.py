"""The benchmark reaches trasr by name: its tracer wraps trasr attributes,
its workloads set config keys, and its harness calls trasr functions. A
renamed attribute would be skipped there and reported only as
`trace.absent` > 0, and a removed key or parameter would fail the
benchmark's set-up or every operation. These tests fail instead. The
perfbench files are loaded from disk, unchanged, or only parsed."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing imports perfbench's `stats`
    monkeypatch.delitem(sys.modules, "stats", raising=False)
    yield _load(monkeypatch, "tracing")
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


def test_decoder_and_lm_layers_open_no_encoder_span(tracing):
    """`encoder_layer` is also the decoder's and the LM's layer; the tracer
    times only the encoder's, so their calls leave `trace.spans` and the
    `model.enc_*` times as they are."""
    span = tracing.encoder_layer_span(2)
    for prefix in ("dec.layer0", "lm.layer1"):
        assert span((None, None, prefix), {}) is None
        assert span((), {"prefix": prefix}) is None
    assert span((None, None, "enc.layer1"), {}) == "model.enc_pre_tr"
    assert span((None, None, "enc.layer2"), {}) == "model.enc_post_tr"


# Keys that perfbench/harness.py's `setup_train` adds to a workload's config.
SETUP_TRAIN_KEYS = ("data.alphabet", "train.epochs", "paths.train_manifest",
                    "paths.dev_manifest")


def test_every_workload_config_key_exists(monkeypatch):
    from trasr.config import KEYS, resolve

    workloads = _load(monkeypatch, "workloads")
    tables = {name: value for name, value in vars(workloads).items()
              if name.isupper() and isinstance(value, dict)}
    assert {"DESK_MODEL", "DESK_TRAIN", "PAPER_MODEL", "PAPER_TRAIN", "DECODE",
            "LM_MODEL"} <= set(tables)
    for name, table in tables.items():
        assert set(table) <= set(KEYS), f"{name}: {sorted(set(table) - set(KEYS))}"
    assert set(SETUP_TRAIN_KEYS) <= set(KEYS)
    # every spec, found by type, with the keys the harness's set-up adds:
    # each value the workload sets reaches the resolved config as given
    specs = [v for v in vars(workloads).values()
             if isinstance(v, (workloads.TrainSpec, workloads.DecodeSpec))]
    assert len(specs) >= 3
    for spec in specs:
        values = {**spec.config, "data.alphabet": workloads.ALPHABET}
        if isinstance(spec, workloads.TrainSpec):
            values.update({"train.epochs": str(spec.epochs),
                           "paths.train_manifest": "train.tsv", "paths.dev_manifest": "dev.tsv"})
        cfg = resolve(values)
        assert cfg.vocab_size == workloads.VOCAB_SIZE
        for key, value in values.items():
            assert cfg.raw[key] == KEYS[key][0](value), key


def test_graph_node_count_sees_the_backward_closure(tracing):
    """perfbench counts `tensor.graph_nodes` from an op output's `_backward`;
    without it the count would read 0 and no gate would notice."""
    import numpy as np

    import trasr.tensor as T

    x = T.Tensor(np.ones(3), requires_grad=True)
    assert tracing._records_node(None, None, x * 2.0) == 1
    with T.no_grad():
        assert tracing._records_node(None, None, x * 2.0) == 0


def _trasr_calls(path: Path):
    """(the resolved callee, its name in the file, the call node) for each
    call in `path` to a name imported from trasr or to an attribute of a
    trasr module imported under a name; AssertionError if one of those names
    does not resolve."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("trasr"):
            owner = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(owner, alias.name), f"{path.name}: {node.module}.{alias.name}"
                names[alias.asname or alias.name] = getattr(owner, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("trasr.") and alias.asname:
                    modules[alias.asname] = importlib.import_module(alias.name)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            calls.append((names[func.id], func.id, node))
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in modules):
            module = modules[func.value.id]
            name = f"{func.value.id}.{func.attr}"
            assert hasattr(module, func.attr), f"{path.name}: {name}"
            calls.append((getattr(module, func.attr), name, node))
    return calls


def test_every_call_perfbench_makes_into_trasr_binds():
    """Each direct call in the harness and the reference regenerator binds
    its positional arguments and keywords to the callee's signature."""
    called = set()
    for file in ("harness.py", "regenerate.py"):
        for callee, name, node in _trasr_calls(PERFBENCH / file):
            called.add(name)
            if any(isinstance(a, ast.Starred) for a in node.args) or \
                    any(k.arg is None for k in node.keywords):
                continue  # *args or **kwargs: nothing to bind statically
            try:
                inspect.signature(callee).bind(*node.args,
                                               **{k.arg: k.value for k in node.keywords})
            except TypeError as e:
                pytest.fail(f"{file}:{node.lineno}: {name}(...) does not bind: {e}")
    assert {"resolve", "run_training", "run_lm_training", "decode_utterance",
            "init_model_params", "init_lm_params", "tckpt.load_checkpoint"} <= called
