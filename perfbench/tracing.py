"""Outside-in tracing of trasr: spans and counts recorded by wrapping the
module attributes that trasr's callers look up at call time.

Nothing in trasr is edited. A wrapped attribute that no longer exists (a
later refactor may remove `attention` or `utterance_losses`) is skipped and
its metrics are reported as absent, never as a crash. Spans are kept in
memory as (name, start, end, parent, tag) and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable

from stats import self_times


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: `owner` is a module path, optionally followed by
    ':Class'; `span` names the span (a callable picks it from the call
    arguments, None records no span); `counts` maps a counter to the amount
    a call adds (a callable of args, kwargs and result); `tag`, if given,
    sets the utterance or step id of the spans that follow."""
    owner: str
    attr: str
    span: str | Callable | None = None
    counts: dict = field(default_factory=dict)
    metrics: tuple[str, ...] = ()   # metrics that rely on this target
    tag: Callable | None = None     # tag(tracer) -> id


def _one(*_):
    return 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.absent: set[str] = set()
        self.tag = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.tag))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        name, start, _, parent, tag = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, tag)
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, target: Target):
        tracer = self
        span, tag = target.span, target.tag
        counts = list(target.counts.items())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span(args, kwargs) if callable(span) else span
            if tag is not None and name is not None:
                tracer.tag = tag(tracer)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                idx = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
            for counter, amount in counts:
                tracer.count(counter, amount(args, kwargs, result))
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap every target that exists; note the metrics of those that do not."""
        present: set[str] = set()
        missing: set[str] = set()
        for t in targets:
            module_name, _, cls = t.owner.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if cls:
                    owner = getattr(owner, cls)
                original = owner.__dict__[t.attr] if cls else getattr(owner, t.attr)
            except (ImportError, AttributeError, KeyError):
                missing.update(t.metrics)
                continue
            present.update(t.metrics)
            self._patched.append((owner, t.attr, original))
            setattr(owner, t.attr, self._wrap(original, t))
        self.absent = missing - present

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_time_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (name, *_), s in zip(self.spans, self_times(self.spans)):
            out[name] = out.get(name, 0.0) + s
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, tag in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "tag": tag}) + "\n")


# -- what to wrap in trasr ----------------------------------------------------


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs.get(key)


def encoder_layer_span(e1: int):
    """Encoder layers before the time-reduction layer, or after it; LM
    layers (prefix 'lm.') stay inside their `lm_forward` span."""
    def name(args, kwargs):
        prefix = _arg(args, kwargs, 2, "prefix") or ""
        if not prefix.startswith("enc.layer"):
            return None
        idx = int(prefix[len("enc.layer"):])
        return "model.enc_pre_tr" if idx < e1 else "model.enc_post_tr"
    return name


def grad_mode_span(name: str):
    """A span only while gradients are recorded (the training step, not
    dev evaluation under no_grad)."""
    tensor = importlib.import_module("trasr.tensor")

    def pick(args, kwargs):
        return name if getattr(tensor, "_grad_enabled", True) else None
    return pick


def _records_node(args, kwargs, result):
    return int(getattr(result, "_backward", None) is not None)


def _prefix_len(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "prefix"))


def _step_id(tracer) -> str:
    return f"step{tracer.counters.get('optim.adam_calls', 0) + 1}"


def _expansions(args, kwargs, result):
    return int(getattr(result, "n_expanded", 0))


def trasr_targets(e1: int) -> list[Target]:
    tr = "trasr.training"
    return [
        Target("trasr.tensor:Tensor", "backward", "tensor.backward",
               metrics=("tensor.backward_s",)),
        Target("trasr.tensor", "_result", counts={"tensor.graph_nodes": _records_node},
               metrics=("tensor.graph_nodes",)),
        Target("trasr.losses", "_result", counts={"tensor.graph_nodes": _records_node},
               metrics=("tensor.graph_nodes",)),
        Target("trasr.model", "subsample", "frontend.subsample",
               {"frontend.subsample_calls": _one},
               ("frontend.subsample_s", "frontend.subsample_calls")),
        Target(tr, "spec_augment", "frontend.spec_augment",
               metrics=("frontend.spec_augment_s",)),
        Target("trasr.model", "encoder_layer", encoder_layer_span(e1),
               metrics=("model.enc_pre_tr_s", "model.enc_post_tr_s")),
        Target("trasr.model", "time_reduce", "model.time_reduce",
               metrics=("model.time_reduce_s",)),
        Target("trasr.model", "attention", counts={"model.attention_calls": _one},
               metrics=("model.attention_calls",)),
        Target(tr, "ctc_log_probs", "model.ctc_head", metrics=("model.ctc_head_s",)),
        Target(tr, "decode_forward", "model.decoder",
               {"model.decoder_calls": _one, "model.decoder_positions": _prefix_len},
               ("model.decoder_s", "model.decoder_calls", "model.decoder_positions")),
        Target(tr, "lm_forward", "model.lm", {"model.lm_calls": _one},
               ("model.lm_s", "model.lm_calls")),
        Target(tr, "ctc_loss", "losses.ctc", metrics=("losses.ctc_s",)),
        Target(tr, "ce_label_smoothed", "losses.ce", metrics=("losses.ce_s",)),
        Target(tr, "skd_loss", "losses.skd", metrics=("losses.skd_s",)),
        Target(tr, "teacher_entropy", "losses.skd", metrics=("losses.skd_s",)),
        Target(tr, "adam_step", "optim.adam", {"optim.adam_calls": _one},
               ("optim.adam_s", "optim.adam_calls")),
        Target(tr, "beam_search", "search.beam", {"search.expansions": _expansions},
               ("search.beam_self_s", "search.expansions")),
        Target("trasr.search:CtcPrefixScorer", "extend", "search.ctc_extend",
               {"search.ctc_extend_calls": _one},
               ("search.ctc_extend_s", "search.ctc_extend_calls")),
        Target(tr, "init_model_params", "training.model_init",
               metrics=("training.model_init_s",)),
        Target(tr, "snapshot_teacher", "training.teacher_snapshot",
               metrics=("training.teacher_snapshot_s",)),
        Target(tr, "save_checkpoint", "checkpoint.save", metrics=("checkpoint.save_s",)),
        Target("trasr.checkpoint", "load_checkpoint", "checkpoint.load",
               metrics=("checkpoint.load_s",)),
        Target(tr, "load_manifest", "data.load", metrics=("data.load_s",)),
        Target(tr, "make_batches", "data.load", metrics=("data.load_s",)),
        Target("trasr.data", "load_manifest", "data.load", metrics=("data.load_s",)),
        Target("trasr.data", "load_features", "data.load", metrics=("data.load_s",)),
        Target(tr, "batch_loss", grad_mode_span("training.step_forward"),
               metrics=("training.step_forward_s",), tag=_step_id),
        Target(tr, "evaluate", "training.evaluate", metrics=("training.evaluate_s",),
               tag=lambda _: "dev"),
    ]
