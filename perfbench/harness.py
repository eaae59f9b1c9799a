"""Workload runners: set-up, the measured loop, the correctness gate and the
traced run. trasr is driven only through its public entry points
(`resolve`, `run_training`, `decode_utterance`, `load_checkpoint`).

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import env
import stats
import tracing
import workloads as W

import trasr.checkpoint as tckpt
import trasr.data as tdata
from trasr.config import resolve
from trasr.model import init_lm_params, init_model_params
from trasr.training import decode_utterance, run_training

WORKLOADS = {"train-desk": W.TRAIN_DESK, "train-paper": W.TRAIN_PAPER,
             "decode-beam": W.DECODE_BEAM}
REFERENCES = env.BENCH_DIR / "references.json"
FIXTURES = env.BENCH_DIR / "fixtures"
LOSS_KEYS = ("train_ctc", "train_s2s", "train_skd", "train_total")
LOSS_RTOL = 1e-3      # float32 sums may reorder; a changed loss term moves far more
SETUP_REPEATS = 5      # set-ups per run; their median is setup_s's set-up part
MIN_TRAIN_CALLS = 3
TRACE_ROUNDS = 2


class SetupError(RuntimeError):
    """The workload could not be prepared; no operation was attempted."""


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)   # sample counts, tail percentile

    def fail(self, n: int, problem: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(problem)


def references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def audio_frames(utterances) -> int:
    return sum(len(feats) for _, feats in utterances)


# -- training workloads -------------------------------------------------------


@dataclass
class TrainSetup:
    cfg: object
    n_frames: int        # input frames of the training set
    n_steps: int         # optimizer steps per epoch


def setup_train(spec: W.TrainSpec, k: int, work: Path) -> TrainSetup:
    train = W.synthesize(spec.shape, spec.n_train, W.TAG_TRAIN, k)
    dev = W.synthesize(spec.shape, spec.n_dev, W.TAG_DEV, k)
    # The alphabet goes through resolve(), where its trailing space survives.
    cfg = resolve({**spec.config, "data.alphabet": W.ALPHABET,
                   "train.epochs": str(spec.epochs),
                   "paths.train_manifest": str(W.write_set(work, "train", train)),
                   "paths.dev_manifest": str(W.write_set(work, "dev", dev))})
    if cfg.vocab_size != W.VOCAB_SIZE or len(tdata.Vocabulary(cfg.alphabet)) != W.VOCAB_SIZE:
        raise SetupError(f"vocabulary size {cfg.vocab_size}, expected {W.VOCAB_SIZE}")
    n_steps = -(-spec.n_train // int(spec.config["train.batch_size"]))
    return TrainSetup(cfg, audio_frames(train), n_steps)


def train_call(spec: W.TrainSpec, ts: TrainSetup, out_dir: Path, tracer=None):
    """One whole `run_training` call; returns (records, wall_s, epoch ends)."""
    ends: list[float] = []
    t0 = time.perf_counter()
    try:
        with tracer.span("training.run") if tracer else contextlib.nullcontext():
            records = run_training(ts.cfg, out_dir, mode=spec.mode,
                                   log=lambda _: ends.append(time.perf_counter()))
    finally:
        wall = time.perf_counter() - t0
        shutil.rmtree(out_dir, ignore_errors=True)
    return records, wall, [t0] + ends


def check_losses(records, ref_epochs, steps_per_epoch: int, out: Outcome) -> None:
    if len(records) != len(ref_epochs):
        out.fail(steps_per_epoch * len(ref_epochs),
                 f"{len(records)} epochs logged, expected {len(ref_epochs)}")
        return
    for rec, ref in zip(records, ref_epochs):
        bad = [k for k in LOSS_KEYS
               if abs(rec[k] - ref[k]) > LOSS_RTOL * max(abs(ref[k]), 1e-6)]
        if bad:
            out.fail(steps_per_epoch, f"epoch {rec['epoch']}: "
                     + ", ".join(f"{k} {rec[k]:.6g} != {ref[k]:.6g}" for k in bad))


def train_op(spec, ts: TrainSetup, out_dir: Path, refs, out: Outcome, tracer=None):
    """One `run_training` call as counted operations (its optimizer steps).
    An aborted call fails all of its steps; returns None then."""
    steps = ts.n_steps * spec.epochs
    out.attempted += steps
    try:
        records, wall, ends = train_call(spec, ts, out_dir, tracer)
    except Exception as e:
        out.fail(steps, f"run_training raised {type(e).__name__}: {e}")
        return None
    check_losses(records, refs, ts.n_steps, out)
    return records, wall, ends


def measure_train(spec, ts, work, seconds, refs, out: Outcome) -> None:
    utts = spec.n_train * spec.epochs
    audio_s = ts.n_frames * spec.epochs * W.FRAME_SECONDS
    per_call, rtfs, utt_ms, error = [], [], [], None
    start = time.perf_counter()
    last = 0.0
    while (len(per_call) < MIN_TRAIN_CALLS
           or time.perf_counter() - start + last <= seconds):
        done = train_op(spec, ts, work / f"run{len(per_call)}", refs, out)
        if done is None:
            break
        records, last, ends = done
        per_call.append(utts / last)
        rtfs.append(last / audio_s)
        utt_ms += [1000.0 * (b - a) / spec.n_train for a, b in zip(ends, ends[1:])]
        error = 1.0 - records[-1]["dev_accuracy"]
    if not per_call:
        return
    pct = stats.tail_pct(len(utt_ms))
    out.metrics.update(utt_per_s=stats.median(per_call), rtf=stats.median(rtfs),
                       utt_ms_p50=stats.percentile(utt_ms, 50),
                       utt_ms_p90=stats.percentile(utt_ms, pct), error_rate=error)
    out.notes.update(train_calls=len(per_call), latency_samples=len(utt_ms),
                     tail_percentile=pct, utterances_per_call=utts,
                     steps_per_call=ts.n_steps * spec.epochs)


# -- decode workload ----------------------------------------------------------


@dataclass
class DecodeSetup:
    cfg: object
    vocab: object
    params: object
    lm_params: object
    utts: list          # (utt_id, FeatureSequence, transcript)


def verify_fixture(name: str, refs: dict) -> Path:
    path = FIXTURES / name
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != refs.get("fixtures", {}).get(name, {}).get("sha256"):
        raise SetupError(f"fixture {name} sha256 {digest} does not match references.json")
    return path


def setup_decode(spec: W.DecodeSpec, k: int, work: Path, refs: dict) -> DecodeSetup:
    manifest = W.write_set(work, "test", W.decode_set(spec, k))
    cfg = resolve({**spec.config, "data.alphabet": W.ALPHABET})
    params = init_model_params(cfg.model, cfg.train.seed)
    params.load_state_dict(tckpt.load_checkpoint(verify_fixture("desk_asr.ckpt", refs)))
    lm_params = init_lm_params(cfg.lm, cfg.train.seed)
    lm_params.load_state_dict(tckpt.load_checkpoint(verify_fixture("lm.ckpt", refs)))
    utts = [(e.utt_id, tdata.load_features(e.feature_path), e.transcript)
            for e in tdata.load_manifest(manifest)]
    return DecodeSetup(cfg, tdata.Vocabulary(cfg.alphabet), params, lm_params, utts)


def decode_one(ds: DecodeSetup, seq) -> str:
    res = decode_utterance(seq, ds.cfg.model, ds.params, ds.cfg.decode, ds.vocab,
                           lm_cfg=ds.cfg.lm, lm_params=ds.lm_params)
    return ds.vocab.detokenize(res.tokens)


def decode_pass(ds: DecodeSetup, refs, out: Outcome, tracer=None):
    """Decode every utterance once; returns (wall ms, latency ms, hypotheses).

    Each utterance is its own operation: an exception or a hypothesis that
    differs from the stored one fails that utterance only. A failed
    utterance misses every latency limit, so its latency is infinite."""
    wall_ms, lat_ms, hyps = [], [], []
    for (utt_id, seq, _), ref in zip(ds.utts, refs):
        out.attempted += 1
        if tracer is not None:
            tracer.tag = utt_id
        t0 = time.perf_counter()
        ok = False
        try:
            with tracer.span("decode.utterance") if tracer else contextlib.nullcontext():
                hyp = decode_one(ds, seq)
        except Exception as e:
            out.fail(1, f"{utt_id}: {type(e).__name__}: {e}")
            hyp = ""
        else:
            ok = hyp == ref
            if not ok:
                out.fail(1, f"{utt_id}: hypothesis {hyp!r} != stored {ref!r}")
        wall_ms.append(1000.0 * (time.perf_counter() - t0))
        lat_ms.append(wall_ms[-1] if ok else math.inf)
        hyps.append(hyp)
    return wall_ms, lat_ms, hyps


def measure_decode(ds, seconds, refs, out: Outcome) -> None:
    """Whole passes over the set (at least one) while the next one still
    fits in `seconds`, so every run times the same utterances."""
    wall_ms, lat_ms, passes, last = [], [], 0, 0.0
    start = time.perf_counter()
    while passes < 1 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        pass_wall, pass_lat, hyps = decode_pass(ds, refs, out)
        last = time.perf_counter() - t0
        wall_ms += pass_wall
        lat_ms += pass_lat
        passes += 1
    errors = sum(stats.word_errors(text, hyp) for (_, _, text), hyp in zip(ds.utts, hyps))
    words = sum(len(text.split()) for _, _, text in ds.utts)
    frames = passes * sum(seq.length for _, seq, _ in ds.utts)
    wall_s = sum(wall_ms) / 1000.0
    pct = stats.tail_pct(len(lat_ms))
    out.metrics.update(utt_per_s=(len(lat_ms) - out.failed) / wall_s,
                       rtf=stats.rtf(wall_s, frames, W.FRAME_SECONDS),
                       utt_ms_p50=stats.percentile(lat_ms, 50),
                       utt_ms_p90=stats.percentile(lat_ms, pct), error_rate=errors / words)
    out.notes.update(passes=passes, latency_samples=len(lat_ms), tail_percentile=pct,
                     wer_words=words)


# -- running a workload -------------------------------------------------------


def _setup(name: str, k: int, work: Path, refs: dict):
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = WORKLOADS[name]
    if name == "decode-beam":
        return setup_decode(spec, k, work / "inputs", refs)
    return setup_train(spec, k, work / "inputs")


def _workload_refs(name: str, k: int, refs: dict):
    wrefs = refs.get(name, {}).get(str(k))
    expected = W.DECODE_BEAM.n_utts if name == "decode-beam" else WORKLOADS[name].epochs
    if wrefs is None or len(wrefs) != expected:
        raise SetupError(f"references.json has no {name} entry of length {expected} "
                         f"for input set {k}")
    return wrefs


def run(name: str, seed: int, seconds: float, work: Path) -> Outcome:
    """Untraced run: end-to-end metrics.

    `setup_s` is the process's age when set-up begins (interpreter start-up,
    imports and reading the references, paid once) plus the median of
    SETUP_REPEATS set-ups."""
    k = W.input_set(seed)
    refs = references()
    wrefs = _workload_refs(name, k, refs)
    startup_s = env.seconds_since_start()
    setups = []
    for _ in range(SETUP_REPEATS):
        prepared = None  # drop the previous set-up before making the next
        t0 = time.perf_counter()
        prepared = _setup(name, k, work / "inputs", refs)
        setups.append(time.perf_counter() - t0)
    out = Outcome()
    if name == "decode-beam":
        measure_decode(prepared, seconds, wrefs, out)
    else:
        measure_train(WORKLOADS[name], prepared, work, seconds, wrefs, out)
    out.metrics["setup_s"] = startup_s + stats.median(setups)
    out.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.notes.update(setup_startup_s=startup_s, setup_repeats_s=setups)
    return out


def _unit(name, prepared, work, wrefs, out, part: int, tracer=None) -> float:
    """Unit `part` of the TRACE_ROUNDS units of work; its wall s. A training
    unit is one whole call; a decode unit is its share of the utterances,
    so the traced units together decode the set once."""
    if name == "decode-beam":
        n = len(prepared.utts)
        lo, hi = part * n // TRACE_ROUNDS, (part + 1) * n // TRACE_ROUNDS
        wall_ms, _, _ = decode_pass(replace(prepared, utts=prepared.utts[lo:hi]),
                                    wrefs[lo:hi], out, tracer=tracer)
        return sum(wall_ms) / 1000.0
    done = train_op(WORKLOADS[name], prepared, work / "unit", wrefs, out, tracer)
    return float("nan") if done is None else done[1]


def run_traced(name: str, seed: int, work: Path, trace_path: Path, metrics) -> Outcome:
    """The per-layer `metrics` of a traced set-up and TRACE_ROUNDS traced
    units of work, and the tracing overhead against the same units run
    untraced in the same process. Untraced and traced units alternate
    (after an untraced warm-up unit), so drift in the host's speed hits
    both sides alike. `*_s` metrics are span self times."""
    k = W.input_set(seed)
    refs = references()
    wrefs = _workload_refs(name, k, refs)
    out = Outcome()
    plain = _setup(name, k, work / "plain", refs)
    _unit(name, plain, work, wrefs, out, 0)  # warm-up: first-touch allocations

    tracer = tracing.Tracer()
    targets = tracing.trasr_targets(int(WORKLOADS[name].config["model.e1"]))
    tracer.install(targets)
    try:
        with tracer.span("setup"):
            traced = _setup(name, k, work / "traced", refs)
    finally:
        tracer.uninstall()
    plain_s = traced_s = 0.0
    for part in range(TRACE_ROUNDS):
        plain_s += _unit(name, plain, work, wrefs, out, part)
        tracer.install(targets)
        try:
            traced_s += _unit(name, traced, work, wrefs, out, part, tracer)
        finally:
            tracer.uninstall()
    tracer.write(trace_path)

    self_s = tracer.self_time_by_name()
    for metric in metrics:
        if metric.startswith("trace."):
            continue
        if metric.endswith("_s"):
            span = {"search.beam_self_s": "search.beam",
                    "training.self_s": "training.run"}.get(metric, metric[:-2])
            out.metrics[metric] = self_s.get(span, 0.0)
        else:
            out.metrics[metric] = tracer.counters.get(metric, 0)
    out.metrics.update({"trace.overhead_pct": 100.0 * (traced_s / plain_s - 1.0),
                        "trace.spans": len(tracer.spans),
                        "trace.absent": len(tracer.absent)})
    out.notes.update(absent=sorted(tracer.absent), untraced_units_s=plain_s,
                     traced_units_s=traced_s, trace_file=str(trace_path.name))
    return out


def reference_run(name: str, k: int):
    """What the correctness gate compares against, for input set `k`."""
    work = env.WORK_DIR / f"reference-{name}"
    try:
        refs = references() if REFERENCES.exists() else {}
        prepared = _setup(name, k, work / "setup", refs)
        if name == "decode-beam":
            return [decode_one(prepared, seq) for _, seq, _ in prepared.utts]
        records, _, _ = train_call(WORKLOADS[name], prepared, work / "run")
        return [{key: r[key] for key in LOSS_KEYS} for r in records]
    finally:
        shutil.rmtree(work, ignore_errors=True)
