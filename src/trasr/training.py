"""Training loops (pre-training, S-KD from scratch, FS-KD fine-tuning),
evaluation, LM training, and dataset decoding."""

from __future__ import annotations

import fcntl
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data
from . import tensor as T
from .checkpoint import (ArrayFile, open_checkpoint, save_checkpoint, snapshot_teacher,
                         write_atomically)
from .config import ExperimentConfig, dump_config
from .data import (Batch, EditStats, ManifestEntry, Vocabulary, load_manifest,
                   make_batches, wer)
from .errors import ConfigError, FormatError, TrasrError
from .frontend import FeatureSequence, spec_augment
from .losses import (ce_label_smoothed, ctc_loss, ctc_min_frames, finetune_loss, joint_loss,
                     phi_schedule, skd_loss, teacher_entropy)
from .model import (EVAL_CTX, ForwardCtx, KVCache, ModelConfig, LMConfig, ctc_log_probs,
                    decode_forward, encode, encoder_layer_lengths, init_lm_params,
                    init_model_params, lm_forward, load_model_params)
from .optim import AdamState, ParameterStore, adam_step, warmup_lr
from .rng import StreamCache, stream
from .search import BeamConfig, CtcPrefixScorer, beam_search


class RunLock:
    """Exclusive ownership of an output directory: an advisory `flock` on
    `<out>/.lock`. The kernel drops it however its process ends, so the file
    a killed run leaves behind is simply taken by the next run."""

    def __init__(self, out_dir: Path):
        self.path = Path(out_dir) / ".lock"

    def __enter__(self):
        self.fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # a holder that was finishing may have unlinked the file we opened
            if os.path.samestat(os.fstat(self.fd), os.stat(self.path)):
                return self
        except OSError:
            pass
        os.close(self.fd)
        raise TrasrError(f"output directory locked by another run: {self.path}")

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)
        os.close(self.fd)


@dataclass
class EpochStats:
    l_ctc: float
    l_s2s: float
    l_skd: float
    total: float
    n_correct: int      # decoder argmax hits among n_positions target positions
    n_positions: int
    teacher_entropy: float

    @property
    def accuracy(self) -> float:
        return self.n_correct / max(1, self.n_positions)


def _shifted(token_lists) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Teacher-forcing rows, right-padded: sos + tokens as input [B, n],
    tokens + eos as next-token targets [B, n], and the mask of true positions."""
    width = 1 + max(len(ids) for ids in token_lists)
    inputs = np.full((len(token_lists), width), Vocabulary.PAD)
    targets = np.full_like(inputs, Vocabulary.PAD)
    for row, ids in enumerate(token_lists):
        inputs[row, : len(ids) + 1] = [Vocabulary.SOS, *ids]
        targets[row, : len(ids) + 1] = [*ids, Vocabulary.EOS]
    n_tokens = np.array([len(ids) for ids in token_lists])
    return inputs, targets, np.arange(width) <= n_tokens[:, None]


def batch_loss(batch: Batch, model_cfg: ModelConfig, params: ParameterStore,
               ctx: ForwardCtx, alpha: float, label_smoothing: float,
               phi: float = 0.0, teacher: ArrayFile | None = None,
               temperature: float = 1.0):
    """Combined loss over one padded batch, normalized by target-token counts:
    one forward (and, with a teacher, one no-grad teacher forward) for the
    whole batch, with every loss masked to each utterance's true lengths.
    The teacher runs first, so its transients, and each weight it reads from
    its file, are gone before the student's graph is built."""
    targets = [list(row[:n]) for row, n in zip(batch.targets, batch.target_lengths)]
    prefix, dec_targets, mask = _shifted(targets)
    if teacher is not None:
        with T.no_grad():
            t_xe, t_len = encode(batch.features, batch.feature_lengths, model_cfg, teacher)
            t_logits = decode_forward(prefix, t_xe, model_cfg, teacher, x_lengths=t_len).data
        t_logits = t_logits.reshape(-1, t_logits.shape[-1])

    x_e, x_len = encode(batch.features, batch.feature_lengths, model_cfg, params, ctx)
    l_ctc = ctc_loss(ctc_log_probs(x_e, params), targets, Vocabulary.BLANK, x_len)
    logits = decode_forward(prefix, x_e, model_cfg, params, ctx, mask.sum(axis=1), x_len)
    logits = T.reshape(logits, -1, logits.shape[-1])
    dec_targets, mask = dec_targets.ravel(), mask.ravel()
    l_s2s = ce_label_smoothed(logits, dec_targets, label_smoothing, mask)
    n_correct = int(((logits.data.argmax(axis=-1) == dec_targets) & mask).sum())

    n_ctc, n_pos = int(batch.target_lengths.sum()), int(mask.sum())
    l_ctc = l_ctc * (1.0 / max(1, n_ctc))
    l_s2s = l_s2s * (1.0 / n_pos)
    if teacher is not None:
        l_skd = skd_loss(t_logits, logits, mask, temperature) * (1.0 / n_pos)
        total = finetune_loss(l_ctc, l_s2s, l_skd, alpha, phi)
        skd_val = l_skd.item()
        ent = teacher_entropy(t_logits, mask, temperature)
    else:
        total = joint_loss(l_ctc, l_s2s, alpha)
        skd_val, ent = 0.0, 0.0
    stats = EpochStats(l_ctc.item(), l_s2s.item(), skd_val, total.item(), n_correct, n_pos, ent)
    return total, stats


def _pooled(batch_stats: list[EpochStats]) -> EpochStats:
    """Per-batch stats pooled over their target positions: each loss is the
    position-weighted mean, summed in float64 in batch order; counts add up."""
    sums = np.zeros(5)
    for s in batch_stats:
        sums += np.array([s.l_ctc, s.l_s2s, s.l_skd, s.total,
                          s.teacher_entropy]) * s.n_positions
    n_pos = sum(s.n_positions for s in batch_stats)
    l_ctc, l_s2s, l_skd, total, entropy = sums / n_pos
    return EpochStats(l_ctc, l_s2s, l_skd, total, sum(s.n_correct for s in batch_stats),
                      n_pos, entropy)


def evaluate(batches: list[Batch], model_cfg: ModelConfig, params: ParameterStore,
             alpha: float, label_smoothing: float) -> EpochStats:
    with T.no_grad():
        return _pooled([batch_loss(batch, model_cfg, params, EVAL_CTX, alpha,
                                   label_smoothing)[1] for batch in batches])


def _outside_alphabet(transcript: str, vocab: Vocabulary) -> str:
    """"" if every character of `transcript` is in the alphabet, else why it
    cannot train, naming the others (`tokenize` would map them to UNK)."""
    outside = dict.fromkeys(c for c, i in zip(transcript, vocab.tokenize(transcript))
                            if i == Vocabulary.UNK)
    if not outside:
        return ""
    return "transcript has characters outside data.alphabet: " + ", ".join(map(repr, outside))


def vet(entry: ManifestEntry, model_cfg: ModelConfig,
        vocab: Vocabulary | None = None) -> tuple[FeatureSequence | None, str]:
    """(the entry's features, "") if a run can use the utterance, else (None,
    why not), its feature file read once. In training (given the `vocab`),
    the transcript must keep to the alphabet. A file that cannot be read or
    whose frames are not `model_cfg.feature_dim` wide is named by its path.
    The encoder output needs one frame, and in training as many as the CTC
    target needs."""
    target = None
    if vocab is not None:
        reason = _outside_alphabet(entry.transcript, vocab)
        if reason:
            return None, reason
        target = vocab.tokenize(entry.transcript)
    try:
        # looked up in `data` at each call, so that a wrapper put on
        # `data.load_features` (perfbench's tracer) sees every read
        seq = data.load_features(entry.feature_path)
    except (FormatError, OSError) as err:
        return None, f"{entry.feature_path}: {err}"
    if seq.feature_dim != model_cfg.feature_dim:
        return None, (f"{entry.feature_path}: {seq.feature_dim} features per frame, "
                      f"the model takes {model_cfg.feature_dim}")
    n = encoder_layer_lengths(model_cfg, seq.length)[1]
    need, needer = (1, "decoding") if target is None else \
        (max(1, ctc_min_frames(target)), "the CTC target")
    if n < need:
        return None, f"{seq.length} input frames give {n} encoder frames, {needer} needs {need}"
    return seq, ""


def _batches(entries: list[ManifestEntry], model_cfg: ModelConfig, vocab: Vocabulary,
             batch_size: int, what: str, log) -> tuple[list[Batch], list[dict]]:
    """The batches of the entries `vet` accepts, and a {"utt_id", "reason"}
    record, logged, for each of the others, in manifest order."""
    kept, skipped = [], []
    for e in entries:
        seq, reason = vet(e, model_cfg, vocab)
        if seq is None:
            skipped.append({"utt_id": e.utt_id, "reason": reason})
            log(f"skipping {what} utterance {e.utt_id}: {reason}")
        else:
            kept.append((e, seq))
    if not kept:
        raise TrasrError(f"every {what} utterance was skipped, e.g. "
                         f"{skipped[0]['utt_id']}: {skipped[0]['reason']}")
    return make_batches(kept, vocab, batch_size), skipped


@contextmanager
def run_dir(cfg: ExperimentConfig, out_dir: Path, log: str):
    """`out_dir`, made and locked for one run, with the resolved config and the
    run's log `out_dir / log`, which starts empty (this run's lines only) and
    is written a line at a time: each verb writes a line as a unit of its work
    ends. Yields that log's open file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with RunLock(out_dir):
        (out_dir / "config.resolved").write_text(dump_config(cfg), encoding="utf-8")
        with open(out_dir / log, "w", buffering=1, newline="", encoding="utf-8") as fh:
            yield fh


def _step(params: ParameterStore, adam: AdamState, loss, where: str) -> None:
    """Adam's step on `loss`, which must be finite (`where` names it if not),
    through `adam_step` looked up at each call, as perfbench's tracer wraps it."""
    if not np.isfinite(loss.data):
        raise TrasrError("non-finite " + where)
    adam_step(params, adam, loss)


def run_training(cfg: ExperimentConfig, out_dir, mode: str = "plain",
                 init_checkpoint=None, log=print) -> list[dict]:
    """Train per `mode`: "plain" (joint loss), "skd" (self-distillation from
    scratch with the linear phi ramp), or "finetune" (FS-KD at fixed phi/lr).
    `phi_schedule` gives each epoch's phi; only while it is above 0 is the
    student copied as the teacher, at epoch 1 and every `kd.cadence` epochs,
    into an unnamed file in `out_dir`: the old one is closed before the next
    is written, and the last when the run ends, however it ends.

    Writes what `run_dir` does, per-epoch checkpoints (pruned to the best k
    by dev token accuracy) and, however the run ends, `best.json` naming the
    best k of the epochs done.
    """
    if mode not in ("plain", "skd", "finetune"):
        raise ValueError(f"unknown training mode {mode!r}")
    out_dir = Path(out_dir)
    if not cfg.train_manifest:
        raise ConfigError("paths.train_manifest is required for training")

    with run_dir(cfg, out_dir, "epochs.jsonl") as epochs:
        vocab = Vocabulary(cfg.alphabet)
        model_cfg = cfg.model
        batch_size = cfg.train.batch_size
        train_batches, skipped = _batches(load_manifest(cfg.train_manifest), model_cfg,
                                          vocab, batch_size, "training", log)
        dev_batches = train_batches
        if cfg.dev_manifest:
            dev_batches, dev_skipped = _batches(load_manifest(cfg.dev_manifest), model_cfg,
                                                vocab, batch_size, "dev", log)
            skipped += dev_skipped

        seed = cfg.train.seed
        if init_checkpoint is None:
            params = init_model_params(model_cfg, seed)
        else:
            with open_checkpoint(init_checkpoint) as init:
                params = load_model_params(model_cfg, init)

        if mode == "finetune":
            adam = AdamState(lambda step: cfg.train.finetune_lr)
            n_epochs = cfg.train.finetune_epochs
        else:
            adam = AdamState(lambda step: warmup_lr(step, cfg.train.lr_scale, model_cfg.d_att,
                                                    cfg.train.warmup_steps))
            n_epochs = cfg.train.epochs

        streams = StreamCache(seed)

        teacher = None
        records: list[dict] = []
        best: list[tuple[float, int, Path]] = []  # (accuracy, epoch, path), best first

        try:
            for epoch in range(1, n_epochs + 1):
                t0 = time.perf_counter()
                phi = phi_schedule(mode, epoch, n_epochs, cfg.kd.phi_final)
                if phi > 0.0 and (epoch - 1) % cfg.kd.cadence == 0:
                    if teacher is not None:
                        teacher.close()  # the old file goes before the new one is written
                    teacher = snapshot_teacher(params, out_dir)

                order = stream(seed, f"shuffle/epoch{epoch}").permutation(len(train_batches))
                batch_stats = []
                ctx = ForwardCtx(dropout=model_cfg.dropout, streams=streams)
                for b in order:
                    batch = train_batches[b]
                    if cfg.train.specaugment:
                        batch = _augment_batch(batch, cfg, streams)
                    total, stats = batch_loss(
                        batch, model_cfg, params, ctx, cfg.train.alpha,
                        cfg.train.label_smoothing, phi, teacher, cfg.kd.temperature)
                    _step(params, adam, total, f"loss at epoch {epoch}, batch of {batch.utt_ids}")
                    batch_stats.append(stats)

                train = _pooled(batch_stats)
                dev = evaluate(dev_batches, model_cfg, params, cfg.train.alpha,
                               cfg.train.label_smoothing)
                ckpt_path = out_dir / f"epoch{epoch:04d}.ckpt"
                save_checkpoint(ckpt_path, params.state_dict())

                record = {
                    "epoch": epoch,
                    "train_ctc": train.l_ctc,
                    "train_s2s": train.l_s2s,
                    "train_skd": train.l_skd,
                    "train_total": train.total,
                    "teacher_entropy": train.teacher_entropy,
                    "phi": phi,
                    "dev_loss": dev.total,
                    "dev_accuracy": dev.accuracy,
                    "checkpoint": ckpt_path.name,
                    "wall_time": time.perf_counter() - t0,
                }
                if skipped:
                    record["skipped"] = skipped
                records.append(record)
                epochs.write(json.dumps(record, sort_keys=True) + "\n")
                log(f"epoch {epoch}: loss {record['train_total']:.4f} "
                    f"dev_acc {dev.accuracy:.4f}")

                best.append((dev.accuracy, epoch, ckpt_path))
                best.sort(key=lambda x: (-x[0], x[1]))
                for entry in best[cfg.train.keep_best:]:  # out of the best k for good
                    if entry[2] != ckpt_path:  # this epoch's stays until the next ends
                        entry[2].unlink()
                        best.remove(entry)
        finally:
            if teacher is not None:
                teacher.close()
            best_paths = [p.name for _, _, p in best[: cfg.train.keep_best]]
            write_atomically(out_dir / "best.json", [json.dumps(best_paths).encode("utf-8")])
    return records


def _augment_batch(batch: Batch, cfg: ExperimentConfig, streams: StreamCache) -> Batch:
    feats = batch.features.copy()
    for i, utt_id in enumerate(batch.utt_ids):
        seq = FeatureSequence(feats[i], int(batch.feature_lengths[i]))
        aug = spec_augment(seq, streams.get(f"specaug/{utt_id}"),
                           n_freq_masks=cfg.train.freq_masks,
                           freq_mask_max=cfg.train.freq_mask_max,
                           n_time_masks=cfg.train.time_masks,
                           time_mask_max=cfg.train.time_mask_max)
        feats[i] = aug.features
    return replace(batch, features=feats)


# -- LM training -------------------------------------------------------------


def run_lm_training(cfg: ExperimentConfig, transcripts: list[str], out_dir,
                    log=print) -> list[dict]:
    """Train the decoder-only LM on next-token prediction over transcripts,
    skipping (and logging) each one with a character outside the alphabet.
    Writes what `run_dir` does and `lm.ckpt`."""
    out_dir = Path(out_dir)
    if not transcripts:
        raise ConfigError("no transcripts to train the LM on")
    vocab = Vocabulary(cfg.alphabet)
    tokenized = []
    for text in transcripts:
        reason = _outside_alphabet(text, vocab)
        if reason:
            log(f"skipping LM transcript {text!r}: {reason}")
        else:
            tokenized.append(vocab.tokenize(text))
    if not tokenized:
        raise TrasrError("every LM transcript was skipped: each has characters "
                         "outside data.alphabet")
    with run_dir(cfg, out_dir, "epochs.jsonl") as epochs:
        lm_cfg = cfg.lm
        seed = cfg.train.seed
        params = init_lm_params(lm_cfg, seed)
        adam = AdamState(lambda step: warmup_lr(step, cfg.lm_train.lr_scale, lm_cfg.d_att,
                                                cfg.lm_train.warmup_steps))
        streams = StreamCache(seed)
        records = []
        for epoch in range(1, cfg.lm_train.epochs + 1):
            order = stream(seed, f"lm-shuffle/epoch{epoch}").permutation(len(tokenized))
            ctx = ForwardCtx(dropout=lm_cfg.dropout, streams=streams)
            nll_sum, n_tok = 0.0, 0
            for start in range(0, len(order), cfg.lm_train.batch_size):
                chunk = [tokenized[j] for j in order[start:start + cfg.lm_train.batch_size]]
                prefix, targets, mask = _shifted(chunk)
                logits = lm_forward(prefix, lm_cfg, params, ctx, mask.sum(axis=1))
                total = ce_label_smoothed(T.reshape(logits, -1, logits.shape[-1]),
                                          targets.ravel(), 0.0, mask.ravel())
                n_pos = int(mask.sum())
                _step(params, adam, total * (1.0 / n_pos), f"LM loss at epoch {epoch}")
                nll_sum += total.item()
                n_tok += n_pos
            ppl = float(np.exp(nll_sum / n_tok))
            records.append({"epoch": epoch, "nll": nll_sum / n_tok, "perplexity": ppl})
            epochs.write(json.dumps(records[-1], sort_keys=True) + "\n")
            log(f"lm epoch {epoch}: ppl {ppl:.3f}")
        save_checkpoint(out_dir / "lm.ckpt", params.state_dict())
    return records


def lm_perplexity(transcripts, lm_cfg: LMConfig, params: ParameterStore,
                  alphabet: str) -> float:
    vocab = Vocabulary(alphabet)
    prefix, targets, mask = _shifted([vocab.tokenize(t) for t in transcripts])
    with T.no_grad():
        lp = T.log_softmax(lm_forward(prefix, lm_cfg, params), axis=-1).data
    picked = np.take_along_axis(lp, targets[..., None], axis=-1)[..., 0]
    return float(np.exp(-picked[mask].astype(np.float64).sum() / mask.sum()))


# -- decoding -----------------------------------------------------------------


@dataclass
class DecodeResult:
    utt_id: str
    reference: str
    hypothesis: str
    score: float
    finished: bool
    skipped: str = ""  # why the utterance was not decoded; its hypothesis is empty


def _cached_scorer(forward):
    """A beam scorer (prefixes [B, n], parents) -> last-position log-probs
    [B, V] over `forward(prefixes, cache)`, whose one KVCache follows the
    beam: before each step its rows are gathered by `parents`."""
    cache = KVCache()

    def score(prefixes, parents):
        with T.no_grad():
            if parents is not None:
                cache.select(parents)
            return T.log_softmax(forward(prefixes, cache), axis=-1).data[:, -1]
    return score


def decode_utterance(seq: FeatureSequence, model_cfg: ModelConfig,
                     params: ParameterStore, beam_cfg: BeamConfig, vocab: Vocabulary,
                     lm_cfg: LMConfig | None = None,
                     lm_params: ParameterStore | None = None):
    """The search result for one utterance. Every scorer the arguments allow
    is built; `beam_search` uses those that its weights ask for."""
    with T.no_grad():
        x_e, n = encode(seq.features[None], [seq.length], model_cfg, params)
        ctc_lp = ctc_log_probs(x_e, params).data[0]
    s2s_fn = _cached_scorer(lambda p, cache: decode_forward(p, x_e, model_cfg, params,
                                                             cache=cache))
    lm_fn = None if lm_params is None else \
        _cached_scorer(lambda p, cache: lm_forward(p, lm_cfg, lm_params, cache=cache))
    return beam_search(s2s_fn, beam_cfg, Vocabulary.SOS, Vocabulary.EOS,
                       vocab.character_ids(), int(n[0]),
                       ctc_scorer=CtcPrefixScorer(ctc_lp, blank_id=Vocabulary.BLANK),
                       lm_fn=lm_fn)


def decode_dataset(entries: list[ManifestEntry], model_cfg: ModelConfig,
                   params: ParameterStore, beam_cfg: BeamConfig, vocab: Vocabulary,
                   lm_cfg=None, lm_params=None, log=lambda s: None):
    results = []
    total = EditStats(0, 0, 0, 0, 0)
    for e in entries:
        seq, reason = vet(e, model_cfg)
        if seq is None:
            # an empty hypothesis: the reference words count as deletions
            result = DecodeResult(e.utt_id, e.transcript, "", -math.inf, True, reason)
        else:
            res = decode_utterance(seq, model_cfg, params, beam_cfg, vocab,
                                   lm_cfg=lm_cfg, lm_params=lm_params)
            result = DecodeResult(e.utt_id, e.transcript, vocab.detokenize(res.tokens),
                                  res.score, res.finished)
        results.append(result)
        total = total + wer(e.transcript, result.hypothesis)
        log(f"{e.utt_id}\t{result.hypothesis}")
    return results, total
