"""Training loops (pre-training, S-KD from scratch, FS-KD fine-tuning),
evaluation, LM training, and dataset decoding."""

from __future__ import annotations

import fcntl
import json
import math
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data
from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig
from .data import (Batch, EditStats, ManifestEntry, Vocabulary, load_manifest,
                   make_batches, wer)
from .errors import ConfigError, FormatError, TrasrError
from .frontend import FeatureSequence, spec_augment
from .losses import (ce_label_smoothed, ctc_loss, ctc_min_frames, finetune_loss, joint_loss,
                     phi_schedule, skd_loss, snapshot_teacher, teacher_entropy)
from .model import (EVAL_CTX, ForwardCtx, KVCache, ModelConfig, LMConfig, ctc_log_probs,
                    decode_forward, encode, encoder_layer_lengths, init_lm_params,
                    init_model_params, lm_forward)
from .optim import AdamState, ParameterStore, adam_step
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
               phi: float = 0.0, teacher: ParameterStore | None = None,
               temperature: float = 1.0):
    """Combined loss over one padded batch, normalized by target-token counts:
    one forward (and, with a teacher, one no-grad teacher forward) for the
    whole batch, with every loss masked to each utterance's true lengths.
    The teacher runs first, so its transients are gone before the student's
    graph is built."""
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
    return total, stats, n_pos


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


def vet(entry: ManifestEntry, model_cfg: ModelConfig,
        target: list[int] | None = None) -> tuple[FeatureSequence | None, str]:
    """(the entry's features, "") if a run can use the utterance, else (None,
    why not), its feature file read once. A file that cannot be read or whose
    frames are not `model_cfg.feature_dim` wide is named by its path. The
    encoder output needs one frame, and in training (given the `target`) as
    many as the CTC target needs."""
    try:
        # looked up in `data` at each call, so that a wrapper put on
        # `data.load_features` (perfbench's tracer) sees every read
        seq = data.load_features(entry.feature_path)
    except FormatError as err:
        return None, f"{entry.feature_path}: {err}"
    if seq.feature_dim != model_cfg.feature_dim:
        return None, (f"{entry.feature_path}: {seq.feature_dim} features per frame, "
                      f"the model takes {model_cfg.feature_dim}")
    n = encoder_layer_lengths(model_cfg, seq.length)[2]
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
        seq, reason = vet(e, model_cfg, vocab.tokenize(e.transcript))
        if seq is None:
            skipped.append({"utt_id": e.utt_id, "reason": reason})
            log(f"skipping {what} utterance {e.utt_id}: {reason}")
        else:
            kept.append((e, seq))
    if not kept:
        raise TrasrError(f"every {what} utterance was skipped (unreadable, of the wrong "
                         f"width or too short for the model)")
    return make_batches(kept, vocab, batch_size), skipped


def _record_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def run_training(cfg: ExperimentConfig, out_dir, mode: str = "plain",
                 init_checkpoint=None, log=print) -> list[dict]:
    """Train per `mode`: "plain" (joint loss), "skd" (self-distillation from
    scratch with the linear phi ramp), or "finetune" (FS-KD at fixed phi/lr).

    Writes the resolved config, per-epoch checkpoints (pruned to the best k
    by dev token accuracy), and an append-only JSONL epoch log.
    """
    from .config import dump_config

    if mode not in ("plain", "skd", "finetune"):
        raise ValueError(f"unknown training mode {mode!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not cfg.train_manifest:
        raise ConfigError("paths.train_manifest is required for training")

    with RunLock(out_dir):
        (out_dir / "config.resolved").write_text(dump_config(cfg), encoding="utf-8")
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
        params = init_model_params(model_cfg, seed)
        if init_checkpoint is not None:
            params.load_state_dict(load_checkpoint(init_checkpoint))

        if mode == "finetune":
            adam = AdamState(fixed_lr=cfg.train.finetune_lr)
            n_epochs = cfg.train.finetune_epochs
            kd = replace(cfg.kd, total_epochs=n_epochs, mode="fixed")
        else:
            adam = AdamState(scale=cfg.train.lr_scale, d_att=model_cfg.d_att,
                             warmup_steps=cfg.train.warmup_steps)
            n_epochs = cfg.train.epochs
            kd = cfg.kd

        streams = StreamCache(seed)

        teacher = None
        records: list[dict] = []
        best: list[tuple[float, int, Path]] = []  # (accuracy, epoch, path)
        record_path = out_dir / "epochs.jsonl"

        for epoch in range(1, n_epochs + 1):
            t0 = time.perf_counter()
            phi = 0.0
            if mode != "plain":
                phi = phi_schedule(epoch, kd)
                if (epoch - 1) % kd.cadence == 0:
                    teacher = None  # the old copy goes before the new one is made
                    teacher = snapshot_teacher(params)

            order = stream(seed, f"shuffle/epoch{epoch}").permutation(len(train_batches))
            batch_stats = []
            ctx = ForwardCtx(train=True, dropout=model_cfg.dropout, streams=streams)
            for b in order:
                batch = train_batches[b]
                batch_in = batch
                if cfg.train.specaugment:
                    batch_in = _augment_batch(batch, cfg, streams)
                total, stats, _ = batch_loss(
                    batch_in, model_cfg, params, ctx, cfg.train.alpha,
                    cfg.train.label_smoothing, phi=phi,
                    teacher=teacher if phi > 0.0 else None,
                    temperature=kd.temperature)
                if not np.isfinite(total.data):
                    raise TrasrError(
                        f"non-finite loss at epoch {epoch}, batch of {batch.utt_ids}")
                adam_step(params, adam, total)
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
            with open(record_path, "a", encoding="utf-8") as fh:
                fh.write(_record_line(record) + "\n")
            log(f"epoch {epoch}: loss {record['train_total']:.4f} "
                f"dev_acc {dev.accuracy:.4f}")

            best.append((dev.accuracy, epoch, ckpt_path))
            best.sort(key=lambda x: (-x[0], x[1]))
            keep = {p for _, _, p in best[: cfg.train.keep_best]} | {ckpt_path}
            for _, _, p in best[cfg.train.keep_best:]:
                if p not in keep and p.exists():
                    p.unlink()

        best_paths = [p.name for _, _, p in best[: cfg.train.keep_best] if p.exists()]
        (out_dir / "best.json").write_text(json.dumps(best_paths), encoding="utf-8")
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
    return Batch(batch.utt_ids, feats, batch.feature_lengths,
                 batch.targets, batch.target_lengths)


# -- LM training -------------------------------------------------------------


def run_lm_training(cfg: ExperimentConfig, transcripts: list[str], out_dir,
                    log=print) -> list[dict]:
    """Train the decoder-only LM on next-token prediction over transcripts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not transcripts:
        raise ConfigError("no transcripts to train the LM on")
    vocab = Vocabulary(cfg.alphabet)
    lm_cfg = cfg.lm
    seed = cfg.train.seed
    params = init_lm_params(lm_cfg, seed)
    adam = AdamState(scale=cfg.lm_train.lr_scale, d_att=lm_cfg.d_att,
                     warmup_steps=cfg.lm_train.warmup_steps)
    streams = StreamCache(seed)
    tokenized = [vocab.tokenize(t) for t in transcripts]
    records = []
    for epoch in range(1, cfg.lm_train.epochs + 1):
        order = stream(seed, f"lm-shuffle/epoch{epoch}").permutation(len(tokenized))
        ctx = ForwardCtx(train=True, dropout=lm_cfg.dropout, streams=streams)
        nll_sum, n_tok = 0.0, 0
        for start in range(0, len(order), cfg.lm_train.batch_size):
            chunk = [tokenized[j] for j in order[start:start + cfg.lm_train.batch_size]]
            prefix, targets, mask = _shifted(chunk)
            logits = lm_forward(prefix, lm_cfg, params, ctx, mask.sum(axis=1))
            total = ce_label_smoothed(T.reshape(logits, -1, logits.shape[-1]),
                                      targets.ravel(), 0.0, mask.ravel())
            n_pos = int(mask.sum())
            loss = total * (1.0 / n_pos)
            if not np.isfinite(loss.data):
                raise TrasrError(f"non-finite LM loss at epoch {epoch}")
            adam_step(params, adam, loss)
            nll_sum += total.item()
            n_tok += n_pos
        ppl = float(np.exp(nll_sum / n_tok))
        records.append({"epoch": epoch, "nll": nll_sum / n_tok, "perplexity": ppl})
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
    with T.no_grad():
        x_e, n = encode(seq.features[None], [seq.length], model_cfg, params)
        ctc_lp = ctc_log_probs(x_e, params).data[0]
    scorer = CtcPrefixScorer(ctc_lp, blank_id=Vocabulary.BLANK) \
        if beam_cfg.ctc_weight > 0 else None
    s2s_fn = _cached_scorer(lambda p, cache: decode_forward(p, x_e, model_cfg, params,
                                                             cache=cache))
    lm_fn = None
    if beam_cfg.lm_weight != 0.0 and lm_params is not None:
        lm_fn = _cached_scorer(lambda p, cache: lm_forward(p, lm_cfg, lm_params,
                                                           cache=cache))
    return beam_search(s2s_fn, beam_cfg, Vocabulary.SOS, Vocabulary.EOS,
                       vocab.character_ids(), int(n[0]), ctc_scorer=scorer, lm_fn=lm_fn)


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
