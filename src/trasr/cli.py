"""Command-line entry points.

Verbs: train, train-skd, finetune-skd, decode, average, train-lm,
benchmark, synth-data. Exit codes: 0 success, 2 configuration error,
3 runtime error, running out of memory, or interruption (SIGINT or SIGTERM).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import signal
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import average_checkpoints, open_checkpoint, save_checkpoint, write_atomically
from .config import ExperimentConfig, load_config, resolve, unquote
from .data import (SyntheticTaskSpec, Vocabulary, load_manifest, synth_generate,
                   token_templates)
from .errors import ConfigError, TrasrError
from .frontend import KINDS, minimum_input_length
from .model import (MacCounter, ForwardCtx, ModelConfig, count_attention_macs,
                    encode, init_model_params, load_model_params)
from .training import decode_dataset, run_dir, run_lm_training, run_training

# what `decode --greedy` sets, after `--set`, so that `config.resolved` records it
GREEDY = ("decode.beam_size=1", "decode.ctc_weight=0", "decode.lm_weight=0",
          "decode.insertion_penalty=0")


def _load_cfg(args, *after_set: str) -> ExperimentConfig:
    overrides = {}
    for item in [*(getattr(args, "set", None) or []), *after_set]:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        k, _, v = item.partition("=")
        overrides[k.strip()] = unquote(v)
    if getattr(args, "seed", None) is not None:
        overrides["train.seed"] = str(args.seed)
    if args.config:
        return load_config(args.config, overrides)
    return resolve({}, overrides)


def _common(p: argparse.ArgumentParser):
    p.add_argument("--config", type=Path, default=None, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None, help="override train.seed")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a single config key (repeatable)")


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    run_training(cfg, args.out, mode=args.mode, init_checkpoint=getattr(args, "init", None))
    return 0


def cmd_decode(args) -> int:
    # `--lm-checkpoint` is set after `--set`, as `--greedy` is
    lm_flag = [f"paths.lm_checkpoint={args.lm_checkpoint}"] if args.lm_checkpoint else []
    cfg = _load_cfg(args, *(GREEDY if args.greedy else ()), *lm_flag)
    lm_params = None
    if cfg.decode.lm_weight != 0.0:
        if not cfg.lm_checkpoint:
            raise ConfigError("decode.lm_weight != 0 but no LM checkpoint given; "
                              "pass --lm-checkpoint or set decode.lm_weight = 0")
        with open_checkpoint(cfg.lm_checkpoint) as lm:
            lm_params = load_model_params(cfg.lm, lm)

    vocab = Vocabulary(cfg.alphabet)
    with open_checkpoint(args.checkpoint) as ckpt:
        params = load_model_params(cfg.model, ckpt)
    entries = load_manifest(args.manifest)

    with run_dir(cfg, args.out, "hyps.tsv") as hyps:
        results, totals = decode_dataset(entries, cfg.model, params, cfg.decode, vocab,
                                         lm_cfg=cfg.lm, lm_params=lm_params,
                                         log=lambda line: hyps.write(line + "\n"))
        report = {
            "utterances": len(results),
            "wer": totals.rate,
            "errors": totals.errors,
            "substitutions": totals.substitutions,
            "insertions": totals.insertions,
            "deletions": totals.deletions,
            "ref_words": totals.ref_length,
            "unfinished": sum(not r.finished for r in results),
            "skipped": [{"utt_id": r.utt_id, "reason": r.skipped} for r in results if r.skipped],
        }
        write_atomically(args.out / "report.json", [json.dumps(report, indent=2).encode("utf-8")])
    print(f"WER {100 * totals.rate:.2f}% "
          f"(S={totals.substitutions} I={totals.insertions} D={totals.deletions} "
          f"over {totals.ref_length} words)")
    if len(report["skipped"]) == len(results):
        raise TrasrError(f"every utterance was skipped, e.g. {results[0].utt_id}: "
                         f"{results[0].skipped}")
    return 0


def cmd_average(args) -> int:
    save_checkpoint(args.out, average_checkpoints(args.checkpoints))
    print(f"averaged {len(args.checkpoints)} checkpoints -> {args.out}")
    return 0


def cmd_train_lm(args) -> int:
    cfg = _load_cfg(args)
    entries = load_manifest(args.manifest)
    run_lm_training(cfg, [e.transcript for e in entries], args.out)
    return 0


def _check_flags(*checks) -> None:
    """A config error naming the flag of the first (ok, flag, rule, value)
    whose `ok` is false."""
    for ok, flag, rule, value in checks:
        if not ok:
            raise ConfigError(f"{flag} {rule}, got {value}")


def cmd_synth_data(args) -> int:
    ranges = (("--frames-per-token", args.frames_per_token), ("--words", args.words),
              ("--word-len", args.word_len))
    _check_flags(
        (args.n_utterances >= 1, "--n-utterances", "must be >= 1", args.n_utterances),
        (args.feature_dim >= 1, "--feature-dim", "must be >= 1", args.feature_dim),
        *((1 <= lo <= hi, flag, "takes MIN MAX with 1 <= MIN <= MAX", f"{lo} {hi}")
          for flag, (lo, hi) in ranges),
        (math.isfinite(args.noise_std) and args.noise_std >= 0, "--noise-std",
         "must be finite and >= 0", args.noise_std),
        (args.alphabet.strip(" "), "--alphabet", "needs a character other than a space",
         repr(args.alphabet)),
        (args.words[1] == 1 or " " in args.alphabet, "--alphabet",
         "needs a space to join the words of an utterance", repr(args.alphabet)))
    spec = SyntheticTaskSpec(alphabet=args.alphabet, feature_dim=args.feature_dim,
                             frames_per_token=tuple(args.frames_per_token),
                             noise_std=args.noise_std)
    try:
        token_templates(spec)
    except ValueError as e:
        raise ConfigError(f"--feature-dim {args.feature_dim} is too small for "
                          f"--alphabet {args.alphabet!r}: {e}") from e
    manifest = synth_generate(spec, args.out, args.n_utterances,
                              words_range=tuple(args.words),
                              word_len_range=tuple(args.word_len), seed=args.seed or 0)
    print(f"wrote {args.n_utterances} utterances, manifest at {manifest}")
    return 0


ARCHES = ("no-tr", "tr0", "tr2", "pyramidal")


def _arch_config(base: ModelConfig, arch: str, frontend_kind: str) -> ModelConfig:
    total = base.num_encoder_layers
    layout = {
        "no-tr": dict(e1=0, e2=total, reduction="none"),
        "tr0": dict(e1=0, e2=total, reduction="tr"),
        "tr2": dict(e1=2, e2=total - 2, reduction="tr"),
        "pyramidal": dict(e1=0, e2=total, reduction="pyramidal"),
    }
    return replace(base, frontend=frontend_kind, dropout=0.0, **layout[arch])


def _cell(cfg: ExperimentConfig, length: int, arch: str, kind: str,
          repetitions: int) -> dict:
    try:
        mcfg = _arch_config(cfg.model, arch, kind)
    except ValueError:  # too few encoder layers for this layout
        return {"length": length, "arch": arch, "frontend": kind,
                "measured_macs": None, "median_ms": None, "note": "not applicable"}
    analytic = count_attention_macs(mcfg, length)
    cell = {"length": length, "arch": arch, "frontend": kind,
            "analytic_total_macs": analytic["total_macs"],
            "analytic_score_macs": analytic["score_macs"],
            "final_length": analytic["final_length"]}
    if length < minimum_input_length(kind) or analytic["final_length"] < 1:
        return {**cell, "measured_macs": None, "median_ms": None, "note": "too short"}
    params = init_model_params(mcfg, cfg.train.seed)
    feats = np.random.default_rng(0).normal(
        size=(1, length, mcfg.feature_dim)).astype(np.float32)
    times = []
    measured = None
    for _ in range(repetitions):
        counter = MacCounter()
        t0 = time.perf_counter()
        with T.no_grad():
            encode(feats, [length], mcfg, params, ForwardCtx(counter=counter))
        times.append((time.perf_counter() - t0) * 1e3)
        measured = counter.total
    return {**cell, "measured_macs": measured, "median_ms": statistics.median(times),
            "note": ""}


def benchmark_cells(cfg: ExperimentConfig, lengths: list[int], repetitions: int = 10,
                    log=lambda cell: None) -> list[dict]:
    """Analytic vs measured attention MACs and wall-clock medians per cell,
    each passed to `log` as it ends."""
    cells = []
    for length in lengths:
        for arch in ARCHES:
            for kind in KINDS:
                cells.append(_cell(cfg, length, arch, kind, repetitions))
                log(cells[-1])
    return cells


def cmd_benchmark(args) -> int:
    _check_flags((min(args.lengths) >= 1, "--lengths", "must each be >= 1", args.lengths),
                 (args.repetitions >= 1, "--repetitions", "must be >= 1", args.repetitions))
    cfg = _load_cfg(args)
    fields = ["length", "arch", "frontend", "final_length", "analytic_total_macs",
              "analytic_score_macs", "measured_macs", "median_ms", "note"]
    with run_dir(cfg, args.out, "benchmark.csv") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        cells = benchmark_cells(cfg, args.lengths, repetitions=args.repetitions,
                                log=writer.writerow)
    header = f"{'len':>5} {'arch':<10} {'frontend':<12} {'macs':>14} {'ms':>9}"
    print(header)
    print("-" * len(header))
    mismatches = 0
    for c in cells:
        if c["measured_macs"] is None:
            print(f"{c['length']:>5} {c['arch']:<10} {c['frontend']:<12} "
                  f"{c['note']:>14} {'-':>9}")
            continue
        if c["measured_macs"] != c["analytic_total_macs"]:
            mismatches += 1
        print(f"{c['length']:>5} {c['arch']:<10} {c['frontend']:<12} "
              f"{c['measured_macs']:>14} {c['median_ms']:>9.2f}")
    if mismatches:
        raise TrasrError(f"{mismatches} cells where measured MACs != analytic count")
    print(f"all measured MAC counts match the analytic formula "
          f"({sum(c['measured_macs'] is not None for c in cells)} cells)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trasr",
                                     description="Desk-scale Transformer ASR with "
                                                 "time reduction and self-distillation")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("train", help="pre-train with the joint CTC/attention loss")
    _common(p)
    p.set_defaults(fn=cmd_train, mode="plain")

    p = sub.add_parser("train-skd", help="train from scratch with self-distillation")
    _common(p)
    p.set_defaults(fn=cmd_train, mode="skd")

    p = sub.add_parser("finetune-skd", help="fine-tune a checkpoint with self-distillation")
    _common(p)
    p.add_argument("--init", type=Path, required=True, help="initial checkpoint")
    p.set_defaults(fn=cmd_train, mode="finetune")

    p = sub.add_parser("decode", help="beam-search decode a manifest")
    _common(p)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--lm-checkpoint", type=Path, default=None)
    p.add_argument("--greedy", action="store_true",
                   help="beam 1, no CTC/LM/penalty terms")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("average", help="average checkpoints parameter-wise")
    p.add_argument("--out", type=Path, required=True, help="output checkpoint path")
    p.add_argument("checkpoints", nargs="+", type=Path)
    p.set_defaults(fn=cmd_average)

    p = sub.add_parser("train-lm", help="train the shallow-fusion language model")
    _common(p)
    p.add_argument("--manifest", type=Path, required=True,
                   help="manifest providing transcripts")
    p.set_defaults(fn=cmd_train_lm)

    p = sub.add_parser("benchmark", help="attention-cost benchmark across architectures")
    _common(p)
    p.add_argument("--lengths", type=int, nargs="+", required=True)
    p.add_argument("--repetitions", type=int, default=10)
    p.set_defaults(fn=cmd_benchmark)

    p = sub.add_parser("synth-data", help="generate a synthetic dataset")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-utterances", type=int, default=50)
    p.add_argument("--alphabet", type=str, default="abcdefgh ")
    p.add_argument("--feature-dim", type=int, default=40)
    p.add_argument("--frames-per-token", type=int, nargs=2, default=(4, 8))
    p.add_argument("--words", type=int, nargs=2, default=(1, 3))
    p.add_argument("--word-len", type=int, nargs=2, default=(2, 4))
    p.add_argument("--noise-std", type=float, default=0.05)
    p.set_defaults(fn=cmd_synth_data)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # while the verb runs, SIGTERM interrupts it as SIGINT does, so that each
    # `finally` and cleanup on the way out runs (training writes `best.json`)
    sigterm = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (TrasrError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 3
    finally:
        signal.signal(signal.SIGTERM, sigterm)


if __name__ == "__main__":
    sys.exit(main())
