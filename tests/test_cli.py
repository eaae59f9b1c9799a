"""End-to-end command-line workflows and exit codes."""

import argparse
import csv
import hashlib
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import trasr
import trasr.cli as cli
import trasr.training as training
from trasr.checkpoint import load_checkpoint
from trasr.cli import _load_cfg, build_parser, main
from trasr.config import KEYS, load_config
from trasr.data import (SyntheticTaskSpec, load_features, load_manifest, save_features,
                        token_templates)
from trasr.frontend import FeatureSequence
from trasr.training import RunLock

from conftest import refuse_init_draws

ALPHABET = "abcd "

TINY = [
    "--set", f"data.alphabet={ALPHABET}",
    "--set", "model.d_att=16", "--set", "model.d_ff=32", "--set", "model.heads=2",
    "--set", "model.e1=1", "--set", "model.e2=1", "--set", "model.dec_layers=1",
    "--set", "model.dropout=0.0", "--set", "model.feature_dim=16",
    "--set", "train.epochs=2", "--set", "train.batch_size=3",
    "--set", "train.lr_scale=0.5", "--set", "train.warmup_steps=100",
    "--set", "train.specaugment=false", "--set", "train.label_smoothing=0.0",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-data")
    rc = main(["synth-data", "--out", str(out), "--n-utterances", "6",
               "--alphabet", ALPHABET, "--feature-dim", "16",
               "--frames-per-token", "16", "20", "--words", "1", "1",
               "--word-len", "2", "3", "--seed", "0"])
    assert rc == 0
    return out / "manifest.tsv"


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-train")
    rc = main(["train", "--out", str(out),
               "--set", f"paths.train_manifest={dataset}"] + TINY)
    assert rc == 0
    return out


# -- synth-data -------------------------------------------------------------


def test_synth_data_writes_manifest_and_features(dataset):
    entries = load_manifest(dataset)
    assert len(entries) == 6
    assert all(e.feature_path.exists() for e in entries)


def test_synth_data_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert main(["synth-data", "--out", str(tmp_path / sub), "--n-utterances", "3",
                     "--seed", "5"]) == 0
    for e1, e2 in zip(load_manifest(tmp_path / "a" / "manifest.tsv"),
                      load_manifest(tmp_path / "b" / "manifest.tsv")):
        assert e1.transcript == e2.transcript
        assert e1.feature_path.read_bytes() == e2.feature_path.read_bytes()


def _cli_env() -> dict:
    """The environment of a `trasr` subprocess that imports this trasr."""
    src = Path(trasr.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def _cli(argv, timeout=30):
    """`trasr argv` in a subprocess, so that a hang fails at the timeout."""
    return subprocess.run([sys.executable, "-m", "trasr.cli", *argv], env=_cli_env(),
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("flags", [
    ["--feature-dim", "0"], ["--feature-dim", "1"], ["--feature-dim", "2"],
    ["--words", "0", "0"], ["--frames-per-token", "0", "0"], ["--word-len", "3", "2"],
    ["--alphabet", ""], ["--n-utterances", "0"], ["--noise-std", "-1"],
    ["--noise-std", "nan"],
], ids=" ".join)
def test_synth_data_out_of_range_exit_2(tmp_path, flags):
    done = _cli(["synth-data", "--out", str(tmp_path / "data"), *flags])
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("config error: ") and flags[0] in done.stderr
    assert not (tmp_path / "data" / "manifest.tsv").exists()


@pytest.mark.parametrize("flags", [["--lengths", "0"], ["--lengths", "16", "-4"],
                                   ["--lengths", "16", "--repetitions", "0"]], ids=" ".join)
def test_benchmark_out_of_range_exit_2(tmp_path, flags):
    done = _cli(["benchmark", "--out", str(tmp_path / "bench"), *flags])
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("config error: ") and flags[-2] in done.stderr
    assert not (tmp_path / "bench" / "benchmark.csv").exists()


@pytest.mark.parametrize("dim, digest", [
    (3, "28411f36107f8f646c530ec13c5cf9021a45bddcd956c03cb3bd35c891db094e"),
    (40, "596054ba7d6e8bc5580f7c3b479181908042d9007bd73056a27db01cd49fc9d5")])
def test_synth_data_templates_keep_their_draws(dim, digest):
    """Bounding the template draws leaves the templates of a dimension that
    has room for them as they were (digests taken before the bound)."""
    t = token_templates(SyntheticTaskSpec(feature_dim=dim))
    assert list(t) == list("abcdefgh ")
    assert hashlib.sha256(b"".join(v.tobytes() for v in t.values())).hexdigest() == digest


# -- train ------------------------------------------------------------------


def test_train_writes_run_artifacts(trained):
    assert (trained / "config.resolved").exists()
    assert (trained / "epochs.jsonl").exists()
    assert (trained / "epoch0002.ckpt").exists()
    assert (trained / "best.json").exists()


def test_seed_flag_overrides_config(dataset, tmp_path):
    rc = main(["train", "--out", str(tmp_path / "run"), "--seed", "42",
               "--set", f"paths.train_manifest={dataset}"] + TINY)
    assert rc == 0
    text = (tmp_path / "run" / "config.resolved").read_text()
    assert "train.seed = 42" in text


def test_unknown_config_key_exit_2(tmp_path):
    assert main(["train", "--out", str(tmp_path / "run"),
                 "--set", "model.depth=3"]) == 2


@pytest.mark.parametrize("kv", ["model.tr_enabled=false", "model.pyramidal=true",
                                "model.post_norm=true", "kd.mode=fixed"])
def test_removed_key_exit_2(dataset, tmp_path, capsys, kv):
    assert main(["train", "--out", str(tmp_path / "run"),
                 "--set", f"paths.train_manifest={dataset}"] + TINY + ["--set", kv]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [["model.reduction=bogus"],
                                 ["model.reduction=pyramidal", "model.e1=0", "model.e2=2"]])
def test_bad_reduction_exit_2(dataset, tmp_path, capsys, bad):
    sets = [arg for kv in bad for arg in ("--set", kv)]
    assert main(["train", "--out", str(tmp_path / "run"),
                 "--set", f"paths.train_manifest={dataset}"] + TINY + sets) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_out_of_range_value_exit_2(dataset, tmp_path, capsys):
    assert main(["train-skd", "--out", str(tmp_path / "run"),
                 "--set", f"paths.train_manifest={dataset}"] + TINY
                + ["--set", "kd.temperature=0"]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [["model.d_att=7", "model.heads=1"], ["model.d_ff=0"],
                                 ["model.feature_dim=0"], ["train.epochs=0"]])
def test_width_or_epochs_out_of_range_exit_2(dataset, tmp_path, capsys, bad):
    sets = [arg for kv in bad for arg in ("--set", kv)]
    assert main(["train", "--out", str(tmp_path / "run"),
                 "--set", f"paths.train_manifest={dataset}"] + TINY + sets) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_config_file_that_is_not_utf8_exits_2_before_out_is_made(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"model.d_att = 64 \xff\n")
    done = _cli(["train", "--out", str(tmp_path / "run"), "--config", str(cfg_file)])
    assert done.returncode == 2, done.stderr
    assert done.stderr == (f"config error: config file {cfg_file} is not UTF-8: "
                           "byte 0xff at offset 17\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kind, reason", [("missing", "No such file or directory"),
                                          ("directory", "Is a directory")])
def test_a_config_file_that_cannot_be_read_exits_2_before_out_is_made(tmp_path, kind, reason):
    cfg_file = tmp_path / "run.cfg"
    if kind == "directory":
        cfg_file.mkdir()
    done = _cli(["train", "--out", str(tmp_path / "run"), "--config", str(cfg_file)])
    assert done.returncode == 2, done.stderr
    assert done.stderr == f"config error: config file {cfg_file} cannot be read: {reason}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("verb, flags, key", [
    # argv bytes that are not UTF-8 reach Python as lone surrogates
    ("train", ["--set", "data.alphabet=ab\udcff"], "data.alphabet"),
    ("decode", ["--checkpoint", "m.ckpt", "--manifest", "m.tsv",
                "--lm-checkpoint", "lm\udcff.ckpt"], "paths.lm_checkpoint"),
])
def test_a_value_that_is_not_utf8_exits_2_before_out_is_made(tmp_path, verb, flags, key):
    done = _cli([verb, "--out", str(tmp_path / "run"), *flags])
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(f"config error: {key} must be UTF-8 text, got ")
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ['abcdefgh ', '"abcdefgh "', "'abcdefgh '"])
def test_set_keeps_whitespace_like_config_file(tmp_path, value):
    # --set data.alphabet="abcdefgh " reaches argv as 'abcdefgh '; quotes kept by
    # the shell are dropped as in a config file
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text('data.alphabet = "abcdefgh "\n', encoding="utf-8")
    via_file = _load_cfg(build_parser().parse_args(
        ["train", "--out", str(tmp_path), "--config", str(cfg_file)]))
    via_set = _load_cfg(build_parser().parse_args(
        ["train", "--out", str(tmp_path), "--set", f"data.alphabet={value}"]))
    assert via_set.alphabet == via_file.alphabet == "abcdefgh "
    assert via_set.vocab_size == via_file.vocab_size == 14


def test_missing_manifest_config_exit_2(tmp_path):
    assert main(["train", "--out", str(tmp_path / "run")] + TINY) == 2


def test_a_train_manifest_that_does_not_exist_exits_3(tmp_path, capsys):
    # the key is set, so the configuration is whole; the file it names is data,
    # found missing as the run reads it, as a missing decode --manifest is
    manifest = tmp_path / "nope.tsv"
    assert main(["train", "--out", str(tmp_path / "run"),
                 "--set", f"paths.train_manifest={manifest}"] + TINY) == 3
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")


def test_locked_out_dir_exit_3(dataset, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    with RunLock(out):
        rc = main(["train", "--out", str(out),
                   "--set", f"paths.train_manifest={dataset}"] + TINY)
    assert rc == 3


LM_TINY = ["--set", f"data.alphabet={ALPHABET}", "--set", "lm.layers=1",
           "--set", "lm.d_att=16", "--set", "lm.d_ff=32", "--set", "lm.heads=2"]


def _trainer_argv(verb, out, dataset, trained):
    """The flags of a tiny run of the training verb `verb` into `out`."""
    if verb == "train-lm":
        return ["train-lm", "--out", str(out), "--manifest", str(dataset)] + LM_TINY
    init = ["--init", str(trained / "epoch0002.ckpt")] if verb == "finetune-skd" else []
    return [verb, "--out", str(out), "--set", f"paths.train_manifest={dataset}",
            *init] + TINY


@pytest.mark.parametrize("verb", ["train", "train-skd", "finetune-skd", "train-lm"])
def test_every_trainer_exits_3_into_a_held_directory_and_changes_nothing(
        dataset, trained, tmp_path, verb):
    out = tmp_path / "run"
    out.mkdir()
    before = {name: f"{name} of an earlier run\n" for name in
              ("config.resolved", "epochs.jsonl", "best.json", "lm.ckpt", "epoch0001.ckpt")}
    for name, text in before.items():
        (out / name).write_text(text)
    with RunLock(out):
        assert main(_trainer_argv(verb, out, dataset, trained)) == 3
    assert {p.name: p.read_text() for p in out.iterdir()} == before


BENCH_TINY = ["--set", "model.d_att=16", "--set", "model.d_ff=32", "--set", "model.heads=2",
              "--set", "model.e1=1", "--set", "model.e2=2", "--set", "model.dec_layers=1",
              "--set", "model.feature_dim=16", "--set", f"data.alphabet={ALPHABET}"]


@pytest.mark.parametrize("verb", ["decode", "benchmark"])
def test_decode_and_benchmark_exit_3_into_a_held_directory_and_change_nothing(
        dataset, trained, tmp_path, verb):
    out = tmp_path / "run"
    out.mkdir()
    before = {name: f"{name} of an earlier run\n" for name in
              ("config.resolved", "hyps.tsv", "report.json", "benchmark.csv")}
    for name, text in before.items():
        (out / name).write_text(text)
    argv = {"decode": ["decode", "--out", str(out), "--checkpoint",
                       str(trained / "epoch0002.ckpt"), "--manifest", str(dataset),
                       "--greedy"] + TINY,
            "benchmark": ["benchmark", "--out", str(out), "--lengths", "64",
                          "--repetitions", "1"] + BENCH_TINY}[verb]
    with RunLock(out):
        assert main(argv) == 3
    assert {p.name: p.read_text() for p in out.iterdir()} == before


def test_dead_pid_lock_is_taken_over(dataset, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    (out / ".lock").write_text(f"{proc.pid}\n")
    rc = main(["train", "--out", str(out),
               "--set", f"paths.train_manifest={dataset}"] + TINY)
    assert rc == 0
    assert not (out / ".lock").exists()


def test_train_skd_phi_zero_matches_plain(dataset, trained, tmp_path):
    rc = main(["train-skd", "--out", str(tmp_path / "skd"),
               "--set", f"paths.train_manifest={dataset}",
               "--set", "kd.phi_final=0.0"] + TINY)
    assert rc == 0
    a = load_checkpoint(trained / "epoch0002.ckpt")
    b = load_checkpoint(tmp_path / "skd" / "epoch0002.ckpt")
    for name in a:
        assert np.array_equal(a[name], b[name])


def test_finetune_skd_runs_from_checkpoint(dataset, trained, tmp_path):
    rc = main(["finetune-skd", "--out", str(tmp_path / "ft"),
               "--init", str(trained / "epoch0002.ckpt"),
               "--set", f"paths.train_manifest={dataset}",
               "--set", "train.finetune_epochs=1",
               "--set", "kd.phi_final=0.5"] + TINY)
    assert rc == 0
    records = [json.loads(l) for l in
               (tmp_path / "ft" / "epochs.jsonl").read_text().splitlines()]
    assert len(records) == 1
    assert records[0]["phi"] == 0.5


def test_the_verb_fixes_the_phi_schedule(dataset, trained, tmp_path):
    """train-skd ramps phi to kd.phi_final over the run; finetune-skd holds it."""
    def phis(verb, *extra):
        out = tmp_path / verb
        assert main([verb, "--out", str(out), "--set", f"paths.train_manifest={dataset}",
                     "--set", "kd.phi_final=0.6"] + TINY + list(extra)) == 0
        return [json.loads(line)["phi"] for line in
                (out / "epochs.jsonl").read_text().splitlines()]

    assert phis("train-skd", "--set", "train.epochs=3") == [0.6 * t / 3 for t in (1, 2, 3)]
    assert phis("finetune-skd", "--init", str(trained / "epoch0002.ckpt"),
                "--set", "train.finetune_epochs=2") == [0.6, 0.6]
    assert phis("train") == [0.0, 0.0]


def test_readme_walkthrough_uses_only_real_flags_and_keys():
    """Every `--flag` of a `trasr <verb>` command in README's `sh` blocks is an
    option of that verb, and every `--set` key is a config key."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [words for words in (shlex.split(line, comments=True) for line in lines)
                if words[:1] == ["trasr"]]
    verbs = next(a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    assert len(commands) >= 8
    set_keys = []
    for words in commands:
        options = verbs[words[1]]._option_string_actions
        flags = [w for w in words[2:] if w.startswith("--")]
        assert not [f for f in flags if f not in options], words
        set_keys += [v.partition("=")[0] for f, v in zip(words, words[1:]) if f == "--set"]
    assert set_keys
    assert not set(set_keys) - set(KEYS), sorted(set(set_keys) - set(KEYS))


# -- decode -----------------------------------------------------------------


def test_decode_greedy_writes_report(dataset, trained, tmp_path, capsys):
    out = tmp_path / "dec"
    rc = main(["decode", "--out", str(out), "--checkpoint",
               str(trained / "epoch0002.ckpt"), "--manifest", str(dataset),
               "--greedy"] + TINY)
    assert rc == 0
    assert "WER" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["utterances"] == 6
    assert 0.0 <= report["wer"]
    hyps = (out / "hyps.tsv").read_text().splitlines()
    assert len(hyps) == 6
    assert all("\t" in line for line in hyps)


def test_decode_greedy_config_resolved_decodes_the_same(dataset, trained, tmp_path):
    """`--greedy` is four config overrides, so the greedy decode's
    `config.resolved` alone, with no LM, decodes the same hypotheses."""
    def decode(out, *flags):
        return main(["decode", "--out", str(out), "--checkpoint",
                     str(trained / "epoch0002.ckpt"), "--manifest", str(dataset), *flags])

    assert decode(tmp_path / "greedy", "--greedy", *TINY) == 0
    assert decode(tmp_path / "again", "--config",
                  str(tmp_path / "greedy" / "config.resolved")) == 0
    assert ((tmp_path / "again" / "hyps.tsv").read_bytes()
            == (tmp_path / "greedy" / "hyps.tsv").read_bytes())


def test_decode_lm_checkpoint_config_resolved_decodes_the_same(dataset, trained, tmp_path):
    """`--lm-checkpoint` is the override `paths.lm_checkpoint`, so an
    LM-fused decode's `config.resolved` alone, with no flag, decodes the same
    hypotheses."""
    lm = tmp_path / "lm" / "lm.ckpt"
    assert main(["train-lm", "--out", str(lm.parent), "--manifest", str(dataset),
                 "--set", "lm.epochs=1"] + LM_TINY) == 0

    def decode(out, *flags):
        return main(["decode", "--out", str(out), "--checkpoint",
                     str(trained / "epoch0002.ckpt"), "--manifest", str(dataset), *flags])

    fused = tmp_path / "fused"
    assert decode(fused, "--lm-checkpoint", str(lm), "--set", "decode.beam_size=3",
                  "--set", "decode.ctc_weight=0.3", "--set", "decode.lm_weight=0.3",
                  *TINY, *LM_TINY) == 0
    assert load_config(fused / "config.resolved").lm_checkpoint == str(lm)
    assert decode(tmp_path / "again", "--config", str(fused / "config.resolved")) == 0
    assert (tmp_path / "again" / "hyps.tsv").read_bytes() == (fused / "hyps.tsv").read_bytes()


def test_decode_skips_too_short_utterance(dataset, trained, tmp_path):
    # conv2d4 needs 7 input frames: the 5-frame utterance is skipped with an
    # empty hypothesis and the others are decoded
    short = tmp_path / "short.trft"
    save_features(short, FeatureSequence(np.zeros((5, 16), dtype=np.float32), 5))
    lines = [f"{e.utt_id}\t{e.feature_path}\t{e.transcript}" for e in load_manifest(dataset)]
    manifest = tmp_path / "mixed.tsv"
    manifest.write_text("\n".join(lines + [f"short\t{short}\tab cd"]) + "\n")

    def decode(manifest, out):
        return main(["decode", "--out", str(out), "--checkpoint",
                     str(trained / "epoch0002.ckpt"), "--manifest", str(manifest),
                     "--greedy"] + TINY)

    assert decode(manifest, tmp_path / "dec") == 0
    report = json.loads((tmp_path / "dec" / "report.json").read_text())
    assert report["utterances"] == 7
    assert [s["utt_id"] for s in report["skipped"]] == ["short"]
    assert "frames" in report["skipped"][0]["reason"]
    assert report["deletions"] >= 2
    hyps = (tmp_path / "dec" / "hyps.tsv").read_text().splitlines()
    assert len(hyps) == 7 and hyps[-1] == "short\t"

    only_short = tmp_path / "short.tsv"
    only_short.write_text(f"short\t{short}\tab cd\n")
    assert decode(only_short, tmp_path / "dec-short") == 3
    report = json.loads((tmp_path / "dec-short" / "report.json").read_text())
    assert report["skipped"][0]["utt_id"] == "short"


def test_train_skips_infeasible_utterances(tmp_path, capsys):
    # conv2d4 and a TR layer after one encoder layer leave 2 of these 12
    # utterances fewer encoder frames than their CTC targets need
    data = tmp_path / "data"
    assert main(["synth-data", "--out", str(data), "--n-utterances", "12",
                 "--feature-dim", "16", "--seed", "3", "--frames-per-token", "8", "12"]) == 0
    assert TINY[1].startswith("data.alphabet=")

    def train(manifest, out):  # the data uses synth-data's default alphabet
        return main(["train", "--out", str(out), "--set", f"paths.train_manifest={manifest}",
                     "--set", "model.frontend=conv2d4"] + TINY[2:])

    capsys.readouterr()
    assert train(data / "manifest.tsv", tmp_path / "run") == 0
    out = capsys.readouterr().out
    records = [json.loads(line) for line in
               (tmp_path / "run" / "epochs.jsonl").read_text().splitlines()]
    assert len(records) == 2
    for record in records:
        assert [s["utt_id"] for s in record["skipped"]] == ["utt0001", "utt0009"]
        assert all("encoder frames" in s["reason"] for s in record["skipped"])
    assert "utt0001" in out and "utt0009" in out

    only_short = tmp_path / "short.tsv"
    only_short.write_text("".join(f"{e.utt_id}\t{e.feature_path}\t{e.transcript}\n"
                                  for e in load_manifest(data / "manifest.tsv")
                                  if e.utt_id in ("utt0001", "utt0009")))
    assert train(only_short, tmp_path / "run-short") == 3
    assert "every training utterance" in capsys.readouterr().err


def test_train_skips_transcripts_outside_the_alphabet(tmp_path, capsys):
    # an alphabet that lost its space: every word gap of these two-word
    # utterances would otherwise train as UNK
    data = tmp_path / "data"
    assert main(["synth-data", "--out", str(data), "--n-utterances", "3",
                 "--alphabet", ALPHABET, "--feature-dim", "16",
                 "--frames-per-token", "16", "20", "--words", "2", "2",
                 "--word-len", "2", "3"]) == 0
    assert TINY[1].startswith("data.alphabet=")
    capsys.readouterr()
    assert main(["train", "--out", str(tmp_path / "run"),
                 "--set", f"paths.train_manifest={data / 'manifest.tsv'}",
                 "--set", "data.alphabet=abcd"] + TINY[2:]) == 3
    reason = "transcript has characters outside data.alphabet: ' '"
    captured = capsys.readouterr()
    assert f"skipping training utterance utt0000: {reason}" in captured.out
    assert f"every training utterance was skipped, e.g. utt0000: {reason}" in captured.err


def test_train_names_only_the_transcript_outside_the_alphabet(dataset, tmp_path, capsys):
    entries = load_manifest(dataset)
    mixed = tmp_path / "mixed.tsv"
    mixed.write_text("".join(f"{e.utt_id}\t{e.feature_path}\t{e.transcript}"
                             f"{'!?' if i == 2 else ''}\n" for i, e in enumerate(entries)))
    capsys.readouterr()
    assert main(["train", "--out", str(tmp_path / "run"),
                 "--set", f"paths.train_manifest={mixed}"] + TINY) == 0
    reason = "transcript has characters outside data.alphabet: '!', '?'"
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("skipping")] == \
        [f"skipping training utterance utt0002: {reason}"]
    records = [json.loads(line) for line in
               (tmp_path / "run" / "epochs.jsonl").read_text().splitlines()]
    assert len(records) == 2
    for record in records:
        assert record["skipped"] == [{"utt_id": "utt0002", "reason": reason}]


def _truncated_manifests(dataset, tmp_path):
    """A manifest whose utt0002 points at a copy of its feature file cut to
    half its bytes, and a manifest of that utterance alone."""
    entries = load_manifest(dataset)
    bad = tmp_path / "cut.trft"
    blob = entries[2].feature_path.read_bytes()
    bad.write_bytes(blob[: len(blob) // 2])
    entries[2].feature_path = bad
    mixed, only_bad = tmp_path / "mixed.tsv", tmp_path / "bad.tsv"
    lines = [f"{e.utt_id}\t{e.feature_path}\t{e.transcript}\n" for e in entries]
    mixed.write_text("".join(lines))
    only_bad.write_text(lines[2])
    return mixed, only_bad, bad


def test_train_skips_an_unreadable_feature_file(dataset, tmp_path, capsys):
    mixed, only_bad, bad = _truncated_manifests(dataset, tmp_path)

    def train(manifest, out):
        return main(["train", "--out", str(out), "--set", f"paths.train_manifest={manifest}",
                     "--set", f"paths.dev_manifest={manifest}"] + TINY)

    capsys.readouterr()
    assert train(mixed, tmp_path / "run") == 0
    out = capsys.readouterr().out
    assert f"skipping training utterance utt0002: {bad}" in out
    assert f"skipping dev utterance utt0002: {bad}" in out
    records = [json.loads(line) for line in
               (tmp_path / "run" / "epochs.jsonl").read_text().splitlines()]
    assert len(records) == 2
    for record in records:
        assert [s["utt_id"] for s in record["skipped"]] == ["utt0002", "utt0002"]
        assert all(s["reason"].startswith(f"{bad}: feature file has")
                   for s in record["skipped"])

    assert train(only_bad, tmp_path / "run-bad") == 3
    assert "every training utterance" in capsys.readouterr().err


def test_train_skips_a_feature_file_of_non_finite_values(dataset, tmp_path, capsys):
    entries = load_manifest(dataset)
    bad = tmp_path / "nan.trft"
    blob = bytearray(entries[2].feature_path.read_bytes())
    blob[16:20] = np.array([np.nan], dtype="<f4").tobytes()  # the first value; size intact
    bad.write_bytes(bytes(blob))
    lines = [f"{e.utt_id}\t{bad if i == 2 else e.feature_path}\t{e.transcript}\n"
             for i, e in enumerate(entries)]
    mixed, only_bad = tmp_path / "mixed.tsv", tmp_path / "bad.tsv"
    mixed.write_text("".join(lines))
    only_bad.write_text(lines[2])

    def train(manifest, out):
        return main(["train", "--out", str(out),
                     "--set", f"paths.train_manifest={manifest}"] + TINY)

    capsys.readouterr()
    assert train(mixed, tmp_path / "run") == 0
    assert f"skipping training utterance utt0002: {bad}: " in capsys.readouterr().out
    records = [json.loads(line) for line in
               (tmp_path / "run" / "epochs.jsonl").read_text().splitlines()]
    assert len(records) == 2
    for record in records:
        assert [s["utt_id"] for s in record["skipped"]] == ["utt0002"]
        assert record["skipped"][0]["reason"] == f"{bad}: feature file contains non-finite values"

    assert train(only_bad, tmp_path / "run-bad") == 3
    assert "every training utterance" in capsys.readouterr().err


def test_decode_skips_an_unreadable_feature_file(dataset, trained, tmp_path):
    mixed, only_bad, bad = _truncated_manifests(dataset, tmp_path)

    def decode(manifest, out):
        return main(["decode", "--out", str(out), "--checkpoint",
                     str(trained / "epoch0002.ckpt"), "--manifest", str(manifest),
                     "--greedy"] + TINY)

    assert decode(mixed, tmp_path / "dec") == 0
    report = json.loads((tmp_path / "dec" / "report.json").read_text())
    assert report["utterances"] == 6
    assert [s["utt_id"] for s in report["skipped"]] == ["utt0002"]
    assert report["skipped"][0]["reason"].startswith(f"{bad}: feature file has")
    hyps = (tmp_path / "dec" / "hyps.tsv").read_text().splitlines()
    assert len(hyps) == 6 and hyps[2] == "utt0002\t"

    assert decode(only_bad, tmp_path / "dec-bad") == 3
    report = json.loads((tmp_path / "dec-bad" / "report.json").read_text())
    assert report["skipped"][0]["reason"].startswith(f"{bad}: ")


def _directory_manifests(dataset, tmp_path):
    """A manifest whose utt0002 names a directory `dir.trft` in place of its
    feature file, and a manifest of that utterance alone."""
    bad = tmp_path / "dir.trft"
    bad.mkdir()
    entries = load_manifest(dataset)
    lines = [f"{e.utt_id}\t{bad if i == 2 else e.feature_path}\t{e.transcript}\n"
             for i, e in enumerate(entries)]
    mixed, only_bad = tmp_path / "mixed.tsv", tmp_path / "bad.tsv"
    mixed.write_text("".join(lines))
    only_bad.write_text(lines[2])
    return mixed, only_bad, bad


def test_train_skips_a_feature_path_that_is_a_directory(dataset, tmp_path, capsys):
    mixed, only_bad, bad = _directory_manifests(dataset, tmp_path)

    def train(manifest, out):
        return main(["train", "--out", str(out),
                     "--set", f"paths.train_manifest={manifest}"] + TINY)

    capsys.readouterr()
    assert train(mixed, tmp_path / "run") == 0
    assert f"skipping training utterance utt0002: {bad}: " in capsys.readouterr().out
    records = [json.loads(line) for line in
               (tmp_path / "run" / "epochs.jsonl").read_text().splitlines()]
    assert len(records) == 2
    for record in records:
        assert [s["utt_id"] for s in record["skipped"]] == ["utt0002"]
        assert record["skipped"][0]["reason"].startswith(f"{bad}: ")

    assert train(only_bad, tmp_path / "run-bad") == 3
    assert "every training utterance was skipped" in capsys.readouterr().err


def test_decode_skips_a_feature_path_that_is_a_directory(dataset, trained, tmp_path):
    mixed, only_bad, bad = _directory_manifests(dataset, tmp_path)

    def decode(manifest, out):
        return main(["decode", "--out", str(out), "--checkpoint",
                     str(trained / "epoch0002.ckpt"), "--manifest", str(manifest),
                     "--greedy"] + TINY)

    assert decode(mixed, tmp_path / "dec") == 0
    report = json.loads((tmp_path / "dec" / "report.json").read_text())
    assert report["utterances"] == 6
    assert [s["utt_id"] for s in report["skipped"]] == ["utt0002"]
    assert report["skipped"][0]["reason"].startswith(f"{bad}: ")
    hyps = (tmp_path / "dec" / "hyps.tsv").read_text().splitlines()
    assert len(hyps) == 6 and hyps[2] == "utt0002\t"

    assert decode(only_bad, tmp_path / "dec-bad") == 3


def _missing_file_manifests(dataset, tmp_path):
    """A manifest whose utt0002 names a feature file `gone.trft` that does not
    exist, and a manifest of that utterance alone."""
    bad = tmp_path / "gone.trft"
    lines = [f"{e.utt_id}\t{bad if i == 2 else e.feature_path}\t{e.transcript}\n"
             for i, e in enumerate(load_manifest(dataset))]
    mixed, only_bad = tmp_path / "mixed.tsv", tmp_path / "bad.tsv"
    mixed.write_text("".join(lines))
    only_bad.write_text(lines[2])
    return mixed, only_bad, bad


def test_train_skips_a_missing_feature_file(dataset, tmp_path, capsys):
    mixed, only_bad, bad = _missing_file_manifests(dataset, tmp_path)

    def train(manifest, out):
        return main(["train", "--out", str(out),
                     "--set", f"paths.train_manifest={manifest}"] + TINY)

    capsys.readouterr()
    assert train(mixed, tmp_path / "run") == 0
    assert f"skipping training utterance utt0002: {bad}: " in capsys.readouterr().out
    records = [json.loads(line) for line in
               (tmp_path / "run" / "epochs.jsonl").read_text().splitlines()]
    assert len(records) == 2
    for record in records:
        assert [s["utt_id"] for s in record["skipped"]] == ["utt0002"]
        assert record["skipped"][0]["reason"].startswith(f"{bad}: ")

    assert train(only_bad, tmp_path / "run-bad") == 3
    assert "every training utterance was skipped" in capsys.readouterr().err


def test_decode_skips_a_missing_feature_file(dataset, trained, tmp_path):
    mixed, only_bad, bad = _missing_file_manifests(dataset, tmp_path)

    def decode(manifest, out):
        return main(["decode", "--out", str(out), "--checkpoint",
                     str(trained / "epoch0002.ckpt"), "--manifest", str(manifest),
                     "--greedy"] + TINY)

    assert decode(mixed, tmp_path / "dec") == 0
    report = json.loads((tmp_path / "dec" / "report.json").read_text())
    assert report["utterances"] == 6
    assert [s["utt_id"] for s in report["skipped"]] == ["utt0002"]
    assert report["skipped"][0]["reason"].startswith(f"{bad}: ")
    hyps = (tmp_path / "dec" / "hyps.tsv").read_text().splitlines()
    assert len(hyps) == 6 and hyps[2] == "utt0002\t"

    assert decode(only_bad, tmp_path / "dec-bad") == 3


def test_train_lm_reads_no_feature_file(dataset, tmp_path):
    mixed, _, _ = _missing_file_manifests(dataset, tmp_path)
    rc = main(["train-lm", "--out", str(tmp_path / "lm"), "--manifest", str(mixed),
               "--set", f"data.alphabet={ALPHABET}", "--set", "lm.layers=1",
               "--set", "lm.d_att=16", "--set", "lm.d_ff=32", "--set", "lm.heads=2",
               "--set", "lm.epochs=1"])
    assert rc == 0
    assert (tmp_path / "lm" / "lm.ckpt").exists()


def test_a_run_starts_its_epoch_log_empty(dataset, tmp_path):
    def train(epochs):
        return main(["train", "--out", str(tmp_path / "run"),
                     "--set", f"paths.train_manifest={dataset}"] + TINY
                    + ["--set", f"train.epochs={epochs}"])

    assert train(2) == 0 and train(1) == 0
    records = [json.loads(line) for line in
               (tmp_path / "run" / "epochs.jsonl").read_text().splitlines()]
    assert [r["epoch"] for r in records] == [1]


def test_a_non_finite_loss_ends_the_run(dataset, tmp_path, capsys, monkeypatch):
    real, first = training.batch_loss, []

    def nan_first(batch, *args, **kwargs):
        total, stats = real(batch, *args, **kwargs)
        if not first:
            first.append(batch.utt_ids)
            total = total * float("nan")
        return total, stats

    monkeypatch.setattr(training, "batch_loss", nan_first)
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--out", str(out),
                 "--set", f"paths.train_manifest={dataset}"] + TINY) == 3
    assert f"non-finite loss at epoch 1, batch of {first[0]}" in capsys.readouterr().err
    assert not (out / "epoch0001.ckpt").exists()
    log = out / "epochs.jsonl"
    assert not log.exists() or log.read_text() == ""  # no epoch record


def test_a_non_finite_lm_loss_ends_the_run(dataset, tmp_path, capsys, monkeypatch):
    real = training.ce_label_smoothed
    monkeypatch.setattr(training, "ce_label_smoothed",
                        lambda *args, **kwargs: real(*args, **kwargs) * float("nan"))
    capsys.readouterr()
    rc = main(["train-lm", "--out", str(tmp_path / "lm"), "--manifest", str(dataset),
               "--set", f"data.alphabet={ALPHABET}", "--set", "lm.layers=1",
               "--set", "lm.d_att=16", "--set", "lm.d_ff=32", "--set", "lm.heads=2",
               "--set", "lm.epochs=1"])
    assert rc == 3
    assert "non-finite LM loss at epoch 1" in capsys.readouterr().err
    assert not (tmp_path / "lm" / "lm.ckpt").exists()


def _interrupted(argv, log, sig):
    """`trasr argv` in a subprocess, sent `sig` once its run's log file `log`
    holds a line; returns its exit status and stderr."""
    proc = subprocess.Popen([sys.executable, "-m", "trasr.cli", *argv], env=_cli_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 120
        while not (log.exists() and log.read_text()):
            assert time.monotonic() < deadline, f"no line in {log.name} within 120 s"
            try:
                proc.wait(timeout=0.05)
            except subprocess.TimeoutExpired:
                continue
            pytest.fail(f"exited {proc.returncode} before its first line in {log.name}: "
                        f"{proc.stderr.read()}")
        proc.send_signal(sig)
        _, err = proc.communicate(timeout=120)
        return proc.returncode, err
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


@pytest.mark.parametrize("verb, sig", [("train", signal.SIGINT), ("train", signal.SIGTERM),
                                       ("train-lm", signal.SIGTERM)],
                         ids=["train-SIGINT", "train-SIGTERM", "train-lm-SIGTERM"])
def test_an_interrupted_run_exits_3_and_keeps_its_work(dataset, trained, tmp_path, verb, sig):
    # epochs enough that the run is still going when the signal arrives
    out = tmp_path / "run"
    rc, err = _interrupted(_trainer_argv(verb, out, dataset, trained)
                           + ["--set", "train.epochs=100000", "--set", "lm.epochs=100000"],
                           out / "epochs.jsonl", sig)
    assert rc == 3, err
    assert "Traceback" not in err and err.endswith("error: interrupted\n")
    assert not list(out.glob("*.tmp")) and not (out / ".lock").exists()
    records = [json.loads(line) for line in (out / "epochs.jsonl").read_text().splitlines()]
    assert records and [r["epoch"] for r in records] == list(range(1, len(records) + 1))
    if verb == "train":
        best = json.loads((out / "best.json").read_text())
        assert all((out / name).exists() for name in best)
        assert set(best) <= {r["checkpoint"] for r in records}
        assert len(best) <= 5  # train.keep_best


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM],
                         ids=["decode-SIGINT", "decode-SIGTERM"])
def test_an_interrupted_decode_exits_3_and_keeps_its_hyps(dataset, trained, tmp_path, sig):
    # utterances enough that the decode is still going when the signal arrives
    lines = [f"{e.utt_id}-{i}\t{e.feature_path}\t{e.transcript}\n"
             for i in range(400) for e in load_manifest(dataset)]
    (tmp_path / "long.tsv").write_text("".join(lines))

    def argv(manifest, out):
        return ["decode", "--out", str(out), "--checkpoint", str(trained / "epoch0002.ckpt"),
                "--manifest", str(manifest), "--set", "decode.beam_size=10",
                "--set", "decode.lm_weight=0"] + TINY

    out = tmp_path / "dec"
    rc, err = _interrupted(argv(tmp_path / "long.tsv", out), out / "hyps.tsv", sig)
    assert rc == 3, err
    assert "Traceback" not in err and err.endswith("error: interrupted\n")
    assert sorted(p.name for p in out.iterdir()) == ["config.resolved", "hyps.tsv"]
    hyps = (out / "hyps.tsv").read_text()
    n = hyps.count("\n")
    assert hyps.endswith("\n") and 1 <= n < len(lines)
    # each utterance decodes alone, so the uninterrupted decode's first n lines
    # are the decode of the manifest's first n lines
    (tmp_path / "head.tsv").write_text("".join(lines[:n]))
    assert main(argv(tmp_path / "head.tsv", tmp_path / "whole")) == 0
    assert hyps == (tmp_path / "whole" / "hyps.tsv").read_text()


IDENTITY = TINY + ["--set", "model.frontend=identity"]


@pytest.fixture(scope="module")
def trained_identity(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-train-identity")
    assert main(["train", "--out", str(out),
                 "--set", f"paths.train_manifest={dataset}"] + IDENTITY) == 0
    return out


def _wrong_width_manifests(dataset, tmp_path):
    """A manifest of the six utterances with, in fourth place, one whose
    feature file has 12 features per frame where the model takes 16, and a
    manifest of that utterance alone."""
    entries = load_manifest(dataset)
    bad = tmp_path / "wide12.trft"
    feats = load_features(entries[3].feature_path).features[:, :12]
    save_features(bad, FeatureSequence(feats, len(feats)))
    lines = [f"{e.utt_id}\t{e.feature_path}\t{e.transcript}\n" for e in entries]
    lines.insert(3, f"wide\t{bad}\tab\n")
    mixed, only_bad = tmp_path / "mixed.tsv", tmp_path / "bad.tsv"
    mixed.write_text("".join(lines))
    only_bad.write_text(lines[3])
    return mixed, only_bad, f"{bad}: 12 features per frame, the model takes 16"


@pytest.mark.parametrize("batch_size", ["1", "8"])
def test_train_skips_a_feature_file_of_the_wrong_width(dataset, tmp_path, capsys, batch_size):
    mixed, only_bad, reason = _wrong_width_manifests(dataset, tmp_path)

    def train(manifest, out):
        return main(["train", "--out", str(out), "--set", f"paths.train_manifest={manifest}"]
                    + IDENTITY + ["--set", f"train.batch_size={batch_size}"])

    capsys.readouterr()
    assert train(mixed, tmp_path / "run") == 0
    assert f"skipping training utterance wide: {reason}\n" in capsys.readouterr().out
    records = [json.loads(line) for line in
               (tmp_path / "run" / "epochs.jsonl").read_text().splitlines()]
    assert len(records) == 2
    assert all(r["skipped"] == [{"utt_id": "wide", "reason": reason}] for r in records)

    assert train(only_bad, tmp_path / "run-bad") == 3
    assert "every training utterance was skipped" in capsys.readouterr().err


def test_decode_skips_a_feature_file_of_the_wrong_width(dataset, trained_identity, tmp_path,
                                                        capsys):
    mixed, only_bad, reason = _wrong_width_manifests(dataset, tmp_path)

    def decode(manifest, out):
        return main(["decode", "--out", str(out), "--checkpoint",
                     str(trained_identity / "epoch0002.ckpt"), "--manifest", str(manifest),
                     "--greedy"] + IDENTITY)

    assert decode(mixed, tmp_path / "dec") == 0
    report = json.loads((tmp_path / "dec" / "report.json").read_text())
    assert report["utterances"] == 7
    assert report["skipped"] == [{"utt_id": "wide", "reason": reason}]
    hyps = (tmp_path / "dec" / "hyps.tsv").read_text().splitlines()
    assert len(hyps) == 7 and hyps[3] == "wide\t"

    capsys.readouterr()
    assert decode(only_bad, tmp_path / "dec-bad") == 3
    assert "every utterance was skipped" in capsys.readouterr().err


def test_every_skip_kind_is_named_once_in_manifest_order(dataset, trained, tmp_path, capsys):
    # good utterances, with one of each kind of bad one between them
    entries = load_manifest(dataset)
    blob = entries[0].feature_path.read_bytes()
    cut = tmp_path / "cut.trft"
    cut.write_bytes(blob[: len(blob) // 2])
    nan = tmp_path / "nan.trft"
    nan.write_bytes(blob[:16] + np.array([np.nan], dtype="<f4").tobytes() + blob[20:])
    wide = tmp_path / "wide.trft"
    save_features(wide, FeatureSequence(np.zeros((40, 12), dtype=np.float32), 40))
    short = tmp_path / "short.trft"  # conv2d4 needs 7 input frames
    save_features(short, FeatureSequence(np.zeros((5, 16), dtype=np.float32), 5))
    bad = [("cut", cut), ("nan", nan), ("wide", wide), ("short", short)]
    lines = []
    for i, e in enumerate(entries):
        lines.append(f"{e.utt_id}\t{e.feature_path}\t{e.transcript}\n")
        if i < len(bad):
            lines.append(f"{bad[i][0]}\t{bad[i][1]}\tab\n")
    manifest = tmp_path / "mixed.tsv"
    manifest.write_text("".join(lines))
    names = [name for name, _ in bad]

    capsys.readouterr()
    assert main(["train", "--out", str(tmp_path / "run"),
                 "--set", f"paths.train_manifest={manifest}"] + TINY) == 0
    logged = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("skipping ")]
    assert logged == [f"skipping training utterance {name}" for name in names]
    records = [json.loads(line) for line in
               (tmp_path / "run" / "epochs.jsonl").read_text().splitlines()]
    assert len(records) == 2
    for record in records:
        assert [s["utt_id"] for s in record["skipped"]] == names
        reasons = [s["reason"] for s in record["skipped"]]
        assert all(r.startswith(f"{path}: ") for r, (_, path) in zip(reasons[:3], bad))
        assert reasons[3].startswith("5 input frames give 0 encoder frames")

    out = tmp_path / "dec"
    assert main(["decode", "--out", str(out), "--checkpoint",
                 str(trained / "epoch0002.ckpt"), "--manifest", str(manifest),
                 "--greedy"] + TINY) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["utterances"] == 10
    assert [s["utt_id"] for s in report["skipped"]] == names
    assert [s["reason"] for s in report["skipped"]][:3] == reasons[:3]
    assert "frames" in report["skipped"][3]["reason"]
    hyps = [line.split("\t") for line in (out / "hyps.tsv").read_text().splitlines()]
    assert [utt for utt, _ in hyps] == [line.split("\t")[0] for line in lines]
    assert all(hyp == "" for utt, hyp in hyps if utt in names)


def test_train_epoch_records_have_no_skipped_field_when_all_fit(trained):
    records = [json.loads(line) for line in (trained / "epochs.jsonl").read_text().splitlines()]
    assert records and all("skipped" not in r for r in records)


def test_decode_lm_weight_without_lm_exit_2(dataset, trained, tmp_path):
    rc = main(["decode", "--out", str(tmp_path / "dec"), "--checkpoint",
               str(trained / "epoch0002.ckpt"), "--manifest", str(dataset),
               "--set", "decode.lm_weight=0.7"] + TINY)
    assert rc == 2


def test_decode_beam_with_lm(dataset, trained, tmp_path):
    lm_out = tmp_path / "lm"
    rc = main(["train-lm", "--out", str(lm_out), "--manifest", str(dataset),
               "--set", f"data.alphabet={ALPHABET}", "--set", "lm.layers=1",
               "--set", "lm.d_att=16", "--set", "lm.d_ff=32", "--set", "lm.heads=2",
               "--set", "lm.epochs=2"])
    assert rc == 0
    rc = main(["decode", "--out", str(tmp_path / "dec"), "--checkpoint",
               str(trained / "epoch0002.ckpt"), "--manifest", str(dataset),
               "--lm-checkpoint", str(lm_out / "lm.ckpt"),
               "--set", "decode.beam_size=4", "--set", "decode.ctc_weight=0.3",
               "--set", "decode.lm_weight=0.2",
               "--set", "decode.insertion_penalty=0.5",
               "--set", "lm.layers=1", "--set", "lm.d_att=16",
               "--set", "lm.d_ff=32", "--set", "lm.heads=2"] + TINY)
    assert rc == 0
    assert (tmp_path / "dec" / "report.json").exists()


def test_decode_and_init_draw_no_initial_weights(dataset, trained, tmp_path, monkeypatch):
    """They read every parameter from a checkpoint; training's dropout,
    SpecAugment and shuffle streams still run."""
    assert main(["train-lm", "--out", str(tmp_path / "lm"), "--manifest", str(dataset),
                 "--set", "lm.epochs=1"] + LM_TINY) == 0
    refuse_init_draws(monkeypatch)
    ckpt = str(trained / "epoch0002.ckpt")
    assert main(["decode", "--out", str(tmp_path / "dec"), "--checkpoint", ckpt,
                 "--manifest", str(dataset), "--lm-checkpoint", str(tmp_path / "lm" / "lm.ckpt"),
                 "--set", "decode.beam_size=2", "--set", "decode.lm_weight=0.2"]
                + TINY + LM_TINY[2:]) == 0
    assert main(["finetune-skd", "--out", str(tmp_path / "ft"), "--init", ckpt,
                 "--set", f"paths.train_manifest={dataset}", "--set", "train.finetune_epochs=1",
                 "--set", "kd.phi_final=0.5"]
                + TINY + ["--set", "model.dropout=0.1", "--set", "train.specaugment=true"]) == 0


def test_running_out_of_memory_exits_3_and_keeps_the_hyps_written(dataset, trained, tmp_path,
                                                                  capsys, monkeypatch):
    decode_utterance, calls = training.decode_utterance, []

    def out_of_memory_after_one(*args, **kwargs):
        calls.append(args)
        if len(calls) > 1:
            raise MemoryError("Unable to allocate 1.68 GiB for an array with shape "
                              "(1, 2, 14999, 14999) and data type float32")
        return decode_utterance(*args, **kwargs)

    monkeypatch.setattr(training, "decode_utterance", out_of_memory_after_one)
    out = tmp_path / "dec"
    assert main(["decode", "--out", str(out), "--checkpoint", str(trained / "epoch0002.ckpt"),
                 "--manifest", str(dataset), "--greedy"] + TINY) == 3
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 1.68 GiB for an array with shape "
        "(1, 2, 14999, 14999) and data type float32\n")
    hyps = (out / "hyps.tsv").read_text().splitlines()
    assert len(hyps) == 1 and hyps[0].startswith(f"{load_manifest(dataset)[0].utt_id}\t")
    assert not (out / "report.json").exists()


def test_decode_missing_checkpoint_exit_3(dataset, tmp_path):
    rc = main(["decode", "--out", str(tmp_path / "dec"), "--checkpoint",
               str(tmp_path / "nope.ckpt"), "--manifest", str(dataset),
               "--greedy"] + TINY)
    assert rc == 3


# -- average ----------------------------------------------------------------


def test_average_identical_is_identity(trained, tmp_path):
    src = trained / "epoch0002.ckpt"
    out = tmp_path / "avg.ckpt"
    rc = main(["average", "--out", str(out), str(src), str(src)])
    assert rc == 0
    a, b = load_checkpoint(src), load_checkpoint(out)
    for name in a:
        assert np.array_equal(a[name], b[name])


def test_average_two_checkpoints_mean(trained, tmp_path):
    out = tmp_path / "avg.ckpt"
    rc = main(["average", "--out", str(out),
               str(trained / "epoch0001.ckpt"), str(trained / "epoch0002.ckpt")])
    assert rc == 0
    a = load_checkpoint(trained / "epoch0001.ckpt")
    b = load_checkpoint(trained / "epoch0002.ckpt")
    avg = load_checkpoint(out)
    for name in a:
        np.testing.assert_allclose(
            avg[name], (a[name].astype(np.float64) + b[name]) / 2, atol=1e-7)


def test_average_mismatched_exit_3(trained, tmp_path):
    other = tmp_path / "other"
    bad = main(["average", "--out", str(tmp_path / "avg.ckpt"),
                str(trained / "epoch0002.ckpt"), str(tmp_path / "missing.ckpt")])
    assert bad == 3
    del other


# -- benchmark --------------------------------------------------------------


def test_benchmark_writes_csv_and_matches_analytic(tmp_path, capsys):
    rc = main(["benchmark", "--out", str(tmp_path / "bench"), "--lengths", "64",
               "--repetitions", "1",
               "--set", "model.d_att=16", "--set", "model.d_ff=32",
               "--set", "model.heads=2", "--set", "model.e1=1",
               "--set", "model.e2=2", "--set", "model.dec_layers=1",
               "--set", "model.feature_dim=16", "--set", f"data.alphabet={ALPHABET}"])
    assert rc == 0
    assert "match the analytic formula" in capsys.readouterr().out
    lines = (tmp_path / "bench" / "benchmark.csv").read_text().splitlines()
    header = lines[0].split(",")
    i_meas = header.index("measured_macs")
    i_ana = header.index("analytic_total_macs")
    assert len(lines) > 1
    for line in lines[1:]:
        parts = line.split(",")
        if parts[i_meas]:
            assert parts[i_meas] == parts[i_ana]


def test_benchmark_streams_its_cells_and_records_its_config(tmp_path, monkeypatch):
    real, seen = cli.benchmark_cells, {}

    def spy(cfg, *args, **kwargs):
        seen["cfg"], seen["cells"] = cfg, real(cfg, *args, **kwargs)
        return seen["cells"]

    monkeypatch.setattr(cli, "benchmark_cells", spy)
    out = tmp_path / "bench"
    assert main(["benchmark", "--out", str(out), "--lengths", "4", "64",
                 "--repetitions", "1"] + BENCH_TINY) == 0
    assert load_config(out / "config.resolved") == seen["cfg"]
    with open(out / "benchmark.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert len(seen["cells"]) == 2 * 4 * 5
    assert rows == [{k: "" if c.get(k) is None else str(c[k]) for k in reader.fieldnames}
                    for c in seen["cells"]]
    assert not (out / ".lock").exists()


def test_benchmark_marks_layouts_needing_more_layers_not_applicable(tmp_path, capsys):
    # one encoder layer: tr2 (2 layers before TR) and pyramidal (3 TR layers) do not fit
    rc = main(["benchmark", "--out", str(tmp_path / "bench"), "--lengths", "64",
               "--repetitions", "1",
               "--set", "model.d_att=16", "--set", "model.d_ff=32",
               "--set", "model.heads=2", "--set", "model.e1=1",
               "--set", "model.e2=0", "--set", "model.dec_layers=1",
               "--set", "model.feature_dim=16", "--set", f"data.alphabet={ALPHABET}"])
    assert rc == 0
    assert "match the analytic formula" in capsys.readouterr().out
    with open(tmp_path / "bench" / "benchmark.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 5
    for row in rows:
        if row["arch"] in ("tr2", "pyramidal"):
            assert row["note"] == "not applicable" and row["measured_macs"] == ""
        else:
            assert row["note"] != "not applicable"
            assert row["measured_macs"] == "" or row["measured_macs"] == row["analytic_total_macs"]
