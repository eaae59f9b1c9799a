"""End-to-end command-line workflows and exit codes."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from trasr.checkpoint import load_checkpoint
from trasr.cli import _load_cfg, build_parser, main
from trasr.data import load_manifest, save_features
from trasr.frontend import FeatureSequence
from trasr.training import RunLock

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


def test_locked_out_dir_exit_3(dataset, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    with RunLock(out):
        rc = main(["train", "--out", str(out),
                   "--set", f"paths.train_manifest={dataset}"] + TINY)
    assert rc == 3


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
