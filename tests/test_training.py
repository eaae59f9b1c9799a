"""Training loops: artifacts, determinism, distillation modes, LM training,
and dataset decoding."""

import fcntl
import json
import os
import importlib.util
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import trasr.training as training
from trasr.checkpoint import load_checkpoint, snapshot_teacher
from trasr.config import load_config, resolve
from trasr.data import (SyntheticTaskSpec, Vocabulary, load_features, load_manifest,
                        make_batches, synth_generate)
from trasr.errors import ConfigError, TrasrError
from trasr.model import ForwardCtx, init_lm_params, init_model_params
from trasr.optim import AdamState, _adam_update, adam_step, warmup_lr
from trasr.rng import StreamCache
from trasr.search import BeamConfig
from trasr.training import (RunLock, batch_loss, decode_dataset, lm_perplexity,
                            run_lm_training, run_training)

ALPHABET = "abcd "


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    spec = SyntheticTaskSpec(alphabet=ALPHABET, feature_dim=16,
                             frames_per_token=(16, 20), noise_std=0.05)
    return synth_generate(spec, root, 6, words_range=(1, 1),
                          word_len_range=(2, 3), seed=0)


def tiny_cfg(manifest, **extra):
    overrides = {
        "data.alphabet": ALPHABET,
        "model.d_att": "16", "model.d_ff": "32", "model.heads": "2",
        "model.e1": "1", "model.e2": "1", "model.dec_layers": "1",
        "model.dropout": "0.0", "model.frontend": "conv2d4",
        "model.feature_dim": "16",
        "train.epochs": "2", "train.batch_size": "3",
        "train.label_smoothing": "0.0", "train.lr_scale": "0.5",
        "train.warmup_steps": "100", "train.specaugment": "false",
        "paths.train_manifest": str(manifest),
    }
    overrides.update(extra)
    return resolve({}, overrides)


def loaded(entries):
    """The (entry, features) pairs that make_batches takes."""
    return [(e, load_features(e.feature_path)) for e in entries]


def strip_wall_time(records):
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in records]


# -- run lock ---------------------------------------------------------------


def test_run_lock_exclusive(tmp_path):
    with RunLock(tmp_path):
        with pytest.raises(TrasrError, match="locked"):
            with RunLock(tmp_path):
                pass
    with RunLock(tmp_path):  # released after exit
        pass


def _exited_pid() -> int:
    """The pid of a process that has exited and been reaped."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


@pytest.mark.parametrize("held", ["dead", "", "not a pid", "0", "-1"])
def test_run_lock_takes_a_file_left_without_a_holder(tmp_path, held):
    lock = tmp_path / ".lock"
    lock.write_text(f"{_exited_pid()}\n" if held == "dead" else held)
    with RunLock(tmp_path):
        assert lock.exists()
    assert not lock.exists()


def test_run_lock_refuses_a_live_holder_until_it_is_killed(tmp_path):
    src = Path(training.__file__).resolve().parents[1]
    holder = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1])\n"
         "from trasr.training import RunLock\n"
         "with RunLock(sys.argv[2]):\n"
         "    print('held', flush=True); sys.stdin.read()",
         str(src), str(tmp_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline() == "held\n"
        with pytest.raises(TrasrError, match="locked"):
            with RunLock(tmp_path):
                pass
    finally:
        holder.kill()  # SIGKILL: the holder leaves its file behind
        holder.wait()
        holder.stdin.close()
        holder.stdout.close()
    assert (tmp_path / ".lock").exists()
    with RunLock(tmp_path):
        pass


def test_run_lock_refuses_a_file_unlinked_after_it_was_opened(tmp_path, monkeypatch):
    # a holder that is finishing unlinks the file between our open and flock
    flock = fcntl.flock

    def unlink_then_flock(fd, op):
        (tmp_path / ".lock").unlink()
        flock(fd, op)

    monkeypatch.setattr(training.fcntl, "flock", unlink_then_flock)
    lock = RunLock(tmp_path)
    with pytest.raises(TrasrError, match="locked"):
        lock.__enter__()
    with pytest.raises(OSError):
        os.fstat(lock.fd)  # its descriptor is closed


# -- artifacts --------------------------------------------------------------


def test_training_writes_expected_artifacts(dataset, tmp_path):
    cfg = tiny_cfg(dataset)
    records = run_training(cfg, tmp_path / "run", log=lambda s: None)
    assert len(records) == 2
    out = tmp_path / "run"
    assert (out / "config.resolved").exists()
    lines = (out / "epochs.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for line, rec in zip(lines, records):
        parsed = json.loads(line)
        assert parsed == rec
        for key in ("epoch", "train_total", "dev_accuracy", "checkpoint", "wall_time"):
            assert key in parsed
    best = json.loads((out / "best.json").read_text())
    assert best and all((out / name).exists() for name in best)
    assert not (out / ".lock").exists()


def test_keep_best_prunes_checkpoints(dataset, tmp_path):
    cfg = tiny_cfg(dataset, **{"train.epochs": "4", "train.keep_best": "2"})
    run_training(cfg, tmp_path / "run", log=lambda s: None)
    kept = sorted(p.name for p in (tmp_path / "run").glob("*.ckpt"))
    # the best two by dev accuracy plus (possibly) the final epoch
    assert 2 <= len(kept) <= 3
    assert "epoch0004.ckpt" in kept


def test_training_deterministic_given_seed(dataset, tmp_path):
    cfg = tiny_cfg(dataset)
    r1 = run_training(cfg, tmp_path / "a", log=lambda s: None)
    r2 = run_training(cfg, tmp_path / "b", log=lambda s: None)
    assert strip_wall_time(r1) == strip_wall_time(r2)
    c1 = load_checkpoint(tmp_path / "a" / r1[-1]["checkpoint"])
    c2 = load_checkpoint(tmp_path / "b" / r2[-1]["checkpoint"])
    for name in c1:
        assert np.array_equal(c1[name], c2[name])


def test_different_seed_changes_results(dataset, tmp_path):
    r1 = run_training(tiny_cfg(dataset), tmp_path / "a", log=lambda s: None)
    r2 = run_training(tiny_cfg(dataset, **{"train.seed": "2"}), tmp_path / "b",
                      log=lambda s: None)
    assert strip_wall_time(r1) != strip_wall_time(r2)


# -- one run lifecycle for every trainer --------------------------------------

TRAINERS = ["train", "train-skd", "finetune-skd", "train-lm"]


@pytest.fixture(scope="module")
def pretrained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("pretrained")
    run_training(tiny_cfg(dataset), out, log=lambda s: None)
    return out / "epoch0002.ckpt"


def trainer(verb, dataset, pretrained):
    """(the config, a function out_dir -> records) of a two-epoch run of
    `verb` on the six utterances, two batches per epoch."""
    cfg = tiny_cfg(dataset, **{"kd.phi_final": "0.5", "train.finetune_epochs": "2",
                               "lm.layers": "1", "lm.d_att": "16", "lm.d_ff": "32",
                               "lm.heads": "2", "lm.epochs": "2", "lm.batch_size": "3"})
    if verb == "train-lm":
        texts = [e.transcript for e in load_manifest(dataset)]
        return cfg, lambda out: run_lm_training(cfg, texts, out, log=lambda s: None)
    mode = {"train": "plain", "train-skd": "skd", "finetune-skd": "finetune"}[verb]
    init = pretrained if mode == "finetune" else None
    return cfg, lambda out: run_training(cfg, out, mode=mode, init_checkpoint=init,
                                         log=lambda s: None)


@pytest.mark.parametrize("verb", TRAINERS)
def test_every_trainer_leaves_its_config_and_only_its_own_records(dataset, pretrained,
                                                                  tmp_path, verb):
    # the second run into one directory replaces the first run's records
    cfg, run = trainer(verb, dataset, pretrained)
    run(tmp_path / "run")
    records = run(tmp_path / "run")
    assert load_config(tmp_path / "run" / "config.resolved") == cfg
    lines = (tmp_path / "run" / "epochs.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == records and len(records) == 2


@pytest.mark.parametrize("verb", TRAINERS)
def test_every_trainer_steps_through_the_module_adam_step(dataset, pretrained, tmp_path,
                                                          monkeypatch, verb):
    # perfbench's tracer wraps `training.adam_step`: a step that reached Adam
    # by another binding would escape its `optim.adam` span and count
    calls = []

    def counted(*args):
        calls.append(args)
        return adam_step(*args)

    monkeypatch.setattr(training, "adam_step", counted)
    _, run = trainer(verb, dataset, pretrained)
    assert len(run(tmp_path / "run")) == 2
    assert len(calls) == 2 * 2  # two epochs of two batches


@pytest.mark.parametrize("verb", ["train", "train-lm"])
def test_a_config_error_leaves_no_out_dir(dataset, tmp_path, verb):
    out = tmp_path / "run"
    with pytest.raises(ConfigError):
        if verb == "train":
            run_training(tiny_cfg(dataset, **{"paths.train_manifest": ""}), out,
                         log=lambda s: None)
        else:
            run_lm_training(tiny_cfg(dataset), [], out, log=lambda s: None)
    assert not out.exists()


# -- distillation modes -----------------------------------------------------


def test_skd_phi_zero_matches_plain_bit_exact(dataset, tmp_path):
    plain = run_training(tiny_cfg(dataset), tmp_path / "plain", log=lambda s: None)
    skd = run_training(tiny_cfg(dataset, **{"kd.phi_final": "0.0"}),
                       tmp_path / "skd", mode="skd", log=lambda s: None)
    assert strip_wall_time(plain) == strip_wall_time(skd)


def test_skd_records_linear_phi_ramp(dataset, tmp_path):
    cfg = tiny_cfg(dataset, **{"kd.phi_final": "0.5"})
    records = run_training(cfg, tmp_path / "run", mode="skd", log=lambda s: None)
    assert abs(records[0]["phi"] - 0.5 * 1 / 2) < 1e-12
    assert abs(records[1]["phi"] - 0.5) < 1e-12
    assert all(np.isfinite(r["teacher_entropy"]) for r in records)


def test_the_old_teacher_is_gone_before_the_next_snapshot(dataset, tmp_path, monkeypatch):
    teachers = []  # each teacher made, in order

    def snapshot(params, directory):
        assert all(t.closed for t in teachers)
        teachers.append(snapshot_teacher(params, directory))
        return teachers[-1]

    monkeypatch.setattr(training, "snapshot_teacher", snapshot)
    cfg = tiny_cfg(dataset, **{"kd.phi_final": "0.5", "train.epochs": "3"})
    run_training(cfg, tmp_path / "run", mode="skd", log=lambda s: None)
    assert len(teachers) == 3 and all(t.closed for t in teachers)


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("fail", [False, True], ids=["ends", "raises"])
def test_a_run_leaves_no_teacher_file_or_descriptor(dataset, tmp_path, monkeypatch, fail):
    # with `fail`, batch_loss raises on its second batch, while a teacher is open
    calls, teachers = [], []

    def snapshot(params, directory):
        assert Path(directory) == out
        teachers.append(snapshot_teacher(params, directory))
        return teachers[-1]

    def failing_batch_loss(*args, **kwargs):
        calls.append(1)
        if fail and len(calls) == 2:
            raise RuntimeError("batch 2")
        return batch_loss(*args, **kwargs)

    monkeypatch.setattr(training, "snapshot_teacher", snapshot)
    monkeypatch.setattr(training, "batch_loss", failing_batch_loss)
    cfg = tiny_cfg(dataset, **{"kd.phi_final": "0.5"})
    out = tmp_path / "run"
    fds = _open_fds()
    if fail:
        with pytest.raises(RuntimeError, match="batch 2"):
            run_training(cfg, out, mode="skd", log=lambda s: None)
        expected = ["best.json", "config.resolved", "epochs.jsonl"]
    else:
        run_training(cfg, out, mode="skd", log=lambda s: None)
        expected = ["best.json", "config.resolved", "epoch0001.ckpt", "epoch0002.ckpt",
                    "epochs.jsonl"]
    assert teachers and all(t.closed for t in teachers)
    assert sorted(os.listdir(out)) == expected
    assert _open_fds() == fds


def _perfbench_workloads(monkeypatch):
    """perfbench/workloads.py, loaded from its path without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_the_teacher_adds_no_copy_of_the_parameters_to_the_peak(tmp_path, monkeypatch):
    # the benchmark's train-desk data and config: train-skd's traced peak
    # differs from train's by far less than one copy of the parameters
    W = _perfbench_workloads(monkeypatch)
    spec = W.TRAIN_DESK
    cfg = resolve({**spec.config, "data.alphabet": W.ALPHABET,
                   "train.epochs": str(spec.epochs),
                   "paths.train_manifest": str(W.write_set(
                       tmp_path, "train", W.synthesize(spec.shape, spec.n_train, W.TAG_TRAIN, 0))),
                   "paths.dev_manifest": str(W.write_set(
                       tmp_path, "dev", W.synthesize(spec.shape, spec.n_dev, W.TAG_DEV, 0)))})
    param_bytes = sum(t.data.nbytes for _, t in init_model_params(cfg.model, 0).items())

    def traced_peak(mode):
        tracemalloc.start()
        try:
            run_training(cfg, tmp_path / mode, mode=mode, log=lambda s: None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain, skd = traced_peak("plain"), traced_peak("skd")
    assert skd - plain < 0.5 * param_bytes, (plain, skd, param_bytes)


@pytest.mark.parametrize("cadence, refreshed", [(1, [1, 2, 3]), (2, [1, 3]), (3, [1])])
def test_the_teacher_is_refreshed_every_cadence_epochs(dataset, tmp_path, monkeypatch,
                                                       cadence, refreshed):
    # a cadence of at least the epoch count keeps the epoch-1 teacher throughout
    logged, calls = [], []  # one log line per ended epoch; the epoch of each snapshot

    def snapshot(params, directory):
        calls.append(len(logged) + 1)
        return snapshot_teacher(params, directory)

    monkeypatch.setattr(training, "snapshot_teacher", snapshot)
    cfg = tiny_cfg(dataset, **{"kd.phi_final": "0.5", "train.epochs": "3",
                               "kd.cadence": str(cadence)})
    run_training(cfg, tmp_path / "run", mode="skd", log=logged.append)
    assert [line.split(":")[0] for line in logged] == ["epoch 1", "epoch 2", "epoch 3"]
    assert calls == refreshed


@pytest.mark.parametrize("mode", ["skd", "finetune"])
def test_no_teacher_is_copied_at_phi_zero(dataset, tmp_path, monkeypatch, mode):
    # phi is 0 in every epoch, so a teacher would never be read
    calls = []

    def snapshot(params, directory):
        calls.append(params)
        return snapshot_teacher(params, directory)

    monkeypatch.setattr(training, "snapshot_teacher", snapshot)
    cfg = tiny_cfg(dataset, **{"kd.phi_final": "0.0", "kd.cadence": "1",
                               "train.finetune_epochs": "2"})
    records = run_training(cfg, tmp_path / "run", mode=mode, log=lambda s: None)
    assert [r["phi"] for r in records] == [0.0, 0.0]
    assert calls == []


def test_finetune_phi_zero_lr_zero_is_noop(dataset, tmp_path):
    cfg = tiny_cfg(dataset)
    run_training(cfg, tmp_path / "pre", log=lambda s: None)
    init = tmp_path / "pre" / "epoch0002.ckpt"
    ft_cfg = tiny_cfg(dataset, **{"kd.phi_final": "0.0", "train.finetune_lr": "0.0",
                                  "train.finetune_epochs": "1"})
    run_training(ft_cfg, tmp_path / "ft", mode="finetune", init_checkpoint=init,
                 log=lambda s: None)
    before = load_checkpoint(init)
    after = load_checkpoint(tmp_path / "ft" / "epoch0001.ckpt")
    for name in before:
        assert np.array_equal(before[name], after[name])


def test_finetune_uses_fixed_phi(dataset, tmp_path):
    cfg = tiny_cfg(dataset)
    run_training(cfg, tmp_path / "pre", log=lambda s: None)
    ft_cfg = tiny_cfg(dataset, **{"kd.phi_final": "0.5", "train.finetune_epochs": "2"})
    records = run_training(ft_cfg, tmp_path / "ft", mode="finetune",
                           init_checkpoint=tmp_path / "pre" / "epoch0002.ckpt",
                           log=lambda s: None)
    assert [r["phi"] for r in records] == [0.5, 0.5]


def test_init_checkpoint_architecture_mismatch(dataset, tmp_path):
    from trasr.errors import ShapeError

    run_training(tiny_cfg(dataset), tmp_path / "pre", log=lambda s: None)
    wider = tiny_cfg(dataset, **{"model.d_ff": "64"})
    with pytest.raises(ShapeError):
        run_training(wider, tmp_path / "ft", mode="finetune",
                     init_checkpoint=tmp_path / "pre" / "epoch0002.ckpt",
                     log=lambda s: None)


# -- loss plumbing ----------------------------------------------------------


def test_alpha_one_gives_decoder_zero_gradient(dataset):
    cfg = tiny_cfg(dataset)
    vocab = Vocabulary(cfg.alphabet)
    params = init_model_params(cfg.model, 0)
    (batch,) = make_batches(loaded(load_manifest(dataset)[:3]), vocab, 3)
    total, _ = batch_loss(batch, cfg.model, params, ForwardCtx(),
                             alpha=1.0, label_smoothing=0.0)
    total.backward()
    assert np.allclose(params["dec.out.w"].grad, 0.0)
    assert np.allclose(params["dec.layer0.self.wq"].grad, 0.0)
    assert not np.allclose(params["ctc.w"].grad, 0.0)
    for _, t in params.items():
        t.grad = None


def test_fused_adam_step_equals_backward_then_step(dataset):
    # two steps, so that the second one starts from nonzero moments
    cfg = tiny_cfg(dataset, **{"model.dropout": "0.1", "train.label_smoothing": "0.1"})
    (batch,) = make_batches(loaded(load_manifest(dataset)[:3]), Vocabulary(cfg.alphabet), 3)

    def train(fused):
        params = init_model_params(cfg.model, 0)
        state = AdamState(lambda step: warmup_lr(step, 1.0, cfg.model.d_att, 10))
        ctx = ForwardCtx(dropout=0.1, streams=StreamCache(3))
        for _ in range(2):
            total, _ = batch_loss(batch, cfg.model, params, ctx, 0.3, 0.1)
            if fused:
                adam_step(params, state, total)
            else:
                total.backward()
                state.step += 1
                step = state.step
                for name, t in params.items():
                    _adam_update(state, name, t.data, t.grad, step, state.lr(step))
                    t.grad = None
        assert all(t.grad is None for _, t in params.items())
        return params, state

    (p1, s1), (p2, s2) = train(True), train(False)
    assert p1.names() == p2.names() and s1.m.keys() == s2.m.keys()
    for name in p1.names():
        assert np.array_equal(p1[name].data, p2[name].data), name
        assert np.array_equal(s1.m[name], s2.m[name]) and np.array_equal(s1.v[name], s2.v[name])


def test_batched_dropout_step_equals_per_utterance_steps(dataset):
    # a batch of three draws each dropout stream row by row, so its summed
    # loss terms equal those of the three utterances run one by one
    cfg = tiny_cfg(dataset, **{"model.dropout": "0.3", "train.label_smoothing": "0.1"})
    vocab = Vocabulary(cfg.alphabet)
    params = init_model_params(cfg.model, 0)
    entries = loaded(load_manifest(dataset)[:3])

    def summed(batches):
        ctx = ForwardCtx(dropout=0.3, streams=StreamCache(5))
        ctc = s2s = 0.0
        for batch in batches:
            _, stats = batch_loss(batch, cfg.model, params, ctx,
                                  alpha=0.3, label_smoothing=0.1)
            ctc += stats.l_ctc * batch.target_lengths.sum()
            s2s += stats.l_s2s * stats.n_positions
        return ctc, s2s

    together = summed(make_batches(entries, vocab, 3))
    one_by_one = summed(make_batches(entries, vocab, 1))
    np.testing.assert_allclose(together, one_by_one, rtol=1e-5)
    (batch,) = make_batches(entries, vocab, 3)
    _, plain = batch_loss(batch, cfg.model, params, ForwardCtx(), 0.3, 0.1)
    assert abs(plain.l_s2s * sum(batch.target_lengths + 1) - together[1]) > 1e-3


# -- language model ---------------------------------------------------------


def test_lm_memorizes_single_sentence(tmp_path):
    cfg = resolve({}, {"data.alphabet": ALPHABET, "lm.layers": "1", "lm.d_att": "16",
                       "lm.d_ff": "32", "lm.heads": "2", "lm.epochs": "60",
                       "lm.batch_size": "4", "lm.lr_scale": "0.5",
                       "lm.warmup_steps": "20"})
    records = run_lm_training(cfg, ["ab c"] * 4, tmp_path, log=lambda s: None)
    assert records[-1]["perplexity"] < 1.05
    params = init_lm_params(cfg.lm, cfg.train.seed)
    params.load_state_dict(load_checkpoint(tmp_path / "lm.ckpt"))
    assert lm_perplexity(["ab c"], cfg.lm, params, cfg.alphabet) < 1.05


def test_untrained_lm_perplexity_near_vocab_size():
    cfg = resolve({}, {"data.alphabet": ALPHABET})
    params = init_lm_params(cfg.lm, 0)
    rng = np.random.default_rng(0)
    texts = ["".join(rng.choice(list("abcd"), size=8)) for _ in range(10)]
    ppl = lm_perplexity(texts, cfg.lm, params, cfg.alphabet)
    assert 2 < ppl < 3 * cfg.vocab_size  # near-uniform, order of the vocab size


def test_lm_training_deterministic(tmp_path):
    cfg = resolve({}, {"data.alphabet": ALPHABET, "lm.layers": "1", "lm.d_att": "16",
                       "lm.d_ff": "32", "lm.heads": "2", "lm.epochs": "3"})
    r1 = run_lm_training(cfg, ["ab", "cd a"], tmp_path / "a", log=lambda s: None)
    r2 = run_lm_training(cfg, ["ab", "cd a"], tmp_path / "b", log=lambda s: None)
    assert r1 == r2
    assert (tmp_path / "a" / "lm.ckpt").read_bytes() == \
        (tmp_path / "b" / "lm.ckpt").read_bytes()


def test_lm_training_skips_transcripts_outside_the_alphabet(tmp_path):
    cfg = resolve({}, {"data.alphabet": ALPHABET, "lm.layers": "1", "lm.d_att": "16",
                       "lm.d_ff": "32", "lm.heads": "2", "lm.epochs": "2"})
    logged = []
    with_bad = run_lm_training(cfg, ["ab", "cx a", "cd a"], tmp_path / "a", log=logged.append)
    assert logged[0] == ("skipping LM transcript 'cx a': transcript has characters "
                         "outside data.alphabet: 'x'")
    assert with_bad == run_lm_training(cfg, ["ab", "cd a"], tmp_path / "b",
                                       log=lambda s: None)
    assert (tmp_path / "a" / "lm.ckpt").read_bytes() == \
        (tmp_path / "b" / "lm.ckpt").read_bytes()
    with pytest.raises(TrasrError, match="every LM transcript was skipped"):
        run_lm_training(cfg, ["xy"], tmp_path / "c", log=lambda s: None)


# -- decoding ---------------------------------------------------------------


def test_decode_dataset_runs_and_reports(dataset, tmp_path):
    cfg = tiny_cfg(dataset)
    run_training(cfg, tmp_path / "run", log=lambda s: None)
    params = init_model_params(cfg.model, cfg.train.seed)
    params.load_state_dict(load_checkpoint(tmp_path / "run" / "epoch0002.ckpt"))
    vocab = Vocabulary(cfg.alphabet)
    entries = load_manifest(dataset)[:2]
    beam = BeamConfig(beam_size=2, ctc_weight=0.5, lm_weight=0.0,
                      insertion_penalty=0.5, max_len_ratio=1.0)
    results, totals = decode_dataset(entries, cfg.model, params, beam, vocab)
    assert len(results) == 2
    assert totals.ref_length == sum(len(e.transcript.split()) for e in entries)
    for r in results:
        assert isinstance(r.hypothesis, str)
