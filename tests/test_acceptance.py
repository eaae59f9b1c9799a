"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line (run pytest with -s or check captured output on failure)."""

import numpy as np
import pytest

from trasr import tensor as T
from trasr.checkpoint import (average_checkpoints, load_checkpoint,
                              save_checkpoint)
from trasr.config import resolve
from trasr.data import (SyntheticTaskSpec, Vocabulary, load_features,
                        load_manifest, save_features, synth_generate)
from trasr.errors import FormatError
from trasr.losses import (ctc_loss, finetune_loss, joint_loss, phi_schedule,
                          skd_loss, teacher_entropy)
from trasr.model import (count_attention_macs, ctc_log_probs, decode_forward,
                         init_model_params)
from trasr.losses import ce_label_smoothed
from trasr.cli import benchmark_cells
from trasr.search import BeamConfig, CtcPrefixScorer, beam_search
from trasr.tensor import Tensor
from trasr.training import decode_dataset, run_training

from gradcheck import grad_check
from conftest import (brute_force_ctc, encode_one, random_features, random_log_probs,
                      tiny_model_config)
from test_search import batched, exhaustive_best, table_s2s

SOS, EOS = 2, 3


def report(number, name, ok):
    print(f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


# -- 1. gradient integrity ---------------------------------------------------


def test_criterion_1_gradient_integrity():
    ok = True
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 6))
        y = rng.normal(size=(6, 5))
        z = rng.normal(size=(4, 6))
        elementwise = [
            lambda t: T.tsum(T.add(t, Tensor(z))),
            lambda t: T.tsum(T.mul(t, t)),
            lambda t: T.tsum(T.relu(t)),
            lambda t: T.tsum(T.mul(T.log_softmax(t * 0.3, axis=0), Tensor(z))),
            lambda t: T.tsum(T.mul(T.masked_softmax(t, axis=0), Tensor(z))),
            lambda t: T.tsum(T.matmul(t, Tensor(y))),
            lambda t: T.tsum(T.mul(T.masked_softmax(t, axis=-1), Tensor(z))),
            lambda t: T.tsum(T.mul(T.log_softmax(t, axis=-1), Tensor(z))),
            lambda t: T.tsum(T.layer_norm(t, Tensor(np.ones(6)), Tensor(np.zeros(6)))),
            lambda t: T.tsum(T.reshape(t, 24) * Tensor(np.arange(24.0))),
        ]
        for f in elementwise:
            ok &= grad_check(f, x) < 1e-4

        # composed: frontend + encoder layer + TR + decoder layer + both losses
        cfg = tiny_model_config()
        params = init_model_params(cfg, seed=seed, dtype=np.float64)
        seq = random_features(rng, 9, 16, dtype=np.float64)

        def forward():
            x_e, _ = encode_one(seq, cfg, params)
            l1 = ctc_loss(ctc_log_probs(x_e, params)[None], [[5, 6]])
            logits = decode_forward([SOS, 5, 6], x_e, cfg, params)
            l2 = ce_label_smoothed(logits, [5, 6, EOS])
            return joint_loss(l1, l2, 0.3)

        forward().backward()
        for name in ("enc.layer0.mha.wq", "enc.tr.w", "dec.layer0.src.wk",
                     "dec.layer0.self.wv", "ctc.w", "frontend.proj.w"):
            w = params[name]
            g = w.grad
            idx = np.unravel_index(np.argmax(np.abs(g)), g.shape)
            eps = 1e-5
            orig = float(w.data[idx])
            w.data[idx] = orig + eps
            hi = forward().item()
            w.data[idx] = orig - eps
            lo = forward().item()
            w.data[idx] = orig
            rel = abs((hi - lo) / (2 * eps) - g[idx]) / max(1.0, abs(g[idx]))
            ok &= rel < 1e-3
        for _, t in params.items():
            t.grad = None
    report(1, "gradient integrity", ok)


# -- 2. CTC oracle -----------------------------------------------------------


def test_criterion_2_ctc_oracle():
    lp = np.log(np.full((2, 2), 0.5))
    ok = abs(ctc_loss(Tensor(lp[None]), [[1]]).item() - (-np.log(0.75))) < 1e-12

    rng = np.random.default_rng(0)
    checked = 0
    while checked < 200:
        n_frames = int(rng.integers(1, 7))       # T' <= 6
        vocab = int(rng.integers(2, 5))          # V <= 4
        target = list(rng.integers(1, vocab, size=int(rng.integers(0, 4))))
        lp = random_log_probs(rng, n_frames, vocab)
        want = brute_force_ctc(lp, target)
        if np.isinf(want):
            continue  # infeasible instance (raises by design, covered elsewhere)
        got = ctc_loss(Tensor(lp[None]), [target]).item()
        ok &= abs(got - want) < 1e-6
        checked += 1
    report(2, "CTC forward-backward vs exhaustive enumeration", ok)


# -- 3. beam-search oracle ---------------------------------------------------


def test_criterion_3_beam_search_oracle():
    rng = np.random.default_rng(7)
    ok = True
    for gamma in (0.0, -0.8):  # no LM, and LM subtraction
        cfg = BeamConfig(beam_size=64, ctc_weight=0.4, lm_weight=gamma,
                         insertion_penalty=0.5, max_len_ratio=1.0)
        for trial in range(50):
            s2s = table_s2s(trial)
            lm = table_s2s(1000 + trial) if gamma else None
            lp = random_log_probs(rng, 4, 5)
            res = beam_search(batched(s2s), cfg, SOS, EOS, [4, 1], 4,
                              ctc_scorer=CtcPrefixScorer(lp),
                              lm_fn=batched(lm) if lm else None)
            want_score, want_body = exhaustive_best(s2s, cfg, [4, 1], lp, 4, lm_fn=lm)
            ok &= res.finished
            ok &= abs(res.score - want_score) < 1e-9 and res.tokens == want_body

    for trial in range(5):
        s2s = table_s2s(100 + trial)
        lp = random_log_probs(rng, 5, 5)
        prev = -np.inf
        for beam in range(1, 17):
            bc = BeamConfig(beam_size=beam, ctc_weight=0.3, lm_weight=0.0,
                            insertion_penalty=0.2, max_len_ratio=1.0)
            res = beam_search(batched(s2s), bc, SOS, EOS, [4, 1], 5,
                              ctc_scorer=CtcPrefixScorer(lp))
            ok &= res.score >= prev - 1e-12
            prev = res.score
    report(3, "beam search exact on tiny instances (gamma 0 and -0.8) + beam monotonicity",
           ok)


# -- 4. frame-rate arithmetic ------------------------------------------------


def test_criterion_4_frame_rate_8x():
    def conv2d4_len(L):
        s1 = (L - 3) // 2 + 1
        return (s1 - 3) // 2 + 1

    tr0 = tiny_model_config(e1=0, e2=2, frontend="conv2d4", feature_dim=16)
    tr2 = tiny_model_config(e1=2, e2=1, frontend="conv2d4", feature_dim=16)
    rng = np.random.default_rng(0)
    lengths = rng.integers(40, 400, size=200)
    ok = True
    for cfg in (tr0, tr2):
        params = init_model_params(cfg, seed=0)
        for L in lengths:
            L = int(L)
            expected = conv2d4_len(L) // 2  # conv 4x, then TR halves
            x_e, n = encode_one(random_features(rng, L, 16), cfg, params)
            ok &= n == expected and x_e.shape[0] == expected
            # total reduction factor 8 up to the floor remainder
            ok &= 8 * n <= L <= 8 * n + 10
    report(4, "conv2d4 + time reduction gives 8x frame-rate reduction", ok)


# -- 5. complexity claim -----------------------------------------------------


def test_criterion_5_mac_counts_and_k_squared():
    cfg = resolve({}, {"model.d_att": "16", "model.d_ff": "32", "model.heads": "2",
                       "model.e1": "1", "model.e2": "2", "model.dec_layers": "1",
                       "model.feature_dim": "16", "data.alphabet": "abcd "})
    cells = benchmark_cells(cfg, [48, 96], repetitions=2)
    measured = [c for c in cells if c["measured_macs"] is not None]
    ok = len(measured) > 0
    ok &= all(c["measured_macs"] == c["analytic_total_macs"] for c in measured)

    no_tr = tiny_model_config(e1=0, e2=2, reduction="none")
    tr0 = tiny_model_config(e1=0, e2=2, reduction="tr")
    for n in (16, 32, 64, 128):  # even identity-frontend lengths: exactly k^2 = 4
        a = count_attention_macs(no_tr, n)["score_macs"]
        b = count_attention_macs(tr0, n)["score_macs"]
        ok &= a / b == 4.0
    for n in (41, 63, 127, 255):  # odd lengths: floors shift the ratio slightly
        a = count_attention_macs(no_tr, n)["score_macs"]
        b = count_attention_macs(tr0, n)["score_macs"]
        ok &= 3.8 <= 4 * ((n // 2) / (n / 2)) ** 2 <= 4.0  # nominal band
        ok &= 4.0 <= a / b <= 4.0 * (n / (n - 1)) ** 2     # exact floor arithmetic
    report(5, "measured MACs == analytic; post-TR score-MAC ratio k^2 = 4", ok)


# -- 6. loss algebra ---------------------------------------------------------


def test_criterion_6_loss_algebra():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(100):
        ctc, s2s, skd = (Tensor(v) for v in rng.normal(size=3))
        alpha = float(rng.uniform(0, 1))
        ok &= finetune_loss(ctc, s2s, skd, alpha, 0.0).item() == \
            joint_loss(ctc, s2s, alpha).item()

    ok &= phi_schedule("skd", 200, 200, 0.7) == 0.7
    ok &= abs(phi_schedule("skd", 100, 200, 0.7) - 0.35) < 1e-12
    ok &= all(phi_schedule("finetune", t, 50, 0.5) == 0.5 for t in (1, 25, 50))

    for _ in range(1000):
        t = rng.normal(size=(2, 5)).astype(np.float64) * rng.uniform(0.5, 3)
        s = rng.normal(size=(2, 5)).astype(np.float64) * rng.uniform(0.5, 3)
        loss = skd_loss(Tensor(t), Tensor(s)).item() / len(t)
        ent = teacher_entropy(Tensor(t))
        ok &= loss - ent >= -1e-9
        ok &= abs(skd_loss(Tensor(t), Tensor(t)).item() / len(t) - ent) < 1e-9
    report(6, "finetune/joint reduction, phi schedule, Gibbs inequality", ok)


# -- 7. end-to-end overfit ---------------------------------------------------


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    data = tmp_path_factory.mktemp("overfit-data")
    spec = SyntheticTaskSpec(alphabet="abcdefgh ", feature_dim=40,
                             frames_per_token=(12, 16), noise_std=0.05)
    manifest = synth_generate(spec, data, 50, words_range=(1, 2),
                              word_len_range=(2, 3), seed=0)
    cfg = resolve({}, {
        "data.alphabet": "abcdefgh ",
        "model.d_att": "64", "model.d_ff": "256", "model.heads": "4",
        "model.e1": "2", "model.e2": "4", "model.dec_layers": "2",
        "model.dropout": "0.0", "model.frontend": "conv2d4",
        "train.epochs": "70", "train.batch_size": "8",
        "train.label_smoothing": "0.0", "train.lr_scale": "0.5",
        "train.warmup_steps": "200", "train.specaugment": "false",
        "paths.train_manifest": str(manifest),
    })
    out = tmp_path_factory.mktemp("overfit-run")
    records = run_training(cfg, out, log=lambda s: None)
    return cfg, manifest, out, records


def test_criterion_7_overfit_and_fskd(overfit_run, tmp_path):
    cfg, manifest, out, records = overfit_run
    best = max(records, key=lambda r: r["dev_accuracy"])
    ok = best["dev_accuracy"] >= 0.99

    params = init_model_params(cfg.model, cfg.train.seed)
    params.load_state_dict(load_checkpoint(out / best["checkpoint"]))
    vocab = Vocabulary(cfg.alphabet)
    greedy = BeamConfig(beam_size=1, ctc_weight=0.0, lm_weight=0.0,
                        insertion_penalty=0.0, max_len_ratio=1.0)
    _, totals = decode_dataset(load_manifest(manifest), cfg.model, params,
                               greedy, vocab)
    ok &= totals.rate <= 0.05

    base = {k: ("true" if v is True else "false" if v is False else str(v))
            for k, v in cfg.raw.items()}
    base.update({"train.finetune_epochs": "20", "kd.phi_final": "0.5"})
    ft_cfg = resolve({}, base)
    ft_records = run_training(ft_cfg, tmp_path / "fskd", mode="finetune",
                              init_checkpoint=out / best["checkpoint"],
                              log=lambda s: None)
    ok &= ft_records[-1]["dev_accuracy"] >= best["dev_accuracy"] - 0.01
    report(7, "overfit >=99% accuracy, greedy WER <=5%, FS-KD regression <=1%", ok)


# -- 8. determinism & formats ------------------------------------------------


def _mutate(blob: bytes, rng) -> bytes:
    b = bytearray(blob)
    choice = rng.integers(0, 3)
    if choice == 0 and len(b) > 1:          # flip a byte
        i = int(rng.integers(0, len(b)))
        b[i] ^= int(rng.integers(1, 256))
    elif choice == 1 and len(b) > 1:        # truncate
        b = b[: int(rng.integers(0, len(b)))]
    else:                                   # append garbage
        b += bytes(rng.integers(0, 256, size=int(rng.integers(1, 8))).tolist())
    return bytes(b)


def test_criterion_8_determinism_and_formats(tmp_path):
    spec = SyntheticTaskSpec(alphabet="abcd ", feature_dim=16,
                             frames_per_token=(16, 20), noise_std=0.05)
    manifest = synth_generate(spec, tmp_path / "data", 6, words_range=(1, 1),
                              word_len_range=(2, 3), seed=0)
    overrides = {
        "data.alphabet": "abcd ", "model.d_att": "16", "model.d_ff": "32",
        "model.heads": "2", "model.e1": "1", "model.e2": "1",
        "model.dec_layers": "1", "model.dropout": "0.1",
        "model.feature_dim": "16", "train.epochs": "2", "train.batch_size": "3",
        "train.lr_scale": "0.5", "train.warmup_steps": "100",
        "train.specaugment": "true", "train.freq_mask_max": "4",
        "train.time_mask_max": "6", "paths.train_manifest": str(manifest),
    }
    r1 = run_training(resolve({}, overrides), tmp_path / "a", log=lambda s: None)
    r2 = run_training(resolve({}, overrides), tmp_path / "b", log=lambda s: None)
    strip = lambda rs: [{k: v for k, v in r.items() if k != "wall_time"} for r in rs]
    ok = strip(r1) == strip(r2)
    for epoch in (1, 2):
        ok &= (tmp_path / "a" / f"epoch{epoch:04d}.ckpt").read_bytes() == \
            (tmp_path / "b" / f"epoch{epoch:04d}.ckpt").read_bytes()

    # lossless round-trips
    state = load_checkpoint(tmp_path / "a" / "epoch0002.ckpt")
    save_checkpoint(tmp_path / "rt.ckpt", state)
    again = load_checkpoint(tmp_path / "rt.ckpt")
    ok &= all(np.array_equal(state[n], again[n]) for n in state)
    feats = load_features(load_manifest(manifest)[0].feature_path)
    save_features(tmp_path / "rt.trft", feats)
    ok &= np.array_equal(load_features(tmp_path / "rt.trft").features, feats.features)

    # 1000-mutation fuzz of both formats: load cleanly or raise FormatError
    rng = np.random.default_rng(0)
    ckpt_blob = (tmp_path / "rt.ckpt").read_bytes()
    feat_blob = (tmp_path / "rt.trft").read_bytes()
    for i in range(1000):
        blob, loader, path = ((ckpt_blob, load_checkpoint, tmp_path / "fz.ckpt")
                              if i % 2 == 0 else
                              (feat_blob, load_features, tmp_path / "fz.trft"))
        path.write_bytes(_mutate(blob, rng))
        try:
            loader(path)
        except FormatError:
            pass
        except Exception:
            ok = False
            break
    report(8, "seeded determinism, lossless round-trips, fuzz never crashes", ok)


# -- 9. checkpoint averaging -------------------------------------------------


def test_criterion_9_checkpoint_averaging(tmp_path):
    rng = np.random.default_rng(0)
    a = {"w": rng.normal(size=(3, 2)).astype(np.float32),
         "b": np.array(1.0, dtype=np.float32)}
    b = {"w": rng.normal(size=(3, 2)).astype(np.float32),
         "b": np.array(3.0, dtype=np.float32)}
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(pa, a)
    save_checkpoint(pb, b)

    same = average_checkpoints([pa, pa, pa])
    ok = all(np.array_equal(same[n], a[n]) for n in a)
    two = average_checkpoints([pa, pb])
    ok &= np.allclose(two["w"], (a["w"].astype(np.float64) + b["w"]) / 2)
    ok &= float(two["b"]) == 2.0
    report(9, "averaging: identity on identical, exact two-point mean", ok)
