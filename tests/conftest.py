"""Shared fixtures and brute-force oracles used across the test suite."""

import itertools

import numpy as np
import pytest

import trasr.model
from trasr.frontend import FeatureSequence, subsample
from trasr.model import EVAL_CTX, ModelConfig, encode, init_model_params


def random_log_probs(rng, n_frames, vocab):
    """Random [T, V] grid of valid log-probabilities."""
    logits = rng.normal(size=(n_frames, vocab))
    return logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))


def brute_force_ctc(log_probs, target, blank=0):
    """-log P(target) by enumerating every V^T alignment path."""
    n_frames, vocab = log_probs.shape
    target = list(target)
    total = -np.inf
    for path in itertools.product(range(vocab), repeat=n_frames):
        out, prev = [], None
        for s in path:
            if s != blank and s != prev:
                out.append(s)
            prev = s
        if out == target:
            total = np.logaddexp(total, sum(log_probs[t, path[t]] for t in range(n_frames)))
    return -total


def brute_force_prefix(log_probs, prefix, blank=0):
    """log P(output starts with prefix) by enumerating every alignment path."""
    n_frames, vocab = log_probs.shape
    prefix = list(prefix)
    total = -np.inf
    for path in itertools.product(range(vocab), repeat=n_frames):
        out, prev = [], None
        for s in path:
            if s != blank and s != prev:
                out.append(s)
            prev = s
        if out[: len(prefix)] == prefix:
            total = np.logaddexp(total, sum(log_probs[t, path[t]] for t in range(n_frames)))
    return total


def tiny_model_config(**overrides):
    """Small identity-frontend model; cheap enough for gradient checks."""
    d_att = overrides.pop("d_att", 16)
    defaults = dict(e1=1, e2=1, dec_layers=1, d_att=d_att, d_ff=32, heads=2,
                    reduction="tr", vocab_size=7, dropout=0.0, frontend="identity", feature_dim=d_att)
    defaults.update(overrides)
    return ModelConfig(**defaults)


def random_features(rng, n_frames, dim, dtype=np.float32):
    return FeatureSequence(rng.normal(size=(n_frames, dim)).astype(dtype), n_frames)


def encode_one(seq, cfg, params, ctx=EVAL_CTX):
    """`encode` on one FeatureSequence as a batch of one: (x_e [T', D], T')."""
    x_e, n = encode(seq.features[None], [seq.length], cfg, params, ctx)
    return x_e[0], int(n[0])


def subsample_one(seq, kind, params):
    """`subsample` on one FeatureSequence as a batch of one: ([n, d_att], n)."""
    out, n = subsample(seq.features[None], [seq.length], kind, params)
    return out[0], int(n[0])


@pytest.fixture
def tiny_model():
    cfg = tiny_model_config()
    return cfg, init_model_params(cfg, seed=0)


def refuse_init_draws(monkeypatch):
    """From here on, the stream that `trasr.model` draws initial weights from
    raises on every 'init/' name: what still runs draws no initial weights."""
    real = trasr.model.stream

    def stream(seed, name):
        if name.startswith("init/"):
            raise AssertionError(f"drew initial weights from {name!r}")
        return real(seed, name)

    monkeypatch.setattr(trasr.model, "stream", stream)
