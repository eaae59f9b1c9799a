"""Workload definitions and seeded synthetic inputs for the trasr benchmark.

Inputs are generated here, not by trasr, and written in trasr's documented
file formats (TRFT feature files and `id<TAB>path<TAB>text` manifests), so
the program under test receives only the generated files.

A workload seed selects one of `N_INPUT_SETS` input sets (`seed % N_INPUT_SETS`).
Each set is generated from its index; the stored references in
`references.json` cover every set. Utterance *structure* (words per
utterance and letters per word) follows a fixed schedule shared by all
sets, so every set carries the same number of tokens. For training the
letters, frames per token and feature noise come from the set. Search time
and WER depend strongly on what an utterance says, so decode sets share
their transcripts and frame counts and differ in the feature noise only.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_INPUT_SETS = 16
ALPHABET = "abcdefgh "          # 9 characters + 5 reserved ids = 14
VOCAB_SIZE = 14
FEATURE_DIM = 40
FRAME_SECONDS = 0.010           # one input frame is 10 ms of audio
TEMPLATE_SEED = 7
NOISE_STD = 0.05

# Model and training keys shared by the desk-sized workloads and fixtures.
DESK_MODEL = {
    "model.d_att": "64", "model.d_ff": "256", "model.heads": "4",
    "model.e1": "2", "model.e2": "4", "model.dec_layers": "2",
    "model.frontend": "conv2d4", "model.dropout": "0.0",
}
DESK_TRAIN = {
    "train.batch_size": "8", "train.lr_scale": "0.5", "train.warmup_steps": "200",
    "train.specaugment": "false", "train.label_smoothing": "0.0", "train.seed": "1",
}
PAPER_MODEL = {
    "model.d_att": "256", "model.d_ff": "2048", "model.heads": "4",
    "model.e1": "2", "model.e2": "10", "model.dec_layers": "6",
    "model.frontend": "conv2d4", "model.dropout": "0.1",
}
PAPER_TRAIN = {
    "train.batch_size": "4", "train.specaugment": "true",
    "train.label_smoothing": "0.1", "train.seed": "1", "kd.phi_final": "0.5",
}
# Beam search with CTC prefix scoring and shallow LM fusion (gamma > 0).
DECODE = {
    "decode.beam_size": "10", "decode.ctc_weight": "0.5", "decode.lm_weight": "0.3",
    "decode.insertion_penalty": "1.0", "decode.max_len_ratio": "1.0",
}
LM_MODEL = {"lm.layers": "2", "lm.d_att": "64", "lm.d_ff": "256", "lm.heads": "2"}


@dataclass(frozen=True)
class UtteranceShape:
    """Ranges of the synthetic utterances of one workload."""
    words: tuple[int, int]
    word_len: tuple[int, int]
    frames_per_token: tuple[int, int] = (12, 16)


DESK_SHAPE = UtteranceShape(words=(1, 2), word_len=(2, 3))
# Decode utterances are the desk model's two-word ones. In a one-to-two-word
# mix, one-word latencies sit well below two-word ones, and the median fell
# in the gap between them, where it moved up to 30% more than throughput did.
DECODE_SHAPE = UtteranceShape(words=(2, 2), word_len=(2, 3))
PAPER_SHAPE = UtteranceShape(words=(2, 4), word_len=(3, 6))


@dataclass(frozen=True)
class TrainSpec:
    mode: str                   # run_training mode
    config: dict
    shape: UtteranceShape
    n_train: int
    n_dev: int
    epochs: int


@dataclass(frozen=True)
class DecodeSpec:
    config: dict
    shape: UtteranceShape
    n_utts: int                 # utterances in one decode pass


TRAIN_DESK = TrainSpec("plain", {**DESK_MODEL, **DESK_TRAIN}, DESK_SHAPE,
                       n_train=32, n_dev=16, epochs=4)
TRAIN_PAPER = TrainSpec("skd", {**PAPER_MODEL, **PAPER_TRAIN}, PAPER_SHAPE,
                        n_train=8, n_dev=2, epochs=2)
# 120 utterances: one pass gives p90 twelve samples beyond it.
DECODE_BEAM = DecodeSpec({**DESK_MODEL, **DECODE, **LM_MODEL}, DECODE_SHAPE, n_utts=120)

# Stream tags keep fixture data, training sets and decode sets disjoint.
TAG_TRAIN, TAG_DEV, TAG_DECODE, TAG_FIXTURE, TAG_SCHEDULE = 1, 2, 3, 4, 5


def input_set(seed: int) -> int:
    return seed % N_INPUT_SETS


def _templates() -> dict[str, np.ndarray]:
    """One unit-norm feature template per character, pairwise separated."""
    rng = np.random.default_rng(TEMPLATE_SEED)
    out: dict[str, np.ndarray] = {}
    for ch in ALPHABET:
        while True:
            v = rng.normal(size=FEATURE_DIM)
            v /= np.linalg.norm(v)
            if all(np.linalg.norm(v - u) >= 0.5 for u in out.values()):
                out[ch] = v.astype(np.float32)
                break
    return out


def schedule(shape: UtteranceShape, n: int, tag: int) -> list[list[int]]:
    """Word lengths per utterance; depends only on the shape, count and tag."""
    rng = np.random.default_rng([TAG_SCHEDULE, tag, n])
    return [[int(rng.integers(shape.word_len[0], shape.word_len[1] + 1))
             for _ in range(int(rng.integers(shape.words[0], shape.words[1] + 1)))]
            for _ in range(n)]


def synthesize(shape: UtteranceShape, n: int, tag: int, index: int,
               noise_index: int | None = None):
    """`n` (transcript, features[T, F]) pairs for stream (tag, index); the
    feature noise comes from stream (tag, index, noise_index) if given.

    Letters never repeat back to back, so a CTC alignment needs no extra
    blank frames and every utterance is long enough for conv2d4 + TR.
    """
    templates = _templates()
    letters = [c for c in ALPHABET if c != " "]
    rng = np.random.default_rng([tag, index])
    noise_rng = rng if noise_index is None else np.random.default_rng([tag, index, noise_index])
    out = []
    for word_lens in schedule(shape, n, tag):
        words = []
        for length in word_lens:
            word = [letters[int(rng.integers(len(letters)))]]
            while len(word) < length:
                c = letters[int(rng.integers(len(letters)))]
                if c != word[-1]:
                    word.append(c)
            words.append("".join(word))
        text = " ".join(words)
        lo, hi = shape.frames_per_token
        rows = [np.tile(templates[ch], (int(rng.integers(lo, hi + 1)), 1)) for ch in text]
        feats = np.concatenate(rows, axis=0)
        feats = feats + noise_rng.normal(scale=NOISE_STD, size=feats.shape)
        out.append((text, feats.astype(np.float32)))
    return out


def decode_set(spec: DecodeSpec, index: int):
    return synthesize(spec.shape, spec.n_utts, TAG_DECODE, 0, noise_index=index)


def write_features(path: Path, feats: np.ndarray) -> None:
    t, f = feats.shape
    path.write_bytes(b"TRFT" + struct.pack("<III", 1, t, f)
                     + np.ascontiguousarray(feats, dtype="<f4").tobytes())


def write_set(out_dir: Path, name: str, utterances) -> Path:
    """Write features and a manifest; returns the manifest path."""
    feat_dir = out_dir / name
    feat_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, (text, feats) in enumerate(utterances):
        utt_id = f"{name}{i:04d}"
        write_features(feat_dir / f"{utt_id}.trft", feats)
        lines.append(f"{utt_id}\t{name}/{utt_id}.trft\t{text}")
    manifest = out_dir / f"{name}.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest
