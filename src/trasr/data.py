"""Tokenization, synthetic datasets, feature/manifest file formats, batching,
and WER/CER metrics.

Feature files: magic "TRFT", u32 version=1, u32 T, u32 F, then T*F
little-endian float32 values row-major. Manifests are UTF-8 TSV lines
`id<TAB>feature_path<TAB>transcript` with paths relative to the manifest; a
leading byte-order mark is not part of the first id.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, VocabularyError
from .frontend import FeatureSequence

FEATURE_MAGIC = b"TRFT"
FEATURE_VERSION = 1

REPLACEMENT = "\N{REPLACEMENT CHARACTER}"


class Vocabulary:
    """Character vocabulary with fixed reserved ids."""

    BLANK, UNK, SOS, EOS, PAD = 0, 1, 2, 3, 4
    SPECIALS = ("<blk>", "<unk>", "<sos>", "<eos>", "<pad>")

    def __init__(self, alphabet: str):
        chars = list(dict.fromkeys(alphabet))  # dedupe, keep order
        self.symbols = list(self.SPECIALS) + chars
        self._char_to_id = {c: i + len(self.SPECIALS) for i, c in enumerate(chars)}

    def __len__(self) -> int:
        return len(self.symbols)

    def character_ids(self) -> list[int]:
        return list(range(len(self.SPECIALS), len(self.symbols)))

    def tokenize(self, text: str) -> list[int]:
        return [self._char_to_id.get(c, self.UNK) for c in text]

    def detokenize(self, ids) -> str:
        out = []
        for i in ids:
            i = int(i)
            if not 0 <= i < len(self.symbols):
                raise VocabularyError(f"token id {i} outside vocabulary of size {len(self)}")
            if i == self.UNK:
                out.append(REPLACEMENT)
            elif i >= len(self.SPECIALS):
                out.append(self.symbols[i])
        return "".join(out)


# -- feature and manifest files -------------------------------------------


def save_features(path, seq: FeatureSequence) -> None:
    if not np.isfinite(seq.features).all():
        raise ValueError("refusing to save non-finite feature values")
    payload = FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, seq.length, seq.feature_dim)
    payload += np.ascontiguousarray(seq.features, dtype="<f4").tobytes()
    Path(path).write_bytes(payload)


def _feature_header(blob: bytes) -> tuple[int, int]:
    """(T, F) from the first 16 bytes of a feature file."""
    if len(blob) < 16:
        raise FormatError(f"feature file truncated: {len(blob)} bytes, header needs 16")
    if blob[:4] != FEATURE_MAGIC:
        raise FormatError("bad feature-file magic at byte 0")
    version, t, f = struct.unpack("<III", blob[4:16])
    if version != FEATURE_VERSION:
        raise FormatError(f"unsupported feature-file version {version} at byte 4")
    if t < 1 or f < 1:
        raise FormatError(f"invalid dimensions T={t} F={f} at byte 8")
    return t, f


def load_features(path) -> FeatureSequence:
    blob = Path(path).read_bytes()
    t, f = _feature_header(blob)
    expected = 16 + 4 * t * f
    if len(blob) != expected:
        raise FormatError(f"feature file has {len(blob)} bytes, expected {expected}")
    data = np.frombuffer(blob, dtype="<f4", offset=16).reshape(t, f).copy()
    if not np.isfinite(data).all():
        raise FormatError("feature file contains non-finite values")
    return FeatureSequence(data)


@dataclass
class ManifestEntry:
    utt_id: str
    feature_path: Path
    transcript: str


def save_manifest(path, entries) -> None:
    """Write `entries`, whose feature files lie under the manifest's directory."""
    base = Path(path).parent
    lines = [f"{e.utt_id}\t{Path(e.feature_path).relative_to(base).as_posix()}\t{e.transcript}"
             for e in entries]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_manifest(path) -> list[ManifestEntry]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise FormatError(f"manifest {path} is not valid UTF-8") from e
    entries = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        utt_id, rel, transcript = parts
        if utt_id in seen:
            raise FormatError(f"{path}:{lineno}: duplicate utterance id {utt_id!r}")
        seen.add(utt_id)
        entries.append(ManifestEntry(utt_id, path.parent / rel, transcript))
    if not entries:
        raise FormatError(f"manifest {path} is empty")
    return entries


# -- synthetic task ---------------------------------------------------------


@dataclass
class SyntheticTaskSpec:
    alphabet: str = "abcdefgh "
    feature_dim: int = 40
    frames_per_token: tuple[int, int] = (4, 8)
    noise_std: float = 0.05


TEMPLATE_SEED = 7
MIN_TEMPLATE_DISTANCE = 0.5  # between any two characters' unit-vector templates
TEMPLATE_DRAWS = 1000  # random unit vectors tried per character


def token_templates(spec: SyntheticTaskSpec) -> dict[str, np.ndarray]:
    """One deterministic feature template per character, pairwise well
    separated; ValueError if TEMPLATE_DRAWS draws find no room for one."""
    rng = np.random.default_rng(TEMPLATE_SEED)
    templates: dict[str, np.ndarray] = {}
    for ch in dict.fromkeys(spec.alphabet):
        for _ in range(TEMPLATE_DRAWS):
            v = rng.normal(size=spec.feature_dim)
            v /= np.linalg.norm(v)
            if all(np.linalg.norm(v - u) >= MIN_TEMPLATE_DISTANCE
                   for u in templates.values()):
                templates[ch] = v.astype(np.float32)
                break
        else:
            raise ValueError(f"{TEMPLATE_DRAWS} draws found no template for {ch!r} at least "
                             f"{MIN_TEMPLATE_DISTANCE} from the {len(templates)} before it")
    return templates


def synth_utterance(spec: SyntheticTaskSpec, transcript: str, rng: np.random.Generator,
                    templates: dict[str, np.ndarray]) -> FeatureSequence:
    """Features of `transcript`; `templates` are `token_templates(spec)`."""
    lo, hi = spec.frames_per_token
    rows = []
    for ch in transcript:
        reps = int(rng.integers(lo, hi + 1))
        block = np.tile(templates[ch], (reps, 1))
        rows.append(block)
    feats = np.concatenate(rows, axis=0)
    if spec.noise_std > 0:
        feats = feats + rng.normal(scale=spec.noise_std, size=feats.shape).astype(np.float32)
    return FeatureSequence(feats.astype(np.float32))


def synth_generate(spec: SyntheticTaskSpec, out_dir, n_utterances: int,
                   words_range: tuple[int, int] = (1, 3),
                   word_len_range: tuple[int, int] = (2, 4),
                   seed: int = 0) -> Path:
    """Write a synthetic dataset (features + manifest); returns the manifest path."""
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0x5D47A]))
    letters = [c for c in dict.fromkeys(spec.alphabet) if c != " "]
    templates = token_templates(spec)
    entries = []
    for i in range(n_utterances):
        n_words = int(rng.integers(words_range[0], words_range[1] + 1))
        words = ["".join(rng.choice(letters, size=int(rng.integers(
            word_len_range[0], word_len_range[1] + 1)))) for _ in range(n_words)]
        transcript = " ".join(words)
        seq = synth_utterance(spec, transcript, rng, templates)
        utt_id = f"utt{i:04d}"
        feat_path = out_dir / "features" / f"{utt_id}.trft"
        save_features(feat_path, seq)
        entries.append(ManifestEntry(utt_id, feat_path, transcript))
    manifest = out_dir / "manifest.tsv"
    save_manifest(manifest, entries)
    return manifest


# -- batching ---------------------------------------------------------------


@dataclass
class Batch:
    """Utterances batched together: their features zero-padded to the
    longest, each row's true frame count, and each one's token ids."""

    utt_ids: list[str]
    features: np.ndarray       # [B, T_max, F]
    feature_lengths: np.ndarray
    tokens: list[list[int]]


def make_batches(loaded: list[tuple[ManifestEntry, FeatureSequence]], vocab: Vocabulary,
                 batch_size: int) -> list[Batch]:
    """Length-sorted bucketing of (entry, its loaded features) pairs with
    zero padding and true-length records."""
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    if not loaded:
        raise ValueError("empty manifest")
    loaded = sorted(loaded, key=lambda item: (item[1].length, item[0].utt_id))
    batches = []
    for i in range(0, len(loaded), batch_size):
        chunk = loaded[i:i + batch_size]
        lengths = np.array([seq.length for _, seq in chunk], dtype=np.int64)
        feats = np.zeros((len(chunk), lengths.max(), chunk[0][1].feature_dim),
                         dtype=np.float32)
        for row, (_, seq) in zip(feats, chunk):
            row[: seq.length] = seq.features
        batches.append(Batch([e.utt_id for e, _ in chunk], feats, lengths,
                             [vocab.tokenize(e.transcript) for e, _ in chunk]))
    return batches


# -- error rates ------------------------------------------------------------


@dataclass
class EditStats:
    errors: int
    substitutions: int
    insertions: int
    deletions: int
    ref_length: int

    @property
    def rate(self) -> float:
        return self.errors / max(1, self.ref_length)

    def __add__(self, other: "EditStats") -> "EditStats":
        return EditStats(self.errors + other.errors,
                         self.substitutions + other.substitutions,
                         self.insertions + other.insertions,
                         self.deletions + other.deletions,
                         self.ref_length + other.ref_length)


def edit_stats(ref: list, hyp: list) -> EditStats:
    """Levenshtein distance with unit costs, split into S/I/D via backtrace."""
    n, m = len(ref), len(hyp)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1])
            dist[i, j] = min(sub, dist[i - 1, j] + 1, dist[i, j - 1] + 1)
    subs = ins = dels = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]):
            subs += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif i > 0 and dist[i, j] == dist[i - 1, j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return EditStats(int(dist[n, m]), int(subs), ins, dels, n)


def wer(ref: str, hyp: str) -> EditStats:
    return edit_stats(ref.split(), hyp.split())

