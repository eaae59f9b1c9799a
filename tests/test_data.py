"""Vocabulary, file formats, synthetic data, batching, and error rates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trasr.data as data
from trasr.data import (MIN_TEMPLATE_DISTANCE, ManifestEntry, SyntheticTaskSpec, Vocabulary,
                        edit_stats, load_features, load_manifest, make_batches,
                        save_features, save_manifest, synth_generate, synth_utterance,
                        token_templates, wer)
from trasr.errors import FormatError, VocabularyError
from trasr.frontend import FeatureSequence
from trasr.model import ModelConfig
from trasr.training import vet


# -- vocabulary -------------------------------------------------------------


def test_reserved_ids():
    v = Vocabulary("ab")
    assert (v.BLANK, v.UNK, v.SOS, v.EOS, v.PAD) == (0, 1, 2, 3, 4)
    assert len(v) == 7
    assert v.character_ids() == [5, 6]


def test_tokenize_round_trip():
    v = Vocabulary("ab")
    assert v.tokenize("ab") == [5, 6]
    assert v.detokenize([5, 6]) == "ab"
    assert v.tokenize("") == []
    assert v.detokenize([]) == ""


def test_oov_maps_to_unk_and_renders_replacement():
    v = Vocabulary("ab")
    ids = v.tokenize("az")
    assert ids == [5, v.UNK]
    assert v.detokenize(ids) == "a\N{REPLACEMENT CHARACTER}"


def test_detokenize_invalid_id():
    with pytest.raises(VocabularyError):
        Vocabulary("ab").detokenize([99])


def test_duplicate_alphabet_characters_deduped():
    assert len(Vocabulary("aab")) == len(Vocabulary("ab"))


# -- feature files ----------------------------------------------------------


def test_features_round_trip(tmp_path):
    x = np.random.default_rng(0).normal(size=(7, 5)).astype(np.float32)
    p = tmp_path / "u.trft"
    save_features(p, FeatureSequence(x, 7))
    loaded = load_features(p)
    assert loaded.length == 7
    assert np.array_equal(loaded.features, x)


def test_features_save_trims_padding(tmp_path):
    x = np.ones((6, 3), dtype=np.float32)
    p = tmp_path / "u.trft"
    save_features(p, FeatureSequence(x, 4))
    assert load_features(p).length == 4


def test_features_empty_rejected_at_save(tmp_path):
    with pytest.raises(ValueError):
        FeatureSequence(np.zeros((0, 3), dtype=np.float32), 0)


def test_features_truncated_rejected(tmp_path):
    p = tmp_path / "u.trft"
    save_features(p, FeatureSequence(np.ones((3, 2), dtype=np.float32), 3))
    blob = p.read_bytes()
    p.write_bytes(blob[:-3])
    with pytest.raises(FormatError):
        load_features(p)


def test_load_features_checks_the_size_against_the_header(tmp_path):
    p = tmp_path / "u.trft"
    save_features(p, FeatureSequence(np.ones((3, 2), dtype=np.float32), 3))
    assert load_features(p).length == 3
    blob = p.read_bytes()
    for cut in (blob[:-3], blob + b"\0"):
        p.write_bytes(cut)
        with pytest.raises(FormatError, match=f"has {len(cut)} bytes, expected 40"):
            load_features(p)


def test_features_bad_magic_and_version(tmp_path):
    p = tmp_path / "u.trft"
    save_features(p, FeatureSequence(np.ones((2, 2), dtype=np.float32), 2))
    blob = bytearray(p.read_bytes())
    blob[0] = ord("X")
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_features(p)
    blob[0] = ord("T")
    blob[4] = 7
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        load_features(p)


def test_features_non_finite_rejected(tmp_path):
    x = np.ones((2, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        save_features(tmp_path / "u.trft", FeatureSequence(x * np.nan, 2))


# -- manifests --------------------------------------------------------------


def write_dataset(tmp_path, n=3):
    entries = []
    for i in range(n):
        p = tmp_path / f"u{i}.trft"
        save_features(p, FeatureSequence(np.full((4 + i, 3), float(i), np.float32), 4 + i))
        entries.append(ManifestEntry(f"u{i}", p, "ab"))
    man = tmp_path / "manifest.tsv"
    save_manifest(man, entries)
    return man


def test_manifest_round_trip(tmp_path):
    man = write_dataset(tmp_path)
    entries = load_manifest(man)
    assert [e.utt_id for e in entries] == ["u0", "u1", "u2"]
    assert all(e.transcript == "ab" for e in entries)


def test_manifest_with_a_byte_order_mark_reads_as_one_without(tmp_path):
    man = write_dataset(tmp_path)
    marked = tmp_path / "marked.tsv"
    marked.write_text(man.read_text(encoding="utf-8"), encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_manifest(marked) == load_manifest(man)
    assert load_manifest(marked)[0].utt_id == "u0"


def test_manifest_duplicate_id(tmp_path):
    man = write_dataset(tmp_path)
    text = man.read_text()
    man.write_text(text + text.splitlines()[0] + "\n")
    with pytest.raises(FormatError, match="duplicate"):
        load_manifest(man)


def test_manifest_missing_file(tmp_path):
    # the manifest keeps the entry; `vet` skips it when a run reads it
    man = write_dataset(tmp_path)
    man.write_text("ghost\tnope.trft\tab\n")
    (entry,) = load_manifest(man)
    assert entry.feature_path == tmp_path / "nope.trft"
    seq, reason = vet(entry, ModelConfig(feature_dim=3))
    assert seq is None
    assert reason.startswith(f"{entry.feature_path}: ") and "No such file" in reason


def test_manifest_empty_rejected(tmp_path):
    man = tmp_path / "manifest.tsv"
    man.write_text("\n")
    with pytest.raises(FormatError, match="empty"):
        load_manifest(man)


def test_manifest_wrong_field_count(tmp_path):
    man = tmp_path / "manifest.tsv"
    man.write_text("a\tb\n")
    with pytest.raises(FormatError, match="3 tab-separated"):
        load_manifest(man)


# -- synthetic task ---------------------------------------------------------


def test_templates_deterministic_and_separated():
    spec = SyntheticTaskSpec()
    t1 = token_templates(spec)
    t2 = token_templates(spec)
    chars = list(t1)
    for c in chars:
        assert np.array_equal(t1[c], t2[c])
    for i, a in enumerate(chars):
        for b in chars[i + 1:]:
            assert np.linalg.norm(t1[a] - t1[b]) >= MIN_TEMPLATE_DISTANCE


def test_noise_free_utterance_is_concatenated_templates():
    spec = SyntheticTaskSpec(noise_std=0.0, frames_per_token=(3, 3))
    templates = token_templates(spec)
    seq = synth_utterance(spec, "ab", np.random.default_rng(0), templates)
    assert seq.length == 6
    assert np.allclose(seq.features[:3], templates["a"])
    assert np.allclose(seq.features[3:], templates["b"])


def test_synth_generate_deterministic(tmp_path):
    spec = SyntheticTaskSpec()
    m1 = synth_generate(spec, tmp_path / "a", 5, seed=3)
    m2 = synth_generate(spec, tmp_path / "b", 5, seed=3)
    e1, e2 = load_manifest(m1), load_manifest(m2)
    for a, b in zip(e1, e2):
        assert a.transcript == b.transcript
        assert a.feature_path.read_bytes() == b.feature_path.read_bytes()


def test_synth_generate_builds_the_templates_once(tmp_path, monkeypatch):
    calls = []

    def templates(spec):
        calls.append(spec)
        return token_templates(spec)

    monkeypatch.setattr(data, "token_templates", templates)
    synth_generate(SyntheticTaskSpec(), tmp_path, 5, seed=3)
    assert len(calls) == 1


def test_synth_dataset_linearly_separable(tmp_path):
    # frames carry their token template + noise 0.05: a nearest-template
    # classifier should label nearly every frame correctly
    spec = SyntheticTaskSpec(noise_std=0.05)
    templates = token_templates(spec)
    names = list(templates)
    mat = np.stack([templates[c] for c in names])
    rng = np.random.default_rng(0)
    correct = total = 0
    for _ in range(20):
        text = "".join(rng.choice(list("abcdefgh "), size=5))
        spec2 = SyntheticTaskSpec(noise_std=0.05, frames_per_token=(2, 2))
        seq = synth_utterance(spec2, text, rng, templates)
        for i, ch in enumerate(text):
            for f in range(2):
                frame = seq.features[2 * i + f]
                pred = names[np.argmax(mat @ frame)]
                correct += pred == ch
                total += 1
    assert correct / total >= 0.95


# -- batching ---------------------------------------------------------------


def loaded(manifest):
    """The (entry, features) pairs that make_batches takes."""
    return [(e, load_features(e.feature_path)) for e in load_manifest(manifest)]


def test_batch_size_one_no_padding(tmp_path):
    man = write_dataset(tmp_path)
    batches = make_batches(loaded(man), Vocabulary("ab"), 1)
    assert len(batches) == 3
    for b in batches:
        assert b.features.shape[1] == int(b.feature_lengths[0])


def test_batch_padding_and_masks(tmp_path):
    entries = []
    for i, length in enumerate((5, 9)):
        p = tmp_path / f"u{i}.trft"
        save_features(p, FeatureSequence(np.ones((length, 3), np.float32), length))
        entries.append(ManifestEntry(f"u{i}", p, "ab"))
    man = tmp_path / "manifest.tsv"
    save_manifest(man, entries)
    (batch,) = make_batches(loaded(man), Vocabulary("ab"), 2)
    assert batch.features.shape == (2, 9, 3)
    assert sorted(batch.feature_lengths.tolist()) == [5, 9]
    # padded rows are zero
    short = list(batch.feature_lengths).index(5)
    assert np.array_equal(batch.features[short, 5:], np.zeros((4, 3), np.float32))
    assert (batch.targets >= 0).all()


def test_batching_conserves_frames(tmp_path):
    man = write_dataset(tmp_path, n=5)
    pairs = loaded(man)
    total = sum(seq.length for _, seq in pairs)
    batches = make_batches(pairs, Vocabulary("ab"), 2)
    assert sum(int(l) for b in batches for l in b.feature_lengths) == total


def test_batch_sequences_round_trip(tmp_path):
    man = write_dataset(tmp_path)
    v = Vocabulary("ab")
    batches = make_batches(loaded(man), v, 2)
    seen = {}
    for b in batches:
        for i, utt_id in enumerate(b.utt_ids):
            n_tokens = int(b.target_lengths[i])
            seen[utt_id] = (int(b.feature_lengths[i]),
                            v.detokenize(list(b.targets[i, :n_tokens])))
    assert seen == {"u0": (4, "ab"), "u1": (5, "ab"), "u2": (6, "ab")}


def test_empty_batching_rejected():
    with pytest.raises(ValueError):
        make_batches([], Vocabulary("ab"), 2)


# -- error rates ------------------------------------------------------------


def test_wer_identical_zero():
    assert wer("the cat sat", "the cat sat").errors == 0
    assert wer("the cat sat", "the cat sat").rate == 0.0


def test_wer_single_deletion():
    stats = wer("the cat sat", "the cat")
    assert stats.errors == 1 and stats.deletions == 1
    assert abs(stats.rate - 1 / 3) < 1e-12


def test_wer_swap_two_errors():
    stats = wer("a b", "b a")
    assert stats.errors == 2
    assert stats.rate == 1.0


def test_cer_counts_characters():
    stats = edit_stats(list("abc"), list("abd"))
    assert stats.errors == 1 and stats.ref_length == 3


def test_edit_stats_addition():
    total = wer("a b", "a b") + wer("a b", "b a")
    assert total.errors == 2 and total.ref_length == 4
    assert total.rate == 0.5


def test_edit_stats_breakdown_consistent():
    s = edit_stats(list("kitten"), list("sitting"))
    assert s.errors == 3
    assert s.substitutions + s.insertions + s.deletions == s.errors


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=6), st.lists(st.integers(0, 3), max_size=6),
       st.lists(st.integers(0, 3), max_size=6))
def test_edit_distance_is_a_metric(a, b, c):
    dab = edit_stats(a, b).errors
    dba = edit_stats(b, a).errors
    assert dab == dba                      # symmetric in error count
    assert (dab == 0) == (a == b)          # identity of indiscernibles
    dac = edit_stats(a, c).errors
    dcb = edit_stats(c, b).errors
    assert dab <= dac + dcb                # triangle inequality
