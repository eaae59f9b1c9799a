"""Flat config parsing, defaults, overrides, and round-trip serialization."""

import re
from pathlib import Path

import pytest

from trasr.config import KEYS, dump_config, load_config, parse_flat, resolve
from trasr.errors import ConfigError


def test_defaults_mirror_reference_regimen():
    cfg = resolve({})
    assert cfg.model.num_encoder_layers == 12
    assert cfg.model.dec_layers == 6
    assert (cfg.model.d_att, cfg.model.d_ff, cfg.model.heads) == (256, 2048, 4)
    assert cfg.train.epochs == 150
    assert cfg.train.lr_scale == 5.0
    assert cfg.train.finetune_lr == 1e-4
    assert cfg.train.finetune_epochs == 50
    assert cfg.kd.phi_final == 0.5
    assert cfg.decode.beam_size == 20
    assert cfg.decode.ctc_weight == 0.5
    assert cfg.decode.lm_weight == 0.7
    assert cfg.decode.insertion_penalty == 2.0
    assert cfg.train.keep_best == 5
    assert cfg.train.alpha == 0.3


def test_vocab_size_follows_alphabet():
    cfg = resolve({"data.alphabet": "abc"})
    assert cfg.vocab_size == 5 + 3
    assert resolve({"data.alphabet": "aabc"}).vocab_size == 8  # dupes removed


def test_parse_comments_and_quotes():
    values = parse_flat(
        "# a comment\n"
        "model.d_att = 64  # trailing comment\n"
        "data.alphabet = \" ab\"\n")
    assert values["model.d_att"] == "64"
    assert values["data.alphabet"] == " ab"
    # a quoted value ends at its closing quote; a comment may follow it
    for line, want in (('data.alphabet = " ab" # with a space', " ab"),
                       ("data.alphabet = ' ab'# no gap", " ab"),
                       ('data.alphabet = " a#b"  ', " a#b"),
                       ('data.alphabet = ""ab "', '"ab '),
                       ("data.alphabet = 'a'b' # quote inside", "a'b")):
        assert parse_flat(line + "\n")["data.alphabet"] == want, line
    assert resolve(parse_flat('data.alphabet = " ab" # with a space\n')).vocab_size == 8
    for line in ('data.alphabet = " ab" x', "data.alphabet = ' ab", 'data.alphabet = "'):
        with pytest.raises(ConfigError, match="line 1"):
            parse_flat(line + "\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_flat("model.depth = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        resolve({}, {"model.depth": "3"})


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_flat("model.d_att = 64\nmodel.d_att = 128\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError):
        parse_flat("model.d_att 64\n")


def test_bad_value_reports_key():
    with pytest.raises(ConfigError, match="model.d_att"):
        resolve({"model.d_att": "tiny"})


def test_invalid_combination_becomes_config_error():
    with pytest.raises(ConfigError):
        resolve({"model.tr_enabled": "true", "model.pyramidal": "true"})


@pytest.mark.parametrize("key, value", [
    ("model.dropout", "1.0"), ("model.dropout", "-0.1"), ("lm.dropout", "1.0"),
    ("train.label_smoothing", "1.0"), ("train.alpha", "2"), ("train.batch_size", "0"),
    ("lm.batch_size", "0"), ("kd.temperature", "0"), ("kd.temperature", "-1"),
    ("train.warmup_steps", "0"), ("lm.warmup_steps", "0"), ("train.freq_mask_max", "-1"),
    ("train.time_mask_max", "-3"), ("model.heads", "0"), ("lm.heads", "0"),
    ("model.e1", "-1"), ("model.e2", "-1"), ("model.dec_layers", "-1"), ("lm.layers", "-1"),
    ("train.keep_best", "0"), ("model.d_att", "7"), ("model.d_att", "0"), ("lm.d_att", "7"),
    ("lm.d_att", "0"), ("model.d_ff", "0"), ("lm.d_ff", "0"), ("model.feature_dim", "0"),
    ("train.epochs", "0"), ("train.finetune_epochs", "0"), ("lm.epochs", "0"),
    ("model.frontend", "wavelet"), ("train.freq_masks", "-1"), ("train.time_masks", "-2"),
    ("decode.max_len_ratio", "nan"), ("decode.max_len_ratio", "inf"),
    ("decode.max_len_ratio", "0"), ("decode.max_len_ratio", "-1"),
    ("decode.lm_weight", "nan"), ("decode.lm_weight", "-inf"),
    ("decode.insertion_penalty", "nan"), ("decode.insertion_penalty", "inf"),
])
def test_out_of_range_value_is_config_error(key, value):
    # one head, so that a width is not rejected for not dividing among the heads
    heads = {"model.d_att": {"model.heads": "1"}, "lm.d_att": {"lm.heads": "1"}}
    with pytest.raises(ConfigError):
        resolve({**heads.get(key, {}), key: value})


def test_bool_parsing_variants():
    for s, want in (("true", True), ("ON", True), ("1", True),
                    ("false", False), ("off", False), ("0", False)):
        assert resolve({"model.tr_enabled": s}).model.tr_enabled is want
    with pytest.raises(ConfigError):
        resolve({"model.tr_enabled": "maybe"})


def test_dump_round_trip(tmp_path):
    # a '#' would start a comment; quotes in the alphabet are its symbols
    for extra in ({}, {"paths.train_manifest": "/data/run#1/train.tsv"},
                  {"data.alphabet": "ab#"}, {"data.alphabet": "'ab'"},
                  {"data.alphabet": '"ab '}):
        cfg = resolve({"model.d_att": "64", "model.heads": "2", "train.seed": "9",
                       "data.alphabet": "ab ", **extra})
        text = dump_config(cfg)
        p = tmp_path / "run.cfg"
        p.write_text(text)
        again = load_config(p)
        assert again.raw == cfg.raw
        assert again.vocab_size == cfg.vocab_size
        assert dump_config(again) == text


def test_overrides_take_precedence(tmp_path):
    p = tmp_path / "base.cfg"
    p.write_text("model.d_att = 64\nmodel.heads = 2\n")
    cfg = load_config(p, {"model.d_att": "128", "model.heads": "4"})
    assert cfg.model.d_att == 128


def test_frontend_pe_is_not_a_key():
    # the positional encoding follows from the front-end kind
    with pytest.raises(ConfigError, match="unknown key"):
        resolve({"model.frontend_pe": "on"})


# `dump_config(resolve({}))` at the time the key table was first derived from the
# dataclass fields, less the `model.frontend_pe` key removed since: every key,
# parser and default, pinned byte for byte.
DEFAULTS_DUMP = (
    "# resolved configuration\n"
    "data.alphabet = \" abcdefghijklmnopqrstuvwxyz'\"\n"
    "decode.beam_size = 20\n"
    "decode.ctc_weight = 0.5\n"
    "decode.insertion_penalty = 2.0\n"
    "decode.lm_weight = 0.7\n"
    "decode.max_len_ratio = 1.0\n"
    "kd.cadence = 1\n"
    "kd.mode = linear\n"
    "kd.phi_final = 0.5\n"
    "kd.temperature = 1.0\n"
    "lm.batch_size = 8\n"
    "lm.d_att = 64\n"
    "lm.d_ff = 256\n"
    "lm.dropout = 0.0\n"
    "lm.epochs = 50\n"
    "lm.heads = 2\n"
    "lm.layers = 2\n"
    "lm.lr_scale = 1.0\n"
    "lm.warmup_steps = 100\n"
    "model.d_att = 256\n"
    "model.d_ff = 2048\n"
    "model.dec_layers = 6\n"
    "model.dropout = 0.1\n"
    "model.e1 = 2\n"
    "model.e2 = 10\n"
    "model.feature_dim = 40\n"
    "model.frontend = conv2d4\n"
    "model.heads = 4\n"
    "model.post_norm = false\n"
    "model.pyramidal = false\n"
    "model.tr_enabled = true\n"
    "paths.dev_manifest = \"\"\n"
    "paths.lm_checkpoint = \"\"\n"
    "paths.train_manifest = \"\"\n"
    "train.alpha = 0.3\n"
    "train.batch_size = 8\n"
    "train.epochs = 150\n"
    "train.finetune_epochs = 50\n"
    "train.finetune_lr = 0.0001\n"
    "train.freq_mask_max = 10\n"
    "train.freq_masks = 2\n"
    "train.keep_best = 5\n"
    "train.label_smoothing = 0.1\n"
    "train.lr_scale = 5.0\n"
    "train.seed = 1\n"
    "train.specaugment = true\n"
    "train.time_mask_max = 20\n"
    "train.time_masks = 2\n"
    "train.warmup_steps = 25000\n"
)


def test_default_dump_is_pinned():
    assert dump_config(resolve({})) == "".join(DEFAULTS_DUMP)


def test_readme_names_only_real_keys():
    # every backticked `section.key` (lower case, so not `model.KVCache`)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    sections = "|".join(sorted({key.split(".")[0] for key in KEYS}))
    named = set(re.findall(rf"`((?:{sections})\.[a-z0-9_]+)`", readme))
    assert named, "no config key found in README.md"
    assert not named - set(KEYS), f"README.md names unknown keys {sorted(named - set(KEYS))}"
