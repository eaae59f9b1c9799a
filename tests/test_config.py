"""Flat config parsing, defaults, overrides, and round-trip serialization."""

import pytest

from trasr.config import dump_config, load_config, parse_flat, resolve
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
])
def test_out_of_range_value_is_config_error(key, value):
    with pytest.raises(ConfigError):
        resolve({key: value})


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


def test_frontend_pe_mode_validation():
    assert resolve({"model.frontend_pe": "on"}).model.frontend.apply_positional_encoding
    assert not resolve({"model.frontend_pe": "off"}).model.frontend.apply_positional_encoding
    with pytest.raises(ConfigError):
        resolve({"model.frontend_pe": "sometimes"})
