"""Flat config parsing, defaults, overrides, and round-trip serialization."""

import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from trasr.config import KEYS, SECTIONS, dump_config, load_config, parse_flat, resolve
from trasr.errors import ConfigError
from trasr.losses import KDConfig


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
    with pytest.raises(ConfigError, match="at least 3 layers"):
        resolve({"model.reduction": "pyramidal", "model.e1": "0", "model.e2": "2"})


@pytest.mark.parametrize("value", ["bogus", "TR", "", "pyramid"])
def test_unknown_reduction_is_config_error(value):
    with pytest.raises(ConfigError,
                       match="^model.reduction must be one of none, tr, pyramidal, got"):
        resolve({"model.reduction": value})


@pytest.mark.parametrize("value, halved_before", [
    ("none", {}), ("tr", {2: "enc.tr"}),
    ("pyramidal", {1: "enc.tr0", 2: "enc.tr1", 3: "enc.tr2"})])
def test_reduction_key_places_the_time_reductions(value, halved_before):
    assert resolve({"model.reduction": value}).model.reductions == halved_before


@pytest.mark.parametrize("key", ["model.tr_enabled", "model.pyramidal", "model.post_norm",
                                 "kd.mode"])
def test_removed_key_is_unknown(key):
    assert key not in KEYS
    with pytest.raises(ConfigError, match="unknown key"):
        resolve({key: "true"})


def test_kd_config_fields_are_its_keys():
    assert {f.name for f in fields(KDConfig)} == {"phi_final", "cadence", "temperature"}
    assert [not_keys for section, _, not_keys in SECTIONS if section == "kd"] == [()]
    assert {k for k in KEYS if k.startswith("kd.")} == \
        {"kd.phi_final", "kd.cadence", "kd.temperature"}


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


def _just_outside(parser, bound, direction: int) -> str:
    """The value next to `bound` on its `direction` side (-1 below, 1 above)."""
    if parser is float:
        return repr(float(np.nextafter(float(bound), direction * math.inf)))
    return repr(bound + direction)


def _out_of_declaration():
    """(key, value) for every key just outside each bound that its field
    declares (at an open bound, the bound itself), beside its choices, and,
    for each float key, at nan and at +-inf."""
    cases = []
    for section, cls, not_keys in SECTIONS:
        for f in fields(cls):
            key = f"{section}.{f.name}"
            if f.name in not_keys:
                continue
            parser = KEYS[key][0]
            if "choices" in f.metadata:
                cases.append((key, "x".join(f.metadata["choices"])))
            if "range" in f.metadata:
                low, high, open_low, open_high = f.metadata["range"]
                cases.append((key, repr(low) if open_low else _just_outside(parser, low, -1)))
                if high is not None:
                    cases.append((key, repr(high) if open_high else
                                  _just_outside(parser, high, 1)))
            if parser is float:
                cases += [(key, "nan"), (key, "inf"), (key, "-inf")]
    return cases


OUT_OF_DECLARATION = _out_of_declaration()


@pytest.mark.parametrize("key, value", OUT_OF_DECLARATION,
                         ids=[f"{key}={value}" for key, value in OUT_OF_DECLARATION])
def test_a_value_outside_its_declaration_is_a_config_error_naming_its_key(key, value):
    with pytest.raises(ConfigError) as err:
        resolve({key: value})
    assert str(err.value).startswith(f"{key} must be "), str(err.value)


def test_every_numeric_key_but_the_seed_declares_its_range():
    declared = {key for key, _ in OUT_OF_DECLARATION}
    numeric = {key for key, (parser, _) in KEYS.items() if parser in (int, float)}
    assert numeric - declared == {"train.seed"}
    assert {"model.frontend", "model.reduction"} <= declared


@pytest.mark.parametrize("key, value, message", [
    ("train.lr_scale", "-1", "train.lr_scale must be >= 0, got -1.0"),
    ("kd.temperature", "0", "kd.temperature must be >= 0.001, got 0.0"),
    ("train.label_smoothing", "1", "train.label_smoothing must be in [0, 1), got 1.0"),
    ("decode.lm_weight", "nan", "decode.lm_weight must be finite, got nan"),
    ("model.frontend", "wavelet", "model.frontend must be one of conv2d4, conv2d8, "
     "vggconv2d4, vggconv2d8, identity, got 'wavelet'"),
    ("lm.d_att", "6", "lm.d_att must be a multiple of heads (4), got 6"),
])
def test_a_range_error_reads_key_must_be_range_got_value(key, value, message):
    heads = {"lm.d_att": {"lm.heads": "4"}}
    with pytest.raises(ConfigError) as err:
        resolve({**heads.get(key, {}), key: value})
    assert str(err.value) == message


def test_a_config_file_with_a_byte_order_mark_reads_as_one_without(tmp_path):
    text = "model.d_att = 64\nmodel.heads = 2\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_config(marked).raw == load_config(plain).raw
    assert load_config(marked).model.d_att == 64


@pytest.mark.parametrize("mark, offset", [(b"", 17), (b"\xef\xbb\xbf", 20)])
def test_a_config_file_that_is_not_utf8_names_the_file_and_byte(tmp_path, mark, offset):
    p = tmp_path / "run.cfg"
    p.write_bytes(mark + b"model.d_att = 64 \xff\n")
    with pytest.raises(ConfigError, match=re.escape(f"config file {p} is not UTF-8: "
                                                    f"byte 0xff at offset {offset}")):
        load_config(p)


def test_bool_parsing_variants():
    for s, want in (("true", True), ("ON", True), ("1", True),
                    ("false", False), ("off", False), ("0", False)):
        assert resolve({"train.specaugment": s}).train.specaugment is want
    with pytest.raises(ConfigError):
        resolve({"train.specaugment": "maybe"})


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


# every character that str.splitlines splits at (none lies above U+2029)
LINE_BREAKS = [c for c in map(chr, range(0x2030)) if len(f"a{c}b".splitlines()) > 1]


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=ascii)
def test_a_value_with_a_line_break_is_a_config_error_naming_its_key(brk):
    # `config.resolved` holds a value a line: a break would split it in two
    for value in (f"a{brk}b.ckpt", f"a.ckpt{brk}"):
        with pytest.raises(ConfigError, match=re.escape(
                f"paths.lm_checkpoint must be one line, got {value!r}")):
            resolve({}, {"paths.lm_checkpoint": value})


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
    "model.reduction = tr\n"
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
