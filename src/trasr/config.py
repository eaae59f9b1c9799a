"""Flat `section.key = value` experiment configuration.

The file is UTF-8, with or without a byte-order mark, and '#' starts a
comment. A value may be single- or double-quoted to keep surrounding
whitespace or a '#': it then runs to the last matching quote, after which
only a comment may follow. Unknown keys are errors. Defaults are the fields
of the config dataclasses (see `SECTIONS`), beside the range or choices each
declares; a value outside them is a `ConfigError` naming its key.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from pathlib import Path

from .data import Vocabulary
from .errors import ConfigError, bounded, check_fields
from .losses import KDConfig
from .model import LMConfig, ModelConfig
from .search import BeamConfig


def _bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


@dataclass
class TrainConfig:
    epochs: int = bounded(150, 1)
    batch_size: int = bounded(8, 1)
    alpha: float = bounded(0.3, 0, 1)
    label_smoothing: float = bounded(0.1, 0, 1, open_high=True)
    lr_scale: float = bounded(5.0, 0)
    warmup_steps: int = bounded(25000, 1)
    seed: int = 1
    keep_best: int = bounded(5, 1)
    finetune_lr: float = bounded(1e-4, 0)
    finetune_epochs: int = bounded(50, 1)
    specaugment: bool = True
    freq_masks: int = bounded(2, 0)
    freq_mask_max: int = bounded(10, 0)
    time_masks: int = bounded(2, 0)
    time_mask_max: int = bounded(20, 0)

    __post_init__ = check_fields


@dataclass
class LMTrainConfig:
    epochs: int = bounded(50, 1)
    batch_size: int = bounded(8, 1)
    lr_scale: float = bounded(1.0, 0)
    warmup_steps: int = bounded(100, 1)

    __post_init__ = check_fields


# (section, dataclass, fields that are not keys: the vocabulary size, which
# `resolve` fills), in `ExperimentConfig`'s field order: every other field is
# the key f"{section}.{field}", parsed by its annotation, defaulting to its
# default.
SECTIONS = (
    ("model", ModelConfig, ("vocab_size",)),
    ("train", TrainConfig, ()),
    ("kd", KDConfig, ()),
    ("decode", BeamConfig, ()),
    ("lm", LMConfig, ("vocab_size",)),
    ("lm", LMTrainConfig, ()),
)
_PARSERS = {"int": int, "float": float, "bool": _bool, "str": str}

# key -> (parser, default)
KEYS: dict[str, tuple] = {
    **{f"{section}.{f.name}": (_PARSERS[f.type], f.default)
       for section, cls, resolved in SECTIONS for f in fields(cls) if f.name not in resolved},
    "data.alphabet": (str, " abcdefghijklmnopqrstuvwxyz'"),
    "paths.train_manifest": (str, ""),
    "paths.dev_manifest": (str, ""),
    "paths.lm_checkpoint": (str, ""),
}


@dataclass
class ExperimentConfig:
    raw: dict
    model: ModelConfig
    train: TrainConfig
    kd: KDConfig
    decode: BeamConfig
    lm: LMConfig
    lm_train: LMTrainConfig
    alphabet: str
    train_manifest: str
    dev_manifest: str
    lm_checkpoint: str

    @property
    def vocab_size(self) -> int:
        return self.model.vocab_size


def unquote(value: str) -> str:
    """Drop one pair of matching outer quotes (they protect surrounding whitespace)."""
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        return value[1:-1]
    return value


# a quoted value runs to the last matching quote that only a comment follows
_QUOTED = re.compile(r"""(['"])(.*)\1\s*(?:#.*)?""")


def parse_flat(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if value[:1] in ("'", '"'):
            quoted = _QUOTED.fullmatch(value)
            if quoted is None:
                raise ConfigError(f"line {lineno}: a quoted value must end in its quote, "
                                  "followed by nothing or a '#' comment")
            value = quoted.group(2)
        else:
            value = value.split("#", 1)[0].strip()
        values[key] = value
    return values


def _section(cls, raw: dict, section: str, **extra):
    """`cls` with each field `f` taken from `raw[f"{section}.{f}"]`; `extra`
    supplies or overrides fields whose names do not match a key. A value the
    class rejects is a ConfigError whose message starts with its key."""
    values = {f.name: raw[f"{section}.{f.name}"] for f in fields(cls)
              if f"{section}.{f.name}" in raw}
    try:
        return cls(**{**values, **extra})
    except ValueError as e:
        raise ConfigError(f"{section}.{e}") from e


def resolve(values: dict[str, str] | None = None,
            overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Apply defaults, parse types, and assemble the config dataclasses."""
    merged = {**(values or {}), **(overrides or {})}
    for k, v in merged.items():
        if k not in KEYS:
            raise ConfigError(f"unknown key {k!r}")
        try:  # `config.resolved` is UTF-8, so a value must be text it can hold
            v.encode("utf-8")
        except UnicodeEncodeError as e:
            raise ConfigError(f"{k} must be UTF-8 text, got {v!r}") from e
        if "".join(v.splitlines()) != v:  # it holds a value a line
            raise ConfigError(f"{k} must be one line, got {v!r}")
    raw: dict = {}
    for key, (parser, default) in KEYS.items():
        if key in merged:
            try:
                raw[key] = parser(merged[key])
            except (ValueError, TypeError) as e:
                raise ConfigError(f"bad value for {key!r}: {merged[key]!r} ({e})") from e
        else:
            raw[key] = default

    alphabet = raw["data.alphabet"]
    vocab_size = len(Vocabulary(alphabet))
    sections = [_section(cls, raw, section, **dict.fromkeys(resolved, vocab_size))
                for section, cls, resolved in SECTIONS]
    return ExperimentConfig(
        raw, *sections, alphabet=alphabet,
        train_manifest=raw["paths.train_manifest"],
        dev_manifest=raw["paths.dev_manifest"],
        lm_checkpoint=raw["paths.lm_checkpoint"],
    )


def load_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise ConfigError(f"config file {path} cannot be read: {e.strerror or e}") from e
    try:  # a byte-order mark is dropped after decoding, so offsets count it
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path} is not UTF-8: byte 0x{data[e.start]:02x} "
                          f"at offset {e.start}") from e
    return resolve(parse_flat(text), overrides)


def dump_config(cfg: ExperimentConfig) -> str:
    """Serialize the resolved config; re-parsing it reproduces the run."""
    lines = ["# resolved configuration"]
    for key in sorted(cfg.raw):
        value = cfg.raw[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        value = str(value)
        # quote what parse_flat would not read back verbatim
        if not value or value != value.strip() or "#" in value or value[0] in "'\"":
            value = f'"{value}"'
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
