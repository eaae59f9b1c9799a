"""Flat `section.key = value` experiment configuration.

Lines are UTF-8 and '#' starts a comment. A value may be single- or
double-quoted to keep surrounding whitespace or a '#': it then runs to the
last matching quote, after which only a comment may follow. Unknown keys are
errors. Defaults are the fields of the config dataclasses (see `SECTIONS`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .frontend import FrontendConfig
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
    epochs: int = 150
    batch_size: int = 8
    alpha: float = 0.3
    label_smoothing: float = 0.1
    lr_scale: float = 5.0
    warmup_steps: int = 25000
    seed: int = 1
    keep_best: int = 5
    finetune_lr: float = 1e-4
    finetune_epochs: int = 50
    specaugment: bool = True
    freq_masks: int = 2
    freq_mask_max: int = 10
    time_masks: int = 2
    time_mask_max: int = 20

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("warmup_steps", 1), ("keep_best", 1),
                          ("freq_mask_max", 0), ("time_mask_max", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"train.{name} must be >= {low}, got {getattr(self, name)}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"train.alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"train.label_smoothing must be in [0, 1), got {self.label_smoothing}")


@dataclass
class LMTrainConfig:
    epochs: int = 50
    batch_size: int = 8
    lr_scale: float = 1.0
    warmup_steps: int = 100

    def __post_init__(self):
        for name in ("batch_size", "warmup_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"lm.{name} must be >= 1, got {getattr(self, name)}")


# (section, dataclass, fields that `resolve` fills itself): every other field
# is the key f"{section}.{field}", parsed by its annotation, defaulting to its
# default.
SECTIONS = (
    ("model", ModelConfig, ("vocab_size", "frontend")),
    ("train", TrainConfig, ()),
    ("kd", KDConfig, ("total_epochs",)),
    ("decode", BeamConfig, ()),
    ("lm", LMConfig, ("vocab_size",)),
    ("lm", LMTrainConfig, ()),
)
_PARSERS = {"int": int, "float": float, "bool": _bool, "str": str}

# key -> (parser, default)
KEYS: dict[str, tuple] = {
    **{f"{section}.{f.name}": (_PARSERS[f.type], f.default)
       for section, cls, resolved in SECTIONS for f in fields(cls) if f.name not in resolved},
    "model.frontend": (str, FrontendConfig.kind),
    "model.frontend_pe": (str, "auto"),  # auto | on | off
    "model.feature_dim": (int, FrontendConfig.feature_dim),
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
    supplies or overrides fields whose names do not match a key."""
    values = {f.name: raw[f"{section}.{f.name}"] for f in fields(cls)
              if f"{section}.{f.name}" in raw}
    return cls(**{**values, **extra})


def resolve(values: dict[str, str] | None = None,
            overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Apply defaults, parse types, and assemble the config dataclasses."""
    merged = dict(values or {})
    for k, v in (overrides or {}).items():
        if k not in KEYS:
            raise ConfigError(f"unknown key {k!r}")
        merged[k] = v
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
    vocab_size = 5 + len(dict.fromkeys(alphabet))
    pe_mode = raw["model.frontend_pe"]
    if pe_mode not in ("auto", "on", "off"):
        raise ConfigError(f"model.frontend_pe must be auto/on/off, got {pe_mode!r}")
    try:
        frontend = FrontendConfig(
            kind=raw["model.frontend"],
            d_att=raw["model.d_att"],
            feature_dim=raw["model.feature_dim"],
            apply_positional_encoding=None if pe_mode == "auto" else pe_mode == "on",
        )
        model = _section(ModelConfig, raw, "model", vocab_size=vocab_size, frontend=frontend)
        kd = _section(KDConfig, raw, "kd", total_epochs=raw["train.epochs"])
        decode = _section(BeamConfig, raw, "decode")
        lm = _section(LMConfig, raw, "lm", vocab_size=vocab_size)
        train = _section(TrainConfig, raw, "train")
        lm_train = _section(LMTrainConfig, raw, "lm")
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return ExperimentConfig(
        raw=raw, model=model, train=train, kd=kd,
        decode=decode, lm=lm, lm_train=lm_train, alphabet=alphabet,
        train_manifest=raw["paths.train_manifest"],
        dev_manifest=raw["paths.dev_manifest"],
        lm_checkpoint=raw["paths.lm_checkpoint"],
    )


def load_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    return resolve(parse_flat(Path(path).read_text(encoding="utf-8")), overrides)


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
