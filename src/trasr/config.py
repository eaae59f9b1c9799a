"""Flat `section.key = value` experiment configuration.

Lines are UTF-8, '#' starts a comment, values may be single- or
double-quoted to preserve surrounding whitespace. Unknown keys are errors.
"""

from __future__ import annotations

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


# key -> (parser, default); None default means "required when used"
KEYS: dict[str, tuple] = {
    "model.e1": (int, 2),
    "model.e2": (int, 10),
    "model.dec_layers": (int, 6),
    "model.d_att": (int, 256),
    "model.d_ff": (int, 2048),
    "model.heads": (int, 4),
    "model.tr_enabled": (_bool, True),
    "model.pyramidal": (_bool, False),
    "model.post_norm": (_bool, False),
    "model.dropout": (float, 0.1),
    "model.frontend": (str, "conv2d4"),
    "model.frontend_pe": (str, "auto"),  # auto | on | off
    "model.feature_dim": (int, 40),
    "data.alphabet": (str, " abcdefghijklmnopqrstuvwxyz'"),
    "train.epochs": (int, 150),
    "train.batch_size": (int, 8),
    "train.alpha": (float, 0.3),
    "train.label_smoothing": (float, 0.1),
    "train.lr_scale": (float, 5.0),
    "train.warmup_steps": (int, 25000),
    "train.seed": (int, 1),
    "train.keep_best": (int, 5),
    "train.finetune_lr": (float, 1e-4),
    "train.finetune_epochs": (int, 50),
    "train.specaugment": (_bool, True),
    "train.freq_masks": (int, 2),
    "train.freq_mask_max": (int, 10),
    "train.time_masks": (int, 2),
    "train.time_mask_max": (int, 20),
    "kd.phi_final": (float, 0.5),
    "kd.mode": (str, "linear"),
    "kd.cadence": (int, 1),
    "kd.freeze_teacher": (_bool, False),
    "kd.temperature": (float, 1.0),
    "decode.beam_size": (int, 20),
    "decode.ctc_weight": (float, 0.5),
    "decode.lm_weight": (float, 0.7),
    "decode.insertion_penalty": (float, 2.0),
    "decode.max_len_ratio": (float, 1.0),
    "lm.layers": (int, 2),
    "lm.d_att": (int, 64),
    "lm.d_ff": (int, 256),
    "lm.heads": (int, 2),
    "lm.dropout": (float, 0.0),
    "lm.epochs": (int, 50),
    "lm.batch_size": (int, 8),
    "lm.lr_scale": (float, 1.0),
    "lm.warmup_steps": (int, 100),
    "paths.train_manifest": (str, ""),
    "paths.dev_manifest": (str, ""),
    "paths.lm_checkpoint": (str, ""),
}


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int
    alpha: float
    label_smoothing: float
    lr_scale: float
    warmup_steps: int
    seed: int
    keep_best: int
    finetune_lr: float
    finetune_epochs: int
    specaugment: bool
    freq_masks: int
    freq_mask_max: int
    time_masks: int
    time_mask_max: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"train.batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"train.alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"train.label_smoothing must be in [0, 1), got {self.label_smoothing}")


@dataclass
class LMTrainConfig:
    epochs: int
    batch_size: int
    lr_scale: float
    warmup_steps: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"lm.batch_size must be >= 1, got {self.batch_size}")


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


def parse_flat(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip() if not value.strip().startswith(("'", '"')) \
            else value.strip()
        value = unquote(value)
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
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
        kd = _section(KDConfig, raw, "kd", total_epochs=raw["train.epochs"],
                      teacher_snapshot_cadence=raw["kd.cadence"])
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
