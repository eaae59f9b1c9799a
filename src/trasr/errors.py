"""Exception types shared across the package, and the one range check of
the config dataclasses: each field declares its range or choices beside its
default (`bounded`, `one_of`), and `check_fields` is every config
dataclass's `__post_init__` or its first step."""

import math
from dataclasses import field, fields


class TrasrError(Exception):
    """Base class for all package errors."""


class ShapeError(TrasrError, ValueError):
    """Operand shapes incompatible with the requested operation."""


class MaskError(TrasrError, ValueError):
    """A softmax slice has no unmasked position."""


class SequenceTooShortError(TrasrError, ValueError):
    """Input sequence shorter than the minimum a front-end or layer needs."""


class NotBackpropagatedError(TrasrError, RuntimeError):
    """An optimizer step found a parameter with no gradient."""


class InfeasibleAlignmentError(TrasrError, ValueError):
    """CTC target cannot be aligned within the available frames."""


class FormatError(TrasrError, ValueError):
    """A binary or text file does not conform to its documented format."""


class ConfigError(TrasrError, ValueError):
    """Bad key, value, or combination in a configuration file."""


class VocabularyError(TrasrError, ValueError):
    """Token id outside the vocabulary, or vocab mismatch between models."""


def bounded(default, low, high=None, *, open_low=False, open_high=False):
    """A field at least `low` and, unless `high` is None, at most `high`; an
    open end excludes the bound itself."""
    return field(default=default, metadata={"range": (low, high, open_low, open_high)})


def one_of(default, choices):
    """A field that must be one of `choices`."""
    return field(default=default, metadata={"choices": tuple(choices)})


def check_fields(obj) -> None:
    """Raise ValueError("<field> must be <range>, got <value>") for the first
    field of dataclass `obj` that is a float but not finite, or lies outside
    the range or choices its declaration gives."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            ok, rule = False, "finite"
        elif "choices" in f.metadata:
            choices = f.metadata["choices"]
            ok, rule = value in choices, f"one of {', '.join(choices)}"
        elif "range" in f.metadata:
            low, high, open_low, open_high = f.metadata["range"]
            ok = (value > low if open_low else value >= low) and (
                high is None or (value < high if open_high else value <= high))
            rule = (f"{'>' if open_low else '>='} {low}" if high is None else
                    f"in {'(' if open_low else '['}{low}, {high}{')' if open_high else ']'}")
        else:
            continue
        if not ok:
            raise ValueError(f"{f.name} must be {rule}, got {value!r}")
