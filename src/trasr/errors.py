"""Exception types shared across the package."""


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
