"""Exception types shared across the package, and the number check that
configuration validation uses."""
import math
import numbers


def real(value) -> float:
    """``value`` as a float, or NaN when it is not a real number (a string,
    None, a bool). Written as ``not lo < real(x)``, a bound also fails NaN."""
    return float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan


class MfedError(Exception):
    """Base class for all mfed errors."""


class ConfigError(MfedError):
    """A configuration value violates its invariants."""


class ParseError(MfedError):
    """An input file is malformed. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonMonotonicTimestamp(ParseError):
    """Timestamps in an input file are not strictly increasing."""


class WindowOutOfBounds(MfedError):
    """A gesture window would extend past the ends of its series."""


class ShapeError(MfedError):
    """Tensor shapes are inconsistent with the model architecture."""


class FormatError(MfedError):
    """A weights file fails schema or shape validation."""


class InsufficientData(MfedError):
    """The input holds too little data: a trace without samples, or
    training data lacking a positive or negative class."""


class ClockRegression(MfedError):
    """A stateful node observed time moving backwards."""


class InvalidAnswer(MfedError):
    """A survey answer is out of range or of the wrong type."""


class InvalidTransition(MfedError):
    """A survey answer does not apply to the current flow stage."""


class UnknownHome(MfedError):
    """A survey reporter is missing from the home roster."""
