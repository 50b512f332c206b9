"""Exception types shared across the package, and the field check that
every config dataclass runs when it is built."""
import enum
import math
import numbers
import typing
from functools import cache


def real(value) -> float:
    """``value`` as a float, or NaN when it is not a real number (a string,
    None, a bool). Written as ``not lo < real(x)``, a bound also fails NaN."""
    return float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan


def check_fields(obj):
    """Raise ConfigError naming the first field of the dataclass ``obj`` not of
    its annotated type, or outside its ``Annotated`` bound: an interval such
    as ``"(0, inf]"``, or ``"non-empty"``. A float field takes a real number,
    an int field an int, neither a bool; ``Any`` is not checked."""
    for name, hint in field_hints(type(obj)).items():
        value = getattr(obj, name)
        if not _conforms(value, hint):
            raise ConfigError(f"{name} must be {_describe(hint)}, got {value!r}")


@cache
def field_hints(cls) -> dict:
    """The field annotations of the dataclass ``cls``, resolved once."""
    return typing.get_type_hints(cls, include_extras=True)


def _conforms(value, hint) -> bool:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated:
        bound, x = args[1], real(value)
        if not _conforms(value, args[0]):
            return False
        if bound == "non-empty":
            return len(value) > 0
        lo, hi = map(float, bound[1:-1].split(","))
        return (lo <= x if bound[0] == "[" else lo < x) and (x <= hi if bound[-1] == "]" else x < hi)
    if origin is tuple:  # of one item type, of any length or of len(args)
        sized = isinstance(value, tuple) and (args[1:] == (...,) or len(value) == len(args))
        return sized and all(_conforms(v, args[0]) for v in value)
    if origin is not None:  # a union
        return any(_conforms(value, h) for h in args)
    if hint in (float, int):
        return isinstance(value, numbers.Real if hint is float else int) and not isinstance(value, bool)
    return hint is typing.Any or isinstance(value, hint)


def _describe(hint) -> str:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated:
        return f"{_describe(args[0])} {'in ' + args[1] if args[1][0] in '([' else '(non-empty)'}"
    if origin is tuple:
        return f"[{', '.join(map(_describe, args))}]"
    if origin is not None:
        return " or ".join(map(_describe, args))
    names = {float: "a number", int: "an integer", str: "a string", bool: "true or false", type(None): "null"}
    if isinstance(hint, enum.EnumMeta):
        return f"one of {[member.value for member in hint]}"
    return "..." if hint is ... else names.get(hint, f"a {hint.__name__}")


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
