"""Shared exception types, and the one check that turns an input into an integer."""

import operator


class TerniqError(Exception):
    """Base class for all toolkit errors."""


class CatalogError(TerniqError):
    """Unknown gate name."""


class SizeError(TerniqError):
    """Gate or register size out of the supported range."""


class WidthMismatchError(TerniqError):
    """Circuits or registers of incompatible widths."""


class NonUnitaryError(TerniqError):
    """Operation requires a purely unitary circuit."""


class ParseError(TerniqError):
    """Malformed circuit text.  Carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class CircuitNameError(TerniqError):
    """Circuit name or RUS label the text format cannot carry.

    A comment mark or a line break in either, edge whitespace on a name, or
    any whitespace in a label.
    """


class RoundMapError(TerniqError):
    """A controlled multiply that is not acc <- acc * mult^c mod N with clean scratch."""


class WidthCapError(TerniqError):
    """Dense simulation request above the configured qutrit cap."""


class RusCapError(TerniqError):
    """Repeat-until-success loop exceeded its iteration cap."""

    def __init__(self, message: str, trial_log=None):
        super().__init__(message)
        self.trial_log = trial_log or []


def as_int(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as a Python int: anything with ``__index__`` (bools and numpy integers too)
    in ``low <= value <= high``, else ``SizeError`` naming ``what``."""
    try:
        value = operator.index(value)
    except TypeError:
        kind = "non-integer"
    else:
        if (low is None or value >= low) and (high is None or value <= high):
            return value
        kind = "out-of-range"
    bounds = ("" if low is None and high is None else f" >= {low}" if high is None
              else f" <= {high}" if low is None else f" in [{low}, {high}]")
    raise SizeError(f"{kind} {what}: {value!r} is not an integer{bounds}")


def int_fields(obj, **lows: int | None) -> None:
    """``as_int`` for fields of the frozen dataclass ``obj``: each named field, checked against
    its lower bound (``None`` for none), is set to its Python int."""
    for name, low in lows.items():
        object.__setattr__(obj, name, as_int(getattr(obj, name), f"{type(obj).__name__} {name}", low))
