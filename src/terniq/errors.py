"""Shared exception types."""


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


class WidthCapError(TerniqError):
    """Dense simulation request above the configured qutrit cap."""


class RusCapError(TerniqError):
    """Repeat-until-success loop exceeded its iteration cap."""

    def __init__(self, message: str, trial_log=None):
        super().__init__(message)
        self.trial_log = trial_log or []
