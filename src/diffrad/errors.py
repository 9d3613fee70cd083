"""Exception types shared across the package."""

from __future__ import annotations


class DiffradError(Exception):
    """Base class for all library-specific errors."""


class BackendMismatchError(DiffradError):
    """Raised when exact and numeric values are mixed in one operation, or
    when a polynomial is given numeric values, which are output only."""


class ExactDivisionError(DiffradError):
    """Raised when a division that must be exact leaves a remainder.

    The offending remainder is kept on the exception so callers can inspect it.
    """

    def __init__(self, message: str, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class RootsUnavailableError(DiffradError):
    """Raised when exact factorization cannot reach all roots.

    Callers holding root data should construct the factored form directly
    instead of going through ``factor``.
    """


class SamplingBudgetError(DiffradError):
    """Raised when rejection sampling exhausts its attempt budget."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


class ParseError(DiffradError):
    """Syntax error with a 0-based offset into the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
