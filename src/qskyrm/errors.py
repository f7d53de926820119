"""Exception types shared across the toolkit.

Everything derives from QskyrmError so callers can catch the whole family,
and each class also inherits the closest builtin so existing idioms
(``except ValueError``) keep working.
"""

__all__ = [
    "QskyrmError",
    "UnsupportedStateError",
    "EmptyStateError",
    "ZeroProbabilityError",
    "BasisMismatchError",
    "InsufficientCoverageError",
    "EmptyFieldError",
    "ConfigError",
    "MissingInputError",
]


class QskyrmError(Exception):
    """Base class for toolkit errors."""


class UnsupportedStateError(QskyrmError, TypeError):
    """The state's kind or axis layout does not support the operation."""


class EmptyStateError(QskyrmError, ValueError):
    """A constructor produced (or was asked to produce) a state with no weight."""


class ZeroProbabilityError(QskyrmError, ValueError):
    """A projection annihilated the state, so no conditional state exists."""


class BasisMismatchError(QskyrmError, ValueError):
    """Two objects refer to incompatible bases or dimensions."""


class InsufficientCoverageError(QskyrmError, ValueError):
    """Too little of the grid carries usable intensity for a reliable integral."""


class EmptyFieldError(QskyrmError, ValueError):
    """The field carries no intensity on any grid point."""


class ConfigError(QskyrmError, ValueError):
    """Invalid run configuration (bad key, bad value, malformed file)."""


class MissingInputError(QskyrmError, FileNotFoundError):
    """A required input file does not exist."""
