"""Exception types shared across the toolkit."""

from __future__ import annotations


class NlspError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(NlspError, ValueError):
    """A value violates a structural invariant (shape, range, tolerance)."""


class SpaceMismatchError(NlspError, ValueError):
    """Operands do not share the structure an operation requires."""


class GeodesicError(NlspError, ValueError):
    """No unique geodesic exists for the requested endpoints.

    A batched geodesic call sets ``undefined``: a boolean mask, broadcastable
    to the batch, that marks the pairs without a unique geodesic.
    """

    def __init__(self, message: str, *, undefined=None):
        self.undefined = undefined
        super().__init__(message)


class UnsupportedOperationError(NlspError, TypeError):
    """The space carries no structure for the requested operation."""


class ConfigError(NlspError, ValueError):
    """An experiment configuration failed validation.

    Carries an optional field path and line number so the CLI can point at
    the offending entry.
    """

    def __init__(self, message: str, *, field: str | None = None,
                 line: int | None = None):
        self.field = field
        self.line = line
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field '{field}'")
        super().__init__(f"{', '.join(where)}: {message}" if where else message)
