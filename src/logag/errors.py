"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EngineError):
    """Malformed input text. Carries a 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class CapacityError(EngineError):
    """A configured desk-scale limit was exceeded.

    Raised instead of silently grinding through an oversized instance;
    every limit is configurable through :class:`logag.config.Limits`.
    """

    def __init__(self, what: str, limit: int, actual: int):
        super().__init__(f"{what}: limit {limit} exceeded (needed {actual})")
        self.what = what
        self.limit = limit
        self.actual = actual


class UngradedError(EngineError):
    """A fused grade was requested for a term with no usable grading chain."""
