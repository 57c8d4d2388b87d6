"""Exception types shared across the package."""

from __future__ import annotations


class TracecheckError(Exception):
    """Base class for every error raised by this package."""


class PathError(TracecheckError):
    """An update path does not resolve inside the target value."""


class OpTypeError(TracecheckError):
    """An update operator was applied to a value of the wrong shape."""


class BagUnderflow(TracecheckError):
    """RemoveFromBag would drive an element count below zero."""


class UnknownOp(TracecheckError):
    """An update names an operator this package does not define."""


class ParseError(TracecheckError):
    """Malformed JSON or an unsupported JSON construct.

    ``line`` is 1-based when the error comes from an NDJSON file, else 0.
    """

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line


class SchemaError(TracecheckError):
    """A JSON object is well-formed but violates the trace entry schema."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line


class MissingClock(TracecheckError):
    """log() was called without a clock value on an explicit-clock tracer."""


class SimDeadlock(TracecheckError):
    """A simulated run stopped making progress before completing."""
