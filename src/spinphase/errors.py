"""Error types shared across the toolkit.

Everything domain-related derives from DomainError, so callers can tell bad
physics inputs apart from other errors; the CLI's usage errors derive from it.
"""


class DomainError(ValueError):
    """Input rejected: outside the physical or numerical domain of an operation."""


class DegeneratePathError(DomainError):
    """A transport loop passed through (near-)orthogonal consecutive states."""


class CircuitSyntaxError(DomainError):
    """Circuit text failed to parse.  Carries the 1-based line/column of the offender."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownSymbolError(CircuitSyntaxError):
    """Circuit text names a symbol outside the language (only theta and phi are free)."""


class UnboundSymbolError(DomainError):
    """A circuit was run without bindings for all of its free symbols."""
