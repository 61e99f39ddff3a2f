"""Exception hierarchy shared across the package."""

from __future__ import annotations


class NgclError(Exception):
    """Base class for all errors raised by this package."""


class SpaceCapError(NgclError):
    """State space would exceed the enumeration cap."""


class SettingError(NgclError, ValueError):
    """An environment setting has an invalid value."""


class NgclSyntaxError(NgclError):
    """Parse error carrying a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UnknownVariableError(NgclSyntaxError):
    """A program or guard mentions a variable outside the state space."""

    def __init__(self, name: str, line: int, column: int):
        super().__init__(f"unknown variable '{name}'", line, column)
        self.name = name


class BudgetExceededError(NgclError):
    """A configured resource budget (profile size, search candidates) ran out."""


class MalformedTermError(NgclError):
    """An algebra term violates a structural side condition."""


class InvariantError(NgclError):
    """An internal invariant failed; indicates a bug, not bad input."""
