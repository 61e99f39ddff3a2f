"""Exception hierarchy shared across the package.  Each class carries how the
command line reports it: the prefix of its one stderr line and its exit code,
2 for bad input (`UsageError`), 4 for a resource limit and 3 for any other
`NgclError`, a bug, as for any exception the package does not define.
`shorten_quoted` cuts the long values a message quotes, `shorten` one value,
and `unknown_name` builds the error for a name that names nothing."""

from __future__ import annotations

import re


class NgclError(Exception):
    """Base class for all errors raised by this package."""

    prefix, exit_code = "internal error", 3


class UsageError(NgclError, KeyError, ValueError):
    """Bad input: an unknown name, a malformed file, option or setting.  It
    is a `KeyError` and a `ValueError` too, for callers that catch those."""

    prefix, exit_code = "error", 2
    __str__ = BaseException.__str__   # the message, not KeyError's repr of it


class SpaceCapError(NgclError):
    """State space would exceed the enumeration cap."""

    prefix, exit_code = "resource limit", 4


class SettingError(UsageError):
    """An environment setting has an invalid value."""


class NgclSyntaxError(UsageError):
    """Parse error carrying a 1-based source position."""

    prefix = "parse error"

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UnknownVariableError(NgclSyntaxError):
    """A program or guard mentions a variable outside the state space."""

    def __init__(self, name: str, line: int, column: int):
        super().__init__(shorten_quoted(f"unknown variable {name!r}"), line, column)
        self.name = name


class BudgetExceededError(NgclError):
    """A configured resource budget (profile size, search candidates) ran out."""

    prefix, exit_code = "resource limit", 4


class InvariantError(NgclError):
    """An internal invariant failed; indicates a bug, not bad input."""


# a quoted value in a message: a repr, in single or double quotes
_QUOTED = re.compile(r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"")


def shorten(value: str, quote: str = "") -> str:
    """The value in the given quotes, cut to its first 20 characters, an
    ellipsis and its length when it is longer than 40, so that a rejected
    value of any length is reported on one short line."""
    if len(value) <= 40:
        return f"{quote}{value}{quote}"
    return f"{quote}{value[:20]}…{quote} ({len(value)} characters)"


def shorten_quoted(message: str) -> str:
    """The message with each quoted value shortened as by `shorten`."""
    return _QUOTED.sub(lambda match: shorten(match.group()[1:-1], match.group()[0]), message)


def unknown_name(what: str, name: str) -> UsageError:
    """The usage error `unknown <what> '<name>'`, a long name shortened."""
    return UsageError(shorten_quoted(f"unknown {what} {name!r}"))
