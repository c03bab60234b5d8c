"""Exception taxonomy shared by the library and the CLI exit-code mapping,
the two checks every layer shares, cross-checks and JSON integers, and the one
way a message quotes outside input."""

from __future__ import annotations

import reprlib


class QuatGenusError(Exception):
    """Base class for all library errors."""


class InputError(QuatGenusError, ValueError):
    """Malformed input: bad coefficients, bad script, invalid adjunction request."""


class PreconditionError(QuatGenusError):
    """An operation's mathematical precondition fails (split algebra, equal pair, ...)."""


class TruncationError(QuatGenusError):
    """A finite truncation could not certify a required statement (honest UNKNOWN)."""


class SearchExhausted(PreconditionError):
    """A bounded enumeration ran out of budget before finding the requested object."""


def _crosscheck(agrees: bool, claim: str) -> None:
    """Fail when two routes to one answer disagree: an assert that python -O keeps."""
    if not agrees:
        raise AssertionError(f"cross-check failed: {claim}")


def _is_int(value: object) -> bool:
    """A JSON integer: true and false are bools, which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


# repr cut to a bounded depth and length: a list nested past maxlevel prints as
# [...] instead of recursing, so quoting any JSON input cannot fail
_QUOTE = reprlib.Repr()
_QUOTE.maxlevel = 6
_QUOTE.maxlist = _QUOTE.maxtuple = 16
_QUOTE.maxdict = 8
_QUOTE.maxstring = _QUOTE.maxlong = _QUOTE.maxother = 80


def _quoted(value: object) -> str:
    """The repr of outside input for an error message, bounded in depth and length."""
    return _QUOTE.repr(value)
