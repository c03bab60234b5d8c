"""Exception taxonomy shared by the library and the CLI exit-code mapping,
and the two checks every layer shares: cross-checks and JSON integers."""

from __future__ import annotations


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
