"""Typed exceptions shared across the package, one per CLI exit code.

Bad input raises ValueError or its subclass DomainError (exit 2); the
command line also maps CapacityError to exit 3 and
InternalConsistencyError to exit 4. Every message that echoes an input,
in the command line and in TreeCoord.parse, cuts it with _cut;
the checks of numeric parameters echo through _echo_number.
"""

_ECHO_CHARS = 80


def _cut(text: str) -> str:
    """text for an error message; a long one is cut to a prefix followed
    by its full length."""
    if len(text) <= _ECHO_CHARS:
        return text
    return f"{text[:_ECHO_CHARS]}... ({len(text)} characters)"


def _echo_number(value) -> str:
    """repr(value) cut as by _cut; an int too long to echo whole (past 240
    bits, at most 73 digits) is named by its bit length instead, as its
    repr costs time quadratic in its length and raises past Python's
    4300-digit limit."""
    if isinstance(value, int) and value.bit_length() > 3 * _ECHO_CHARS:
        return f"an integer of {value.bit_length()} bits"
    return _cut(repr(value))


class LambdaTreeError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(LambdaTreeError):
    """State space too large for exact enumeration."""


class DomainError(LambdaTreeError, ValueError):
    """Argument outside the mathematical domain (e.g. a nonpositive ratio)."""


class InternalConsistencyError(LambdaTreeError):
    """A derived identity failed to hold; indicates a bug, not bad input."""
