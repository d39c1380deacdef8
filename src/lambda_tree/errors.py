"""Typed exceptions shared across the package, one per CLI exit code.

Bad input raises ValueError or its subclass DomainError (exit 2); the
command line also maps CapacityError to exit 3 and
InternalConsistencyError to exit 4. Every message that echoes an input,
in the command line and in TreeCoord.parse, cuts it with _cut.
"""

_ECHO_CHARS = 80


def _cut(text: str) -> str:
    """text for an error message; a long one is cut to a prefix followed
    by its full length."""
    if len(text) <= _ECHO_CHARS:
        return text
    return f"{text[:_ECHO_CHARS]}... ({len(text)} characters)"


class LambdaTreeError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(LambdaTreeError):
    """State space too large for exact enumeration."""


class DomainError(LambdaTreeError, ValueError):
    """Argument outside the mathematical domain (e.g. a nonpositive ratio)."""


class InternalConsistencyError(LambdaTreeError):
    """A derived identity failed to hold; indicates a bug, not bad input."""
