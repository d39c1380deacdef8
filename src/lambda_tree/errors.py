"""Typed exceptions shared across the package, one per CLI exit code.

Bad input raises ValueError or its subclass DomainError (exit 2); the
command line also maps CapacityError to exit 3 and
InternalConsistencyError to exit 4.
"""


class LambdaTreeError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(LambdaTreeError):
    """State space too large for exact enumeration."""


class DomainError(LambdaTreeError, ValueError):
    """Argument outside the mathematical domain (e.g. a nonpositive ratio)."""


class InternalConsistencyError(LambdaTreeError):
    """A derived identity failed to hold; indicates a bug, not bad input."""
