"""Exception types shared across the package.

Every failure raised by library code is an instance of WarpingError, so
callers can catch one base class at an API boundary.  The subclasses keep
distinct failure modes distinguishable in tests and in CLI exit handling.
"""

from __future__ import annotations

__all__ = [
    "WarpingError",
    "CodeSyntaxError",
    "StructureError",
    "NotClassical",
    "UnknownCrossing",
    "InvalidParam",
    "NotAKnot",
    "BudgetExceeded",
    "CapExceeded",
    "UnknownSigns",
    "InternalInconsistency",
    "DataError",
]


class WarpingError(Exception):
    """Base class for all errors raised by this package."""


class CodeSyntaxError(WarpingError):
    """A token in a notation string does not match the grammar."""


class StructureError(WarpingError):
    """Tokens are well formed but do not assemble into a valid code."""


class NotClassical(StructureError):
    """A valid code that is not a classical (planar) knot diagram."""


class UnknownCrossing(WarpingError):
    """A crossing label outside 1..c was requested."""


class InvalidParam(WarpingError):
    """A generator or search parameter is out of its documented range."""


class NotAKnot(WarpingError):
    """A construction closed up into more than one component."""


class BudgetExceeded(WarpingError):
    """A bounded search ran out of budget before reaching a certificate."""


class CapExceeded(WarpingError):
    """An input is larger than the hard cap of an exponential algorithm."""


class UnknownSigns(WarpingError):
    """An operation needs crossing signs that the diagram does not carry."""


class InternalInconsistency(WarpingError):
    """Two independent computations of the same quantity disagree."""


class DataError(WarpingError):
    """A bundled or user-supplied data file is unreadable, malformed or
    inconsistent."""

    @classmethod
    def reading(cls, path, exc: OSError | ValueError, end: int = 0) -> DataError:
        """The error for ``exc``, raised while reading the file ``path``.

        A decode fault names its file offset, ``end`` being the offset just
        past the bytes that ``exc`` decoded.  An OSError without an errno is
        zipimporter.get_data's, for a name that the archive does not hold.
        """
        if isinstance(exc, UnicodeDecodeError):
            offset = end - len(exc.object) + exc.start
            return cls(f"{path} is not UTF-8 text ({exc.reason} at byte {offset})")
        if isinstance(exc, OSError) and not exc.errno:
            return cls(f"cannot read {path}: member missing from the archive")
        reason = getattr(exc, "strerror", None) or exc  # ValueError: a NUL
        return cls(f"cannot read {path}: {reason}")
