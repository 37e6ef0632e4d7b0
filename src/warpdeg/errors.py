"""Exception types shared across the package, and its one file reader.

Every failure raised by library code is an instance of WarpingError, so
callers can catch one base class at an API boundary.  The subclasses keep
distinct failure modes distinguishable in tests and in CLI exit handling.
``read_lines`` reads every file that warpdeg reads, and names each fault.
"""

from __future__ import annotations

from collections.abc import Iterator
from io import BytesIO
from itertools import repeat


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


def _cut(value) -> str:
    """The first 30 characters of ``str(value)``: all that a message shows."""
    return str(value)[:30]


def _quote(value) -> str:
    """A message's quote of ``value``: a cut string's repr, or another's cut repr."""
    return repr(_cut(value)) if isinstance(value, str) else _cut(repr(value))


def read_lines(path, get_data=None) -> Iterator[str]:
    """The lines of a UTF-8 file as ``text.splitlines()`` cuts its text.

    The file is read once, in blocks cut after their last ``\\n`` (a line
    longer than a block gathers all of its blocks), so a pipe serves as well
    as a file and memory holds a block, not the file.  A leading byte-order
    mark is dropped.  No UTF-8 sequence holds the byte ``\\n``, so each cut
    decodes alone, and a decode fault is raised when the reading reaches
    it, after the lines before it.  A cut's bytes are dropped once decoded,
    and each line is popped from the cut's list as it is handed out, so
    that neither keeps a line alive after its caller has dropped it.

    ``get_data(str(path))``, if given, gives the bytes; a fault is a DataError.
    """
    end = 0  # the file offset past the bytes decoded
    try:
        with (open(path, "rb") if get_data is None
              else BytesIO(get_data(str(path)))) as file:
            parts = []  # the bytes read since the last b"\n"
            while True:
                block = file.read1(8192)  # 64 KiB ran no faster, held more
                cut = block.rfind(b"\n") + 1
                if block and not cut:
                    parts.append(block)
                    continue
                parts.append(block[:cut])
                chunk, parts = b"".join(parts), [block[cut:]]
                if not end and chunk.startswith(b"\xef\xbb\xbf"):  # first cut
                    chunk, end = chunk[3:], 3
                end += len(chunk)
                try:
                    lines = chunk.decode("utf-8").splitlines()
                except UnicodeDecodeError as exc:  # the whole lines before it
                    whole = chunk[:chunk.rfind(b"\n", 0, exc.start) + 1]
                    yield from whole.decode("utf-8").splitlines()
                    raise
                del chunk
                lines.reverse()  # popped from the end, in C, in file order
                yield from map(list.pop, repeat(lines, len(lines)))
                if not block:
                    return
    except UnicodeDecodeError as exc:  # ``end`` is past the chunk it decoded
        offset = end - len(exc.object) + exc.start
        raise DataError(f"{path} is not UTF-8 text "
                        f"({exc.reason} at byte {offset})") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
        reason = getattr(exc, "strerror", None) or exc
        if isinstance(exc, OSError) and not exc.errno:  # zipimporter.get_data's
            reason = "member missing from the archive"
        raise DataError(f"cannot read {path}: {reason}") from None
