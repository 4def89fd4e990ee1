"""Input checks shared by the loaders and the query surfaces: one
identifier validator, one count check and its text reader, one line
format with its two readers and the reader for in-memory records, and
one file opener.  Every predsim warning goes through :func:`warn`.

A line's break (``\\n`` or ``\\r\\n``) is stripped; a blank line, or one
whose first non-blank character is ``#``, is skipped; every other line is
a data line of tab-separated fields.  :func:`line_records` applies this
rule a line at a time.  :func:`line_blocks` applies it to up to
``BLOCK_LINES`` lines at once: numpy finds their breaks and tabs, the
rule runs in Python only on the lines whose first byte may begin a blank
line or a comment, and the block hands on the byte spans of its fields,
so that the corpus loader makes no Python object per field.  A block with
a line break inside a line, or a data line of another field count, is
left to :func:`line_records`.

The record readers yield ``(number, fields)`` pairs, counting from 1, and
raise the only error they can locate themselves, a wrong field count.  A
caller that rejects a record builds the ``"{source}: line N"`` (or
``record N``) prefix then, from the number, so the valid path formats no
location text.
"""

from __future__ import annotations

import operator
import os
import re
import sys
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import islice, repeat
from pathlib import Path
from typing import NamedTuple, TypeVar

import numpy as np

from .errors import LoadError

WILDCARD = "?"

T = TypeVar("T")

_TAB_OR_NEWLINE = re.compile(r"[\t\n\r]").search
_FORBIDDEN_IN_LITERAL = re.compile(r"[\t\n\r|]").search
_SURROGATE = re.compile(r"[\ud800-\udfff]").search
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def warn(message: str) -> None:
    """``warnings.warn(message)``, attributed to the first calling frame
    outside this package, so the warning points at the user's code
    whichever predsim function raised it."""
    frame = sys._getframe(1)
    level = 2
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame = frame.f_back
        level += 1
    warnings.warn(message, stacklevel=level)


def check_identifier(
    value: str, what: str, where: str | None = None, literal: bool = False
) -> None:
    """Raise :class:`LoadError` unless ``value`` is a valid identifier.

    Every identifier is non-empty and free of tabs and line breaks.  An
    identifier that fills a predication slot (``literal=True``) may not
    contain ``|`` either, nor be the wildcard token.  The message reads
    ``"{where}: {problem}"``, or just the problem when ``where`` is None.
    A value that is not a ``str`` fails too.
    """
    if not isinstance(value, str):
        problem = f"{what} must be a string, got {type(value).__name__}"
    elif literal:
        if value and value != WILDCARD and _FORBIDDEN_IN_LITERAL(value) is None:
            return
        if not value:
            problem = f"empty {what}"
        elif value == WILDCARD:
            problem = f"{what} may not be the reserved token {WILDCARD!r}"
        else:
            problem = f"{what} contains a forbidden character"
    elif value and _TAB_OR_NEWLINE(value) is None:
        return
    elif not value:
        problem = f"empty {what}"
    else:
        problem = f"{what} contains tab or newline"
    raise LoadError(problem if where is None else f"{where}: {problem}")


def check_count(value: int, what: str) -> int:
    """``value`` as an ``int`` if :func:`operator.index` accepts it, it is
    no ``bool`` and it is at least 1; else a :class:`ValueError` naming ``what``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if count < 1:
        raise ValueError(f"{what} must be a positive integer, got {count}")
    return count


def read_count(text: str, what: str) -> int:
    """:func:`check_count` of the number ``text`` spells in ASCII decimal
    digits only; a sign, blank or underscore fails, and ``"007"`` is 7."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what} must be an integer written in ASCII digits only, got {text!r}")
    return check_count(int(text), what)


def _is_data(line: str) -> bool:
    """Whether a line, its break stripped, is neither blank nor a comment."""
    head = line.lstrip()
    return head != "" and head[0] != "#"


def line_records(
    lines: Iterable[str], n_fields: int, source: str, first: int = 1
) -> Iterator[tuple[int, list[str]]]:
    """Tab-separated fields of each data line, with its line number, the
    first line numbered ``first``."""
    for lineno, raw in enumerate(lines, start=first):
        line = raw.rstrip("\r\n")
        if not _is_data(line):
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise LoadError(
                f"{source}: line {lineno}: expected {n_fields} fields, got {len(fields)}"
            )
        yield lineno, fields


class LineBlock(NamedTuple):
    """Up to ``BLOCK_LINES`` lines, the first numbered ``first``, and the
    byte spans of their data lines' fields in ``data``: the lines, each
    break replaced by ``\\n``, in UTF-8 with lone surrogates passed
    through, and 7 bytes more.  Row ``i`` of ``delimiters`` holds the
    place of the break before data line ``i`` (-1 before the first line),
    of its tabs and of its break, so field ``j`` of the line is
    ``data[delimiters[i, j] + 1:delimiters[i, j + 1]]``.  Both are None
    when a line holds a line break before its end or a data line has
    another number of fields: :func:`line_records` then reads ``lines``.
    """

    first: int
    lines: list[str]
    data: bytes | None = None
    delimiters: np.ndarray | None = None


# The lines that line_blocks reads and tokenizes at once.  Chosen by
# measurement (BENCH_block_loader.json): larger blocks load faster, and
# this is the largest that keeps a load's traced peak within 1.9 times
# what the corpus holds.
BLOCK_LINES = 1 << 11

# The first bytes that may begin a blank line or a comment: the ASCII
# characters str.isspace takes, "#", and any byte of a longer UTF-8
# sequence, which may encode other white space.  A line that begins with
# any other byte is a data line.
_MAY_SKIP = np.zeros(256, dtype=bool)
_MAY_SKIP[[*range(0x09, 0x0E), *range(0x1C, 0x21), ord("#")]] = True
_MAY_SKIP[0x80:] = True


def line_blocks(lines: Iterable[str], n_fields: int) -> Iterator[LineBlock]:
    """The lines, ``BLOCK_LINES`` at a time, each block tokenized.

    If reading fails part-way through a block, the lines read so far come
    first as a block of their own, untokenized, then the error: so a
    reader that checks records in order meets what it would have met
    reading a line at a time.
    """
    lines = iter(lines)
    first = 1
    while True:
        block: list[str] = []
        try:
            block.extend(islice(lines, BLOCK_LINES))
        except Exception:
            if block:
                yield LineBlock(first, block)
            raise
        if not block:
            return
        yield _tokenize(LineBlock(first, block), n_fields)
        first += len(block)


_LAST = operator.itemgetter(-1)


def _joined(lines: list[str]) -> str:
    """The lines, each with its break stripped and a ``\\n`` put after it."""
    text = "".join(lines)
    try:
        if "\r" not in text and "".join(map(_LAST, lines)) == "\n" * len(lines):
            return text
    except IndexError:  # an empty line
        pass
    return "\n".join(map(str.rstrip, lines, repeat("\r\n"))) + "\n"


def _tokenize(block: LineBlock, n_fields: int) -> LineBlock:
    """The block with the spans of its data lines' fields, if it has them."""
    lines = block.lines
    try:
        text = _joined(lines)
    except TypeError:  # a line that is not a str, which line_records reports
        return block
    if "\r" in text:
        return block
    data = text.encode("utf-8", "surrogatepass") + bytes(7)
    del text
    buffer = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buffer == 0x0A)
    if len(ends) != len(lines):  # a line break inside a line
        return block
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    tabs = np.flatnonzero(buffer == 0x09)
    # A line with its break is blank or a comment when it is without it.
    maybe = np.flatnonzero(_MAY_SKIP[buffer[starts]]).tolist()
    skipped = [i for i in maybe if not _is_data(lines[i])]
    if skipped:
        kept = np.ones(len(lines), dtype=bool)
        kept[skipped] = False
        tabs = tabs[kept[np.searchsorted(ends, tabs)]]
        starts, ends = starts[kept], ends[kept]
    # Each data line holds n_fields - 1 tabs if and only if the k-th run
    # of that many tabs lies within the k-th data line, for every k.
    if len(tabs) != (n_fields - 1) * len(starts):
        return block
    tabs = tabs.reshape(len(starts), n_fields - 1)
    if len(starts) and not ((tabs[:, 0] >= starts).all() and (tabs[:, -1] < ends).all()):
        return block
    delimiters = np.empty((len(starts), n_fields + 1), dtype=np.int64)
    np.subtract(starts, 1, out=delimiters[:, 0])
    delimiters[:, 1:-1] = tabs
    delimiters[:, -1] = ends
    return block._replace(data=data, delimiters=delimiters)


def tuple_records(
    records: Iterable[Sequence], n_fields: int, source: str
) -> Iterator[tuple[int, Sequence]]:
    """Each in-memory record with its record number, checking its length.

    A string is refused whatever its length: its characters would be the
    fields, and a mapping passed for records iterates its string keys.  A
    record without a length is refused by its type name.
    """
    for number, record in enumerate(records, start=1):
        if isinstance(record, str):
            raise LoadError(f"{source}: record {number}: expected {n_fields} fields, got a string")
        try:
            size = len(record)
        except TypeError:
            size = type(record).__name__
        if size != n_fields:
            raise LoadError(f"{source}: record {number}: expected {n_fields} fields, got {size}")
        yield number, record


def read_file(path: str | Path, parse: Callable[[Iterable[str], str], T]) -> T:
    """``parse(lines, source)`` over the lines of the UTF-8 file at
    ``path``, a leading byte-order mark dropped; the source is the path
    as :class:`~pathlib.Path` spells it.

    A file that is not UTF-8 is read again with each bad byte escaped to
    a lone surrogate, which no valid UTF-8 decodes to, and the error
    names the first line that holds one."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return parse(handle, str(path))
    except UnicodeDecodeError:
        pass
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            if _SURROGATE(line):
                raise LoadError(f"{path}: line {lineno}: not valid UTF-8")
    raise LoadError(f"{path}: not valid UTF-8")
