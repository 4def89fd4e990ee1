"""Input checks shared by the loaders and the query surfaces: one
identifier validator, one count check and its text reader, one line
reader and its counterpart for in-memory records, and one file opener.
Every predsim warning goes through :func:`warn`.

Both record readers yield ``(number, fields)`` pairs, counting from 1, and raise
the only error they can locate themselves, a wrong field count.  A caller
that rejects a record builds the ``"{source}: line N"`` (or ``record N``)
prefix then, from the number, so the valid path formats no location text.
"""

from __future__ import annotations

import operator
import os
import re
import sys
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from pathlib import Path
from typing import TypeVar

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


def line_records(
    lines: Iterable[str], n_fields: int, source: str
) -> Iterator[tuple[int, list[str]]]:
    """Tab-separated fields of each data line, with its line number.

    The line break (``\\n`` or ``\\r\\n``) is stripped; blank lines and lines
    whose first non-blank character is ``#`` are skipped.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        head = line.lstrip()
        if not head or head[0] == "#":
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise LoadError(
                f"{source}: line {lineno}: expected {n_fields} fields, got {len(fields)}"
            )
        yield lineno, fields


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
