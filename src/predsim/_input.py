"""Input checks shared by the loaders and the query surfaces: one type
check, one identifier validator, one count check and its text reader,
and the one owner of the line format, with its driver of lines, its
block reader of files, its record reader, the reader for in-memory
records, one file opener and one writer.  Every predsim warning goes
through :func:`warn`.

A line's break (``\\n`` or ``\\r\\n``) is stripped; a blank line, or one
whose first non-blank character is ``#``, is skipped; every other line is
a data line of tab-separated fields.  :func:`line_records` applies this
rule a line at a time.

:func:`read_blocks` is the one driver of the corpus and hierarchy
loaders.  Lines given in memory go straight to their tables'
``add_records`` through :func:`line_records`, the per-record loop that
is also the only path of ``Corpus(records)`` and ``Hierarchy(edges)``.
The lines of a file come ``BLOCK_LINES`` at a time, as the blocks of
UTF-8 that :func:`read_file` cuts; the driver tokenizes each block, where
numpy finds the breaks and tabs and the rule runs in Python only on the
lines whose first byte may begin a blank line or a comment, and hands
the block to its tables' ``add_block``.  There :func:`intern_fields`,
once per table, numbers the table's fields among their distinct values
(:func:`equal_spans`), decodes each distinct value once, looks it up in
the table and gathers the block's codes, so that the loaders make no
Python object per field and see no byte of the text.  It checks the
table's new names in one pass, by the rules of :func:`check_identifier`
that a field of a tokenized block can fail, and enters them only once
all of them pass.

Each step that finds a block cannot be read whole raises
:class:`Refused` where it finds so: no data line, a data line of another
field count, two different fields of one key, a new name that fails its
check, or a loader's own refusal, such as a hierarchy's self-loop.  The
driver alone catches it, and hands that block's lines to the tables'
``add_records`` through :func:`line_records`.  Each table keeps one rule
by itself: it holds only names that passed their check, numbered in the
order a reader of one line at a time first meets them, and the code
columns grow only once the whole block has been read.  So a block
refused once some tables hold its new names reads the same through the
per-record loop: those names are what the loop would enter, in its
order, and where the refusal is a bad new name or a self-loop, the loop
ends the load at that line with its own error.  Every error, its line
number and its message are those of a reader of one line at a time.
:func:`read_records` hands in-memory records to the same ``add_records``
through :func:`tuple_records`.

:func:`read_file`, the one file opener, reads a file once, in text
mode, so that the text layer drops a leading byte-order mark, reads each
``\\r\\n`` or lone ``\\r`` as ``\\n`` and escapes a byte that is not UTF-8
to a lone surrogate.  It reads ``_CHUNK_CHARS`` characters at a time,
encodes each chunk once, and cuts the blocks of ``BLOCK_LINES`` lines
from those bytes, so a file's line becomes a ``str`` only in a block
that is refused, or in a gold file, which :func:`line_records` reads.  A
chunk is searched for a surrogate only if it is not ASCII; the lines
before the first one's line are read as usual, and then the file fails,
naming that line.  :func:`write_file` writes rows of fields as lines,
and refuses by the same rules any line that would not read back.

The record readers yield ``(number, fields)`` pairs, counting from 1, and
raise the only errors they can locate themselves, a line that is not a
``str``, a wrong field count and one string given as the lines.  A
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
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence, Set, Sized
from itertools import compress, repeat
from pathlib import Path
from typing import NamedTuple, TextIO, TypeVar

import numpy as np

from ._arrays import ranks, run_heads, segment_offsets
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


def check_type(name: str, value: object, kind: type) -> None:
    """Raise ``TypeError``, naming the argument, unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be {kind.__name__}, got {type(value).__name__}")


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
    elif not value:
        problem = f"empty {what}"
    elif literal and value == WILDCARD:
        problem = f"{what} may not be the reserved token {WILDCARD!r}"
    elif literal and _FORBIDDEN_IN_LITERAL(value):
        problem = f"{what} contains a forbidden character"
    elif not literal and _TAB_OR_NEWLINE(value):
        problem = f"{what} contains tab or newline"
    else:
        return
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
    """Whether a line, with or without its break, is neither blank nor a
    comment."""
    head = line.lstrip()
    return head != "" and head[0] != "#"


def line_records(
    lines: Iterable[str], n_fields: int, source: str, first: int = 1
) -> Iterator[tuple[int, list[str]]]:
    """Tab-separated fields of each data line, with its line number, the
    first line numbered ``first``.  One string given as the lines is
    refused, as :func:`tuple_records` refuses a string record: its
    characters would be the lines."""
    if isinstance(lines, (str, bytes, bytearray)):
        raise LoadError(f"{source}: expected an iterable of lines, got {type(lines).__name__}")
    for lineno, raw in enumerate(lines, start=first):
        try:
            line = raw.rstrip("\r\n")
        except (AttributeError, TypeError):  # a line that is not a str
            problem = f"line must be a string, got {type(raw).__name__}"
            raise LoadError(f"{source}: line {lineno}: {problem}") from None
        if not _is_data(line):
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise LoadError(
                f"{source}: line {lineno}: expected {n_fields} fields, got {len(fields)}"
            )
        yield lineno, fields


class LineBlock(NamedTuple):
    """Up to ``BLOCK_LINES`` lines of a file, the first numbered
    ``first``: ``data``, the lines in UTF-8, each ended by ``\\n``, and 7
    bytes more, and ``ends``, the places of those breaks."""

    first: int
    data: bytes
    ends: np.ndarray


class Refused(Exception):
    """The block path cannot read a block of a file whole.  It is raised
    where that is found, before the block's codes are added, and only
    :func:`read_blocks` catches it: the block is then read a record at a
    time."""


# The lines that read_blocks reads and tokenizes at once.  Chosen by
# measurement (BENCH_block_loader.json): larger blocks load faster, and
# this is the largest that keeps a load's traced peak within 1.9 times
# what the corpus holds.
BLOCK_LINES = 1 << 11

# The characters that read_file reads at once.  Chosen by measurement
# (BENCH_text_chunks.json).
_CHUNK_CHARS = 1 << 16

# The bytes after a block's text that equal_spans reads its words into.
_PAD = bytes(7)

# The first bytes that may begin a blank line or a comment: the ASCII
# characters str.isspace takes, "#", and any byte of a longer UTF-8
# sequence, which may encode other white space.  A line that begins with
# any other byte is a data line.
_MAY_SKIP = np.zeros(256, dtype=bool)
_MAY_SKIP[[*range(0x09, 0x0E), *range(0x1C, 0x21), ord("#")]] = True
_MAY_SKIP[0x80:] = True


def read_blocks(lines: Iterable[str], n_fields: int, source: str, tables: T) -> T:
    """Fill ``tables`` from lines of ``n_fields`` tab-separated fields, and
    return them.

    The lines of a file that :func:`read_file` opened come as the blocks
    of UTF-8 it cuts (:meth:`_FileLines.blocks`).  Each block is tokenized
    and handed to ``tables.add_block``; a block that is :class:`Refused`
    on the way is handed to ``tables.add_records`` as numbered records
    instead.  Lines given otherwise are all handed to
    ``tables.add_records``, a line at a time.  Each table holds only names
    that passed their check, numbered as a reader of one line at a time
    first meets them, and the code columns grow only once a block has
    been read whole; so every error, its line number and its message are
    those of a reader of one line at a time.
    """
    if not isinstance(lines, _FileLines):
        tables.add_records(line_records(lines, n_fields, source), source, "line")
        return tables
    for block in lines.blocks():
        try:
            tables.add_block(_tokenize(block, n_fields))
            continue
        except Refused:
            pass
        # Read outside the handler, so that no error raised here has the
        # refusal as its context.
        numbered = line_records(_lines(block.data), n_fields, source, block.first)
        tables.add_records(numbered, source, "line")
    return tables


def read_records(records: Iterable[Sequence], n_fields: int, source: str, tables: T) -> T:
    """Fill ``tables`` from in-memory records of ``n_fields`` fields, a
    record at a time (:func:`tuple_records`), and return them."""
    tables.add_records(tuple_records(records, n_fields, source), source, "record")
    return tables


def _lines(data: bytes) -> list[str]:
    """The lines of a block of a file, each without its break."""
    lines = data[:-len(_PAD)].decode("utf-8").split("\n")
    lines.pop()  # the empty text after the last break
    return lines


def _tokenize(block: LineBlock, n_fields: int) -> tuple[bytes, np.ndarray]:
    """The block's ``data`` and the byte spans of its data lines' fields,
    as ``delimiters``; :class:`Refused` if it has no data line or a data
    line of another field count.

    Row ``i`` of ``delimiters`` holds the place of the break before data
    line ``i`` (-1 before the first line), of its tabs and of its break,
    so field ``j`` of the line is
    ``data[delimiters[i, j] + 1:delimiters[i, j + 1]]``.
    """
    data, ends = block.data, block.ends
    buffer = np.frombuffer(data, dtype=np.uint8)
    before = np.concatenate(([-1], ends[:-1]))  # the break before each line
    tabs = np.flatnonzero(buffer == 0x09)
    # A line is blank or a comment only if its first byte may begin one.
    maybe = np.flatnonzero(_MAY_SKIP[buffer[before + 1]])
    spans = zip(maybe.tolist(), (before[maybe] + 1).tolist(), ends[maybe].tolist())
    skipped = [
        i for i, start, end in spans
        if not _is_data(data[start:end].decode("utf-8"))
    ]
    if skipped:
        kept = np.ones(len(ends), dtype=bool)
        kept[skipped] = False
        tabs = tabs[kept[np.searchsorted(ends, tabs)]]
        before, ends = before[kept], ends[kept]
    # Each data line holds n_fields - 1 tabs if and only if the k-th run
    # of that many tabs lies within the k-th data line, for every k.
    if not len(before) or len(tabs) != (n_fields - 1) * len(before):
        raise Refused
    tabs = tabs.reshape(len(before), n_fields - 1)
    if not ((tabs[:, 0] > before).all() and (tabs[:, -1] < ends).all()):
        raise Refused
    return data, np.column_stack((before, tabs, ends))


# _LOW_BYTES[r] keeps the first r bytes of a little-endian 8-byte word.
_LOW_BYTES = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)


def equal_spans(
    data: bytes, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Number the byte strings ``data[starts[i]:ends[i]]``, of which there
    is at least one, equal ones alike, in the order in which each first
    occurs; and the place of each number's first span.

    ``data`` is UTF-8 followed by 7 bytes more.  Each span is read as
    8-byte words, the last padded past the span's end with 0xFF, a byte
    that UTF-8 never holds: so a span of at most 8 bytes is its one word,
    whatever NUL bytes it holds.  A longer span is keyed by its length and
    its words, each times an odd constant of its place, summed modulo
    2**64; spans of equal keys are then compared word by word, and
    :class:`Refused` is raised if two different spans share a key.
    """
    count = len(starts)
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    lengths = ends - starts
    if lengths.max() <= 8:
        key = ~_LOW_BYTES[lengths]
        key |= words[starts]
        values = None
    else:
        sizes = np.maximum(lengths + 7, 8) // 8  # words per span
        offsets = segment_offsets(sizes)
        total, offsets = offsets[-1], offsets[:-1]  # each span's first word
        place = np.arange(total) - np.repeat(offsets, sizes)
        values = words[np.repeat(starts, sizes) + 8 * place]
        values[offsets + sizes - 1] |= ~_LOW_BYTES[lengths - 8 * (sizes - 1)]
        mixed = place.astype(np.uint64)
        mixed *= 2
        mixed += 1
        mixed *= np.uint64(0x9E3779B97F4A7C15)
        mixed *= values
        key = np.add.reduceat(mixed, offsets)
        del mixed
        key += lengths.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
    order = np.argsort(key)
    key = key[order]
    heads = run_heads(key)
    del key
    if values is not None:
        # Each span against the first span of its run in `order`.
        first = order[np.maximum.accumulate(np.where(heads, np.arange(count), 0))]
        like = np.empty(count, dtype=np.int64)
        like[order] = first
        if (lengths[like] != lengths).any():
            raise Refused
        shift = np.repeat(offsets[like] - offsets, sizes)
        shift += np.arange(total)
        if (values[shift] != values).any():
            raise Refused
    firsts = np.minimum.reduceat(order, np.flatnonzero(heads))
    by_first = ranks(np.argsort(firsts))
    runs = np.cumsum(heads)
    runs -= 1
    numbers = np.empty(count, dtype=np.int64)
    numbers[order] = by_first[runs]
    return numbers, np.sort(firsts)


def intern_fields(
    block: tuple[bytes, np.ndarray], places: list[int], table: dict[str, int], literal: bool
) -> np.ndarray:
    """The code in ``table`` of the fields at ``places`` of each data line
    of a tokenized block, one contiguous row per place, new names entered;
    :class:`Refused`, the table as it stood, if two different fields share
    a key of :func:`equal_spans` or a new name fails its check.

    ``table`` numbers its names from 0 in the order they entered it, and
    ``literal`` says whether they fill predication slots, as
    :func:`check_identifier`'s.  The fields are numbered among their
    distinct values, line by line and place by place, and each distinct
    value is decoded and looked up once; the new ones are checked in one
    pass, and enter the table in the order they first occur.
    """
    data, delimiters = block
    starts = delimiters[:, places].ravel()
    starts += 1
    ends = delimiters[:, [place + 1 for place in places]].ravel()
    numbers, firsts = equal_spans(data, starts, ends)
    names = _decode(data, starts[firsts], ends[firsts])
    del starts, ends, firsts
    numbers = numbers.reshape(-1, len(places)).T.copy()  # each row contiguous
    codes = np.fromiter(map(table.get, names, repeat(-1)), dtype=np.int64, count=len(names))
    new = list(compress(names, (codes < 0).tolist()))
    # A field of a tokenized block holds no tab and no line break, so
    # check_identifier fails only an empty name, or, in a slot, one that
    # holds a "|" or is the wildcard.
    if "" in new or literal and (WILDCARD in new or "|" in "".join(new)):
        raise Refused
    added = range(len(table), len(table) + len(new))
    codes[codes < 0] = added
    table.update(zip(new, added))
    return codes[numbers]


def _decode(data: bytes, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The strings that ``data[starts[i]:ends[i]]`` encode, in one decode:
    each span is gathered with the delimiter after it, set to a tab."""
    sizes = ends - starts + 1
    stops = np.cumsum(sizes)
    gathered = np.frombuffer(data, dtype=np.uint8)[
        np.arange(stops[-1]) + np.repeat(starts - stops + sizes, sizes)
    ]
    gathered[stops - 1] = 0x09
    names = gathered.tobytes().decode("utf-8").split("\t")
    names.pop()
    return names


def tuple_records(
    records: Iterable[Sequence], n_fields: int, source: str
) -> Iterator[tuple[int, Sequence]]:
    """Each in-memory record with its record number, checking its length.

    A string is refused whatever its length: its characters would be the
    fields, and a mapping passed for records iterates its string keys.  A
    set or a mapping is refused by its type name, since its order is not
    the fields' order, and so is a record without a length.
    """
    for number, record in enumerate(records, start=1):
        if isinstance(record, str):
            raise LoadError(f"{source}: record {number}: expected {n_fields} fields, got a string")
        ordered = isinstance(record, Sized) and not isinstance(record, (Set, Mapping))
        size = len(record) if ordered else type(record).__name__
        if size != n_fields:
            raise LoadError(f"{source}: record {number}: expected {n_fields} fields, got {size}")
        yield number, record


class _FileLines:
    """The lines of a text file that :func:`read_file` opened, read
    ``_CHUNK_CHARS`` characters at a time: :func:`read_blocks` takes them
    as the blocks of UTF-8 of :meth:`blocks`, and iterating decodes each
    block's lines (:func:`_lines`), each a ``str`` without its break."""

    def __init__(self, handle: TextIO, source: str) -> None:
        self.handle, self.source = handle, source

    def __iter__(self) -> Iterator[str]:
        for block in self.blocks():
            yield from _lines(block.data)

    def blocks(self) -> Iterator[LineBlock]:
        """Each block of ``BLOCK_LINES`` lines, the last of fewer, with its
        ``data`` and ``ends``.

        Each chunk is encoded and its breaks found once; the chunks read
        since the last block are joined once they hold a block's lines, and
        the blocks are cut from their join.  The text layer decodes a byte
        that is not UTF-8 to a lone surrogate, which valid UTF-8 never
        decodes to: the lines before that byte's line come first, then the
        error, which names that line.
        """
        first = 1
        pieces: list[bytes] = []  # the text after the last block, encoded
        breaks: list[np.ndarray] = []  # the places of its breaks in their join
        size = count = 0
        final = False
        while not final:
            text = self.handle.read(_CHUNK_CHARS)
            # isascii is O(1), and ASCII text holds no surrogate.
            bad = None if text.isascii() else _SURROGATE(text)
            final = bad is not None or not text
            if bad is not None:  # the lines that end before it
                text = text[:bad.start()]
            elif not text and pieces and not pieces[-1].endswith(b"\n"):
                text = "\n"  # after a last line without a break
            if text:
                data = text.encode("utf-8")
                del text  # not held while the blocks are read
                pieces.append(data)
                breaks.append(np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 0x0A) + size)
                size += len(data)
                count += len(breaks[-1])
            if count >= BLOCK_LINES or final and count:
                data, ends = b"".join(pieces), np.concatenate(breaks)
                pieces.clear()
                breaks.clear()
                blocked = count if final else count - count % BLOCK_LINES
                start = 0
                for k in range(0, blocked, BLOCK_LINES):
                    block = ends[k:k + BLOCK_LINES]
                    stop = int(block[-1]) + 1
                    cut = data[start:stop] + _PAD
                    yield LineBlock(first, cut, block - start)
                    first += len(block)
                    start = stop
                if start < size:
                    pieces.append(data[start:])
                    breaks.append(ends[blocked:] - start)
                size -= start
                count -= blocked
        if bad is not None:
            raise LoadError(f"{self.source}: line {first}: not valid UTF-8")


def read_file(path: str | Path, parse: Callable[[Iterable[str], str], T]) -> T:
    """``parse(lines, source)`` over the lines of the UTF-8 file at
    ``path``, a leading byte-order mark dropped and each ``\\r\\n`` or lone
    ``\\r`` read as ``\\n``; the source is the path as
    :class:`~pathlib.Path` spells it.

    The file is read once, a chunk at a time (:class:`_FileLines`), each
    bad byte escaped to a lone surrogate; a file that is not UTF-8 fails
    at the first line that holds one, once the lines before it are read."""
    path = Path(path)
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        return parse(_FileLines(handle, str(path)), str(path))


def write_file(path: str | Path, rows: Iterable[Iterable[str]]) -> None:
    """Write each row of fields as one tab-separated line of the UTF-8
    file at ``path``.

    Raises ValueError, before writing anything, for a line that would not
    read back as written: one that is blank or a comment to the readers,
    that starts with the byte-order mark that :func:`read_file` drops, or
    that UTF-8 cannot encode, such as one holding a lone surrogate.
    """
    lines = ["\t".join(row) + "\n" for row in rows]
    for line in lines:
        # UTF-8 encodes every code point but a surrogate; isascii is O(1).
        unencodable = not line.isascii() and _SURROGATE(line)
        if not _is_data(line) or line.startswith("\ufeff") or unencodable:
            raise ValueError(f"line {line!r} would not read back as written")
    Path(path).write_bytes("".join(lines).encode("utf-8"))
