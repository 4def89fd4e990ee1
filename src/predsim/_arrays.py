"""Numpy helpers shared by the corpus loader, the hierarchy and the index.

A hierarchy's parents per node, a corpus's predications per document and
the index's holders per node are each stored as sorted integer keys
``group * width + value``; :func:`grouped` alone decodes them.
"""

from __future__ import annotations

import numpy as np


def segment_offsets(sizes: np.ndarray) -> np.ndarray:
    """Start offset of each segment, then the total."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: what ``np.unique`` returns.

    numpy 2 serves a plain ``np.unique`` of integers from a hash table,
    which on 10**5 int64 keys is about 20 times slower than this sort.
    """
    values = np.sort(values)
    return values[run_heads(values)]


def run_heads(values: np.ndarray) -> np.ndarray:
    """True where a sorted value differs from the one before it: at the
    first value of each run of equal values."""
    heads = np.empty(len(values), dtype=bool)
    heads[:1] = True
    np.not_equal(values[1:], values[:-1], out=heads[1:])
    return heads


def ranks(order: np.ndarray) -> np.ndarray:
    """The rank of each place in ``order``, a permutation of them all."""
    ranked = np.empty_like(order)
    ranked[order] = np.arange(len(order))
    return ranked


def grouped(
    keys: np.ndarray, groups: int, width: int, dtype: type
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted keys ``group * width + value``, each group below
    ``groups`` and each value below ``width``, as each group's start, then
    the total, in int64, and the values of ``dtype``: the keys' remainders,
    written over the keys.  The keys' dtype must hold ``width`` and
    ``groups * width``."""
    starts = keys.searchsorted(np.arange(groups + 1, dtype=keys.dtype) * width)
    np.remainder(keys, width, out=keys)
    return starts.astype(np.int64, copy=False), keys.astype(dtype, copy=False)


# _LOW_BYTES[r] keeps the first r bytes of a little-endian 8-byte word.
_LOW_BYTES = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)


def equal_spans(
    data: bytes, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Number the byte strings ``data[starts[i]:ends[i]]``, equal ones
    alike, in the order in which each first occurs; and the place of each
    number's first span.

    ``data`` is UTF-8, possibly with encoded surrogates, followed by 7
    bytes more.  Each span is read as 8-byte words, the last padded past
    the span's end with 0xFF, a byte that such text never holds: so a span
    of at most 8 bytes is its one word, whatever NUL bytes it holds.  A
    longer span is keyed by its length and its words, each times an odd
    constant of its place, summed modulo 2**64; spans of equal keys are
    then compared word by word, and None is returned if two different
    spans share a key.
    """
    count = len(starts)
    if not count:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
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
            return None
        shift = np.repeat(offsets[like] - offsets, sizes)
        shift += np.arange(total)
        if (values[shift] != values).any():
            return None
    firsts = np.minimum.reduceat(order, np.flatnonzero(heads))
    by_first = ranks(np.argsort(firsts))
    runs = np.cumsum(heads)
    runs -= 1
    numbers = np.empty(count, dtype=np.int64)
    numbers[order] = by_first[runs]
    return numbers, np.sort(firsts)


def spans(starts: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the members of each of ``rows`` (at least one),
    row after row, in a layout where row ``r`` holds positions
    ``starts[r]`` to ``starts[r + 1]``; and each row's count."""
    first = starts[rows]
    counts = starts[rows + 1] - first
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(first - ends + counts, counts), counts


def key_dtype(extent: int) -> type:
    """int32 if every key below ``extent`` fits in it, else int64.

    Arrays of such keys are built in this dtype from the start: numpy 2
    computes ``int32_array * python_int`` in int32 and wraps silently on
    overflow, so this size test, not the dtype, keeps the keys right.
    """
    return np.int32 if extent < 2**31 else np.int64
