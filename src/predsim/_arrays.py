"""Integer-key helpers shared by the corpus, the hierarchy, the index and
the line reader.

A hierarchy's parents per node, a corpus's predications per document and
the index's holders per node are each stored as sorted integer keys
``group * width + value``; :func:`grouped` alone decodes them.  Nothing
here reads bytes: the line format's byte layout is ``_input``'s alone.
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
    The heads are taken by ``np.compress``, which reads a dense mask of
    unpredictable bits several times faster than boolean indexing.
    """
    values = np.sort(values)
    return np.compress(run_heads(values), values)


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
