"""Numpy helpers shared by the corpus loader, the hierarchy and the index."""

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
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


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
