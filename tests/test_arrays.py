"""Property tests for the sorted-key helpers of ``predsim._arrays``.

A hierarchy's parents per node, a corpus's predications per document and
the index's holders per node are all decoded by ``grouped`` from sorted
keys ``group * width + value``; it must equal a plain dict-of-lists
decode, in int32 keys up to just below 2**31 and in int64 keys above it,
with empty groups anywhere and with no keys at all.  ``ranks``,
``run_heads``, ``sorted_distinct`` and ``spans`` must equal their plain
Python definitions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from predsim._arrays import grouped, key_dtype, ranks, run_heads, sorted_distinct, spans

# The example budget comes from the loaded profile (tests/conftest.py).
SETTINGS = settings(deadline=None)


@st.composite
def group_keys(draw):
    """(groups, width, values by group): each group's values distinct and
    below ``width``.  The width is small, or makes ``groups * width`` just
    below 2**31, so the keys are int32 up to their top, or above 2**31."""
    groups = draw(st.integers(0, 6))
    most = max(groups, 1)
    width = draw(
        st.sampled_from([1, 2, 7, (2**31 - 1) // most, 2**31 // most + 1, 2**40 // most])
    )
    # The values near either end of their range.
    low, high = st.integers(0, min(width, 20) - 1), st.integers(max(0, width - 20), width - 1)
    value = st.one_of(low, high)
    by_group = [sorted(draw(st.sets(value, max_size=5))) for _ in range(groups)]
    if groups and draw(st.booleans()):  # empty groups at both ends
        by_group[0] = by_group[-1] = []
    return groups, width, by_group


def _keys(groups, width, by_group):
    dtype = key_dtype(max(groups, 1) * width)
    keys = [g * width + v for g, values in enumerate(by_group) for v in values]
    return np.array(keys, dtype=dtype)


@SETTINGS
@given(group_keys(), st.booleans())
def test_grouped_equals_a_plain_decode(case, narrow):
    groups, width, by_group = case
    keys = _keys(groups, width, by_group)
    assert keys.dtype == (np.int32 if max(groups, 1) * width < 2**31 else np.int64)
    dtype = np.int32 if narrow and width <= 2**31 else np.int64
    starts, values = grouped(keys, groups, width, dtype)
    expected = [v for group in by_group for v in group]
    assert starts.dtype == np.int64
    assert starts.tolist() == [0, *np.cumsum([len(g) for g in by_group], dtype=np.int64).tolist()]
    assert values.dtype == dtype
    assert values.tolist() == expected
    assert keys.tolist() == expected  # written over the keys


def test_grouped_of_no_keys():
    for groups in (0, 1, 3):
        starts, values = grouped(np.empty(0, dtype=np.int32), groups, 5, np.int32)
        assert starts.tolist() == [0] * (groups + 1)
        assert values.tolist() == [] and values.dtype == np.int32


def test_grouped_at_the_top_of_int32():
    # The last key of the last group, and the bound after it, are the
    # largest that int32 keys hold.
    width = (2**31 - 1) // 3
    keys = np.array([0, width - 1, 2 * width, 3 * width - 1], dtype=key_dtype(3 * width))
    assert keys.dtype == np.int32
    starts, values = grouped(keys, 3, width, np.int32)
    assert starts.tolist() == [0, 2, 2, 4]
    assert values.tolist() == [0, width - 1, 0, width - 1]


@SETTINGS
@given(st.integers(0, 50).flatmap(lambda n: st.permutations(range(n))))
def test_ranks_invert_their_permutation(order):
    order = np.array(order, dtype=np.int64)
    ranked = ranks(order)
    assert ranked.dtype == order.dtype
    assert ranked[order].tolist() == list(range(len(order)))
    assert order[ranked].tolist() == list(range(len(order)))


@SETTINGS
@given(st.lists(st.integers(-3, 3)), st.sampled_from([np.int32, np.int64]))
def test_run_heads_and_sorted_distinct_equal_plain_python(values, dtype):
    ascending = sorted(values)
    heads = run_heads(np.array(ascending, dtype=dtype))
    assert heads.dtype == bool
    assert heads.tolist() == [i == 0 or v != ascending[i - 1] for i, v in enumerate(ascending)]
    distinct = sorted_distinct(np.array(values, dtype=dtype))
    assert distinct.dtype == dtype
    assert distinct.tolist() == sorted(set(values))


@SETTINGS
@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=8).flatmap(
        lambda sizes: st.tuples(
            st.just(sizes), st.lists(st.integers(0, len(sizes) - 1), min_size=1, max_size=8)
        )
    )
)
def test_spans_equal_concatenated_ranges(case):
    sizes, rows = case
    starts = np.array([0, *np.cumsum(sizes).tolist()], dtype=np.int64)
    at, counts = spans(starts, np.array(rows, dtype=np.int64))
    assert at.tolist() == [p for r in rows for p in range(starts[r], starts[r + 1])]
    assert counts.tolist() == [sizes[r] for r in rows]
