import os
import tracemalloc

import pytest
from hypothesis import settings

from predsim import Corpus, Hierarchy, Predication, retrieval

# Tier-1 draws a fixed 150 examples per property test.  HYPOTHESIS_PROFILE=ci
# draws 2,000, in CI's one run of the whole suite on every leg, so that
# the file-format and literal properties of tests/test_formats.py, whose
# line blocks, chunk boundaries, comment runs and recurring names need
# many draws to meet, and the sorted-key properties of
# tests/test_arrays.py reach rare draws.  The profile sets the example
# count only: both files set deadline=None themselves.
settings.register_profile("tier1", max_examples=150)
settings.register_profile("ci", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

# Hand-enumerated concept fixture.  Ancestor sets:
#   C1 -> {C1, A, R}        C2 -> {C2, A, R}         (siblings: 2/4 = 0.5)
#   OA -> {OA, U1, U2, X1, X2, X3}                   (6 members)
#   OB -> {OB, V1, V2, V3, X1, X2, X3}               (7 members; overlap 3 -> 0.3)
#   D1 -> {D1, E1}                                   (disjoint from the rest)
CONCEPT_EDGES = [
    ("C1", "A"),
    ("C2", "A"),
    ("A", "R"),
    ("OA", "U1"),
    ("U1", "U2"),
    ("U2", "X1"),
    ("X1", "X2"),
    ("X2", "X3"),
    ("OB", "V1"),
    ("V1", "V2"),
    ("V2", "V3"),
    ("V3", "X1"),
    ("D1", "E1"),
]

# TREATS/PREVENTS/CAUSES are siblings under AFFECTS -> RELATED:
#   sim(TREATS, PREVENTS) = |{AFFECTS, RELATED}| / 4 = 0.5
RELATION_EDGES = [
    ("TREATS", "AFFECTS"),
    ("PREVENTS", "AFFECTS"),
    ("CAUSES", "AFFECTS"),
    ("AFFECTS", "RELATED"),
]


@pytest.fixture
def concept_h():
    return Hierarchy(CONCEPT_EDGES, source="concept-fixture")


@pytest.fixture
def relation_h():
    return Hierarchy(RELATION_EDGES, source="relation-fixture")


@pytest.fixture
def small_corpus():
    return Corpus(
        [
            ("d1", "C1", "TREATS", "OA"),
            ("d1", "C1", "CAUSES", "D1"),
            ("d2", "C1", "TREATS", "OA"),
            ("d2", "C1", "CAUSES", "D1"),
            ("d3", "C2", "TREATS", "OB"),
            ("d4", "D1", "PREVENTS", "E1"),
        ],
        source="corpus-fixture",
    )


def stub_sim(table: dict, default: float = 0.0):
    """Similarity source backed by an unordered pair table; identity is 1."""

    def sim(a, b):
        if a == b:
            return 1.0
        return table.get((a, b), table.get((b, a), default))

    return sim


def traced(load, source):
    """What ``load(source)`` holds and its traced peak, both in bytes, and
    what it returns; numpy's first calls allocate caches, so it runs once
    untraced first."""
    load(source)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loaded = load(source)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held - start, peak - start, loaded


def triple(s: str, r: str, o: str) -> Predication:
    return Predication(s, r, o)


# Kernel sizes that move the member chunk and tile boundaries, as
# overrides of the ``retrieval`` constant that bounds both.  On the small
# random cases a member's Jaccard rows are mostly wider than these, so
# most chunks hold one member: tiles of 1 element give each document a
# tile of its own, for queries and for ``find`` alike; tiles of 3
# elements split a corpus part-way and give each document larger than a
# tile a tile of its own; tiles of 16 elements hold several documents.
# Chunks and tiles of several members are checked at the default size and
# by ``test_chunk_rows_stay_within_a_tile``.
KERNEL_SIZES = (
    {"TILE_ELEMENTS": 1},
    {"TILE_ELEMENTS": 3},
    {"TILE_ELEMENTS": 16},
)


def each_kernel_size(monkeypatch):
    """Yield each entry of ``KERNEL_SIZES`` with the constants set to it."""
    for sizes in KERNEL_SIZES:
        with monkeypatch.context() as patch:
            for name, value in sizes.items():
                patch.setattr(retrieval, name, value)
            yield sizes
