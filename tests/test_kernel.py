"""The columnar ranking kernel against the scalar cascade it replaces.

``RetrievalEngine`` ranks with numpy over an index of the corpus, while
``set_similarity`` and ``pattern_similarity`` stay the scalar definitions
of the scores.  Every ranked score must equal the scalar one exactly
(``==``, not approximately) and be a plain Python ``float``, for random
hierarchies, corpora, slot weights (including zero weights) and pair
thresholds, and for identifiers that neither the hierarchy nor the
corpus knows.

The engine sums exactly only the documents whose score bounds let them
reach the top ``n``, so a ranking at any ``n`` must also be the
length-``n`` prefix of the exhaustive one, ties included.  The scores
must not change with the sizes of the member chunks and tiles the kernel
gathers in, and one query on a corpus far larger than a tile must
allocate no more than the terms it keeps and a few tiles.
``related_predications``, which scores straight from the corpus columns,
must keep nothing once the index exists.  Every call gathers into the
position buffer and tiles that the index holds: in any order, at any
tile size and from several threads at once, each result must equal a
fresh engine's, and a steady call must allocate neither.  Calls that
overlap on two corpora must keep no more than one index alive.

Below the engine, each Jaccard row built from the inverted ancestor index
must equal ``Hierarchy.similarity`` exactly, the index's sets, built in
one array pass, must equal those of the scalar walk ``_node_sets``, and
``related_predications`` must order tied predications by their literals
and list each one's documents in id order.  The selection ``_select``
must equal its first, plainer implementation, kept here as a reference.
"""

import functools
import gc
import math
import sys
import threading
import time
import warnings
import weakref
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from predsim import (
    Corpus,
    Hierarchy,
    Predication,
    PredicationPattern,
    PredicationSet,
    RetrievalEngine,
    SimConfig,
    SimWeights,
    format_predication,
    ontology,
    pattern_similarity,
    retrieval,
    set_similarity,
)

from predsim._arrays import segment_offsets

from conftest import each_kernel_size, read_source, traced_memory
from oracles import random_corpus, random_cyclic_graph, random_dag

THRESHOLDS = (0.0, 0.2, 0.37, 0.5, 0.9)
UNKNOWN_CONCEPT = "nowhere"
UNKNOWN_RELATION = "UNRELATED"


def _random_weights(rng) -> SimWeights:
    raw = [float(w) for w in rng.uniform(0.0, 3.0, size=3)]
    if rng.random() < 0.5:
        raw[int(rng.integers(0, 3))] = 0.0
    if rng.random() < 0.3:
        raw = [float(int(rng.integers(0, 4))) for _ in range(3)]
    if sum(raw) == 0:
        raw[1] = 1.0
    return SimWeights(*raw)


def _random_case(rng):
    cnodes, cedges = random_dag(rng, max_nodes=14, max_edges=25)
    rnodes, redges = random_dag(rng, max_nodes=5, max_edges=6)
    docs = random_corpus(rng, cnodes, rnodes, max_docs=9, max_preds=6)
    corpus = Corpus([(d, s, r, o) for d in sorted(docs) for (s, r, o) in docs[d]])
    config = SimConfig(
        weights=_random_weights(rng),
        pair_threshold=THRESHOLDS[int(rng.integers(0, len(THRESHOLDS)))],
    )
    engine = RetrievalEngine(Hierarchy(cedges), Hierarchy(redges), config)
    # Query and pattern identifiers include some known to neither side.
    concepts = cnodes + [UNKNOWN_CONCEPT]
    relations = rnodes + [UNKNOWN_RELATION]
    return engine, corpus, concepts, relations


def _pick(rng, names):
    return names[int(rng.integers(0, len(names)))]


def _random_query(rng, concepts, relations) -> PredicationSet:
    return PredicationSet.from_iterable(
        Predication(_pick(rng, concepts), _pick(rng, relations), _pick(rng, concepts))
        for _ in range(int(rng.integers(1, 5)))
    )


def _random_pattern(rng, concepts, relations) -> PredicationPattern:
    slots = [_pick(rng, concepts), _pick(rng, relations), _pick(rng, concepts)]
    bound = int(rng.integers(1, 4))
    for k in rng.permutation(3)[bound:]:
        slots[int(k)] = None
    return PredicationPattern(*slots)


def _assert_ranked(results, key):
    assert [r.rank for r in results] == list(range(1, len(results) + 1))
    assert [(-r.score, key(r)) for r in results] == sorted(
        (-r.score, key(r)) for r in results
    )


def _check_case(engine, corpus, concepts, relations, rng):
    """Check every score of one engine against the scalar path; return them."""
    seen = []
    everything = len(corpus) + 1
    concept_sim, relation_sim = engine.concepts.similarity, engine.relations.similarity
    for seed in corpus.doc_ids():
        results = engine.related_documents(corpus, seed, everything)
        assert {r.doc_id for r in results} == set(corpus.doc_ids()) - {seed}
        _assert_ranked(results, lambda r: r.doc_id)
        for r in results:
            assert type(r.score) is float
            assert r.score == set_similarity(
                corpus[r.doc_id], corpus[seed], engine.config, concept_sim, relation_sim
            )
        seen.append(results)
    for _ in range(3):
        query = _random_query(rng, concepts, relations)
        results = engine.query_documents(corpus, query, everything)
        assert {r.doc_id for r in results} == set(corpus.doc_ids())
        _assert_ranked(results, lambda r: r.doc_id)
        for r in results:
            assert type(r.score) is float
            assert r.score == set_similarity(
                corpus[r.doc_id], query, engine.config, concept_sim, relation_sim
            )
        seen.append(results)
    weights = engine.config.weights
    distinct = {p for d in corpus.doc_ids() for p in corpus[d]}
    for _ in range(4):
        pattern = _random_pattern(rng, concepts, relations)
        try:
            want = {
                p: pattern_similarity(pattern, p, weights, concept_sim, relation_sim)
                for p in distinct
            }
        except ValueError:  # every bound slot has zero weight
            with pytest.raises(ValueError, match="zero weight"):
                engine.related_predications(corpus, pattern, 1)
            continue
        results = engine.related_predications(corpus, pattern, len(distinct) + 1)
        assert {r.predication for r in results} == distinct
        _assert_ranked(results, lambda r: format_predication(r.predication))
        for r in results:
            assert type(r.score) is float
            assert r.score == want[r.predication]
            assert list(r.documents) == [
                d for d in corpus.doc_ids() if r.predication in corpus[d]
            ]
        seen.append(results)
    return seen


class TestKernelExactness:
    def test_random_cases_equal_scalar_cascade(self):
        rng = np.random.default_rng(2016)
        for _ in range(200):
            engine, corpus, concepts, relations = _random_case(rng)
            _check_case(engine, corpus, concepts, relations, rng)

    def test_unknown_identifiers_only(self):
        rng = np.random.default_rng(7)
        engine, corpus, _, _ = _random_case(rng)
        query = PredicationSet.from_iterable(
            [Predication(UNKNOWN_CONCEPT, UNKNOWN_RELATION, "elsewhere")]
        )
        results = engine.query_documents(corpus, query, len(corpus))
        assert [r.score for r in results] == [0.0] * len(corpus)
        assert [r.doc_id for r in results] == list(corpus.doc_ids())
        pattern = PredicationPattern(UNKNOWN_CONCEPT, None, None)
        found = engine.related_predications(corpus, pattern, 3)
        assert all(r.score == 0.0 and type(r.score) is float for r in found)

    def test_every_identifier_outside_both_hierarchies(self, monkeypatch):
        # Neither hierarchy has a node, so every interned id and every
        # query name is its own set of one, at every chunk and tile size.
        rng = np.random.default_rng(23)
        for _ in each_kernel_size(monkeypatch):
            for _ in range(20):
                engine, corpus, concepts, relations = _random_case(rng)
                engine = RetrievalEngine(Hierarchy([]), Hierarchy([]), engine.config)
                _check_case(engine, corpus, concepts, relations, rng)

    def test_weights_whose_sum_is_near_the_largest_double(self, monkeypatch):
        # The weight total, 1.6e308, is finite, so no weighted slot sum
        # overflows: each is at most the total.  The test configuration
        # turns an overflow's RuntimeWarning into an error.
        rng = np.random.default_rng(29)
        for _ in each_kernel_size(monkeypatch):
            for _ in range(10):
                case, corpus, concepts, relations = _random_case(rng)
                config = SimConfig(SimWeights(8e307, 4e307, 4e307), case.config.pair_threshold)
                engine = RetrievalEngine(case.concepts, case.relations, config)
                _check_case(engine, corpus, concepts, relations, rng)

    def test_one_query_row_per_block(self, monkeypatch):
        def run():
            rng = np.random.default_rng(99)
            out = []
            for _ in range(30):
                engine, corpus, concepts, relations = _random_case(rng)
                out.append(_check_case(engine, corpus, concepts, relations, rng))
            return out

        default = run()
        for sizes in each_kernel_size(monkeypatch):
            assert run() == default, sizes


class TestBitPatternMaxima:
    """The kernel takes its best-match maxima over the int64 bit patterns
    of the weighted slot sums, which order as the sums do only while no
    sum has its sign bit set.  A weight or a pair threshold of -0.0, which
    ``SimWeights`` and ``SimConfig`` accept, must leave every term +0.0 or
    more, and every score equal to the scalar cascade's, at every chunk
    and tile size."""

    WEIGHTS = ((-0.0, -0.0, 1.0), (0.0, 1.0, -0.0), (2.0, -0.0, 0.5))
    PAIR_THRESHOLDS = (-0.0, 0.0, 0.3)

    @staticmethod
    def _recorded_terms(engine):
        """A list that gets both arrays of terms of each ``_document_terms``
        call the engine makes."""
        terms = []
        document_terms = engine._document_terms

        def recorded(*args):
            found = document_terms(*args)
            terms.extend(found)
            return found

        engine._document_terms = recorded
        return terms

    def test_negative_zero_weights_and_thresholds(self, monkeypatch):
        rng = np.random.default_rng(31)
        for _ in each_kernel_size(monkeypatch):
            for _ in range(5):
                case, corpus, concepts, relations = _random_case(rng)
                for weights in self.WEIGHTS:
                    for tau in self.PAIR_THRESHOLDS:
                        config = SimConfig(SimWeights(*weights), tau)
                        engine = RetrievalEngine(case.concepts, case.relations, config)
                        terms = self._recorded_terms(engine)
                        _check_case(engine, corpus, concepts, relations, rng)
                        assert len(terms) == 2 * (len(corpus) + 3)
                        assert not any(np.signbit(t).any() for t in terms)


class TestRuns:
    """``_runs`` covers the documents in order with runs of whole
    documents, each at most a tile wide unless it is one larger document,
    and tiles of at most a tile's elements unless they hold one row."""

    def test_random_offsets(self, monkeypatch):
        rng = np.random.default_rng(17)
        for _ in range(300):
            sizes = rng.integers(1, 12, size=int(rng.integers(1, 30)))
            offsets = segment_offsets(sizes)
            tile = int(rng.integers(1, 40))
            members = int(rng.integers(1, 6))
            monkeypatch.setattr(retrieval, "TILE_ELEMENTS", tile)
            runs = retrieval._runs(offsets, members)
            assert [d0 for d0, *_ in runs] == [0] + [d1 for _, d1, *_ in runs[:-1]]
            assert runs[-1][1] == len(sizes)
            for k, (d0, d1, p0, p1, rows) in enumerate(runs):
                assert (p0, p1) == (offsets[d0], offsets[d1])
                assert p1 - p0 <= tile or d1 == d0 + 1
                assert 1 <= rows <= members
                assert rows * (p1 - p0) <= tile or rows == 1
                if k + 1 < len(runs):  # a run stops only where the next document would not fit
                    assert offsets[d1 + 1] - p0 > tile
                if rows < members:  # and a tile only where the next row would not fit
                    assert (rows + 1) * (p1 - p0) > tile


@functools.cache
def _wide_case():
    """Hierarchies over 300 concepts and 10 relations, a corpus of 2,000
    documents of 100 predications each, three tiles wide and more, and a
    20-member query."""
    rng = np.random.default_rng(3)
    concepts = [f"c{i}" for i in range(300)]
    relations = [f"r{i}" for i in range(10)]
    concept_edges = [(concepts[i], concepts[int(rng.integers(0, i))]) for i in range(1, 300)]
    relation_edges = [(r, relations[0]) for r in relations[1:]]
    docs, size = 2000, 100
    picks = rng.integers(0, [300, 10, 300], size=(docs * size, 3)).tolist()
    corpus = Corpus(
        (f"d{k // size:04d}", concepts[s], relations[r], concepts[o])
        for k, (s, r, o) in enumerate(picks)
    )
    query = PredicationSet.from_iterable(
        Predication(concepts[i], relations[i % 10], concepts[-i]) for i in range(1, 21)
    )
    return (Hierarchy(concept_edges), Hierarchy(relation_edges)), corpus, query


class TestBoundedMemory:
    """A query against a corpus far larger than a tile allocates the
    arrays it must hold (a term per member and document, and the members'
    Jaccard rows), a few arrays per document for the selection, and
    nothing as large as the members times the corpus.  The index holds a
    term per corpus position and two tiles for every call to reuse, so a
    steady call allocates neither, and what the engine holds stays flat
    from call to call until another corpus's index replaces them."""

    def test_peak_stays_within_the_tiles(self):
        (concepts, relations), corpus, query = _wide_case()
        engine = RetrievalEngine(concepts, relations)
        engine.query_documents(corpus, query, 10)  # builds the index
        positions = len(corpus.subjects)
        assert positions > 3 * retrieval.TILE_ELEMENTS
        width = 2 * len(corpus.concept_names) + len(corpus.relation_names)
        seed = corpus.doc_ids()[7]
        for members, call in (
            (len(query), lambda: engine.query_documents(corpus, query, 10)),
            (len(corpus[seed]), lambda: engine.related_documents(corpus, seed, 10)),
        ):
            # The float64 terms per position and per member and document,
            # the members' rows, a mask per position, sixteen arrays per
            # document and four tiles.
            terms = 8 * (positions + members * len(corpus))
            rows = 8 * members * width
            tiles = 4 * 8 * retrieval.TILE_ELEMENTS
            bound = terms + rows + positions + 16 * 8 * len(corpus) + tiles
            with traced_memory() as memory:
                call()
                peak = memory()[1]
            assert peak < bound, (members, peak, bound)

    def test_chunk_rows_stay_within_a_tile(self, monkeypatch):
        # A member chunk's Jaccard rows, a subject, a relation and an object
        # row per member, hold at most a tile's elements unless they are one
        # member's, and the chunks leave every score as it was.
        rng = np.random.default_rng(21)
        (concepts, relations), corpus = _large_corpus(rng)
        big = [p for d in corpus.doc_ids()[:40] for p in corpus[d]]
        records = [(d, p.subject, p.relation, p.object) for d in corpus.doc_ids() for p in corpus[d]]
        corpus = Corpus(records + [("dbig", p.subject, p.relation, p.object) for p in big])
        query = PredicationSet.from_iterable(big)
        engine = RetrievalEngine(concepts, relations)
        calls = (
            lambda: engine.query_documents(corpus, query, 20),
            lambda: engine.related_documents(corpus, "dbig", 20),
        )
        expected = [call() for call in calls]
        monkeypatch.setattr(retrieval, "TILE_ELEMENTS", 4096)
        rows = []
        similarity_rows = ontology._Vocabulary.similarity_rows

        def recorded(vocab, keys):
            found = similarity_rows(vocab, keys)
            rows.append((vocab.hierarchy is concepts, len(keys), found.size))
            return found

        monkeypatch.setattr(ontology._Vocabulary, "similarity_rows", recorded)
        for call, want in zip(calls, expected):
            rows.clear()
            assert call() == want
            # Each chunk takes its concept rows, then its relation rows.
            chunks = list(zip(rows[::2], rows[1::2]))
            assert len(chunks) > 1 and len(rows) == 2 * len(chunks)
            assert sum(members for _, (_, members, _) in chunks) == len(query)
            for (is_concept, keys, size), (is_relation, members, more) in chunks:
                assert is_concept and not is_relation and keys == 2 * members
                assert size + more <= retrieval.TILE_ELEMENTS or members == 1, (members, size + more)

    def test_find_holds_nothing_once_the_index_exists(self):
        # find scores from the corpus columns and the index that queries
        # use, so once the index exists it keeps nothing more: at most a
        # few small objects of numpy's or the interpreter's.  The full
        # collection empties the interpreter's free lists, which
        # tracemalloc counts as held.
        rng = np.random.default_rng(19)
        (concepts, relations), corpus = _large_corpus(rng)
        engine = RetrievalEngine(concepts, relations)
        engine.query_documents(corpus, corpus[corpus.doc_ids()[0]], 1)  # builds the index
        pattern = PredicationPattern("c05", "r1", None)
        with traced_memory() as memory:
            for _ in range(3):
                found = engine.related_predications(corpus, pattern, 10)
                assert len(found) == 10
                del found
                gc.collect()
                held = memory()[0]
                assert held < 4096, held

    @staticmethod
    def _steady_calls(engine, corpus, query):
        """A query, a related and a find call on the wide case, each with
        the bytes its traced peak may reach once the index holds its
        buffers: for a query or a seed of n members, a term per member and
        document, the members' Jaccard rows and sixteen arrays per
        document; for find, a byte per position and per code for its
        masks, and the pattern's rows, with a quarter more.  Neither counts
        the float64 per corpus position or the tiles."""
        documents = len(corpus)
        width = 2 * len(corpus.concept_names) + len(corpus.relation_names)
        codes = int(corpus.predication_codes.max()) + 1
        seed = corpus.doc_ids()[7]
        pattern = PredicationPattern("c5", "r1", None)
        return (
            (lambda: engine.query_documents(corpus, query, 10),
             8 * len(query) * (documents + width) + 16 * 8 * documents),
            (lambda: engine.related_documents(corpus, seed, 10),
             8 * len(corpus[seed]) * (documents + width) + 16 * 8 * documents),
            (lambda: engine.related_predications(corpus, pattern, 10),
             1.25 * (len(corpus.subjects) + codes + 8 * width)),
        )

    def test_steady_calls_allocate_no_position_array_or_tiles(self):
        # Once the index has served each call, the next identical call
        # gathers into the index's buffers: a float64 per position and two
        # tiles, here 1.6 MB and 1 MB, fall outside its peak.  Allocated
        # per call, they put every call above its bound.
        (concepts, relations), corpus, query = _wide_case()
        engine = RetrievalEngine(concepts, relations)
        calls = self._steady_calls(engine, corpus, query)
        expected = [call() for call, _ in calls]
        for (call, bound), want in zip(calls, expected):
            with traced_memory() as memory:
                found = call()
                peak = memory()[1]
            assert found == want
            assert peak < bound, (peak, bound)

    def test_held_memory_stays_flat_over_mixed_calls(self):
        # Thirty calls in a random order, each call having run once
        # before: the engine holds no more after any of them than before
        # the first, so nothing it reuses grows or is replaced.
        (concepts, relations), corpus, query = _wide_case()
        engine = RetrievalEngine(concepts, relations)
        calls = [call for call, _ in self._steady_calls(engine, corpus, query)]
        for call in calls:
            call()
        order = np.random.default_rng(37).integers(0, len(calls), 30).tolist()
        gc.collect()
        with traced_memory() as memory:
            for k in order:
                calls[k]()
                gc.collect()
                held = memory()[0]
                assert held < 4096, (k, held)

    def test_another_corpus_releases_the_index_buffers(self):
        # A call on another corpus replaces the index, and the old index's
        # position buffer and tiles are freed with it.
        (concepts, relations), corpus, query = _wide_case()
        small = Corpus([("d", "c1", "r1", "c2")])
        engine = RetrievalEngine(concepts, relations)
        with traced_memory() as memory:
            engine.query_documents(corpus, query, 10)
            index = engine._index
            buffers = index.positions.nbytes + 2 * index.tile_buffers(0)[0].nbytes
            assert buffers > 8 * (len(corpus.subjects) + retrieval.TILE_ELEMENTS)
            del index
            gc.collect()
            held = memory()[0]
            engine.query_documents(small, query, 10)
            gc.collect()
            released = held - memory()[0]
        assert engine._index.corpus is small
        assert released > buffers, (released, buffers)


def _outcome(call):
    """What ``call()`` returns, or the type and message of the ValueError
    it raises (a pattern whose bound slots all have zero weight)."""
    try:
        return call()
    except ValueError as err:
        return type(err), str(err)


class TestHeldBuffers:
    """Every scoring call on an index gathers into the position buffer and
    the two tiles that the index holds.  Whatever calls ran before, at
    whatever tile size, and however many threads share the engine, each
    result equals the one a fresh engine gives."""

    @staticmethod
    def _calls(rng, corpus, concepts, relations):
        """Related, query and find calls on ``corpus`` with random sizes,
        each a function of an engine."""
        everything = len(corpus) + 1
        distinct = len({p for d in corpus.doc_ids() for p in corpus[d]})

        def size(most):
            return int(rng.integers(1, most + 1))

        calls = [
            functools.partial(RetrievalEngine.related_documents, corpus=corpus, seed=seed,
                              top_n=size(everything))
            for seed in corpus.doc_ids()
        ]
        calls += [
            functools.partial(RetrievalEngine.query_documents, corpus=corpus,
                              query=_random_query(rng, concepts, relations),
                              top_n=size(everything))
            for _ in range(3)
        ]
        calls += [
            functools.partial(RetrievalEngine.related_predications, corpus=corpus,
                              pattern=_random_pattern(rng, concepts, relations),
                              top_k=size(distinct + 1))
            for _ in range(4)
        ]
        return calls

    def test_interleaved_calls_equal_a_fresh_engine(self, monkeypatch):
        # One engine runs each case's calls in a random order at each
        # kernel size, smallest first, so later sizes' tiles outgrow the
        # buffers the index already holds.  Copied documents give the
        # corpora fewer predication codes than positions, so find reads
        # only the first part of the position buffer that queries fill.
        rng = np.random.default_rng(31)
        for _ in range(40):
            engine, corpus, concepts, relations = _random_case(rng)
            corpus = _with_copies(rng, corpus)
            calls = self._calls(rng, corpus, concepts, relations)
            for _ in each_kernel_size(monkeypatch):
                for k in rng.permutation(len(calls)).tolist():
                    fresh = RetrievalEngine(engine.concepts, engine.relations, engine.config)
                    assert _outcome(lambda: calls[k](engine)) == _outcome(lambda: calls[k](fresh))

    def test_larger_tile_replaces_the_buffers(self, monkeypatch):
        # Tiles of one element, then of the default size, on one index.
        rng = np.random.default_rng(33)
        engine, corpus, concepts, relations = _random_case(rng)
        corpus = _with_copies(rng, corpus)
        query = _random_query(rng, concepts, relations)
        with monkeypatch.context() as patch:
            patch.setattr(retrieval, "TILE_ELEMENTS", 1)
            engine.query_documents(corpus, query, 3)
            index = engine._index
            small = len(index.tile_buffers(0)[0])
        assert small == max(np.diff(corpus.doc_offsets).tolist())
        found = engine.query_documents(corpus, query, 3)
        assert engine._index is index
        assert len(index.tile_buffers(0)[0]) == len(query) * len(corpus.subjects) > small
        fresh = RetrievalEngine(engine.concepts, engine.relations, engine.config)
        assert found == fresh.query_documents(corpus, query, 3)

    def test_concurrent_calls_equal_sequential_ones(self, monkeypatch):
        # Four threads share one engine over a corpus many tiles wide and
        # switch as often as the interpreter lets them: every result equals
        # the one the same call gave alone.  Without the engine's lock, one
        # thread's tiles and maxima overwrite another's.
        monkeypatch.setattr(retrieval, "TILE_ELEMENTS", 512)
        rng = np.random.default_rng(29)
        (concepts, relations), corpus = _large_corpus(rng)
        engine = RetrievalEngine(concepts, relations)
        assert len(retrieval._runs(corpus.doc_offsets, 1)) > 4
        docs = corpus.doc_ids()
        calls = [
            functools.partial(engine.related_documents, corpus, seed, 10) for seed in docs[::150]
        ]
        calls += [
            functools.partial(engine.query_documents, corpus, corpus[seed], 10)
            for seed in docs[75::200]
        ]
        calls += [
            functools.partial(engine.related_predications, corpus, pattern, 10)
            for pattern in TestFindAtScale.PATTERNS[:6]
        ]
        expected = [call() for call in calls]
        orders = [rng.permutation(len(calls)).tolist() for _ in range(12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                run = pool.map(lambda order: [(k, calls[k]()) for k in order], orders, timeout=120)
                found = list(run)
        finally:
            sys.setswitchinterval(interval)
        for results in found:
            for k, result in results:
                assert result == expected[k], k

    def test_overlapping_calls_on_two_corpora_hold_one_index(self, monkeypatch):
        # Thread A ranks on corpus x and is held inside _top_documents; thread
        # B then ranks on y, equal to x but another object.  B waits on the
        # engine's lock until A has let go of x's index, so the engine never
        # has two indexes alive at once, and both results are a fresh
        # engine's.
        rng = np.random.default_rng(37)
        (concepts, relations), x = _large_corpus(rng, documents=200, records=1000)
        y = Corpus((d, p.subject, p.relation, p.object) for d in x.doc_ids() for p in x[d])
        assert y == x and y is not x
        seed = x.doc_ids()[0]
        fresh = RetrievalEngine(concepts, relations)
        expected = fresh.related_documents(x, seed, 10), fresh.related_documents(y, seed, 10)
        alive = weakref.WeakSet()
        most = []
        build = retrieval._Index.__init__

        def counted_build(index, *args):
            alive.add(index)
            most.append(len(alive))
            build(index, *args)

        inside = threading.Event()
        top = retrieval._top_documents

        def slow_top(*args):
            inside.set()
            time.sleep(0.2)
            return top(*args)

        monkeypatch.setattr(retrieval._Index, "__init__", counted_build)
        monkeypatch.setattr(retrieval, "_top_documents", slow_top)
        engine = RetrievalEngine(concepts, relations)
        with ThreadPoolExecutor(2) as pool:
            a = pool.submit(engine.related_documents, x, seed, 10)
            assert inside.wait(timeout=60)
            b = pool.submit(engine.related_documents, y, seed, 10)
            found = a.result(timeout=60), b.result(timeout=60)
        assert found == expected
        assert engine._index.corpus is y
        assert max(most) == 1, most


def _with_copies(rng, corpus):
    """The corpus plus copies of some of its documents under new ids, so
    that documents tie exactly."""
    records = [
        (d, p.subject, p.relation, p.object) for d in corpus.doc_ids() for p in corpus[d]
    ]
    for d in corpus.doc_ids():
        for copy in range(int(rng.integers(0, 3))):
            records += [(f"{d}c{copy}", p.subject, p.relation, p.object) for p in corpus[d]]
    return Corpus(records)


def _check_prefixes(engine, corpus, concepts, relations, rng):
    """Every ranking at every ``n`` is the prefix of the exhaustive one.

    The query and the pattern of unknown identifiers score everything 0,
    an exact tie."""
    everything = len(corpus) + 1
    for seed in corpus.doc_ids():
        full = engine.related_documents(corpus, seed, everything)
        for n in range(1, everything + 1):
            assert engine.related_documents(corpus, seed, n) == full[:n]
    unknown = PredicationSet.from_iterable(
        [Predication(UNKNOWN_CONCEPT, UNKNOWN_RELATION, UNKNOWN_CONCEPT)]
    )
    for query in (unknown, *(_random_query(rng, concepts, relations) for _ in range(2))):
        full = engine.query_documents(corpus, query, everything)
        for n in range(1, everything + 1):
            assert engine.query_documents(corpus, query, n) == full[:n]
    distinct = len({p for d in corpus.doc_ids() for p in corpus[d]})
    patterns = [PredicationPattern(UNKNOWN_CONCEPT, None, None)]
    patterns += [_random_pattern(rng, concepts, relations) for _ in range(3)]
    for pattern in patterns:
        try:
            full = engine.related_predications(corpus, pattern, distinct + 1)
        except ValueError:  # every bound slot has zero weight
            continue
        for k in range(1, distinct + 2):
            assert engine.related_predications(corpus, pattern, k) == full[:k]


class TestTopPrefixes:
    def test_random_cases(self):
        rng = np.random.default_rng(2016)
        for _ in range(200):
            engine, corpus, concepts, relations = _random_case(rng)
            _check_prefixes(engine, corpus, concepts, relations, rng)

    def test_exact_ties_from_copied_documents(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            engine, corpus, concepts, relations = _random_case(rng)
            corpus = _with_copies(rng, corpus)
            _check_case(engine, corpus, concepts, relations, rng)
            _check_prefixes(engine, corpus, concepts, relations, rng)

    def test_related_is_the_seed_query_less_the_seed(self, monkeypatch):
        # The seed and its copies tie at 1.0, so the seed falls anywhere
        # among them in the ranking of its own predication set; dropping it
        # from the top n + 1 must leave the top n others, ranked from 1.
        rng = np.random.default_rng(43)
        for _ in each_kernel_size(monkeypatch):
            for _ in range(5):
                engine, corpus, _, _ = _random_case(rng)
                corpus = _with_copies(rng, corpus)
                for seed in corpus.doc_ids():
                    for n in range(1, len(corpus) + 2):
                        got = engine.related_documents(corpus, seed, n)
                        full = engine.query_documents(corpus, corpus[seed], n + 1)
                        others = [r for r in full if r.doc_id != seed][:n]
                        want = [(r.doc_id, k, r.score) for k, r in enumerate(others, start=1)]
                        assert [(r.doc_id, r.rank, r.score) for r in got] == want

    def test_lone_seed_has_no_related_documents(self):
        corpus = Corpus([("only", "X", "R", "Y")])
        engine = RetrievalEngine(Hierarchy([("X", "Z")]), Hierarchy([("R", "S")]))
        assert engine.related_documents(corpus, "only", 3) == []
        assert [r.doc_id for r in engine.query_documents(corpus, corpus["only"], 3)] == ["only"]


def _fsum_ranking(pred_terms, query_terms, offsets, top):
    """The ranking ``retrieval._top_documents`` must return, from the exact
    score of every document."""
    scores = [
        math.fsum([*pred_terms[offsets[d]:offsets[d + 1]], *query_terms[:, d]])
        / (offsets[d + 1] - offsets[d] + len(query_terms))
        for d in range(len(offsets) - 1)
    ]
    order = sorted(range(len(scores)), key=lambda d: (-scores[d], d))
    return order[:top], [scores[d] for d in order[:top]]


def _terms_case(rows):
    """Terms laid out as ``_top_documents`` takes them: each row is one
    document's terms, the last ``n`` of them query-side."""
    n = 1 if len(rows[0]) < 3 else 2
    pred = [row[:-n] for row in rows]
    offsets = np.concatenate(([0], np.cumsum([len(p) for p in pred])))
    pred_terms = np.array([t for p in pred for t in p], dtype=float)
    query_terms = np.array([row[-n:] for row in rows], dtype=float).T.copy()
    return pred_terms, query_terms, offsets


class TestSelectionHelper:
    """``_top_documents`` on synthetic terms, against math.fsum of all."""

    MULTISETS = (
        [0.1, 0.2, 0.3],
        [0.1, 0.2, 0.3, 0.7, 1 / 3, 0.9, 0.6],
        [1e-300, 3e-308, 5e-324, 0.0],
        [5e-324, 5e-324, 1e-323],
        [1.0, 1.0, 1.0, 1.0, 1.0],
        [0.0, 0.0, 0.0],
        [2 / 3, 0.1, 1e-17, 0.3, 0.3, 1e-16],
        # Long sums: naive sums of permutations drift several ulps apart.
        [0.1] * 40 + [0.7] * 40,
        np.random.default_rng(0).uniform(0.0, 1.0, 300).tolist(),
    )

    def _check(self, pred_terms, query_terms, offsets):
        documents = len(offsets) - 1
        for top in range(1, documents + 2):
            got = retrieval._top_documents(pred_terms, query_terms, offsets, top)
            want = _fsum_ranking(pred_terms, query_terms, offsets, top)
            assert got == want
            assert all(type(score) is float for score in got[1])

    def test_naive_sums_one_ulp_apart(self):
        case = _terms_case([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])
        pred_terms, query_terms, offsets = case
        naive = np.add.reduceat(pred_terms, offsets[:-1]) + query_terms.sum(axis=0)
        assert naive[0] < naive[1]  # but both fsum to 0.6
        self._check(*case)

    def test_naive_sum_of_many_terms_overshoots(self):
        # Document 0's query side is 0.5 and then 200 terms of 3/4 ulp, each
        # of which the naive sum rounds up to a whole ulp: 0.5 + 200 ulp,
        # against its exact 0.5 + 150 ulp, below document 1's 0.5 + 151 ulp.
        # Only a bound that grows with the 202 terms keeps document 1.
        ulp = 2.0**-53
        pred_terms = np.zeros(2)
        query_terms = np.zeros((201, 2))
        query_terms[0] = [0.5, 0.5 + 151 * ulp]
        query_terms[1:, 0] = 0.75 * ulp
        naive = query_terms.sum(axis=0)
        assert naive[0] > naive[1]
        self._check(pred_terms, query_terms, np.arange(3))

    def test_permutations_of_one_multiset(self):
        rng = np.random.default_rng(3)
        for values in self.MULTISETS:
            for _ in range(20):
                rows = [list(rng.permutation(values)) for _ in range(int(rng.integers(2, 7)))]
                self._check(*_terms_case(rows))

    def test_mixed_multisets_of_one_size(self):
        rng = np.random.default_rng(4)
        pool = [0.1, 0.2, 0.3, 0.7, 1 / 3, 1.0, 1e-300, 5e-324, 0.0]
        for _ in range(200):
            size = int(rng.integers(2, 6))
            bases = [list(rng.choice(pool, size)) for _ in range(2)]
            rows = [
                list(rng.permutation(bases[int(rng.integers(0, 2))]))
                for _ in range(int(rng.integers(2, 8)))
            ]
            self._check(*_terms_case(rows))


class TestSimilarityRows:
    """``_Vocabulary.similarity_rows`` against ``Hierarchy.similarity``, for
    names that are interned, known to the hierarchy only, known to neither,
    and repeated."""

    def _check(self, rng, nodes, edges):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # cycles are reported with a warning
            hierarchy = Hierarchy(edges)
        names = nodes + ["ghost"]  # "ghost" is in the corpus, not the hierarchy
        picked = [_pick(rng, names) for _ in range(int(rng.integers(1, 2 * len(names))))]
        interned = list(dict.fromkeys(picked))  # distinct, as a corpus's identifier table
        vocab = ontology._Vocabulary(hierarchy, interned)
        outside = [n for n in names if n not in interned] + [UNKNOWN_CONCEPT]
        queries = [_pick(rng, interned) for _ in range(3)] + [_pick(rng, outside) for _ in range(3)]
        queries += queries[:2]
        rows = vocab.similarity_rows(queries)
        assert rows.shape == (len(queries), len(interned))
        for name, row in zip(queries, rows.tolist()):
            assert row == [hierarchy.similarity(name, v) for v in vocab.names]

    def test_random_dags(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            self._check(rng, *random_dag(rng))

    def test_random_cyclic_graphs(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            self._check(rng, *random_cyclic_graph(rng))


class TestSetsById:
    """The index's sets by id serve seeded calls only: ad-hoc queries and
    ``find`` walk their names, a seed's first call builds the sets once,
    and an interned name that is not a node still scores 1.0 against
    itself."""

    def test_built_by_the_first_seed_only(self, monkeypatch):
        rng = np.random.default_rng(23)
        engine, corpus, concepts, relations = _random_case(rng)
        engine.query_documents(corpus, _random_query(rng, concepts, relations), 3)
        engine.related_predications(corpus, PredicationPattern(concepts[0], None, None), 3)
        index = engine._index
        vocabs = index.concept_vocab, index.relation_vocab
        assert [vocab._id_sets for vocab in vocabs] == [None, None]
        builds = []
        take = ontology._Vocabulary.id_sets.fget

        def counted(vocab):
            if vocab._id_sets is None:
                builds.append(vocab)
            return take(vocab)

        monkeypatch.setattr(ontology._Vocabulary, "id_sets", property(counted))
        seed = corpus.doc_ids()[0]
        first = engine.related_documents(corpus, seed, 5)
        assert builds == list(vocabs)
        built = [vocab._id_sets for vocab in vocabs]
        for other in corpus.doc_ids():
            engine.related_documents(corpus, other, 5)
        engine.query_documents(corpus, corpus[seed], 5)
        assert builds == list(vocabs)
        assert all(vocab._id_sets is sets for vocab, sets in zip(vocabs, built))
        assert engine.related_documents(corpus, seed, 5) == first
        # Each id's row, read from the sets by id, equals its name's row,
        # walked; both equal Hierarchy.similarity (TestSimilarityRows).
        for vocab in vocabs:
            by_id = vocab.similarity_rows(list(range(len(vocab.names))))
            by_name = vocab.similarity_rows(list(vocab.names))
            assert by_id.tolist() == by_name.tolist()
            sets = [vocab.hierarchy._node_sets([name])[0] or frozenset() for name in vocab.names]
            nodes, starts = vocab.id_sets
            assert [set(nodes[starts[i]:starts[i + 1]].tolist()) for i in range(len(sets))] == sets

    def test_identifier_outside_the_hierarchy_scores_one_against_itself(self):
        corpus = Corpus([("d1", "ghost", "R0", "C1"), ("d2", "C1", "R0", "C"), ("d3", "C", "R0", "C")])
        engine = RetrievalEngine(Hierarchy([("C1", "C")]), Hierarchy([("R0", "R")]))
        vocab = retrieval._Index(corpus, engine.concepts, engine.relations).concept_vocab
        ghost = vocab.names.index("ghost")
        assert vocab.strays == {"ghost": ghost}
        row = vocab.similarity_rows(["ghost"])[0].tolist()
        assert row[ghost] == 1.0 and sum(row) == 1.0
        found = engine.related_predications(corpus, PredicationPattern("ghost", None, None), 1)
        assert [(format_predication(r.predication), r.score) for r in found] == [
            ("ghost|R0|C1", 1.0)
        ]
        query = PredicationSet.from_iterable([Predication("ghost", "R0", "C1")])
        ranked = engine.query_documents(corpus, query, 1)
        assert [(r.doc_id, r.score) for r in ranked] == [("d1", 1.0)]

    def test_concurrent_first_seeded_calls_build_once(self, monkeypatch):
        # Four threads make the first calls on a fresh engine, all seeded,
        # and switch as often as the interpreter lets them.  The engine
        # builds one index, under its lock, though each build sleeps long
        # enough for every thread to ask for it; each vocabulary builds its
        # sets by id once, under the same lock, which its callers hold; and
        # every result equals the call's alone.
        rng = np.random.default_rng(31)
        (concepts, relations), corpus = _large_corpus(rng)
        seeds = corpus.doc_ids()[::60]
        alone = RetrievalEngine(concepts, relations)
        expected = [alone.related_documents(corpus, seed, 10) for seed in seeds]
        builds = []
        take = ontology._Vocabulary.id_sets.fget

        def counted(vocab):
            if vocab._id_sets is None:
                builds.append(vocab)
            return take(vocab)

        monkeypatch.setattr(ontology._Vocabulary, "id_sets", property(counted))
        indexes = []
        build = retrieval._Index.__init__

        def slow_build(index, *args):
            indexes.append(index)
            time.sleep(0.02)
            build(index, *args)

        monkeypatch.setattr(retrieval._Index, "__init__", slow_build)
        chunks = [seeds[k::4] for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(6):  # each round on a fresh engine
                builds.clear()
                indexes.clear()
                engine = RetrievalEngine(concepts, relations)
                start = threading.Barrier(4)

                def run(chunk):
                    start.wait(timeout=60)
                    return [engine.related_documents(corpus, seed, 10) for seed in chunk]

                with ThreadPoolExecutor(4) as pool:
                    found = list(pool.map(run, chunks, timeout=120))
                assert found == [expected[k::4] for k in range(4)]
                index = engine._index
                assert indexes == [index]
                assert index.concept_vocab in builds and index.relation_vocab in builds
                assert len({id(vocab) for vocab in builds}) == len(builds)
        finally:
            sys.setswitchinterval(interval)


class TestIndexSets:
    """``_Vocabulary``'s ancestor sets, stored by id and inverted per node,
    against a reference built one name at a time from
    ``Hierarchy._node_sets``: for ids below, on and above a cycle, for
    names that are not nodes, and on a deep chain."""

    @staticmethod
    def _check(hierarchy, names):
        vocab = ontology._Vocabulary(hierarchy, names)
        # A name that is not a node holds no node: the index has the
        # hierarchy's nodes only, and the real (node, id) pairs only.
        sets = [hierarchy._node_sets([name])[0] or frozenset() for name in names]
        held = [[i for i, nodes in enumerate(sets) if n in nodes] for n in range(len(hierarchy))]
        assert len(vocab.holder_offsets) == len(hierarchy) + 1
        assert len(vocab.holders) == sum(map(len, sets))
        assert vocab.holders.tolist() == [i for ids in held for i in ids]
        ends = np.cumsum([len(ids) for ids in held]).tolist()
        assert vocab.holder_offsets == array("q", [0, *ends])
        set_nodes, set_offsets = vocab.id_sets
        assert np.diff(set_offsets).tolist() == [len(nodes) for nodes in sets]
        assert type(set_offsets) is array and set_offsets.typecode == "q"
        assert vocab.holders.dtype == set_nodes.dtype == np.int32
        starts = set_offsets
        for i, nodes in enumerate(sets):
            own = set_nodes[starts[i]:starts[i + 1]].tolist()
            assert len(own) == len(nodes) and set(own) == nodes

    @staticmethod
    def _names(rng, nodes):
        picked = [_pick(rng, nodes) for _ in range(int(rng.integers(1, 2 * len(nodes))))]
        names = list(dict.fromkeys(picked + ["ghost", "phantom"][: int(rng.integers(0, 3))]))
        return [names[int(k)] for k in rng.permutation(len(names))]

    def test_random_dags(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            nodes, edges = random_dag(rng)
            self._check(Hierarchy(edges), self._names(rng, nodes))

    def test_random_cyclic_graphs(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            nodes, edges = random_cyclic_graph(rng)
            # "below0" hangs from a cycle member; two more nodes go above it
            member = next(parent for child, parent in edges if child == "below0")
            above = [(member, "above0"), ("above0", "above1")]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # cycles are reported with a warning
                hierarchy = Hierarchy(edges + above)
            names = self._names(rng, nodes + ["above0", "above1"])
            self._check(hierarchy, names + [n for n in ("below1", "above1") if n not in names])

    def test_deep_chain_under_a_cycle(self):
        n = 5000
        edges = [(f"n{i}", f"n{i + 1}") for i in range(n - 1)]
        edges += [(f"n{n - 1}", "c0"), ("c0", "c1"), ("c1", "c2"), ("c2", "c0")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            hierarchy = Hierarchy(edges)
        self._check(hierarchy, ["n0", f"n{n // 2}", f"n{n - 1}", "c1", "ghost"])

    @staticmethod
    def _count_walks(monkeypatch):
        """The node names of each :meth:`Hierarchy._walk` call, sorted."""
        walk = Hierarchy._walk
        calls = []

        def counted(self, nodes):
            nodes = list(nodes)
            calls.append(sorted(self._names[n] for n in nodes))
            return walk(self, nodes)

        monkeypatch.setattr(Hierarchy, "_walk", counted)
        return calls

    @staticmethod
    def _layered_dag(rng, n_nodes, depth):
        """Edges of a polyhierarchy shaped like the benchmark's: level sizes
        grow 1.8-fold from the roots down, and each node below the roots
        has one to three parents near its own place on the level above."""
        weights = 1.8 ** np.arange(depth)
        sizes = np.maximum(2, np.round(weights * n_nodes / weights.sum())).astype(int).tolist()
        first = np.cumsum([0, *sizes]).tolist()
        edges = []
        for level in range(1, depth):
            above = sizes[level - 1]
            for pos in range(sizes[level]):
                centre = pos * above // sizes[level]
                extra = rng.integers(-3, 4, size=int(rng.choice(3, p=[0.6, 0.3, 0.1])))
                parents = {centre, *np.clip(centre + extra, 0, above - 1).tolist()}
                child = f"c{first[level] + pos}"
                edges += [(child, f"c{first[level - 1] + k}") for k in sorted(parents)]
        return edges

    def test_index_walks_by_the_closing_rule(self, monkeypatch):
        calls = self._count_walks(monkeypatch)
        # x0 hangs from the chain q1 -> ... -> q8 and x1..x8 from the root r,
        # so the highest finite height is 8 (q8).  Eight names at height 0,
        # with nine heights left, are fewer: they are walked at once.
        edges = [("x0", "q1"), *((f"q{i}", f"q{i + 1}") for i in range(1, 8))]
        edges += [(f"x{i}", "r") for i in range(1, 9)]
        hierarchy = Hierarchy(edges)
        ontology._Vocabulary(hierarchy, [f"x{i}" for i in range(8)])
        assert calls == [[f"x{i}" for i in range(8)]]
        # Nine are not.  Heights 0 and 1 are passed over; then the one pair
        # left, at q2, is walked with seven heights left.
        calls.clear()
        ontology._Vocabulary(hierarchy, [f"x{i}" for i in range(9)])
        assert calls == [["q2"]]
        # No pass over heights closes a cycle: the pairs that reach it are
        # walked, whatever their number.
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cyclic = Hierarchy([("a", "b"), ("b", "c"), ("c", "b"), ("d", "c")])
        ontology._Vocabulary(cyclic, ["a", "d", "x"])
        assert calls == [["b", "c"]]
        # A layered hierarchy as deep as the benchmark's, with half of its
        # nodes interned, and the random hierarchies of the kernel tests,
        # are closed by the pass alone.
        calls.clear()
        rng = np.random.default_rng(13)
        layered = Hierarchy(self._layered_dag(rng, 3000, 10))
        assert len(layered) == 3000 and int(layered._height.max()) == 9
        names = sorted(layered.nodes)
        ontology._Vocabulary(layered, [names[int(k)] for k in rng.permutation(3000)[:1500]])
        for _ in range(20):
            engine, corpus, _, _ = _random_case(rng)
            retrieval._Index(corpus, engine.concepts, engine.relations)
        assert calls == []

    @staticmethod
    def _check_star(leaves, outside, pair_dtype):
        """One root over ``leaves`` indexed leaves, given in a shuffled
        order, and ``outside`` names that are not nodes: the pair keys take
        the given dtype, and every key, and every set the vocabulary
        decodes from them and from its transposed keys, equals
        ``_node_sets``'s (a leaf's set is itself and the root; a name that
        is not a node holds no node)."""
        rng = np.random.default_rng(leaves)
        hierarchy = Hierarchy([(f"l{j}", "root") for j in range(leaves)])
        names = [f"l{int(j)}" for j in rng.permutation(leaves)]
        names += [f"ghost{j}" for j in range(outside)]
        width = len(names)
        sets = hierarchy._node_sets(names)
        expected = sorted(n * width + i for i, nodes in enumerate(sets) if nodes for n in nodes)
        keys = hierarchy._holder_keys(names)
        assert keys.dtype == pair_dtype
        assert keys.tolist() == expected
        vocab = ontology._Vocabulary(hierarchy, names)
        # Ids and nodes fit in int32 on both sides of the boundary, so the
        # decoded arrays are int32 whatever the width of the keys.
        set_nodes, set_offsets = vocab.id_sets
        assert vocab.holders.dtype == set_nodes.dtype == np.int32
        assert len(vocab.holder_offsets) == len(hierarchy) + 1
        assert vocab.holders.tolist() == [k % width for k in expected]
        assert np.diff(set_offsets).tolist() == [2] * leaves + [0] * outside
        nodes = [sorted(nodes) for nodes in sets[:leaves]]
        assert set_nodes.tolist() == [n for own in nodes for n in own]

    def test_key_width_follows_the_number_of_keys(self):
        # numpy 2 keeps int32_array * python_int in int32 and wraps on
        # overflow, so only the size test keeps these keys right.
        # V * N = 46,400 * 46,401 >= 2**31: int64 keys.
        self._check_star(46_400, 0, np.int64)
        # V * N = 46,340 * 46,341 < 2**31, just under the boundary: int32.
        self._check_star(46_340, 0, np.int32)
        # V * N = 46,400 * 46,001 < 2**31, 400 of the names being outside
        # the hierarchy: they add no node, so they widen neither the pair
        # keys nor the transposed keys, and both are int32.
        self._check_star(46_000, 400, np.int32)

    def _traced_build(self):
        """An index built under ``traced_memory`` on a hierarchy shaped like
        the benchmark's, and the bytes its build allocated at the peak and
        still held at the end."""
        rng = np.random.default_rng(13)
        layered = Hierarchy(self._layered_dag(rng, 3000, 10))
        names = sorted(layered.nodes)
        names = [names[int(k)] for k in rng.permutation(3000)[:1500]]
        ontology._Vocabulary(layered, names)  # numpy's first calls allocate caches
        with traced_memory() as memory:
            vocab = ontology._Vocabulary(layered, names)
            held, peak = memory()
        assert len(vocab.holders) > 20 * len(names)
        return vocab, peak, held

    def test_build_allocates_few_bytes_per_pair(self):
        # The traced allocation peak of an index build, per (node, id)
        # pair: about 14 bytes with int32 keys decoded to int32 holders and
        # no sets by id.  With the sets by id built beside them it was about
        # 17; decoded to intp arrays with their offsets listed as Python
        # ints, about 27; with int64 keys, about 31; and with int64 keys
        # decoded through full-size copies and merged by a final stable
        # sort, about 39.
        vocab, peak, _ = self._traced_build()
        pairs = len(vocab.holders)
        assert peak < 17 * pairs, (peak, pairs)

    def test_index_holds_few_bytes_per_pair(self):
        # What the built index holds before any seed, per (node, id) pair:
        # about 5.7 bytes, 4 of them the holders at int32, the rest the
        # offsets in array('q') form, the set sizes and the name table.
        # With the sets by id built at once it held about 13, and with the
        # pairs decoded to intp and the offsets listed as Python ints, 25.
        vocab, _, held = self._traced_build()
        pairs = len(vocab.holders)
        assert vocab._id_sets is None
        assert held < 7 * pairs, (held, pairs)

    def test_deep_chain_visits_at_most_one_height(self, monkeypatch):
        # The pass deduplicates the keys of each height it visits with one
        # sorted_distinct call, and the walk that closes it makes two.
        calls = []
        distinct = ontology.sorted_distinct

        def counted(keys):
            calls.append(len(keys))
            return distinct(keys)

        monkeypatch.setattr(ontology, "sorted_distinct", counted)
        n = 50_000
        chain = Hierarchy([(f"n{i}", f"n{i + 1}") for i in range(n - 1)])
        calls.clear()  # building the hierarchy deduplicates its edges
        keys = chain._holder_keys(["n0"])
        assert len(calls) <= 1 + 2
        assert keys.tolist() == sorted(chain._node_sets(["n0"])[0])
        assert len(keys) == n


class TestIndexBoundary:
    """One module owns identifier similarity: ``ontology`` holds the ancestor
    index, its pair keys and their widths, and builds the Jaccard rows;
    ``retrieval`` reaches the hierarchy through ``_Vocabulary`` only, and
    ``ontology`` knows nothing of the kernel's tiles."""

    def test_retrieval_uses_no_private_member_of_a_hierarchy(self):
        hierarchy = Hierarchy([("a", "b")])
        private = {
            name for name in [*vars(Hierarchy), *vars(hierarchy)]
            if name.startswith("_") and not name.endswith("__")
        }
        assert {"_holder_keys", "_node_sets", "_walk", "_numbers"} <= private
        source = read_source("retrieval")
        used = source.attributes | source.strings
        imported = {name for _, name, _, _ in source.imports}
        assert not (used | imported) & private, (used | imported) & private
        # The index's array forms and key widths are ontology's to choose.
        assert not {"array", "key_dtype"} & imported

    def test_ontology_knows_nothing_of_retrieval(self):
        source = read_source("ontology")
        for module, name, _, _ in source.imports:
            # ``import`` names its module; ``from`` names it apart.
            assert "retrieval" not in (name if module is None else module)
            assert name != "retrieval"
        assert "TILE_ELEMENTS" not in source.names | source.attributes

    def test_similarity_rows_are_defined_in_ontology(self):
        rows = ontology._Vocabulary.similarity_rows
        assert rows.__module__ == ontology.__name__
        assert rows.__qualname__ == "_Vocabulary.similarity_rows"
        source = read_source("retrieval")
        defined = {name for name, _ in source.functions} | source.classes
        assert not {"similarity_rows", "_Vocabulary"} & defined


class TestFindTieOrder:
    """A pattern of unknown identifiers scores every predication 0, so the
    ranking is the literal order.  The identifiers are prefixes of one
    another and end in characters below (``0``, ``!``) and above (``}``,
    ``~``, ``é``) the ``|`` that joins a literal."""

    CONCEPTS = ("C1", "C10", "C1~", "C1}", "C1é", "C1!", "C")
    RELATIONS = ("R", "R0", "R~", "Ré")

    def test_every_top_k_follows_literal_order(self):
        rng = np.random.default_rng(8)
        records = [
            (f"d{int(rng.integers(0, 6))}", s, r, o)
            for s in self.CONCEPTS
            for r in self.RELATIONS
            for o in self.CONCEPTS
            if rng.random() < 0.4
        ]
        # some predications in several documents
        records += [(f"d{int(rng.integers(0, 6))}", *record[1:]) for record in records[::5]]
        corpus = Corpus(records)
        engine = RetrievalEngine(
            Hierarchy([("C1", "C"), ("C10", "C1")]), Hierarchy([("R0", "R")])
        )
        literals = sorted({"|".join(record[1:]) for record in records})
        pattern = PredicationPattern(UNKNOWN_CONCEPT, None, None)
        for k in range(1, len(literals) + 2):
            found = engine.related_predications(corpus, pattern, k)
            assert [format_predication(r.predication) for r in found] == literals[:k]
            assert all(r.score == 0.0 for r in found)
            for r in found:
                assert list(r.documents) == [
                    d for d in corpus.doc_ids() if r.predication in corpus[d]
                ]

    def test_corpus_without_predications(self):
        # No corpus is without predications; the smallest holds one.
        corpus = Corpus([("d", "C1", "R0", "C")])
        engine = RetrievalEngine(Hierarchy([("C1", "C")]), Hierarchy([("R0", "R")]))
        found = engine.related_predications(corpus, PredicationPattern("C1", None, None), 3)
        assert [(format_predication(r.predication), r.rank, r.documents) for r in found] == [
            ("C1|R0|C", 1, ("d",))
        ]


def _select_by_full_partition(lo, hi, top):
    """``retrieval._select`` as first written: the bar is the ``top``-th
    largest ``lo``, from one partition of all of them."""
    if top < 1:
        return np.empty(0, dtype=np.intp)
    kth = len(lo) - top
    bar = np.partition(lo, kth)[kth]
    return np.flatnonzero(hi >= bar)


class TestSelect:
    """``_select``, which partitions only the values at or above a bar
    taken from a strided sample, keeps exactly the positions of the full
    partition rule, at lengths where the sample holds more than ``top``
    values."""

    @staticmethod
    def _values(rng, size):
        """Distinct values; a few values, many ties; mostly zeros, the rest
        tied; all zeros; zeros but for distinct values at exactly the
        sampled positions, so that the sample's ``top``-th largest is the
        bar itself."""
        sampled = np.zeros(size)
        at = np.arange(0, size, math.isqrt(size))
        sampled[at] = rng.permutation(len(at)) + 1.0
        return (
            rng.uniform(0.0, 1.0, size),
            rng.integers(0, 5, size) / 4,
            np.where(rng.random(size) < 0.9, 0.0, 0.5),
            np.zeros(size),
            sampled,
        )

    @staticmethod
    def _bounds(rng, values):
        """``lo < hi`` around the values, widened as ``_top_documents``
        widens a naive sum of ``sizes`` terms."""
        sizes = rng.integers(1, 40, len(values))
        naive = values * sizes
        err = naive * sizes * 2.0**-50
        return (naive - err) / sizes, (naive + err) / sizes

    def test_equals_full_partition(self):
        rng = np.random.default_rng(15)
        for size in (1000, 3000, 10_000, 31_623, 100_000):
            for values in self._values(rng, size):
                for lo, hi in ((values, values), self._bounds(rng, values)):
                    for top in (1, 2, 10, 30, size - 1, size):
                        want = _select_by_full_partition(lo, hi, top)
                        got = retrieval._select(lo, hi, top)
                        assert got.tolist() == want.tolist(), (size, top)

    def test_top_beyond_the_length_keeps_every_position(self):
        # The callers pass their count unclamped: a top above the number
        # of positions keeps them all, as a top equal to it does.
        rng = np.random.default_rng(18)
        for size in (1, 2, 5, 1000):
            for values in self._values(rng, size):
                for lo, hi in ((values, values), self._bounds(rng, values)):
                    for top in (size + 1, 2 * size + 3):
                        assert retrieval._select(lo, hi, top).tolist() == list(range(size))


def _large_corpus(rng, documents=900, records=4500):
    """Hierarchies over 40 concepts and 6 relations, and a corpus of about
    3,500 distinct predications, some in several documents, with concepts
    and a relation that the hierarchies do not know."""
    concepts = [f"c{i:02d}" for i in range(40)]
    relations = [f"r{i}" for i in range(6)]

    def edges(names, count):
        pairs = rng.integers(0, len(names), (count, 2))
        return sorted({(names[min(i, j)], names[max(i, j)]) for i, j in pairs.tolist() if i != j})

    hierarchies = Hierarchy(edges(concepts, 60)), Hierarchy(edges(relations, 5))
    concepts += ["ghost0", "ghost1"]
    relations += ["ghostR"]
    corpus = Corpus(
        (f"d{int(rng.integers(0, documents)):03d}", _pick(rng, concepts), _pick(rng, relations),
         _pick(rng, concepts))
        for _ in range(records)
    )
    return hierarchies, corpus


def _check_find(engine, corpus, patterns, ks):
    """Each top ``k`` of each pattern is the scalar ``pattern_similarity``
    ranking, ties in literal order, each predication with the ids of the
    documents holding it, ascending.  Return the last pattern's scores.

    A pattern whose bound slots all have zero weight must raise instead."""
    distinct = {}  # predication -> the ids of the documents holding it
    for d in corpus.doc_ids():
        for p in corpus[d]:
            distinct.setdefault(p, []).append(d)
    concept_sim = functools.cache(engine.concepts.similarity)
    relation_sim = functools.cache(engine.relations.similarity)
    scores = {}
    for pattern in patterns:
        try:
            scores = {
                p: pattern_similarity(pattern, p, engine.config.weights, concept_sim, relation_sim)
                for p in distinct
            }
        except ValueError:
            with pytest.raises(ValueError, match="zero weight"):
                engine.related_predications(corpus, pattern, 1)
            continue
        want = sorted(distinct, key=lambda p: (-scores[p], format_predication(p)))
        for k in ks:
            found = engine.related_predications(corpus, pattern, k)
            assert [r.predication for r in found] == want[:k], (pattern, k)
            assert [r.score for r in found] == [scores[p] for p in want[:k]]
            assert [r.rank for r in found] == list(range(1, len(want[:k]) + 1))
            assert [list(r.documents) for r in found] == [distinct[p] for p in want[:k]]
    return scores


class TestFindAtScale:
    """``related_predications`` over a corpus of thousands of distinct
    predications, where ``_select``'s sample holds more than ``k`` scores:
    each top ``k`` is the scalar ``pattern_similarity`` ranking, ties in
    literal order, at every tile size."""

    # Every shape of bound slots, a subject and object naming the same
    # concept, names the hierarchies do not know, and last, a pattern that
    # ties every predication at 0.0.
    PATTERNS = (
        PredicationPattern("c05", None, None),
        PredicationPattern(None, "r1", None),
        PredicationPattern(None, None, "c30"),
        PredicationPattern("c12", "r3", None),
        PredicationPattern(None, "r0", "ghost0"),
        PredicationPattern("c16", None, "c07"),
        PredicationPattern("c20", "r2", "c07"),
        PredicationPattern("c05", "r4", "c05"),
        PredicationPattern("c33", "ghostR", "c01"),
        PredicationPattern(UNKNOWN_CONCEPT, UNKNOWN_RELATION, None),
    )

    def test_every_top_k_equals_scalar_ranking(self):
        rng = np.random.default_rng(17)
        (concepts, relations), corpus = _large_corpus(rng)
        engine = RetrievalEngine(concepts, relations)
        distinct = len({p for d in corpus.doc_ids() for p in corpus[d]})
        # the sample holds more than the largest k
        assert distinct // math.isqrt(distinct) > 50
        scores = _check_find(engine, corpus, self.PATTERNS, (1, 2, 10, 50))
        assert set(scores.values()) == {0.0}  # the last pattern's: literal order

    def test_every_kernel_size(self, monkeypatch):
        # find gathers its scores in the ranking kernel's tiles: at every
        # size, from one document a tile to runs that cut the corpus
        # part-way, each ranking equals the scalar one.
        rng = np.random.default_rng(17)
        (concepts, relations), corpus = _large_corpus(rng)
        engine = RetrievalEngine(concepts, relations)
        for _ in each_kernel_size(monkeypatch):
            assert len(retrieval._runs(corpus.doc_offsets, 1)) > 1
            _check_find(engine, corpus, self.PATTERNS, (1, 10, 50))

    def test_copied_documents(self):
        # Predications held by several documents, whose document lists
        # come from the corpus positions of each; a pattern of unknown
        # identifiers ties every predication at 0.0; and a k above the
        # number of distinct predications ranks them all.
        rng = np.random.default_rng(16)
        unknown = PredicationPattern(UNKNOWN_CONCEPT, UNKNOWN_RELATION, UNKNOWN_CONCEPT)
        for _ in range(60):
            engine, corpus, concepts, relations = _random_case(rng)
            corpus = _with_copies(rng, corpus)
            distinct = len({p for d in corpus.doc_ids() for p in corpus[d]})
            patterns = [_random_pattern(rng, concepts, relations) for _ in range(3)]
            ks = (1, 2, 3, distinct, distinct + 1, distinct + 7)
            scores = _check_find(engine, corpus, [*patterns, unknown], ks)
            assert set(scores.values()) == {0.0}
        (concepts, relations), corpus = _large_corpus(rng)
        engine = RetrievalEngine(concepts, relations)
        corpus = _with_copies(rng, corpus)
        distinct = len({p for d in corpus.doc_ids() for p in corpus[d]})
        patterns = [PredicationPattern("c12", "r3", None), unknown]
        scores = _check_find(engine, corpus, patterns, (1, 10, 50, distinct + 1))
        assert set(scores.values()) == {0.0}

    def test_copies_fill_the_best_positions(self):
        # One predication, held by 120 documents, fills the best positions,
        # and two more fill the next 90: the k best positions hold fewer
        # than k distinct predications, and each ranked predication lists
        # every document that holds it.
        rng = np.random.default_rng(24)
        (concepts, relations), corpus = _large_corpus(rng)
        records = [(d, p.subject, p.relation, p.object) for d in corpus.doc_ids() for p in corpus[d]]
        docs = corpus.doc_ids()
        for copies, obj in ((120, "c07"), (60, "c08"), (30, "c09")):
            picked = rng.choice(len(docs), copies, replace=False).tolist()
            records += [(docs[j], "c20", "r2", obj) for j in picked]
        corpus = Corpus(records)
        engine = RetrievalEngine(concepts, relations)
        exact = PredicationPattern("c20", "r2", "c07")
        found = engine.related_predications(corpus, exact, 1)
        assert found[0].score == 1.0 and len(found[0].documents) >= 120
        assert engine.related_predications(corpus, exact, 2)[1].score < 1.0
        distinct = len({p for d in corpus.doc_ids() for p in corpus[d]})
        patterns = [exact, PredicationPattern(None, "r2", "c08"), PredicationPattern("c20", None, None)]
        _check_find(engine, corpus, patterns, (1, 2, 3, 5, 10, 50, distinct, distinct + 1))

    def test_find_allocates_scores_and_tiles(self, monkeypatch):
        # A steady find holds a float64 score per distinct predication and,
        # beside them, first two tiles, then the selection's masks (a byte
        # per code and one per position, for the top codes' positions),
        # which take about as much as the tiles here: with 60,000
        # positions, under 10,000 distinct predications and tiles of 4,096
        # elements, about 0.31 position arrays.  Gathering each slot's
        # similarities into one position array and summing them into
        # another took 2.0.  At the default size one tile spans every
        # position of this corpus, so no bound is set there.
        monkeypatch.setattr(retrieval, "TILE_ELEMENTS", 4096)
        rng = np.random.default_rng(25)
        (concepts, relations), _ = _large_corpus(rng, records=10)
        n = 60_000
        columns = (rng.integers(0, 40, n), rng.integers(0, 6, n), rng.integers(0, 40, n),
                   rng.integers(0, 20_000, n))
        corpus = Corpus(
            (f"d{d:05d}", f"c{s:02d}", f"r{r}", f"c{o:02d}")
            for s, r, o, d in zip(*(column.tolist() for column in columns))
        )
        engine = RetrievalEngine(concepts, relations)
        codes = int(corpus.predication_codes.max()) + 1
        bound = 1.25 * (8 * codes + 2 * 8 * retrieval.TILE_ELEMENTS)
        for pattern in (PredicationPattern("c03", "r1", "c07"), PredicationPattern(None, None, "c11")):
            expected = engine.related_predications(corpus, pattern, 10)
            with traced_memory() as memory:
                found = engine.related_predications(corpus, pattern, 10)
                peak = memory()[1]
            assert found == expected
            assert peak < bound, (peak, bound)
