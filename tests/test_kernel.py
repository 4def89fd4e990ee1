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
length-``n`` prefix of the exhaustive one, ties included.
"""

import math

import numpy as np
import pytest

from predsim import (
    Predication,
    PredicationPattern,
    PredicationSet,
    RetrievalEngine,
    SimConfig,
    SimWeights,
    format_predication,
    load_corpus,
    load_hierarchy,
    pattern_similarity,
    retrieval,
)

from oracles import random_corpus, random_dag

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
    corpus = load_corpus([(d, s, r, o) for d in sorted(docs) for (s, r, o) in docs[d]])
    config = SimConfig(
        weights=_random_weights(rng),
        pair_threshold=THRESHOLDS[int(rng.integers(0, len(THRESHOLDS)))],
    )
    engine = RetrievalEngine(load_hierarchy(cedges), load_hierarchy(redges), config)
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
    for seed in corpus.doc_ids():
        results = engine.related_documents(corpus, seed, everything)
        assert {r.doc_id for r in results} == set(corpus.doc_ids()) - {seed}
        _assert_ranked(results, lambda r: r.doc_id)
        for r in results:
            assert type(r.score) is float
            assert r.score == engine.set_similarity(corpus[r.doc_id], corpus[seed])
        seen.append(results)
    for _ in range(3):
        query = _random_query(rng, concepts, relations)
        results = engine.query_documents(corpus, query, everything)
        assert {r.doc_id for r in results} == set(corpus.doc_ids())
        _assert_ranked(results, lambda r: r.doc_id)
        for r in results:
            assert type(r.score) is float
            assert r.score == engine.set_similarity(corpus[r.doc_id], query)
        seen.append(results)
    weights = engine.config.weights
    distinct = {p for d in corpus.doc_ids() for p in corpus[d]}
    for _ in range(4):
        pattern = _random_pattern(rng, concepts, relations)
        try:
            want = {
                p: pattern_similarity(
                    pattern, p, weights, engine.concept_similarity, engine.relation_similarity
                )
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

    def test_one_query_row_per_block(self, monkeypatch):
        def run():
            rng = np.random.default_rng(99)
            out = []
            for _ in range(30):
                engine, corpus, concepts, relations = _random_case(rng)
                out.append(_check_case(engine, corpus, concepts, relations, rng))
            return out

        default = run()
        monkeypatch.setattr(retrieval, "BLOCK_ELEMENTS", 1)
        assert run() == default


def _with_copies(rng, corpus):
    """The corpus plus copies of some of its documents under new ids, so
    that documents tie exactly."""
    records = [
        (d, p.subject, p.relation, p.object) for d in corpus.doc_ids() for p in corpus[d]
    ]
    for d in corpus.doc_ids():
        for copy in range(int(rng.integers(0, 3))):
            records += [(f"{d}c{copy}", p.subject, p.relation, p.object) for p in corpus[d]]
    return load_corpus(records)


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

    def test_lone_seed_has_no_related_documents(self):
        corpus = load_corpus([("only", "X", "R", "Y")])
        engine = RetrievalEngine(load_hierarchy([("X", "Z")]), load_hierarchy([("R", "S")]))
        assert engine.related_documents(corpus, "only", 3) == []
        assert [r.doc_id for r in engine.query_documents(corpus, corpus["only"], 3)] == ["only"]


def _fsum_ranking(pred_terms, query_terms, offsets, top, skip):
    """The ranking ``retrieval._top_documents`` must return, from the exact
    score of every document."""
    scores = [
        math.fsum([*pred_terms[offsets[d]:offsets[d + 1]], *query_terms[:, d]])
        / (offsets[d + 1] - offsets[d] + len(query_terms))
        for d in range(len(offsets) - 1)
    ]
    order = sorted((d for d in range(len(scores)) if d != skip), key=lambda d: (-scores[d], d))
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
        for skip in (None, *range(documents)):
            for top in range(1, documents + 2):
                got = retrieval._top_documents(pred_terms, query_terms, offsets, top, skip)
                want = _fsum_ranking(pred_terms, query_terms, offsets, top, skip)
                assert got == want
                assert all(type(score) is float for score in got[1])

    def test_naive_sums_one_ulp_apart(self):
        case = _terms_case([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])
        pred_terms, query_terms, offsets = case
        naive = np.add.reduceat(pred_terms, offsets[:-1]) + query_terms.sum(axis=0)
        assert naive[0] < naive[1]  # but both fsum to 0.6
        self._check(*case)

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
