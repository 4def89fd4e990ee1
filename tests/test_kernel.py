"""The columnar ranking kernel against the scalar cascade it replaces.

``RetrievalEngine`` ranks with numpy over an index of the corpus, while
``set_similarity`` and ``pattern_similarity`` stay the scalar definitions
of the scores.  Every ranked score must equal the scalar one exactly
(``==``, not approximately) and be a plain Python ``float``, for random
hierarchies, corpora, slot weights (including zero weights) and pair
thresholds, and for identifiers that neither the hierarchy nor the
corpus knows.
"""

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
