import numpy as np
import pytest

from predsim import (
    Corpus,
    EmptySetError,
    GoldStandard,
    Hierarchy,
    Predication,
    PredicationPattern,
    PredicationSet,
    RankedDocument,
    RetrievalEngine,
    SimConfig,
    SimWeights,
    UnknownDocumentError,
    format_predication,
    run_eval,
)

from conftest import each_kernel_size, spy
from oracles import (
    make_identifier_sim,
    make_triple_sim,
    random_corpus,
    random_dag,
    related_docs_bruteforce,
)


class TestConstructor:
    # Each argument is checked when the engine is built, not at the first
    # ranking call.
    def test_concept_hierarchy_must_be_a_hierarchy(self, relation_h):
        with pytest.raises(TypeError, match=r"^concept_hierarchy must be Hierarchy, got NoneType$"):
            RetrievalEngine(None, relation_h)

    def test_relation_hierarchy_must_be_a_hierarchy(self, concept_h):
        with pytest.raises(TypeError, match=r"^relation_hierarchy must be Hierarchy, got list$"):
            RetrievalEngine(concept_h, [("a", "b")])

    def test_config_must_be_a_sim_config_or_none(self, concept_h, relation_h):
        with pytest.raises(TypeError, match=r"^config must be SimConfig, got str$"):
            RetrievalEngine(concept_h, relation_h, "x")
        assert RetrievalEngine(concept_h, relation_h, None).config == SimConfig()


class TestRankingArguments:
    # Each ranking call checks its arguments' types as the constructor
    # does, before it reads any of them.
    def test_related_documents_corpus_must_be_a_corpus(self, engine):
        with pytest.raises(TypeError, match=r"^corpus must be Corpus, got str$"):
            engine.related_documents("x", "d1", 1)

    def test_query_documents_corpus_must_be_a_corpus(self, engine, small_corpus):
        with pytest.raises(TypeError, match=r"^corpus must be Corpus, got NoneType$"):
            engine.query_documents(None, small_corpus["d1"], 1)

    def test_query_must_be_a_predication_set(self, engine, small_corpus):
        with pytest.raises(TypeError, match=r"^query must be PredicationSet, got list$"):
            engine.query_documents(small_corpus, [Predication("C1", "TREATS", "OA")], 1)

    def test_related_predications_corpus_must_be_a_corpus(self, engine):
        pattern = PredicationPattern(None, "TREATS", "OA")
        with pytest.raises(TypeError, match=r"^corpus must be Corpus, got dict$"):
            engine.related_predications({}, pattern, 1)

    def test_pattern_must_be_a_predication_pattern(self, engine, small_corpus):
        with pytest.raises(TypeError, match=r"^pattern must be PredicationPattern, got str$"):
            engine.related_predications(small_corpus, "a|r|?", 1)
        # A fully bound pattern is a PredicationPattern too, not a Predication.
        with pytest.raises(TypeError, match=r"^pattern must be PredicationPattern, got Predication$"):
            engine.related_predications(small_corpus, Predication("C1", "TREATS", "OA"), 1)


class TestEvalArguments:
    # run_eval checks its engine, corpus and gold types as the ranking calls
    # do, before it reads any of them.
    GOLD = GoldStandard([("d1", "d2", 1)])

    def test_engine_must_be_a_retrieval_engine(self, small_corpus):
        with pytest.raises(TypeError, match=r"^engine must be RetrievalEngine, got str$"):
            run_eval("x", small_corpus, self.GOLD, [1])

    def test_corpus_must_be_a_corpus(self, engine):
        # ``in`` on a string tests for a substring, not a document
        with pytest.raises(TypeError, match=r"^corpus must be Corpus, got str$"):
            run_eval(engine, "c", self.GOLD, [1])

    def test_gold_must_be_a_gold_standard(self, engine, small_corpus):
        with pytest.raises(TypeError, match=r"^gold must be GoldStandard, got dict$"):
            run_eval(engine, small_corpus, {"d1": ("d2",)}, [1])


def ranking_corpus():
    # against seed {(C1 TREATS OA)}:
    #   docA identical                        -> 1.0
    #   docB: components 0.5 / 1.0 / 0.3      -> 0.6
    #   docC: components 0.0 / 0.5 / 0.0      -> 1/6
    return Corpus(
        [
            ("seed", "C1", "TREATS", "OA"),
            ("docA", "C1", "TREATS", "OA"),
            ("docB", "C2", "TREATS", "OB"),
            ("docC", "D1", "PREVENTS", "E1"),
        ]
    )


class TestRelatedDocuments:
    def test_verbatim_copy_ranks_first_with_one(self, engine, small_corpus):
        # d2 is a verbatim copy of d1's predication set
        results = engine.related_documents(small_corpus, "d1", 3)
        assert results[0].doc_id == "d2"
        assert results[0].score == 1.0
        assert results[0].rank == 1

    def test_hand_computed_ordering(self, engine):
        results = engine.related_documents(ranking_corpus(), "seed", 3)
        assert [r.doc_id for r in results] == ["docA", "docB", "docC"]
        assert results[0].score == 1.0
        assert results[1].score == pytest.approx(0.6, abs=1e-12)
        assert results[2].score == pytest.approx(1 / 6, abs=1e-12)

    def test_tie_broken_by_doc_id(self, engine):
        corpus = Corpus(
            [
                ("seed", "C1", "TREATS", "OA"),
                ("d9", "C2", "TREATS", "OB"),
                ("d2", "C2", "TREATS", "OB"),
            ]
        )
        results = engine.related_documents(corpus, "seed", 2)
        assert [r.doc_id for r in results] == ["d2", "d9"]
        assert results[0].score == results[1].score

    def test_seed_excluded_from_results(self, engine, small_corpus):
        for top_n in (1, 2, 10):
            results = engine.related_documents(small_corpus, "d1", top_n)
            assert "d1" not in [r.doc_id for r in results]

    def test_unknown_seed(self, engine, small_corpus):
        # The seed is looked up before top_n is checked; a key that is not
        # a str is no document.
        for seed, top_n in (("d99", 5), ("d99", 0), (1, 5)):
            with pytest.raises(UnknownDocumentError, match=f"^unknown seed document {seed!r}$"):
                engine.related_documents(small_corpus, seed, top_n)

    def test_skip_listed_seed_is_degenerate(self, engine):
        # There is no skip list: an id with no record is no document.
        corpus = Corpus([("full", "C1", "TREATS", "OA")])
        with pytest.raises(UnknownDocumentError, match="^unknown seed document 'hollow'$"):
            engine.related_documents(corpus, "hollow", 5)

    def test_top_n_must_be_positive(self, engine, small_corpus):
        with pytest.raises(ValueError):
            engine.related_documents(small_corpus, "d1", 0)

    def test_top_n_prefix_property(self, engine, small_corpus):
        full = engine.related_documents(small_corpus, "d1", len(small_corpus))
        for n in range(1, len(full) + 1):
            prefix = engine.related_documents(small_corpus, "d1", n)
            assert prefix == full[:n]

    def test_rank_contiguity_and_score_ordering(self, engine, small_corpus):
        results = engine.related_documents(small_corpus, "d1", 10)
        assert [r.rank for r in results] == list(range(1, len(results) + 1))
        for earlier, later in zip(results, results[1:]):
            assert earlier.score >= later.score


class TestQueryDocuments:
    def test_exact_document_match_scores_one(self, engine, small_corpus):
        query = small_corpus["d1"]
        results = engine.query_documents(small_corpus, query, 4)
        assert results[0].doc_id == "d1"
        assert results[0].score == 1.0
        # d2 holds the identical set; only the id tie-break separates them
        assert results[1].doc_id == "d2"
        assert results[1].score == 1.0

    def test_no_document_excluded(self, engine, small_corpus):
        results = engine.query_documents(small_corpus, small_corpus["d1"], 10)
        assert len(results) == len(small_corpus)

    def test_unknown_concepts_rank_by_id(self, engine, small_corpus):
        query = PredicationSet.from_iterable(
            [Predication("GHOST1", "GHOSTREL", "GHOST2")]
        )
        results = engine.query_documents(small_corpus, query, 10)
        assert [r.doc_id for r in results] == ["d1", "d2", "d3", "d4"]
        assert all(r.score == 0.0 for r in results)

    def test_empty_query_rejected(self, engine, small_corpus):
        with pytest.raises(EmptySetError):
            engine.query_documents(small_corpus, PredicationSet(()), 5)

    def test_corpus_without_predications_ranks_nothing(self, engine):
        # No corpus is without predications; the smallest holds one.
        corpus = Corpus([("d", "C1", "TREATS", "OA")])
        query = PredicationSet.from_iterable([Predication("C1", "TREATS", "OA")])
        assert engine.query_documents(corpus, query, 5) == [RankedDocument("d", 1.0, 1)]
        with pytest.raises(ValueError, match="top_n"):
            engine.query_documents(corpus, query, 0)


class TestRelatedPredications:
    def test_exact_pattern_tops_ranking(self, engine, small_corpus):
        pattern = PredicationPattern("C1", "TREATS", "OA")
        results = engine.related_predications(small_corpus, pattern, 10)
        assert format_predication(results[0].predication) == "C1|TREATS|OA"
        assert results[0].score == 1.0
        assert results[0].documents == ("d1", "d2")

    def test_wildcard_subject_hand_ordering(self, engine, small_corpus):
        # scores: C1|TREATS|OA -> 1.0, C2|TREATS|OB -> (1 + 0.3)/2,
        # then C1|CAUSES|D1 and D1|PREVENTS|E1 tied at 0.25
        pattern = PredicationPattern(None, "TREATS", "OA")
        results = engine.related_predications(small_corpus, pattern, 10)
        literals = [format_predication(r.predication) for r in results]
        assert literals == [
            "C1|TREATS|OA",
            "C2|TREATS|OB",
            "C1|CAUSES|D1",
            "D1|PREVENTS|E1",
        ]
        assert results[0].score == 1.0
        assert results[1].score == pytest.approx(0.65, abs=1e-12)
        assert results[2].score == results[3].score == pytest.approx(0.25, abs=1e-12)

    def test_top_k_truncates(self, engine, small_corpus):
        pattern = PredicationPattern(None, "TREATS", "OA")
        results = engine.related_predications(small_corpus, pattern, 2)
        assert len(results) == 2
        assert [r.rank for r in results] == [1, 2]

    def test_zero_weight_bound_slots_rejected(self, concept_h, relation_h, small_corpus):
        config = SimConfig(weights=SimWeights(0.0, 1.0, 1.0))
        engine = RetrievalEngine(concept_h, relation_h, config)
        pattern = PredicationPattern("C1", None, None)
        with pytest.raises(ValueError, match="zero weight"):
            engine.related_predications(small_corpus, pattern, 5)


class TestDeterminismAndTransparency:
    def test_repeated_runs_identical(self, concept_h, relation_h, small_corpus):
        runs = [
            RetrievalEngine(concept_h, relation_h).related_documents(small_corpus, "d1", 10)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_block_size_does_not_change_output(
        self, concept_h, relation_h, small_corpus, monkeypatch
    ):
        def run():
            engine = RetrievalEngine(concept_h, relation_h)
            docs = engine.related_documents(small_corpus, "d1", 10)
            preds = engine.related_predications(
                small_corpus, PredicationPattern(None, "TREATS", "OA"), 10
            )
            return docs, preds

        default = run()
        for sizes in each_kernel_size(monkeypatch):
            assert run() == default, sizes

    def test_index_reuse_transparency(self, concept_h, relation_h, small_corpus):
        other = Corpus([("e1", "C2", "CAUSES", "OB"), ("e2", "C1", "TREATS", "OA")])
        shared = RetrievalEngine(concept_h, relation_h)
        for seed, corpus in (("d1", small_corpus), ("e1", other), ("d3", small_corpus)):
            fresh = RetrievalEngine(concept_h, relation_h)
            assert shared.related_documents(corpus, seed, 10) == fresh.related_documents(
                corpus, seed, 10
            )

    def test_index_kept_for_last_corpus_only(self, concept_h, relation_h, small_corpus):
        engine = RetrievalEngine(concept_h, relation_h)
        assert engine._index is None  # built on the first query, not at construction
        engine.related_documents(small_corpus, "d1", 10)
        first = engine._index
        assert first.corpus is small_corpus
        engine.query_documents(small_corpus, small_corpus["d3"], 10)
        assert engine._index is first
        other = Corpus([("e1", "C2", "CAUSES", "OB")])
        engine.query_documents(other, small_corpus["d3"], 10)
        assert engine._index.corpus is other

    def test_seeded_queries_read_ancestor_sets_from_the_index(
        self, monkeypatch, concept_h, relation_h, small_corpus
    ):
        engine = RetrievalEngine(concept_h, relation_h)
        expected = {seed: engine.related_documents(small_corpus, seed, 10) for seed in small_corpus}
        calls = spy(monkeypatch, Hierarchy, "_node_sets")
        for seed in small_corpus:
            assert engine.related_documents(small_corpus, seed, 10) == expected[seed]
        assert calls == []
        # an ad-hoc query's names are walked, in one call per vocabulary,
        # whether or not the corpus tables hold them
        query = PredicationSet.from_iterable([Predication("Z", "TREATS", "OA")])
        engine.query_documents(small_corpus, query, 10)
        assert [names for (_, names), _ in calls] == [["Z", "OA"], ["TREATS"]]


class TestOracleEquivalence:
    def test_matches_bruteforce_on_random_corpora(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            cnodes, cedges = random_dag(rng, max_nodes=12, max_edges=20)
            rnodes, redges = random_dag(rng, max_nodes=5, max_edges=6)
            docs = random_corpus(rng, cnodes, rnodes)
            corpus = Corpus(
                [(d, s, r, o) for d in sorted(docs) for (s, r, o) in docs[d]]
            )
            engine = RetrievalEngine(Hierarchy(cedges), Hierarchy(redges))
            triple_sim = make_triple_sim(
                make_identifier_sim(cnodes, cedges),
                make_identifier_sim(rnodes, redges),
            )
            seed = sorted(docs)[0]
            want = related_docs_bruteforce(docs, seed, triple_sim)
            got = engine.related_documents(corpus, seed, len(docs))
            assert [r.doc_id for r in got] == [d for d, _ in want]
            for result, (_, score) in zip(got, want):
                assert result.score == pytest.approx(score, abs=1e-12)
