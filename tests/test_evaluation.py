import csv
import io

import numpy as np
import pytest

from predsim import (
    Corpus,
    GoldStandard,
    RetrievalEngine,
    UnknownDocumentError,
    f_measure,
    precision_at,
    recall_at,
    run_eval,
)


def flat_corpus(doc_ids):
    """Docs with mutually unknown concepts: all similarities are 0, so
    retrieval order degenerates to ascending doc id."""
    return Corpus(
        [(d, f"s-{d}", f"r-{d}", f"o-{d}") for d in doc_ids]
    )


class TestPrecision:
    def test_three_of_five(self):
        retrieved = ["a", "b", "c", "d", "e"]
        assert precision_at(retrieved, {"a", "c", "e"}, 5) == 0.6

    def test_perfect(self):
        retrieved = ["a", "b", "c"]
        assert precision_at(retrieved, {"a", "b", "c"}, 3) == 1.0

    def test_no_overlap(self):
        assert precision_at(["a", "b"], {"x"}, 2) == 0.0

    def test_short_list_uses_actual_count(self):
        assert precision_at(["a", "b"], {"a"}, 10) == 0.5

    def test_zero_retrieved_warns_and_returns_zero(self):
        with pytest.warns(UserWarning, match="zero retrieved") as caught:
            assert precision_at([], {"a"}, 5) == 0.0
        assert [w.filename for w in caught] == [__file__]

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            precision_at(["a"], {"a"}, 0)


class TestRecall:
    def test_three_of_ten(self):
        retrieved = ["a", "b", "c", "d", "e"]
        relevant = {"a", "c", "e"} | {f"g{i}" for i in range(7)}
        assert recall_at(retrieved, relevant, 5) == 0.3

    def test_all_found(self):
        assert recall_at(["a", "b", "c"], {"a", "b"}, 3) == 1.0

    def test_no_overlap(self):
        assert recall_at(["a", "b"], {"x", "y"}, 2) == 0.0

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            recall_at(["a"], set(), 1)


class TestIdArguments:
    """``retrieved`` and ``relevant`` are collections of whole document
    ids: one string is refused, since its characters would be scored as
    ids or its substrings matched, and so is a ``retrieved`` that repeats
    an id, which would be counted twice."""

    @pytest.mark.parametrize("metric", [precision_at, recall_at])
    @pytest.mark.parametrize("ids", ["d1d2", b"d1d2", bytearray(b"d1d2")], ids=type)
    def test_retrieved_as_one_string_is_refused(self, metric, ids):
        kind = type(ids).__name__
        with pytest.raises(
            TypeError, match=rf"^retrieved must be a collection of document ids, got {kind}$"
        ):
            metric(ids, {"d"}, 2)

    @pytest.mark.parametrize("metric", [precision_at, recall_at])
    @pytest.mark.parametrize("ids", ["abc", b"abc", bytearray(b"abc")], ids=type)
    def test_relevant_as_one_string_is_refused(self, metric, ids):
        kind = type(ids).__name__
        with pytest.raises(
            TypeError, match=rf"^relevant must be a collection of document ids, got {kind}$"
        ):
            metric(["a"], ids, 1)

    @pytest.mark.parametrize("metric", [precision_at, recall_at])
    def test_repeated_retrieved_id_is_refused(self, metric):
        with pytest.raises(ValueError, match=r"^retrieved repeats document id 'd'$"):
            metric(["d", "d"], {"d"}, 2)
        # Past the cutoff too: a repeat anywhere means the ranking is wrong.
        with pytest.raises(ValueError, match=r"^retrieved repeats document id 'a'$"):
            metric(["a", "b", "a"], {"a"}, 1)


class TestFMeasure:
    def test_worked_value(self):
        assert f_measure(0.6, 0.3) == 0.4

    def test_perfect(self):
        assert f_measure(1.0, 1.0) == 1.0

    def test_degenerate_zero(self):
        assert f_measure(0.0, 0.0) == 0.0

    def test_zero_iff_product_zero(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            p, r = rng.uniform(0, 1, size=2)
            f = f_measure(p, r)
            assert f <= max(p, r) + 1e-15
            if p * r == 0:
                assert f == 0.0
            else:
                assert f > 0.0


class TestRunEval:
    def test_perfect_gold_scores_one(self, engine, small_corpus):
        retrieved = engine.related_documents(small_corpus, "d1", 3)
        gold = GoldStandard(
            [("d1", r.doc_id, i) for i, r in enumerate(retrieved, start=1)]
        )
        report = run_eval(engine, small_corpus, gold, [3])
        assert report.macro[3] == (1.0, 1.0, 1.0)

    def test_no_cutoff_rejected(self, engine, small_corpus):
        gold = GoldStandard([("d1", "d2", 1)])
        with pytest.raises(ValueError) as raised:
            run_eval(engine, small_corpus, gold, [])
        assert str(raised.value) == "n_values must contain at least one cutoff"

    def test_macro_average_of_two_seeds(self, engine):
        corpus = flat_corpus([f"d{i}" for i in range(8)] + ["s1", "s2"])
        # both seeds retrieve d0..d7, s* in id order; top-5 = d0..d4
        gold = GoldStandard(
            [("s1", "d0", 1), ("s1", "d1", 2), ("s1", "d2", 3), ("s1", "d3", 4),
             ("s1", "d7", 5),
             ("s2", "d0", 1), ("s2", "d1", 2), ("s2", "d6", 3), ("s2", "d7", 4)]
        )
        report = run_eval(engine, corpus, gold, [5])
        assert report.per_seed["s1"][5].precision == 0.8
        assert report.per_seed["s2"][5].precision == 0.4
        assert report.macro[5].precision == pytest.approx(0.6, abs=1e-12)

    def test_macro_equals_mean_of_per_seed(self, engine):
        corpus = flat_corpus([f"d{i}" for i in range(8)] + ["s1", "s2"])
        gold = GoldStandard(
            [("s1", "d0", 1), ("s1", "d5", 2),
             ("s2", "d1", 1), ("s2", "d2", 2), ("s2", "d7", 3)]
        )
        report = run_eval(engine, corpus, gold, [2, 5, 9])
        for n in report.n_values:
            for i, name in enumerate(("precision", "recall", "f_measure")):
                mean = sum(m[n][i] for m in report.per_seed.values()) / len(
                    report.per_seed
                )
                assert getattr(report.macro[n], name) == pytest.approx(mean, abs=1e-12)

    def test_missing_seed_listed(self, engine, small_corpus):
        gold = GoldStandard([("d1", "d2", 1), ("zz", "d1", 1)])
        with pytest.raises(UnknownDocumentError, match="zz"):
            run_eval(engine, small_corpus, gold, [5])

    def test_absent_gold_documents_dropped_with_warning(self, engine, small_corpus):
        gold = GoldStandard([("d1", "d2", 1), ("d1", "nowhere", 2)])
        with pytest.warns(UserWarning, match="absent from corpus"):
            report = run_eval(engine, small_corpus, gold, [1])
        # relevant set shrank to {d2}, which is ranked first
        assert report.per_seed["d1"][1] == (1.0, 1.0, 1.0)

    def test_seed_with_no_in_corpus_gold_skipped(self, engine, small_corpus):
        gold = GoldStandard(
            [("d1", "d2", 1), ("d3", "gone1", 1), ("d3", "gone2", 2)]
        )
        with pytest.warns(UserWarning) as records:
            report = run_eval(engine, small_corpus, gold, [2])
        messages = [str(r.message) for r in records]
        assert any("absent from corpus" in m for m in messages)
        assert any("skipped from macro" in m for m in messages)
        assert {r.filename for r in records} == {__file__}
        assert report.skipped_seeds == ("d3",)
        assert list(report.per_seed) == ["d1"]

    def test_every_seed_skipped_is_an_error(self, engine, small_corpus):
        gold = GoldStandard([("d1", "gone", 1)])
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="no evaluable seeds"):
                run_eval(engine, small_corpus, gold, [2])

    def test_cutoffs_deduplicated_and_sorted(self, engine, small_corpus):
        gold = GoldStandard([("d1", "d2", 1)])
        report = run_eval(engine, small_corpus, gold, [5, 5, 1])
        assert report.n_values == (1, 5)

    def test_recall_non_decreasing_and_saturating(self, engine):
        corpus = flat_corpus([f"d{i}" for i in range(9)] + ["s1"])
        gold = GoldStandard([("s1", "d2", 1), ("s1", "d5", 2), ("s1", "d8", 3)])
        report = run_eval(engine, corpus, gold, list(range(1, 10)))
        recalls = [report.per_seed["s1"][n].recall for n in report.n_values]
        for earlier, later in zip(recalls, recalls[1:]):
            assert later >= earlier
        assert recalls[-1] == 1.0


class TestRandomRankingSanity:
    def test_average_precision_matches_relevant_density(self):
        # metric harness: random rankings of 20 candidates, 8 relevant
        rng = np.random.default_rng(47)
        candidates = [f"d{i:02d}" for i in range(20)]
        relevant = set(candidates[:8])
        density = len(relevant) / len(candidates)
        sums = {n: 0.0 for n in (1, 5, 10, 20)}
        shuffles = 300
        for _ in range(shuffles):
            order = list(candidates)
            rng.shuffle(order)
            for n in sums:
                sums[n] += precision_at(order, relevant, n)
        for n, total in sums.items():
            assert total / shuffles == pytest.approx(density, abs=0.05)


class TestReportOutput:
    def test_csv_format(self, engine, small_corpus):
        gold = GoldStandard([("d1", "d2", 1)])
        report = run_eval(engine, small_corpus, gold, [1, 3])
        lines = report.to_csv().splitlines()
        assert lines[0] == "n,precision,recall,f_measure"
        assert lines[1] == "1,1.0000,1.0000,1.0000"
        assert len(lines) == 3

    def test_per_seed_csv_format(self, engine, small_corpus):
        gold = GoldStandard([("d1", "d2", 1)])
        report = run_eval(engine, small_corpus, gold, [1])
        lines = report.per_seed_csv().splitlines()
        assert lines[0] == "seed,n,precision,recall,f_measure"
        assert lines[1].startswith("d1,1,")
        # Ids holding "," or '"' are quoted and read back as written; in a
        # flat corpus each seed's best other document is the other seed.
        seeds = ("a,b", '"q"')
        gold = GoldStandard([(seeds[0], seeds[1], 1), (seeds[1], seeds[0], 1)])
        report = run_eval(engine, flat_corpus([*seeds, "z"]), gold, [1, 2])
        rows = list(csv.reader(io.StringIO(report.per_seed_csv(), newline="")))
        assert rows[0] == ["seed", "n", "precision", "recall", "f_measure"]
        assert sorted(rows[1:]) == sorted(
            [seed, str(n), f"{1 / n:.4f}", "1.0000", f"{2 / (n + 1):.4f}"]
            for seed in seeds
            for n in (1, 2)
        )

    def test_reports_reproducible(self, concept_h, relation_h, small_corpus):
        gold = GoldStandard([("d1", "d2", 1), ("d3", "d1", 1), ("d3", "d4", 2)])
        outputs = []
        for _ in range(2):
            engine = RetrievalEngine(concept_h, relation_h)
            report = run_eval(engine, small_corpus, gold, [1, 2, 3])
            outputs.append(report.to_csv() + report.per_seed_csv())
        assert outputs[0] == outputs[1]
