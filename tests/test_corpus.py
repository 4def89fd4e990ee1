import dataclasses

import pytest

from predsim import (
    Corpus,
    CorpusStats,
    LoadError,
    Predication,
    PredicationSet,
    load_corpus,
    load_gold,
    load_gold_file,
    load_predications_file,
    parse_gold,
    parse_predications,
    write_predications_file,
)


class TestCorpusLoading:
    def test_grouping(self):
        corpus = load_corpus(
            [("d1", "a", "r", "b"), ("d1", "a", "r", "c")]
        )
        assert len(corpus) == 1
        assert len(corpus["d1"]) == 2

    def test_duplicates_dropped_and_counted(self):
        corpus = load_corpus(
            [("d1", "a", "r", "b"), ("d1", "a", "r", "b")]
        )
        assert len(corpus["d1"]) == 1
        assert corpus.stats.duplicates_dropped == 1

    def test_wrong_field_count(self):
        with pytest.raises(LoadError, match="record 1: expected 4 fields"):
            load_corpus([("d1", "a", "r")])

    def test_zero_documents_rejected(self):
        with pytest.raises(LoadError, match="no predication records"):
            load_corpus([])

    def test_stats_counts(self, small_corpus):
        assert small_corpus.stats.documents == 4
        assert small_corpus.stats.predications == 6
        assert small_corpus.stats.duplicates_dropped == 0

    def test_empty_documents_go_to_skip_list(self):
        docs = {
            "full": PredicationSet.from_iterable([Predication("a", "r", "b")]),
            "empty": PredicationSet(()),
        }
        corpus = Corpus(docs)
        assert corpus.doc_ids() == ("full",)
        assert corpus.skipped == ("empty",)

    def test_doc_ids_sorted(self, small_corpus):
        assert small_corpus.doc_ids() == ("d1", "d2", "d3", "d4")

    def test_stats_is_a_frozen_value(self, small_corpus):
        stats = small_corpus.stats
        assert repr(stats) == "CorpusStats(documents=4, predications=6, duplicates_dropped=0)"
        assert stats == CorpusStats(documents=4, predications=6, duplicates_dropped=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.documents = 5

    def test_bad_record_names_record(self):
        with pytest.raises(LoadError, match=r"^<records>: record 2: predication: empty object$"):
            load_corpus([("d1", "a", "r", "b"), ("d1", "a", "r", "")])
        with pytest.raises(LoadError, match=r"^<records>: record 1: empty document id$"):
            load_corpus([("", "a", "r", "b")])


class TestPredicationsFile:
    CONTENT = (
        "# corpus fixture\n"
        "d2\tx\tr\ty\n"
        "\n"
        "d1\ta\tTREATS\tb\n"
        "d1\ta\tTREATS\tb\n"
    )

    def test_parse(self):
        corpus = parse_predications(self.CONTENT.splitlines(keepends=True))
        assert corpus.doc_ids() == ("d1", "d2")
        assert corpus.stats.duplicates_dropped == 1

    def test_error_names_line_number(self):
        lines = ["# header\n"] * 6 + ["d1\ta\tr\n"]
        with pytest.raises(LoadError, match="line 7: expected 4 fields"):
            parse_predications(lines)

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("d1\ta|b\tr\tc\n", "predication: subject contains a forbidden character"),
            ("d1\ta\t?\tc\n", "predication: relation may not be the reserved token '?'"),
            ("d\r1\ta\tr\tc\n", "document id contains tab or newline"),
        ],
    )
    def test_bad_identifier_names_line(self, line, problem):
        with pytest.raises(LoadError) as raised:
            parse_predications(["d0\ta\tr\tc\n", "\n", line], source="p.tsv")
        assert str(raised.value) == f"p.tsv: line 3: {problem}"

    def test_bad_document_id_fails_at_its_first_record(self):
        lines = ["d0\ta\tr\tc\n", "d1\ta\tr\tc\n", "d\r2\ta\tr\tc\n", "d1\tb\tr\tc\n",
                 "d\r2\tb\tr\tc\n"]
        with pytest.raises(LoadError) as raised:
            parse_predications(lines, source="p.tsv")
        assert str(raised.value) == "p.tsv: line 3: document id contains tab or newline"

    def test_unreadable_lines_are_not_written(self, tmp_path):
        path = tmp_path / "out.tsv"
        records = [
            ("#d", "a", "r", "b"),
            (" #d", "a", "r", "b"),
            (" ", "#s", "r", "b"),
            (" ", " ", " ", " "),
            ("\ufeffd", "a", "r", "b"),
        ]
        for record in records:
            corpus = load_corpus([record])
            with pytest.raises(ValueError, match="would not read back"):
                write_predications_file(corpus, path)
            assert not path.exists()

    def test_load_determinism(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text(self.CONTENT, encoding="utf-8")
        assert load_predications_file(path) == load_predications_file(path)

    def test_roundtrip(self, tmp_path, small_corpus):
        path = tmp_path / "out.tsv"
        write_predications_file(small_corpus, path)
        assert load_predications_file(path) == small_corpus

    def test_roundtrip_normalizes_order_and_duplicates(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text(self.CONTENT, encoding="utf-8")
        corpus = load_predications_file(path)
        out = tmp_path / "copy.tsv"
        write_predications_file(corpus, out)
        again = load_predications_file(out)
        assert again == corpus
        assert again.stats.duplicates_dropped == 0

    def test_load_file_ignores_byte_order_mark(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("\ufeff" + self.CONTENT, encoding="utf-8")
        assert load_predications_file(path) == parse_predications(
            self.CONTENT.splitlines(keepends=True)
        )

    def test_large_document_duplicates_counted(self):
        records = [("big", f"s{i}", "r", "o") for i in range(5000)] * 2
        corpus = load_corpus(records)
        assert len(corpus["big"]) == 5000
        assert corpus.stats.duplicates_dropped == 5000


class TestGoldStandard:
    def test_basic(self):
        gold = load_gold([("d1", "d2", 1), ("d1", "d3", 2)])
        assert gold["d1"] == ("d2", "d3")

    def test_rank_ordering(self):
        gold = load_gold([("d1", "d3", 2), ("d1", "d2", 1)])
        assert gold["d1"] == ("d2", "d3")

    def test_seed_in_own_list_rejected(self):
        with pytest.raises(LoadError, match="own related list"):
            load_gold([("d1", "d1", 1)])

    def test_duplicate_rank_rejected(self):
        with pytest.raises(LoadError, match="duplicate rank"):
            load_gold([("d1", "d2", 1), ("d1", "d3", 1)])

    def test_nonpositive_rank_rejected(self):
        with pytest.raises(LoadError, match="positive"):
            load_gold([("d1", "d2", 0)])

    def test_empty_gold_rejected(self):
        with pytest.raises(LoadError, match="no gold records"):
            load_gold([])

    def test_parse_lines(self):
        gold = parse_gold(["# gold\n", "s1\td2\t2\n", "s1\td9\t1\n"])
        assert gold["s1"] == ("d9", "d2")

    def test_parse_bad_rank(self):
        with pytest.raises(LoadError, match="line 1: rank must be an integer"):
            parse_gold(["s1\td2\tfirst\n"])

    def test_record_rank_must_be_an_int(self):
        with pytest.raises(LoadError, match=r"^<records>: record 1: rank must be an integer, got '1'$"):
            load_gold([("s1", "d2", "1")])

    def test_parse_errors_name_line(self):
        with pytest.raises(LoadError, match=r"^g: line 3: duplicate rank 1 for seed 's1'$"):
            parse_gold(["s1\td2\t1\n", "# c\n", "s1\td3\t1\n"], source="g")
        with pytest.raises(LoadError, match=r"^g: line 1: empty related id$"):
            parse_gold(["s1\t\t1\n"], source="g")

    def test_load_file(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("s1\td2\t1\ns2\td1\t1\n", encoding="utf-8")
        gold = load_gold_file(path)
        assert gold.seeds() == ("s1", "s2")

    def test_load_file_ignores_byte_order_mark(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("\ufeffs1\td2\t1\n", encoding="utf-8")
        assert load_gold_file(path).seeds() == ("s1",)

