import dataclasses
import random

import numpy as np
import pytest

from predsim import (
    Corpus,
    CorpusStats,
    GoldStandard,
    LoadError,
    Predication,
    PredicationSet,
    format_predication,
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

    def test_bad_identifier_fails_where_it_first_occurs(self):
        lines = ["d0\ta\tr\tc\n", "d1\ta\tr\tc\n", "d1\ta\tr\tb|x\n", "d1\tb\tr\tc\n",
                 "d2\tb|x\tr\tc\n"]
        with pytest.raises(LoadError) as raised:
            parse_predications(lines, source="p.tsv")
        assert str(raised.value) == (
            "p.tsv: line 3: predication: object contains a forbidden character"
        )

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


class TestMemberOrder:
    """The three ways into a corpus agree, and each document's members
    come out deduplicated in literal order, whatever the record order."""

    CONCEPTS = ("C1", "C10", "C1~", "C1}", "C1é", "C1!", "C")
    RELATIONS = ("R", "R0", "R~", "Ré")

    def _records(self, seed):
        rng = random.Random(seed)
        records = [
            (f"d{rng.randrange(6)}", s, r, o)
            for s in self.CONCEPTS
            for r in self.RELATIONS
            for o in self.CONCEPTS
            if rng.random() < 0.3
        ]
        records += rng.sample(records, len(records) // 4)  # duplicates within documents
        records += [(f"d{rng.randrange(6)}", *record[1:]) for record in records[::7]]
        rng.shuffle(records)
        return records

    @pytest.mark.parametrize("seed", range(5))
    def test_loaders_and_constructor_agree(self, seed):
        records = self._records(seed)
        distinct = set(records)
        duplicates = len(records) - len(distinct)
        loaded = load_corpus(records)
        parsed = parse_predications(["\t".join(record) + "\n" for record in records])
        by_doc = {}
        for doc_id, *slots in records:
            by_doc.setdefault(doc_id, []).append(Predication(*slots))
        built = Corpus({d: PredicationSet.from_iterable(ps) for d, ps in by_doc.items()})
        assert loaded == parsed == built
        stats = CorpusStats(len(by_doc), len(distinct), duplicates)
        assert loaded.stats == parsed.stats == stats
        assert built.stats == dataclasses.replace(stats, duplicates_dropped=0)
        for corpus in (loaded, parsed, built):
            assert corpus.doc_ids() == tuple(sorted(by_doc))
            offsets = corpus.doc_offsets.tolist()
            for doc_id, preds in by_doc.items():
                want = sorted(set(preds), key=format_predication)
                assert list(corpus[doc_id]) == want
                d = corpus.doc_number(doc_id)
                assert corpus.predications_at(slice(offsets[d], offsets[d + 1])) == want
            literals = list(map(format_predication, corpus.predications_at(slice(None))))
            rank = {literal: u for u, literal in enumerate(sorted(set(literals)))}
            assert corpus.predication_codes.tolist() == [rank[lit] for lit in literals]

    def test_equality_sees_members(self):
        one = load_corpus([("d", "C1", "R", "C10"), ("d", "C1!", "R", "C")])
        other = load_corpus([("d", "C1", "R", "C10"), ("d", "C1!", "R", "C1")])
        assert one != other
        assert one == load_corpus([("d", "C1!", "R", "C"), ("d", "C1", "R", "C10")])


class TestCorpusColumns:
    def test_corpus_is_a_read_only_mapping(self, small_corpus):
        assert list(small_corpus) == list(small_corpus.doc_ids())
        assert list(small_corpus.keys()) == list(small_corpus.doc_ids())
        assert len(small_corpus) == 4
        assert "d1" in small_corpus and "d9" not in small_corpus
        assert small_corpus.get("d9") is None
        assert small_corpus.get("d3") == small_corpus["d3"]
        assert dict(small_corpus) == {d: small_corpus[d] for d in small_corpus.doc_ids()}
        with pytest.raises(TypeError):
            small_corpus["d5"] = small_corpus["d1"]
        with pytest.raises(KeyError):
            small_corpus["d9"]

    def test_columns_encode_the_members(self, small_corpus):
        concepts, relations = small_corpus.concept_names, small_corpus.relation_names
        rows = [
            (concepts[s], relations[r], concepts[o])
            for s, r, o in zip(
                small_corpus.subjects.tolist(),
                small_corpus.relations.tolist(),
                small_corpus.objects.tolist(),
            )
        ]
        offsets = small_corpus.doc_offsets.tolist()
        for d, doc_id in enumerate(small_corpus.doc_ids()):
            members = [(p.subject, p.relation, p.object) for p in small_corpus[doc_id]]
            assert rows[offsets[d]:offsets[d + 1]] == members
            assert small_corpus.doc_number(doc_id) == d
        assert offsets[-1] == small_corpus.stats.predications

    def test_columns_are_read_only(self, small_corpus):
        for column in (small_corpus.subjects, small_corpus.relations, small_corpus.objects,
                       small_corpus.predication_codes, small_corpus.doc_offsets):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_no_documents(self):
        corpus = Corpus({"a": PredicationSet(()), "b": PredicationSet(())})
        assert len(corpus) == 0 and corpus.doc_ids() == ()
        assert corpus.skipped == ("a", "b")
        assert corpus.stats == CorpusStats(0, 0, 0)
        assert "a" not in corpus
        assert np.array_equal(corpus.doc_offsets, [0])


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

    def test_gold_is_a_read_only_mapping(self):
        gold = load_gold([("s2", "d1", 1), ("s1", "d3", 2), ("s1", "d2", 1)])
        assert list(gold) == ["s1", "s2"]
        assert dict(gold) == {"s1": ("d2", "d3"), "s2": ("d1",)}
        assert list(gold.keys()) == ["s1", "s2"]
        assert gold.get("nope") is None
        assert "s1" in gold and "nope" not in gold
        with pytest.raises(TypeError):
            gold["s3"] = ("d1",)

    def test_constructor_checks_as_the_loaders_do(self):
        with pytest.raises(
            LoadError, match=r"^<memory>: record 1: seed 's' appears in its own related list$"
        ):
            GoldStandard({"s": ("s",)})
        with pytest.raises(LoadError, match=r"^<memory>: record 1: empty related id$"):
            GoldStandard({"s": ("",)})
        with pytest.raises(LoadError, match=r"^<memory>: record 2: related id contains tab"):
            GoldStandard({"s": ("d1", "a\tb")})
        assert GoldStandard({"s": ["d2", "d1"]}) == {"s": ("d2", "d1")}
        assert len(GoldStandard({})) == 0

    def test_load_file_ignores_byte_order_mark(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("\ufeffs1\td2\t1\n", encoding="utf-8")
        assert load_gold_file(path).seeds() == ("s1",)

