import ast
import dataclasses
import functools
import importlib
import pkgutil
import random
import tracemalloc
from pathlib import Path

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
    load_gold_file,
    load_predications_file,
    parse_gold,
    parse_predications,
    write_predications_file,
)
from predsim._input import Refused, equal_spans
from predsim.corpus import _literal_keys, _Tables

from conftest import traced


class TestCorpusLoading:
    def test_grouping(self):
        corpus = Corpus(
            [("d1", "a", "r", "b"), ("d1", "a", "r", "c")]
        )
        assert len(corpus) == 1
        assert len(corpus["d1"]) == 2

    def test_duplicates_dropped_and_counted(self):
        corpus = Corpus(
            [("d1", "a", "r", "b"), ("d1", "a", "r", "b")]
        )
        assert len(corpus["d1"]) == 1
        assert corpus.stats.duplicates_dropped == 1

    def test_wrong_field_count(self):
        with pytest.raises(LoadError, match="record 1: expected 4 fields"):
            Corpus([("d1", "a", "r")])

    def test_zero_documents_rejected(self):
        with pytest.raises(LoadError, match="no predication records"):
            Corpus([])

    def test_stats_counts(self, small_corpus):
        assert small_corpus.stats.documents == 4
        assert small_corpus.stats.predications == 6
        assert small_corpus.stats.duplicates_dropped == 0

    def test_empty_documents_go_to_skip_list(self):
        # A document exists only through a record, so none is empty and
        # there is no skip list.
        corpus = Corpus(
            [("full", "a", "r", "b"), ("other", "a", "r", "c"), ("full", "a", "r", "b")]
        )
        assert corpus.doc_ids() == ("full", "other")
        assert np.diff(corpus.doc_offsets).tolist() == [1, 1]
        assert not hasattr(corpus, "skipped")

    def test_doc_ids_sorted(self, small_corpus):
        assert small_corpus.doc_ids() == ("d1", "d2", "d3", "d4")

    def test_stats_is_a_frozen_value(self, small_corpus):
        stats = small_corpus.stats
        assert repr(stats) == "CorpusStats(documents=4, predications=6, duplicates_dropped=0)"
        assert stats == CorpusStats(documents=4, predications=6, duplicates_dropped=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.documents = 5

    def test_bad_record_names_record(self):
        with pytest.raises(LoadError, match=r"^<memory>: record 2: predication: empty object$"):
            Corpus([("d1", "a", "r", "b"), ("d1", "a", "r", "")])
        with pytest.raises(LoadError, match=r"^<memory>: record 1: empty document id$"):
            Corpus([("", "a", "r", "b")])

    def test_names_of_equal_block_keys_load_as_records(self, tmp_path):
        # The block reader keys a name longer than 8 bytes by a sum of its
        # words times odd constants of their places, G and 3G, modulo 2**64.
        # Here the first words differ by +3 and the second by -1, so the two
        # names share a key; the check word by word finds them different,
        # and the file's block is read a record at a time.
        first, second = "aaaaaaaab", "daaaaaaaa"
        data = f"{first}\t{second}\n".encode() + bytes(7)
        with pytest.raises(Refused):
            equal_spans(data, np.array([0, 10]), np.array([9, 19]))
        records = [("d1", first, "r", second), ("d2", second, "r", first), ("d1", "a", "r", "b")]
        path = tmp_path / "predications.tsv"
        path.write_text("".join("\t".join(record) + "\n" for record in records), encoding="utf-8")
        corpus = load_predications_file(path)
        assert corpus.concept_names == (first, second, "a", "b")
        assert corpus == Corpus(records)

    @pytest.mark.parametrize("last, problem", [
        (("d9", "c9", "r", "?"), "predication: object may not be the reserved token '?'"),
        (("d9", "aaaaaaaab", "r", "daaaaaaaa"), None),  # names of one block key
    ], ids=["bad-concept", "equal-keys"])
    def test_a_refused_block_keeps_the_tables_it_wrote(self, last, problem, tmp_path, monkeypatch):
        # A table holds only names that passed their check, numbered as a
        # reader of one line at a time first meets them.  So the concept
        # table refuses the file's one block after the document table took
        # its new ids, and the per-record loop, which reads the block then,
        # enters those ids again as the same codes; the concept table holds
        # none of the block's names.
        records = [(f"d{k % 3}", f"c{k}", "r", f"c{k + 1}") for k in range(5)] + [last]
        path = tmp_path / "predications.tsv"
        path.write_text("".join("\t".join(record) + "\n" for record in records), encoding="utf-8")
        if problem is None:
            want = Corpus(records)
        else:
            with pytest.raises(LoadError) as raised:
                Corpus(records, str(path))
            assert str(raised.value) == f"{path}: record 6: {problem}"
        tables_met = []
        add_records = _Tables.add_records

        def spy(tables, *args):
            tables_met.append((dict(tables.docs), dict(tables.concepts), dict(tables.relations)))
            return add_records(tables, *args)

        monkeypatch.setattr(_Tables, "add_records", spy)
        if problem is None:
            corpus = load_predications_file(path)
            assert corpus == want and corpus.concept_names == want.concept_names
        else:
            with pytest.raises(LoadError) as raised:
                load_predications_file(path)
            assert str(raised.value) == f"{path}: line 6: {problem}"
        assert tables_met == [({"d0": 0, "d1": 1, "d2": 2, "d9": 3}, {}, {})]


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

    @pytest.mark.parametrize("line", [b"d1\ta\tr\tc\n", None, 7])
    def test_line_that_is_not_a_str_names_its_line(self, line):
        with pytest.raises(LoadError) as raised:
            parse_predications(["d0\ta\tr\tc\n", "\n", line], source="p.tsv")
        assert str(raised.value) == (
            f"p.tsv: line 3: line must be a string, got {type(line).__name__}"
        )
        # An earlier bad line of the same block is reported first.
        with pytest.raises(LoadError, match=r"^p.tsv: line 1: expected 4 fields, got 2$"):
            parse_predications(["d0\ta\n", line], source="p.tsv")

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
        # A file already there keeps its content through every refusal.
        kept = tmp_path / "kept.tsv"
        kept.write_text(self.CONTENT, encoding="utf-8")
        records = [
            ("#d", "a", "r", "b"),
            (" #d", "a", "r", "b"),
            (" ", "#s", "r", "b"),
            (" ", " ", " ", " "),
            ("\ufeffd", "a", "r", "b"),
            ("d1", "a\udc80", "r", "b"),  # UTF-8 cannot encode a lone surrogate
        ]
        for record in records:
            corpus = Corpus([record])
            with pytest.raises(ValueError, match="would not read back"):
                write_predications_file(corpus, path)
            assert not path.exists()
            with pytest.raises(ValueError, match="would not read back"):
                write_predications_file(corpus, kept)
            assert kept.read_text(encoding="utf-8") == self.CONTENT

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
        corpus = Corpus(records)
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
        loaded = Corpus(records)
        parsed = parse_predications(["\t".join(record) + "\n" for record in records])
        by_doc = {}
        for doc_id, *slots in records:
            by_doc.setdefault(doc_id, []).append(Predication(*slots))
        # rebuilt from another corpus's members, through a one-pass iterable
        built = Corpus((d, p.subject, p.relation, p.object) for d in parsed for p in parsed[d])
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

    @pytest.mark.parametrize("seed", range(5))
    def test_documents_equal_their_validated_sets(self, seed):
        """Documents are built from the columns without checking or sorting
        their members again, and equal the sets built through the checks."""
        records = self._records(seed)
        corpus = Corpus(records)
        by_doc = {}
        for doc_id, *slots in records:
            by_doc.setdefault(doc_id, []).append(Predication(*slots))
        for doc_id, preds in by_doc.items():
            validated = PredicationSet.from_iterable(preds)
            document = corpus[doc_id]
            assert document == validated and hash(document) == hash(validated)
            assert document.members == validated.members
            assert list(map(hash, document)) == list(map(hash, validated))
            d = corpus.doc_number(doc_id)
            positions = slice(*corpus.doc_offsets[d:d + 2].tolist())
            assert corpus.predications_at(positions) == list(validated)

    def test_equality_sees_members(self):
        one = Corpus([("d", "C1", "R", "C10"), ("d", "C1!", "R", "C")])
        other = Corpus([("d", "C1", "R", "C10"), ("d", "C1!", "R", "C1")])
        assert one != other
        assert one == Corpus([("d", "C1!", "R", "C"), ("d", "C1", "R", "C10")])


def _peak_corpus_lines():
    """22,000 predication lines over 2,000 documents, a tenth of them
    duplicates to drop."""
    rng = np.random.default_rng(21)
    n = 20_000
    columns = (
        rng.integers(0, 2_000, n), rng.zipf(1.3, n) % 3_000,
        rng.integers(0, 30, n), rng.zipf(1.3, n) % 3_000,
    )
    lines = [f"d{d}\tc{s}\tr{r}\tc{o}\n" for d, s, r, o in zip(*(c.tolist() for c in columns))]
    return lines + lines[::10]


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

    def test_a_key_that_is_not_a_str_is_not_in_the_corpus(self, small_corpus):
        # Document ids are found by bisecting the sorted ids, so a key of
        # another type, hashable or not, is absent rather than compared.
        for key in (["d1"], 1, None, b"d1", ("d1",)):
            assert key not in small_corpus
            assert small_corpus.get(key) is None
            with pytest.raises(KeyError):
                small_corpus[key]
            with pytest.raises(KeyError):
                small_corpus.doc_number(key)
        # Around the ends of the sorted ids, and between two of them.
        for key in ("", "d0", "d1 ", "d2x", "e"):
            assert key not in small_corpus
        assert [small_corpus.doc_number(d) for d in small_corpus.doc_ids()] == [0, 1, 2, 3]

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

    def test_repr_and_comparison_with_a_non_corpus(self):
        corpus = Corpus([("d1", "a", "r", "b"), ("d2", "a", "r", "c")], source="m")
        assert repr(corpus) == "Corpus(2 documents from 'm')"
        assert corpus.__eq__(5) is NotImplemented
        assert (corpus == 5) is False
        assert corpus != 5

    def test_load_peak_stays_near_what_the_corpus_holds(self):
        # The traced allocation peak of a load, against what the loaded
        # corpus holds: about 1.57 times, since every interning column and
        # index is freed once its last reader is done, the slot columns
        # before the distinct triples are numbered, and the slot ranks, the
        # triple numbers and the decoded columns are computed in place.
        # With np.unique numbering the triples and a full-size temporary
        # per slot, it was about 1.8 times (with a doc-id dict held);
        # holding every column to the end of the load, about 2.8 times.
        lines = _peak_corpus_lines()
        held, peak, corpus = traced(parse_predications, lines)
        assert peak < 1.9 * held, (peak, held)
        # The slot columns decoded from the literal keys are the records'.
        want = sorted(set(tuple(line[:-1].split("\t")) for line in lines))
        got = sorted((d, p.subject, p.relation, p.object) for d in corpus for p in corpus[d])
        assert got == want

    def test_file_load_peak_stays_near_what_the_corpus_holds(self, tmp_path):
        # The same corpus read from its 364 kB file: about 1.89 times, since
        # the reader holds 64 KiB of text at a time and the blocks cut from
        # it.  A reader that reads the whole text at once peaks at about 2.26
        # times, and one that holds its lines through the load at about 3.4.
        lines = _peak_corpus_lines()
        path = tmp_path / "corpus.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        held, peak, corpus = traced(load_predications_file, path)
        assert peak < 2.05 * held, (peak, held)
        assert corpus == parse_predications(lines)

    def test_columns_are_read_only(self, small_corpus):
        for column in (small_corpus.subjects, small_corpus.relations, small_corpus.objects,
                       small_corpus.predication_codes, small_corpus.doc_offsets):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_slot_columns_view_the_arrays_the_engine_gathers_by(self, small_corpus):
        # np.take copies an index array that it may not write to on every
        # call, so the engine gathers by _slots; the public columns are
        # read-only views of them.
        public = small_corpus.subjects, small_corpus.relations, small_corpus.objects
        assert len(small_corpus._slots) == 3
        for column, slot in zip(public, small_corpus._slots):
            assert column.base is slot and slot.flags.writeable
            assert column.tolist() == slot.tolist()

    def test_no_documents(self):
        # no input builds a corpus without documents
        with pytest.raises(
            LoadError, match=r"^<memory>: no predication records; corpus would be empty$"
        ):
            Corpus([])
        with pytest.raises(LoadError, match=r"^m: no predication records; corpus would be empty$"):
            Corpus(iter(()), source="m")
        with pytest.raises(LoadError, match=r"^f: no predication records; corpus would be empty$"):
            parse_predications(["# only a comment\n", "\n"], source="f")

    def test_literal_keys_refuse_tables_that_overflow_int64(self):
        # 2**32 concepts square to 2**64 keys; the guard raises before any
        # rank table is built.
        empty = np.empty(0, dtype=np.int64)
        tracemalloc.start()
        try:
            with pytest.raises(OverflowError, match="int64 sort key"):
                _literal_keys(range(2**32), range(1), empty, empty, empty)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestGoldStandard:
    def test_basic(self):
        gold = GoldStandard([("d1", "d2", 1), ("d1", "d3", 2)])
        assert gold["d1"] == ("d2", "d3")

    def test_rank_ordering(self):
        gold = GoldStandard([("d1", "d3", 2), ("d1", "d2", 1)])
        assert gold["d1"] == ("d2", "d3")

    def test_seed_in_own_list_rejected(self):
        with pytest.raises(LoadError, match="own related list"):
            GoldStandard([("d1", "d1", 1)])

    def test_duplicate_rank_rejected(self):
        with pytest.raises(LoadError, match="duplicate rank"):
            GoldStandard([("d1", "d2", 1), ("d1", "d3", 1)])

    def test_duplicate_related_id_rejected(self):
        # One related id twice under one seed, at two ranks; another seed
        # may list it too.
        message = r"^g: line 3: duplicate related id 'z' for seed 's'$"
        with pytest.raises(LoadError, match=message):
            parse_gold(["s\tz\t1\n", "t\tz\t1\n", "s\tz\t2\n", "s\td\t3\n"], source="g")
        with pytest.raises(LoadError, match=r"^<memory>: record 2: duplicate related id 'z'"):
            GoldStandard([("s", "z", 1), ("s", "z", 2)])
        assert GoldStandard([("s", "z", 1), ("t", "z", 1)]) == {"s": ("z",), "t": ("z",)}

    def test_nonpositive_rank_rejected(self):
        with pytest.raises(LoadError, match="positive"):
            GoldStandard([("d1", "d2", 0)])

    def test_empty_gold_rejected(self):
        with pytest.raises(LoadError, match="no gold records"):
            GoldStandard([])

    def test_parse_lines(self):
        gold = parse_gold(["# gold\n", "s1\td2\t2\n", "s1\td9\t1\n"])
        assert gold["s1"] == ("d9", "d2")

    def test_parse_bad_rank(self):
        with pytest.raises(LoadError, match="line 1: rank must be an integer"):
            parse_gold(["s1\td2\tfirst\n"])

    def test_record_rank_must_be_an_int(self):
        with pytest.raises(LoadError, match=r"^<memory>: record 1: rank must be an integer, got '1'$"):
            GoldStandard([("s1", "d2", "1")])

    def test_parse_errors_name_line(self):
        with pytest.raises(LoadError, match=r"^g: line 3: duplicate rank 1 for seed 's1'$"):
            parse_gold(["s1\td2\t1\n", "# c\n", "s1\td3\t1\n"], source="g")
        with pytest.raises(LoadError, match=r"^g: line 1: empty related id$"):
            parse_gold(["s1\t\t1\n"], source="g")

    @pytest.mark.parametrize("line", [b"s1\td2\t1\n", None, 7])
    def test_parse_line_that_is_not_a_str_names_its_line(self, line):
        with pytest.raises(LoadError) as raised:
            parse_gold(["s1\td2\t1\n", line], source="g")
        assert str(raised.value) == f"g: line 2: line must be a string, got {type(line).__name__}"
        # An earlier bad line is reported first.
        with pytest.raises(LoadError, match=r"^g: line 1: expected 3 fields, got 2$"):
            parse_gold(["s1\td2\n", line], source="g")

    def test_load_file(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("s1\td2\t1\ns2\td1\t1\n", encoding="utf-8")
        gold = load_gold_file(path)
        assert gold.seeds() == ("s1", "s2")

    def test_gold_is_a_read_only_mapping(self):
        gold = GoldStandard([("s2", "d1", 1), ("s1", "d3", 2), ("s1", "d2", 1)])
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
            GoldStandard([("s", "s", 1)])
        with pytest.raises(LoadError, match=r"^<memory>: record 1: empty related id$"):
            GoldStandard([("s", "", 1)])
        with pytest.raises(LoadError, match=r"^<memory>: record 2: related id contains tab"):
            GoldStandard([("s", "d1", 1), ("s", "a\tb", 2)])
        with pytest.raises(LoadError, match=r"^g: record 2: duplicate rank 1 for seed 's'$"):
            GoldStandard([("s", "d1", 1), ("s", "d2", 1)], source="g")
        with pytest.raises(LoadError, match=r"^<memory>: no gold records$"):
            GoldStandard([])
        with pytest.raises(
            LoadError, match=r"^<memory>: record 1: rank must be an integer, got True$"
        ):
            GoldStandard([("s", "d", True)])
        assert GoldStandard([("s", "d2", 1), ("s", "d1", 2)]) == {"s": ("d2", "d1")}

    @pytest.mark.parametrize(
        "ids, kind", [("abc", "str"), ({"b", "a", "c"}, "set"), (5, "int"), (None, "NoneType")]
    )
    def test_constructor_rejects_value_not_a_sequence_of_ids(self, ids, kind):
        # A record holds one related id: a string is that id, never a
        # sequence of its characters, and a collection of ids fails.
        records = [("r", "d1", 1), ("s", ids, 1)]
        if kind == "str":
            assert GoldStandard(records)["s"] == ("abc",)
            return
        with pytest.raises(
            LoadError, match=rf"^<memory>: record 2: related id must be a string, got {kind}$"
        ):
            GoldStandard(records)

    def test_load_file_ignores_byte_order_mark(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("\ufeffs1\td2\t1\n", encoding="utf-8")
        assert load_gold_file(path).seeds() == ("s1",)


def _tree(name):
    module = importlib.import_module(f"predsim.{name}")
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def _function(name, function):
    """The ``def`` of ``function`` in module ``predsim.{name}``."""
    return next(
        node for node in ast.walk(_tree(name))
        if isinstance(node, ast.FunctionDef) and node.name == function
    )


def _used(tree):
    """The names, attributes, imported names and string constants in
    ``tree``, docstrings aside."""
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                used.add(node.value)
    return used


def _holds_line_text(constants):
    """Whether a string holds a character of the line format's syntax."""
    return any(set(text) & set("\t\n\r#\ufeff") for text in constants)


@functools.cache
def _package_used():
    """``_used`` over every module of ``src/predsim``."""
    package = importlib.import_module("predsim")
    return frozenset().union(*(_used(_tree(m.name)) for m in pkgutil.iter_modules(package.__path__)))


def _uses_none(used, names):
    """Assert that ``used`` holds none of ``names``.  Each name must first
    still occur somewhere in ``src/predsim``, or be a method of ``str``, so
    that the check cannot go dead when the package renames or deletes one."""
    gone = {name for name in names - _package_used() if not hasattr(str, name)}
    assert not gone, f"no longer used in src/predsim: {gone}"
    assert not used & names, used & names


# What reading or writing line text takes: the block layout, the
# splitting and joining of fields and lines, and the reading rules.
_TEXT_WORK = {
    "equal_spans", "_decode", "data", "delimiters", "re", "_SURROGATE", "_is_data",
    "join", "split", "splitlines", "strip", "lstrip", "rstrip", "startswith", "isascii",
    "encode", "decode", "search",
}


class TestTextBoundary:
    """``_input`` alone knows the line format: it reads, tokenizes, groups,
    decodes and writes lines, and interns a block's names.  ``corpus`` and
    ``ontology`` see names and numbers only, ``_arrays`` holds integer-key
    helpers only, and one splitter parses both forms of a predication
    literal."""

    def test_corpus_handles_no_line_text(self):
        used = _used(_tree("corpus"))
        _uses_none(used, _TEXT_WORK)
        assert not _holds_line_text(used)
        assert "intern_fields" in used

    def test_arrays_reads_no_bytes(self):
        used = _used(_tree("_arrays"))
        _uses_none(used, {"bytes", "frombuffer", "tobytes", "uint8", "<u8", "decode",
                          "equal_spans", "_LOW_BYTES"})
        assert importlib.import_module("predsim._input").equal_spans is equal_spans

    def test_writer_keeps_no_reading_rule(self):
        used = _used(_function("corpus", "write_predications_file"))
        assert "write_file" in used
        _uses_none(used, _TEXT_WORK | {"write_bytes", "write_text", "open"})
        assert not _holds_line_text(used)
        # The one writer checks lines by the readers' own rules.
        assert {"_is_data", "_SURROGATE"} <= _used(_function("_input", "write_file"))

    def test_one_splitter_parses_both_literal_forms(self):
        splitters = {
            node.name for node in ast.walk(_tree("predication"))
            if isinstance(node, ast.FunctionDef) and "split" in _used(node)
        }
        assert len(splitters) == 1, splitters
        for parser in ("parse_predication", "parse_pattern"):
            assert splitters <= _used(_function("predication", parser))

    def test_gold_lines_are_read_a_record_at_a_time(self):
        used = _used(_function("corpus", "parse_gold"))
        assert "line_records" in used
        _uses_none(used, {"read_blocks", "add_block", "intern_fields"})

    def test_hierarchy_lines_are_read_a_block_at_a_time(self):
        # One driver reads a file's blocks, with the per-record loop for a
        # block the block path refuses and for lines given in memory, for
        # both loaders of lines.
        assert {"_FileLines", "blocks", "add_block", "Refused", "line_records",
                "add_records"} <= _used(_function("_input", "read_blocks"))
        for module, parser in (("ontology", "parse_hierarchy"), ("corpus", "parse_predications")):
            assert "read_blocks" in _used(_function(module, parser))

    def test_ontology_handles_no_line_text(self):
        used = _used(_tree("ontology"))
        # Its one join spells a warning's sample of names; a join by a tab
        # or a line break would hold line text.
        _uses_none(used, _TEXT_WORK - {"join"})
        assert not _holds_line_text(used)
        assert "intern_fields" in used

    def test_one_interner_checks_a_block_s_new_names_at_once(self):
        for module in ("corpus", "ontology"):
            used = _used(_function(module, "add_block"))
            assert "intern_fields" in used
            _uses_none(used, {"check_identifier"})
