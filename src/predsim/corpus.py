"""Corpus and gold-standard ingestion.

File formats (UTF-8 text, a leading byte-order mark ignored, ``#``
comments and blank lines ignored, order-insensitive):

- predications: one ``doc_id<TAB>subject<TAB>relation<TAB>object`` per line
- gold standard: one ``seed_id<TAB>related_id<TAB>rank`` per line

A :class:`Corpus` is held as columns from the start.  The loader interns
document, concept and relation identifiers as it reads them and checks
each distinct identifier once, where it first occurs, taking the fields
of a record in document, subject, relation, object order; an identifier
that fails never enters a table, so every occurrence of it is checked and
the error names the first bad record and field.  ``_input`` alone knows
the line format's text and bytes, and its one driver,
``_input.read_blocks``, reads a predications file a block of lines at a
time, cut by ``_input.read_file`` from the UTF-8 of the chunks of text it
reads, so no line becomes a ``str`` unless its block is refused.  It
hands each tokenized block to :meth:`_Tables.add_block`, which calls
``_input.intern_fields``, shared with the hierarchy loader, once per
table: it looks up each distinct identifier of the table's fields once
and checks the new ones in one pass, and they enter the table only once
all of them pass.  The code columns grow once every table is done.  A
step that cannot read a block whole raises ``_input.Refused``, and the
driver hands that block to the per-record loop,
:meth:`_Tables.add_records`, which is also the only path of
``Corpus(records)`` and of lines given in memory.  The tables written
before the refusal hold names that loop enters, in its order, and a
refusal after them is a bad new name, on which the loop ends the load
at that line, or two names of one key, which it reads; so every error,
its line number and its message are the per-record loop's.
Duplicates are dropped by their integer codes, and each document's
members are ordered by literal from sort ranks of their identifiers,
without formatting a literal.  The literal-order number of each
distinct predication is kept as a column, so this module alone decides
predication identity and order.  The load frees each temporary after its
last reader and computes in place where it can, so its peak stays within
about twice what the corpus holds.  ``Corpus``
is itself the read-only mapping from document id to predication set:
``corpus[doc_id]`` builds a :class:`PredicationSet` on each access.
``Corpus(records)`` takes the same records the file holds and builds
through the same :meth:`Corpus._fill` as the loader, so a document exists
only through a record and none is empty.  ``write_predications_file``
hands its rows of fields to ``_input.write_file``, which holds the
reader's rules for what reads back.  :class:`GoldStandard` is built a
record at a time, files too, from the lines that ``_input.read_file``
decodes from the same chunks, and is the read-only mapping from seed to
ranked ids.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._arrays import grouped, ranks, run_heads, sorted_distinct
from ._input import (
    check_count,
    check_identifier,
    intern_fields,
    line_records,
    read_blocks,
    read_count,
    read_file,
    read_records,
    tuple_records,
    write_file,
)
from .errors import LoadError
from .predication import Predication, PredicationSet


@dataclass(frozen=True)
class CorpusStats:
    """Load diagnostics: document/predication counts and drops."""

    documents: int
    predications: int
    duplicates_dropped: int


def _literal_order(names: Iterable[str], suffix: str) -> np.ndarray:
    """The places of the names, in the order of ``name + suffix``."""
    keys = [name + suffix for name in names]
    return np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)


def _literal_keys(
    concept_names: Collection[str],
    relation_names: Collection[str],
    subjects: np.ndarray,
    relations: np.ndarray,
    objects: np.ndarray,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One int64 per coded predication that sorts as its literal does, and
    the codes of each slot in the order of its ranks.

    ``|`` occurs in no identifier, so ``s|r|o`` sorts as the triple
    ``(s + "|", r + "|", o)`` does: the key is built from the ranks of
    those three strings, ``(subject * R + relation) * C + object`` for
    ``C`` concepts and ``R`` relations.  Equal keys are equal predications,
    and the returned orders map each rank back to its code.

    The three int64 code columns are the loader's own, and are overwritten:
    each with its slot's ranks, gathered in place (a take whose out is its
    own index array is safe in "raise" mode only, which gathers into a copy
    of out), and the subjects' with the key, which is returned.
    """
    if len(concept_names) ** 2 * len(relation_names) > np.iinfo(np.int64).max:
        raise OverflowError("too many distinct identifiers for an int64 sort key")
    piped = _literal_order(concept_names, "|")
    # The plain order differs from the piped one only where one name is a
    # prefix of another, so sorting the piped order by plain name, which
    # timsort does in near-linear time on nearly sorted input, is cheaper
    # than a second sort from scratch.
    plain = sorted(piped.tolist(), key=list(concept_names).__getitem__)
    orders = (piped, _literal_order(relation_names, "|"), np.array(plain, dtype=np.int64))
    for order, codes in zip(orders, (subjects, relations, objects)):
        np.take(ranks(order), codes, out=codes)
    key = subjects
    key *= len(relation_names)
    key += relations
    key *= len(concept_names)
    key += objects
    return key, orders


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


class Corpus(Mapping):
    """Immutable map from document id to its predication set, held as
    columns of interned identifiers.

    ``concept_names`` and ``relation_names`` number the identifiers the
    documents use.  Corpus position ``i`` is the ``i``-th predication when
    documents are taken in id order and each document's members in
    literal order; its identifiers are numbered ``subjects[i]``,
    ``relations[i]`` and ``objects[i]``, and ``predication_codes[i]`` is
    the place of its literal among the corpus's distinct literals, so
    equal codes are equal predications.  The columns are int64, which
    numpy gathers and scatters by without converting them.  The three slot
    columns are read-only views of ``_slots``, which the engine gathers by:
    ``np.take`` copies an index array that it may not write to on every
    call.  Document number
    ``d``, its place in the sorted :meth:`doc_ids`, found there by
    bisection, owns positions ``doc_offsets[d]`` to ``doc_offsets[d + 1]``;
    a key that is not a ``str`` is not in the corpus.  The arrays are
    read-only.

    ``Corpus(records, source)`` numbers its (doc_id, subject, relation,
    object) records from 1 and checks them as the loader checks lines, so
    its errors read ``"{source}: record N: {problem}"``.  An empty input
    fails.  ``corpus[doc_id]`` builds a :class:`PredicationSet` on each
    access.
    """

    def __init__(self, records: Iterable[Sequence[str]], source: str = "<memory>"):
        self._fill(read_records(records, 4, source, _Tables()), source)

    def _fill(self, tables: _Tables, source: str) -> None:
        """Build every attribute from the interned tables and code columns
        of at least one record.  The caller keeps no reference to
        ``tables``, so each column is freed below once it is read."""
        docs, concepts, relations, columns = (
            tables.docs, tables.concepts, tables.relations, tables.columns
        )
        del tables
        if not docs:
            raise LoadError(f"{source}: no predication records; corpus would be empty")
        doc_codes, subjects, relation_codes, objects = (
            np.frombuffer(c, dtype=np.int64) for c in columns
        )
        # Each temporary goes as soon as its last reader is done; the slot
        # columns first, since the distinct literal keys decode back to them.
        del columns
        literal, orders = _literal_keys(concepts, relations, subjects, relation_codes, objects)
        del subjects, relation_codes, objects
        # Number the distinct triples in literal order: the runs of the
        # sorted keys, counted in the sorted copy's own buffer and scattered
        # back over the keys.  Then sort the distinct (document rank, triple
        # number) keys: duplicates go, and each document's members come out
        # in literal order.
        order = np.argsort(literal)
        numbers = literal[order]
        new = run_heads(numbers)
        triples = numbers[new]
        # Summed from the keys' own buffer, which they no longer need: a
        # cumsum that casts its input, or overlaps its output, copies it.
        literal[...] = new
        del new
        np.cumsum(literal, out=numbers)
        numbers -= 1
        literal[order] = numbers
        del order, numbers
        triple = literal
        del literal
        doc_order = _literal_order(docs, "")
        doc_names = tuple(docs)
        self._doc_ids: tuple[str, ...] = tuple(map(doc_names.__getitem__, doc_order.tolist()))
        del doc_names
        records = len(doc_codes)
        keys = ranks(doc_order)[doc_codes]
        del doc_order, doc_codes
        keys *= len(triples)
        keys += triple
        del triple
        keys = sorted_distinct(keys)
        offsets, codes = grouped(keys, len(docs), len(triples), np.int64)  # over the keys

        self.source = source
        self.concept_names: tuple[str, ...] = tuple(concepts)
        self.relation_names: tuple[str, ...] = tuple(relations)
        # Each slot's codes, decoded from the distinct literal keys, which
        # are (subject * R + relation) * C + object in the slots' ranks.  The
        # ranks are split off, and mapped to codes, in place, as
        # _literal_keys maps codes to ranks.
        rank = np.empty_like(triples)
        np.divmod(triples, len(relations) * len(concepts), out=(rank, triples))
        np.take(orders[0], rank, out=rank)
        slots = [rank[codes]]
        np.divmod(triples, len(concepts), out=(rank, triples))
        np.take(orders[1], rank, out=rank)
        slots.append(rank[codes])
        del rank
        np.take(orders[2], triples, out=triples)
        slots.append(triples[codes])
        del triples
        self._slots = tuple(slots)
        self.subjects, self.relations, self.objects = (_read_only(slot.view()) for slot in slots)
        self.predication_codes = _read_only(codes)
        self.doc_offsets = _read_only(offsets)
        self.stats = CorpusStats(len(docs), len(codes), records - len(codes))

    def __len__(self) -> int:
        return len(self._doc_ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self._doc_ids)

    def __contains__(self, doc_id: object) -> bool:
        return self._find(doc_id) is not None

    def __getitem__(self, doc_id: str) -> PredicationSet:
        d = self.doc_number(doc_id)
        start, stop = self.doc_offsets[d:d + 2].tolist()
        return PredicationSet(tuple(self.predications_at(slice(start, stop))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self._doc_ids == other._doc_ids
            and np.array_equal(self.doc_offsets, other.doc_offsets)
            and self._names_of(self.subjects, self.relations, self.objects)
            == other._names_of(other.subjects, other.relations, other.objects)
        )

    def __repr__(self) -> str:
        return f"Corpus({len(self)} documents from {self.source!r})"

    def doc_ids(self) -> tuple[str, ...]:
        return self._doc_ids

    def doc_number(self, doc_id: str) -> int:
        """The place of ``doc_id`` in :meth:`doc_ids`; KeyError if absent."""
        d = self._find(doc_id)
        if d is None:
            raise KeyError(doc_id)
        return d

    def _find(self, doc_id: object) -> int | None:
        """The place of ``doc_id`` in the sorted :meth:`doc_ids`, found by
        bisection, or None: a key that is not a ``str`` is not in the corpus."""
        if isinstance(doc_id, str):
            d = bisect_left(self._doc_ids, doc_id)
            if d < len(self._doc_ids) and self._doc_ids[d] == doc_id:
                return d
        return None

    def predications_at(self, positions: slice) -> list[Predication]:
        """The predications at the given run of corpus positions, in order."""
        return self.predications_of(
            self.subjects[positions], self.relations[positions], self.objects[positions]
        )

    def predications_of(
        self, subjects: np.ndarray, relations: np.ndarray, objects: np.ndarray
    ) -> list[Predication]:
        """The predications with the given identifier codes, in order."""
        return list(map(Predication, *self._names_of(subjects, relations, objects)))

    def _names_of(self, *columns: np.ndarray) -> tuple[list[str], ...]:
        """The identifiers of subject, relation and object code columns."""
        tables = self.concept_names, self.relation_names, self.concept_names
        return tuple(list(map(t.__getitem__, c.tolist())) for t, c in zip(tables, columns))


class _Tables:
    """The identifier tables and int64 code columns that a corpus load
    fills, a record or a block of lines at a time.

    Each table numbers its identifiers in the order they first occur,
    taking the fields of a record in document, subject, relation, object
    order, and takes an identifier only once it passes its check.
    """

    def __init__(self) -> None:
        self.docs: dict[str, int] = {}
        self.concepts: dict[str, int] = {}
        self.relations: dict[str, int] = {}
        self.columns = array("q"), array("q"), array("q"), array("q")

    def add_records(
        self, numbered: Iterator[tuple[int, Sequence[str]]], source: str, unit: str
    ) -> None:
        """Intern numbered (doc, subject, relation, object) records, one at
        a time; the first that fails a check names its number."""
        docs, concepts, relations = self.docs, self.concepts, self.relations
        add_doc, add_subject, add_relation, add_object = (c.append for c in self.columns)
        doc_code, concept_code, relation_code = docs.get, concepts.get, relations.get
        for number, (doc_id, subject, relation, obj) in numbered:
            try:
                d = doc_code(doc_id)
                s = concept_code(subject)
                r = relation_code(relation)
                o = concept_code(obj)
            except TypeError:  # an unhashable identifier, which no check passes
                d = s = r = o = None
            if d is None or s is None or r is None or o is None:
                try:
                    if d is None:
                        check_identifier(doc_id, "document id")
                        d = docs.setdefault(doc_id, len(docs))
                    if s is None:
                        check_identifier(subject, "subject", "predication", literal=True)
                        s = concepts.setdefault(subject, len(concepts))
                    if r is None:
                        check_identifier(relation, "relation", "predication", literal=True)
                        r = relations.setdefault(relation, len(relations))
                    if o is None:
                        check_identifier(obj, "object", "predication", literal=True)
                        # the subject may be the same identifier
                        o = concepts.setdefault(obj, len(concepts))
                except LoadError as err:
                    raise LoadError(f"{source}: {unit} {number}: {err}") from None
            add_doc(d)
            add_subject(s)
            add_relation(r)
            add_object(o)

    def add_block(self, block: tuple[bytes, np.ndarray]) -> None:
        """Intern a tokenized block of lines whole; ``_input.Refused`` if a
        step of the block path refuses it, the columns unchanged.

        ``_input.intern_fields`` interns the block's fields one table at a
        time, in document, concept, relation order, and gives their codes,
        one row per slot; the columns take them once all three are done.
        """
        docs = intern_fields(block, [0], self.docs, False)
        concepts = intern_fields(block, [1, 3], self.concepts, True)  # subject before object
        relations = intern_fields(block, [2], self.relations, True)
        for column, codes in zip(self.columns, (docs[0], concepts[0], relations[0], concepts[1])):
            column.frombytes(codes.view(np.uint8))


def parse_predications(lines: Iterable[str], source: str = "<memory>") -> Corpus:
    """Parse ``doc<TAB>subject<TAB>relation<TAB>object`` lines."""
    corpus = Corpus.__new__(Corpus)
    corpus._fill(read_blocks(lines, 4, source, _Tables()), source)
    return corpus


def load_predications_file(path: str | Path) -> Corpus:
    return read_file(path, parse_predications)


def write_predications_file(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus back out in the predications file format.

    Documents and members are emitted in canonical order, so the output
    is deterministic and reloads to an equal corpus.  Raises ValueError,
    before writing anything, for a line that would not read back as
    written: one that starts with a byte-order mark, that is blank or a
    ``#`` comment to the reader, or that UTF-8 cannot encode, such as
    one holding a lone surrogate.  ``_input.write_file`` checks and
    writes the lines.
    """
    doc_of = np.repeat(np.array(corpus.doc_ids(), dtype=object), np.diff(corpus.doc_offsets))
    rows = zip(doc_of.tolist(), *corpus._names_of(corpus.subjects, corpus.relations, corpus.objects))
    write_file(path, rows)


class GoldStandard(Mapping):
    """Read-only map from seed document id to related ids in rank order.

    ``GoldStandard(records, source)`` numbers its (seed, related id, rank)
    records from 1 and checks them as the loader checks lines; the rank is
    an ``int``, or anything else :func:`operator.index` takes but a
    ``bool``.  A seed lists each rank and each related id once.  Errors
    read ``"{source}: record N: {problem}"``, and an empty input fails.
    """

    def __init__(self, records: Iterable[Sequence], source: str = "<memory>"):
        self._fill(tuple_records(records, 3, source), source, "record", check_count)

    def _fill(
        self, numbered: Iterator[tuple[int, Sequence]], source: str, unit: str, read_rank: Callable
    ) -> None:
        """Group numbered (seed, related, rank) records, of which there
        must be at least one, by seed; ``read_rank`` reads each rank."""
        by_seed: dict[str, dict[int, str]] = {}
        pairs: set[tuple[str, str]] = set()  # (seed, related id)
        for number, (seed, related, rank) in numbered:
            try:
                rank = read_rank(rank, "rank")
                check_identifier(seed, "seed id")
                check_identifier(related, "related id")
                if seed == related:
                    raise LoadError(f"seed {seed!r} appears in its own related list")
                ranks = by_seed.setdefault(seed, {})
                if rank in ranks:
                    raise LoadError(f"duplicate rank {rank} for seed {seed!r}")
                if (seed, related) in pairs:
                    raise LoadError(f"duplicate related id {related!r} for seed {seed!r}")
            except ValueError as err:  # LoadError is a ValueError
                raise LoadError(f"{source}: {unit} {number}: {err}") from None
            ranks[rank] = related
            pairs.add((seed, related))
        if not by_seed:
            raise LoadError(f"{source}: no gold records")
        self._related: dict[str, tuple[str, ...]] = {
            seed: tuple(ranks[r] for r in sorted(ranks)) for seed, ranks in sorted(by_seed.items())
        }

    def __len__(self) -> int:
        return len(self._related)

    def __iter__(self) -> Iterator[str]:
        return iter(self._related)

    def __getitem__(self, seed: str) -> tuple[str, ...]:
        return self._related[seed]

    def seeds(self) -> tuple[str, ...]:
        return tuple(self._related)


def parse_gold(lines: Iterable[str], source: str = "<memory>") -> GoldStandard:
    """Parse ``seed<TAB>related<TAB>rank`` lines, ranks in ASCII digits."""
    gold = GoldStandard.__new__(GoldStandard)
    gold._fill(line_records(lines, 3, source), source, "line", read_count)
    return gold


def load_gold_file(path: str | Path) -> GoldStandard:
    return read_file(path, parse_gold)

