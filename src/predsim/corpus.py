"""Corpus and gold-standard ingestion.

File formats (UTF-8 text, a leading byte-order mark ignored, ``#``
comments and blank lines ignored, order-insensitive):

- predications: one ``doc_id<TAB>subject<TAB>relation<TAB>object`` per line
- gold standard: one ``seed_id<TAB>related_id<TAB>rank`` per line

A :class:`Corpus` is held as columns from the start.  The loader interns
document, concept and relation identifiers as it reads them and checks
each distinct identifier once, where it first occurs, taking the fields of
a record in document, subject, relation, object order; an identifier that
fails never enters a table, so every occurrence of it is checked and the
error names the first bad record and field.  Duplicates are dropped by
their integer codes, and each document's members are ordered by literal
from sort ranks of their identifiers, without formatting a literal.  The
literal-order number of each distinct predication is kept as a column,
so this module alone decides predication identity and order.
``Corpus`` is itself the read-only mapping from document id to
predication set: ``corpus[doc_id]`` builds a :class:`PredicationSet` on
each access, and ``Corpus(mapping)`` encodes a mapping into the same
columns through the same builder as the loaders.  :class:`GoldStandard`
is built the same way, and is the read-only mapping from seed to ranked ids.

Documents that end up with zero predications (possible only through
programmatic construction) are excluded from retrieval and listed in the
corpus skip list instead of failing the load.
"""

from __future__ import annotations

from array import array
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from ._input import check_identifier, line_records, tuple_records
from .errors import LoadError
from .predication import Predication, PredicationSet


@dataclass(frozen=True)
class CorpusStats:
    """Load diagnostics: document/predication counts and drops."""

    documents: int
    predications: int
    duplicates_dropped: int


def _literal_ranks(names: Iterable[str], suffix: str) -> np.ndarray:
    """Rank of each ``name + suffix`` among them all, in the order given."""
    keys = [name + suffix for name in names]
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    return ranks


def _literal_keys(
    concept_names: Collection[str],
    relation_names: Collection[str],
    subjects: np.ndarray,
    relations: np.ndarray,
    objects: np.ndarray,
) -> np.ndarray:
    """One int64 per coded predication that sorts as its literal does.

    ``|`` occurs in no identifier, so ``s|r|o`` sorts as the triple
    ``(s + "|", r + "|", o)`` does: the key is built from the ranks of
    those three strings.  Equal keys are equal predications.
    """
    if len(concept_names) ** 2 * len(relation_names) > np.iinfo(np.int64).max:
        raise OverflowError("too many distinct identifiers for an int64 sort key")
    key = _literal_ranks(concept_names, "|")[subjects] * len(relation_names)
    key += _literal_ranks(relation_names, "|")[relations]
    key *= len(concept_names)
    key += _literal_ranks(concept_names, "")[objects]
    return key


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """Start offset of each segment, then the total."""
    return np.concatenate(([0], np.cumsum(sizes)))


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
    equal codes are equal predications.  Document number ``d``, its place
    in :meth:`doc_ids`, owns positions ``doc_offsets[d]`` to
    ``doc_offsets[d + 1]``.  The arrays are read-only.

    ``Corpus(docs)`` encodes a mapping from document id to predication set
    into these columns; documents with no predications are left out and
    listed in ``skipped``.  ``corpus[doc_id]`` builds a
    :class:`PredicationSet` on each access.
    """

    def __init__(self, docs: Mapping[str, PredicationSet]):
        kept: list[str] = []
        skipped: list[str] = []
        for doc_id in sorted(docs):
            check_identifier(doc_id, "document id", "<memory>")
            (kept if len(docs[doc_id]) else skipped).append(doc_id)
        records = (
            (doc_id, p.subject, p.relation, p.object) for doc_id in kept for p in docs[doc_id]
        )
        self._fill(enumerate(records, start=1), "<memory>", "record")
        self.skipped = tuple(skipped)

    def _fill(
        self, numbered: Iterator[tuple[int, Sequence[str]]], source: str, unit: str
    ) -> None:
        """Build every attribute from numbered (doc, subject, relation,
        object) records."""
        docs: dict[str, int] = {}
        concepts: dict[str, int] = {}
        relations: dict[str, int] = {}
        columns = array("q"), array("q"), array("q"), array("q")
        add_doc, add_subject, add_relation, add_object = (c.append for c in columns)
        doc_code, concept_code, relation_code = docs.get, concepts.get, relations.get
        for number, (doc_id, subject, relation, obj) in numbered:
            d = doc_code(doc_id)
            s = concept_code(subject)
            r = relation_code(relation)
            o = concept_code(obj)
            if d is None or s is None or r is None or o is None:
                try:
                    if d is None:
                        check_identifier(doc_id, "document id")
                        d = docs[doc_id] = len(docs)
                    if s is None:
                        check_identifier(subject, "subject", "predication", literal=True)
                        s = concepts[subject] = len(concepts)
                    if r is None:
                        check_identifier(relation, "relation", "predication", literal=True)
                        r = relations[relation] = len(relations)
                    if o is None:
                        o = concept_code(obj)  # the subject may be the same identifier
                    if o is None:
                        check_identifier(obj, "object", "predication", literal=True)
                        o = concepts[obj] = len(concepts)
                except LoadError as err:
                    raise LoadError(f"{source}: {unit} {number}: {err}") from None
            add_doc(d)
            add_subject(s)
            add_relation(r)
            add_object(o)
        doc_codes, subjects, relation_codes, objects = (
            np.frombuffer(c, dtype=np.int64) for c in columns
        )
        # Number the distinct triples in literal order, then sort the
        # distinct (document rank, triple number) keys: duplicates go, and
        # each document's members come out in literal order.
        triples, triple = np.unique(
            _literal_keys(concepts, relations, subjects, relation_codes, objects),
            return_inverse=True,
        )
        keys = np.unique(_literal_ranks(docs, "")[doc_codes] * len(triples) + triple)
        codes = keys % len(triples)
        some_record = np.empty(len(triples), dtype=np.intp)
        some_record[triple] = np.arange(len(triple))
        kept = some_record[codes]

        self.source = source
        self._doc_ids: tuple[str, ...] = tuple(sorted(docs))
        self._doc_number = {doc_id: d for d, doc_id in enumerate(self._doc_ids)}
        self.concept_names: tuple[str, ...] = tuple(concepts)
        self.relation_names: tuple[str, ...] = tuple(relations)
        self.subjects = _read_only(subjects[kept])
        self.relations = _read_only(relation_codes[kept])
        self.objects = _read_only(objects[kept])
        self.predication_codes = _read_only(codes)
        sizes = np.bincount(keys // len(triples), minlength=len(docs))
        self.doc_offsets = _read_only(_offsets(sizes))
        self.skipped: tuple[str, ...] = ()
        self.stats = CorpusStats(len(docs), len(keys), len(doc_codes) - len(keys))

    def __len__(self) -> int:
        return len(self._doc_ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self._doc_ids)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._doc_number

    def __getitem__(self, doc_id: str) -> PredicationSet:
        d = self._doc_number[doc_id]
        start, stop = self.doc_offsets[d:d + 2].tolist()
        return PredicationSet(tuple(self.predications_at(slice(start, stop))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self._doc_ids == other._doc_ids
            and self.skipped == other.skipped
            and np.array_equal(self.doc_offsets, other.doc_offsets)
            and self._names_at(slice(None)) == other._names_at(slice(None))
        )

    def __repr__(self) -> str:
        return f"Corpus({len(self)} documents from {self.source!r})"

    def doc_ids(self) -> tuple[str, ...]:
        return self._doc_ids

    def doc_number(self, doc_id: str) -> int:
        """The place of ``doc_id`` in :meth:`doc_ids`; KeyError if absent."""
        return self._doc_number[doc_id]

    def predications_at(self, positions: slice | np.ndarray) -> list[Predication]:
        """The predications at the given corpus positions, in that order."""
        return list(map(Predication, *self._names_at(positions)))

    def _names_at(self, positions: slice | np.ndarray) -> tuple[list[str], ...]:
        """Subject, relation and object identifiers at the given positions."""
        tables = self.concept_names, self.relation_names, self.concept_names
        columns = self.subjects, self.relations, self.objects
        return tuple(
            list(map(t.__getitem__, c[positions].tolist())) for t, c in zip(tables, columns)
        )


def _group_into_corpus(
    numbered: Iterator[tuple[int, Sequence[str]]], source: str, unit: str
) -> Corpus:
    corpus = Corpus.__new__(Corpus)
    corpus._fill(numbered, source, unit)
    if not corpus.stats.predications:
        raise LoadError(f"{source}: no predication records; corpus would be empty")
    return corpus


def load_corpus(
    records: Iterable[tuple[str, str, str, str]], source: str = "<records>"
) -> Corpus:
    """Group (doc_id, subject, relation, object) records into a corpus."""
    return _group_into_corpus(tuple_records(records, 4, source), source, "record")


def parse_predications(lines: Iterable[str], source: str = "<memory>") -> Corpus:
    """Parse ``doc<TAB>subject<TAB>relation<TAB>object`` lines."""
    return _group_into_corpus(line_records(lines, 4, source), source, "line")


def load_predications_file(path: str | Path) -> Corpus:
    path = Path(path)
    with open(path, encoding="utf-8-sig") as handle:
        return parse_predications(handle, source=str(path))


def write_predications_file(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus back out in the predications file format.

    Documents and members are emitted in canonical order, so the output
    is deterministic and reloads to an equal corpus.  Raises ValueError,
    before writing anything, for a line that would not read back as
    written: one that starts with a byte-order mark, or that is blank or
    a ``#`` comment to the reader.
    """
    doc_of = np.repeat(np.array(corpus.doc_ids(), dtype=object), np.diff(corpus.doc_offsets))
    rows = zip(doc_of.tolist(), *corpus._names_at(slice(None)))
    lines = ["\t".join(row) + "\n" for row in rows]
    for line in lines:
        head = line.lstrip()
        if not head or head[0] == "#" or line.startswith("\ufeff"):
            raise ValueError(f"line {line!r} would not read back as written")
    Path(path).write_text("".join(lines), encoding="utf-8")


class GoldStandard(Mapping):
    """Read-only map from seed document id to related ids in rank order.

    ``GoldStandard(related)`` checks the mapping's (seed, related id, rank)
    records, numbered from 1, as the loaders do.
    """

    def __init__(self, related: Mapping[str, Sequence[str]]):
        records = ((s, doc, k) for s in related for k, doc in enumerate(related[s], 1))
        self._fill(enumerate(records, start=1), "<memory>", "record", rank_text=False)

    def _fill(
        self, numbered: Iterator[tuple[int, Sequence]], source: str, unit: str, rank_text: bool
    ) -> None:
        """Group numbered (seed, related, rank) records by seed.  The rank
        is an int, or with ``rank_text`` the text of one."""
        by_seed: dict[str, dict[int, str]] = {}
        for number, (seed, related, rank) in numbered:
            try:
                if rank_text:
                    try:
                        rank = int(rank)
                    except ValueError:
                        pass
                if not isinstance(rank, int):
                    raise LoadError(f"rank must be an integer, got {rank!r}")
                check_identifier(seed, "seed id")
                check_identifier(related, "related id")
                if rank < 1:
                    raise LoadError(f"rank must be a positive integer, got {rank}")
                if seed == related:
                    raise LoadError(f"seed {seed!r} appears in its own related list")
                ranks = by_seed.setdefault(seed, {})
                if rank in ranks:
                    raise LoadError(f"duplicate rank {rank} for seed {seed!r}")
            except LoadError as err:
                raise LoadError(f"{source}: {unit} {number}: {err}") from None
            ranks[rank] = related
        self.related: Mapping[str, tuple[str, ...]] = MappingProxyType({
            seed: tuple(ranks[r] for r in sorted(ranks)) for seed, ranks in sorted(by_seed.items())
        })

    def __len__(self) -> int:
        return len(self.related)

    def __iter__(self) -> Iterator[str]:
        return iter(self.related)

    def __getitem__(self, seed: str) -> tuple[str, ...]:
        return self.related[seed]

    def seeds(self) -> tuple[str, ...]:
        return tuple(self.related)


def _build_gold(
    numbered: Iterator[tuple[int, Sequence]], source: str, unit: str, rank_text: bool
) -> GoldStandard:
    gold = GoldStandard.__new__(GoldStandard)
    gold._fill(numbered, source, unit, rank_text)
    if not gold:
        raise LoadError(f"{source}: no gold records")
    return gold


def load_gold(
    records: Iterable[tuple[str, str, int]], source: str = "<records>"
) -> GoldStandard:
    """Build a gold standard from (seed, related, rank) records."""
    return _build_gold(tuple_records(records, 3, source), source, "record", rank_text=False)


def parse_gold(lines: Iterable[str], source: str = "<memory>") -> GoldStandard:
    """Parse ``seed<TAB>related<TAB>rank`` lines."""
    return _build_gold(line_records(lines, 3, source), source, "line", rank_text=True)


def load_gold_file(path: str | Path) -> GoldStandard:
    path = Path(path)
    with open(path, encoding="utf-8-sig") as handle:
        return parse_gold(handle, source=str(path))

