"""Corpus and gold-standard ingestion.

File formats (UTF-8 text, a leading byte-order mark ignored, ``#``
comments and blank lines ignored, order-insensitive):

- predications: one ``doc_id<TAB>subject<TAB>relation<TAB>object`` per line
- gold standard: one ``seed_id<TAB>related_id<TAB>rank`` per line

Documents are stored as deduplicated predication sets.  Documents that end
up with zero predications (possible only through programmatic
construction) are excluded from retrieval and listed in the corpus skip
list instead of failing the load.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

from ._input import check_identifier, line_records, tuple_records
from .errors import LoadError
from .predication import Predication, PredicationSet


@dataclass(frozen=True)
class CorpusStats:
    """Load diagnostics: document/predication counts and drops."""

    documents: int
    predications: int
    duplicates_dropped: int


class Corpus:
    """Immutable map from document id to its predication set."""

    def __init__(
        self,
        docs: Mapping[str, PredicationSet],
        source: str = "<memory>",
        duplicates_dropped: int = 0,
    ):
        kept: dict[str, PredicationSet] = {}
        skipped: list[str] = []
        for doc_id in sorted(docs):
            check_identifier(doc_id, "document id", source)
            pset = docs[doc_id]
            if len(pset) == 0:
                skipped.append(doc_id)
            else:
                kept[doc_id] = pset
        self.docs: Mapping[str, PredicationSet] = MappingProxyType(kept)
        self.skipped: tuple[str, ...] = tuple(skipped)
        self.source = source
        self.stats = CorpusStats(
            documents=len(kept),
            predications=sum(len(s) for s in kept.values()),
            duplicates_dropped=duplicates_dropped,
        )

    def __len__(self) -> int:
        return len(self.docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.docs

    def __getitem__(self, doc_id: str) -> PredicationSet:
        return self.docs[doc_id]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return dict(self.docs) == dict(other.docs) and self.skipped == other.skipped

    def __repr__(self) -> str:
        return f"Corpus({len(self.docs)} documents from {self.source!r})"

    def doc_ids(self) -> tuple[str, ...]:
        return tuple(self.docs)


def _group_into_corpus(
    numbered: Iterator[tuple[int, Sequence[str]]], source: str, unit: str
) -> Corpus:
    # Per-document buckets are insertion-ordered dicts used as sets, so
    # adding to one is constant time however large a document grows.
    grouped: dict[str, dict[Predication, None]] = {}
    records = 0
    for number, (doc_id, subject, relation, obj) in numbered:
        bucket = grouped.get(doc_id)
        try:
            if bucket is None:  # an id is checked at its first record only
                check_identifier(doc_id, "document id")
                bucket = grouped[doc_id] = {}
            pred = Predication(subject, relation, obj)
        except LoadError as err:
            raise LoadError(f"{source}: {unit} {number}: {err}") from None
        bucket[pred] = None
        records += 1
    if not grouped:
        raise LoadError(f"{source}: no predication records; corpus would be empty")
    duplicates = records - sum(map(len, grouped.values()))
    docs = {doc_id: PredicationSet.from_iterable(ps) for doc_id, ps in grouped.items()}
    return Corpus(docs, source=source, duplicates_dropped=duplicates)


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
    lines = [
        f"{doc_id}\t{pred.subject}\t{pred.relation}\t{pred.object}\n"
        for doc_id in corpus.doc_ids()
        for pred in corpus[doc_id]
    ]
    for line in lines:
        head = line.lstrip()
        if not head or head[0] == "#" or line.startswith("\ufeff"):
            raise ValueError(f"line {line!r} would not read back as written")
    Path(path).write_text("".join(lines), encoding="utf-8")


class GoldStandard:
    """Per-seed lists of relevant document ids, ordered by rank."""

    def __init__(self, related: Mapping[str, tuple[str, ...]]):
        self.related: Mapping[str, tuple[str, ...]] = MappingProxyType(
            {seed: tuple(rel) for seed, rel in sorted(related.items())}
        )

    def __len__(self) -> int:
        return len(self.related)

    def __contains__(self, seed: str) -> bool:
        return seed in self.related

    def __getitem__(self, seed: str) -> tuple[str, ...]:
        return self.related[seed]

    def seeds(self) -> tuple[str, ...]:
        return tuple(self.related)


def _build_gold(
    numbered: Iterator[tuple[int, Sequence]], source: str, unit: str, rank_text: bool
) -> GoldStandard:
    """Group numbered (seed, related, rank) fields by seed.  The rank is an
    int, or with ``rank_text`` the text of one."""
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
    if not by_seed:
        raise LoadError(f"{source}: no gold records")
    return GoldStandard(
        {seed: tuple(ranks[r] for r in sorted(ranks)) for seed, ranks in by_seed.items()}
    )


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

