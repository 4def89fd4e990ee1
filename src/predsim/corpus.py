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

from collections.abc import Iterable, Mapping
from pathlib import Path
from types import MappingProxyType

from .errors import LoadError
from .predication import Predication, PredicationSet


def _check_id(value: str, what: str, where: str) -> None:
    if not value:
        raise LoadError(f"{where}: empty {what}")
    if "\t" in value or "\n" in value or "\r" in value:
        raise LoadError(f"{where}: {what} contains tab or newline")


class CorpusStats:
    """Load diagnostics: document/predication counts and drops."""

    def __init__(self, documents: int, predications: int, duplicates_dropped: int):
        self.documents = documents
        self.predications = predications
        self.duplicates_dropped = duplicates_dropped

    def __repr__(self) -> str:
        return (
            f"CorpusStats(documents={self.documents}, "
            f"predications={self.predications}, "
            f"duplicates_dropped={self.duplicates_dropped})"
        )


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
            _check_id(doc_id, "document id", source)
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
    positioned: Iterable[tuple[str, tuple[str, str, str, str]]], source: str
) -> Corpus:
    # Per-document buckets are insertion-ordered dicts used as sets, so
    # the duplicate check is constant time however large a document grows.
    grouped: dict[str, dict[Predication, None]] = {}
    duplicates = 0
    for where, (doc_id, subject, relation, obj) in positioned:
        _check_id(doc_id, "document id", where)
        try:
            pred = Predication(subject, relation, obj)
        except LoadError as err:
            raise LoadError(f"{where}: {err}") from None
        bucket = grouped.setdefault(doc_id, {})
        if pred in bucket:
            duplicates += 1
        else:
            bucket[pred] = None
    if not grouped:
        raise LoadError(f"{source}: no predication records; corpus would be empty")
    docs = {doc_id: PredicationSet.from_iterable(ps) for doc_id, ps in grouped.items()}
    return Corpus(docs, source=source, duplicates_dropped=duplicates)


def load_corpus(
    records: Iterable[tuple[str, str, str, str]], source: str = "<records>"
) -> Corpus:
    """Group (doc_id, subject, relation, object) records into a corpus."""

    def positioned():
        for i, record in enumerate(records, start=1):
            where = f"{source}: record {i}"
            if len(record) != 4:
                raise LoadError(f"{where}: expected 4 fields, got {len(record)}")
            yield where, tuple(record)

    return _group_into_corpus(positioned(), source)


def parse_predications(lines: Iterable[str], source: str = "<memory>") -> Corpus:
    """Parse ``doc<TAB>subject<TAB>relation<TAB>object`` lines."""

    def positioned():
        for lineno, raw in enumerate(lines, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            where = f"{source}: line {lineno}"
            if len(fields) != 4:
                raise LoadError(f"{where}: expected 4 fields, got {len(fields)}")
            yield where, tuple(fields)

    return _group_into_corpus(positioned(), source)


def load_predications_file(path: str | Path) -> Corpus:
    path = Path(path)
    with open(path, encoding="utf-8-sig") as handle:
        return parse_predications(handle, source=str(path))


def write_predications_file(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus back out in the predications file format.

    Documents and members are emitted in canonical order, so the output
    is deterministic and reloads to an equal corpus.
    """
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        for doc_id in corpus.doc_ids():
            for pred in corpus[doc_id]:
                handle.write(
                    f"{doc_id}\t{pred.subject}\t{pred.relation}\t{pred.object}\n"
                )


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
    positioned: Iterable[tuple[str, str, str, int]], source: str
) -> GoldStandard:
    by_seed: dict[str, dict[int, str]] = {}
    for where, seed, related, rank in positioned:
        _check_id(seed, "seed id", where)
        _check_id(related, "related id", where)
        if rank < 1:
            raise LoadError(f"{where}: rank must be a positive integer, got {rank}")
        if seed == related:
            raise LoadError(f"{where}: seed {seed!r} appears in its own related list")
        ranks = by_seed.setdefault(seed, {})
        if rank in ranks:
            raise LoadError(f"{where}: duplicate rank {rank} for seed {seed!r}")
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

    def positioned():
        for i, record in enumerate(records, start=1):
            where = f"{source}: record {i}"
            if len(record) != 3:
                raise LoadError(f"{where}: expected 3 fields, got {len(record)}")
            seed, related, rank = record
            if not isinstance(rank, int):
                raise LoadError(f"{where}: rank must be an integer, got {rank!r}")
            yield where, seed, related, rank

    return _build_gold(positioned(), source)


def parse_gold(lines: Iterable[str], source: str = "<memory>") -> GoldStandard:
    """Parse ``seed<TAB>related<TAB>rank`` lines."""

    def positioned():
        for lineno, raw in enumerate(lines, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            where = f"{source}: line {lineno}"
            if len(fields) != 3:
                raise LoadError(f"{where}: expected 3 fields, got {len(fields)}")
            seed, related, rank_text = fields
            try:
                rank = int(rank_text)
            except ValueError:
                raise LoadError(
                    f"{where}: rank must be an integer, got {rank_text!r}"
                ) from None
            yield where, seed, related, rank

    return _build_gold(positioned(), source)


def load_gold_file(path: str | Path) -> GoldStandard:
    path = Path(path)
    with open(path, encoding="utf-8-sig") as handle:
        return parse_gold(handle, source=str(path))

