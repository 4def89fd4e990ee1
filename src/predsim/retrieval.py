"""Ranked retrieval of documents and predications.

The :class:`RetrievalEngine` binds the concept and relationship
hierarchies to a similarity configuration and exposes the three query
surfaces:

- ``related_documents``: rank every other document against a seed
  document's predication set: the best ``n + 1`` of all documents, less
  the seed, are the best ``n`` others, in the same order;
- ``query_documents``: rank all documents against an ad-hoc predication
  set treated as a virtual document;
- ``related_predications``: rank every distinct predication in the corpus
  against a (possibly wildcard) pattern.

Scoring is columnar.  A :class:`~predsim.corpus.Corpus` already holds
its predications as interned subject, relation and object codes with
per-document offsets.  On the first query against a corpus the engine
builds an index of it over those codes: one
:class:`~predsim.ontology._Vocabulary` per hierarchy, which holds the
interned ids' ancestor sets and builds the Jaccard rows (the
``ontology`` module says how).  The engine keeps the index of the last
corpus it saw only.

A query is scored in member chunks.  For each chunk, every distinct
subject, relation and object key of its members becomes one Jaccard row
against every interned id.  A seed document's keys are its corpus codes,
read straight from the corpus columns; an ad-hoc query's are names.  A
chunk's rows hold at most ``TILE_ELEMENTS`` elements, or one member's.
The weighted slot sums of the chunk's members against the corpus are
then gathered in tiles, by ``_tiles``.  A tile holds a few members' rows
of a run of whole documents: at most ``TILE_ELEMENTS`` elements, or one
member's row of one document that is larger.  Each tile is gathered into
the index's two tile buffers, reused across tiles and calls, by the
corpus's writeable slot columns, ``Corpus._slots``: numpy's ``take``
copies an index array that it may not write to, on every call.  Each
tile is reduced at once to each member's best match in each of its
documents and to each corpus predication's best match so far.  These
maxima compare the int64 bit patterns of the weighted slot sums, which
is faster than comparing the doubles and gives the same maxima: no sum
has its sign bit set, not even as -0.0, and doubles with a clear sign
bit order as their bit patterns do.

So the memory a query uses for a while and frees is bounded by a chunk's
rows, whatever the sizes of the query and the corpus.  The index holds
the rest for every call on its corpus to reuse: the two tile buffers,
and a float64 per corpus position, which keeps each corpus predication's
best match.  So a steady call gathers into pages that an earlier call
mapped.  Every call holds the engine's lock from its check for the
index to its last read of these buffers, so calls on one engine run one
at a time, whatever the corpus, and the engine holds at most one index.
``best_in_doc``, the terms a query holds until it is ranked, one per
query member and document, grows with the product of the two.  Each
chunk's rows of it are thresholded in place once complete, so no mask of
its size is made.

``find`` scores a pattern as a query of one member whose wildcard slots
are left out: its bound subject and object get their rows in one call,
and ``_tiles`` sums only the bound slots, in the same order as the scalar
``pattern_similarity`` (which starts from 0.0: ``0.0 + x`` is ``x`` for
every ``x`` but -0.0, and a -0.0 partial sum is always followed by the
term of a slot of positive weight).  Each one-row tile is divided by the
bound weight in place and scattered onto the corpus's predication codes
at its positions.  The codes number the distinct predications in literal
order: equal codes are equal predications, so they get equal scores.
The scores are kept in the first elements of the index's position
buffer, one per code.  Only its top-k codes are looked up again, by one
mask over the codes, which gives their positions and so their documents;
the corpus builds :class:`Predication` objects for them alone.  So
``find`` allocates no float64 array per code or position, nor tiles,
and the engine holds nothing for it beyond the index.

Only the documents that can still rank among the top ``n`` get an exact
score.  Each document's naive numpy sum of its terms, widened by the
error bound of floating-point summation (Higham, *Accuracy and
Stability of Numerical Algorithms*, 4.2), bounds its score from below
and above.  A document whose upper bound falls short of the ``n``-th
largest lower bound cannot rank; the others get ``math.fsum`` of their
terms.  ``related_predications`` selects the same way, with its exact
scores as both bounds.  The ``n``-th largest lower bound is found
without partitioning every document: the ``n``-th largest of a strided
sample of about the square root of their number is at most it, so only
the lower bounds at or above that value are partitioned: all of them
when the sample holds ``n`` values or fewer.

Each returned score is built from the same IEEE operations, in the same
order, as the scalar cascade (``Hierarchy.similarity``,
``predication_similarity`` or ``pattern_similarity``,
``set_similarity``), so results are bit-identical to it, at every ``n``.
Ties are broken by document id (ascending) or by the predication's
pipe-delimited literal (ascending).
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._input import check_count
from .corpus import Corpus
from .docsim import SimConfig
from .errors import EmptySetError, UnknownDocumentError
from .ontology import Hierarchy, _Vocabulary
from .predication import Predication, PredicationPattern, PredicationSet, bound_weight

# Upper bound on the float64 elements of one query-by-corpus tile, unless
# a single document holds more positions: such a tile is one member's row
# of that document.  Chosen by measurement (BENCH_tiled_kernel.json).  It
# also bounds a member chunk's Jaccard rows (a subject, a relation and an
# object row per member), unless they are one member's.
TILE_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class RankedDocument:
    doc_id: str
    score: float
    rank: int


@dataclass(frozen=True)
class RankedPredication:
    predication: Predication
    score: float
    rank: int
    documents: tuple[str, ...]


class _Index:
    """One corpus's interned identifiers against the engine's hierarchies,
    and the buffers that every scoring call on the corpus reuses.

    ``positions`` holds a float64 per corpus position: ``_document_terms``
    zeroes it and keeps each corpus predication's best match there, and
    ``related_predications`` keeps a score per predication code in its
    first elements.  ``tile_buffers`` gives ``_tiles`` its two buffers,
    replaced by larger ones only when a tile outgrows them.  So a steady
    call gathers into pages that an earlier call mapped, and the index
    holds O(P + ``TILE_ELEMENTS``) float64 more, P being the corpus
    positions, until it is freed.  The engine's lock serializes the calls
    that write or read these buffers.
    """

    def __init__(self, corpus: Corpus, concepts: Hierarchy, relations: Hierarchy):
        self.corpus = corpus
        self.concept_vocab = _Vocabulary(concepts, corpus.concept_names)
        self.relation_vocab = _Vocabulary(relations, corpus.relation_names)
        self.positions = np.empty(len(corpus.subjects))
        self._buffers = np.empty(0), np.empty(0)

    def tile_buffers(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """The two tile buffers, of at least ``size`` float64 each."""
        if len(self._buffers[0]) < size:
            self._buffers = np.empty(size), np.empty(size)
        return self._buffers


def _select(lo: np.ndarray, hi: np.ndarray, top: int) -> np.ndarray:
    """Ascending positions of every score that may rank among the ``top``
    highest, given ``lo <= score <= hi`` at each position: all of them if
    ``top`` is at least their number.  ``top`` is at least 1.

    At least ``top`` positions score at least ``bar``, the ``top``-th
    largest ``lo``.  A position with ``hi < bar`` scores strictly below
    each of them, so it cannot rank among the ``top`` whatever the
    tie-break.

    ``bar`` is the ``top``-th largest of the values at or above ``floor``,
    the ``top``-th largest of a sample of ``lo``, every
    ``isqrt(len(lo))``-th value: a subset's never exceeds the whole
    array's, so those values hold the ``top`` largest.  A sample of
    ``top`` values or fewer has no ``top``-th largest, and ``floor`` is
    then ``-inf``, which keeps every value.  Either way the positions
    returned are those a partition of all of ``lo`` gives.
    """
    top = min(top, len(lo))
    sample = lo[:: math.isqrt(len(lo))]
    floor = -math.inf
    if len(sample) > top:
        floor = np.partition(sample, len(sample) - top)[len(sample) - top]
    # A copy of its own, so it is partitioned in place; np.compress reads a
    # dense mask faster than boolean indexing.
    lo = np.compress(lo >= floor, lo)
    lo.partition(len(lo) - top)
    bar = lo[len(lo) - top]
    return np.flatnonzero(hi >= bar)


def _runs(offsets: np.ndarray, members: int) -> list[tuple[int, int, int, int, int]]:
    """The runs of whole documents that the tiles of a query cover, in
    document order.

    Run ``(d0, d1, p0, p1, rows)`` holds documents ``d0:d1``, at corpus
    positions ``p0:p1``: at most ``TILE_ELEMENTS`` positions, or a single
    document that holds more.  Each of its tiles gathers ``rows`` query
    members, at most ``members``, so a tile holds at most
    ``TILE_ELEMENTS`` elements, or one member's row of that document.
    """
    runs = []
    d0, last = 0, len(offsets) - 1
    while d0 < last:
        p0 = int(offsets[d0])
        d1 = max(d0 + 1, int(np.searchsorted(offsets, p0 + TILE_ELEMENTS, "right")) - 1)
        p1 = int(offsets[d1])
        runs.append((d0, d1, p0, p1, max(1, min(members, TILE_ELEMENTS // (p1 - p0)))))
        d0 = d1
    return runs


def _tiles(
    index: _Index,
    runs: list[tuple[int, int, int, int, int]],
    slots: list[tuple[np.ndarray, np.ndarray]],
) -> Iterator[tuple[tuple[int, int, int, int, int], int, np.ndarray, np.ndarray]]:
    """Yield the weighted slot sums of query members against the corpus a
    tile at a time, in the order of ``runs``, as ``(run, r0, tile,
    spare)``: ``tile[j, i]`` is member ``r0 + j``'s sum at corpus position
    ``p0 + i`` of ``run = (d0, d1, p0, p1, rows)``.

    ``slots`` are the (weighted rows, corpus slot column) pairs of the
    slots summed, in subject, relation, object order; row ``j`` of each is
    member ``j``'s.  Every tile is gathered in the two tile buffers that
    ``index`` holds, at least as large as the runs' largest tile, and
    ``spare``, a view of the second of the tile's shape, is free for the
    caller until the next tile.  The caller holds the engine's lock.
    """
    size = max(rows * (p1 - p0) for _, _, p0, p1, rows in runs)
    tile_buffer, spare_buffer = index.tile_buffers(size)
    (first, first_column), *rest = slots
    members = len(first)
    for run in runs:
        _, _, p0, p1, rows = run
        width = p1 - p0
        for r0 in range(0, members, rows):
            r1 = min(r0 + rows, members)
            tile = tile_buffer[:(r1 - r0) * width].reshape(r1 - r0, width)
            spare = spare_buffer[:(r1 - r0) * width].reshape(r1 - r0, width)
            # The codes are in range, so "clip" changes nothing; with
            # "raise", take would gather into a buffer of its own.
            np.take(first[r0:r1], first_column[p0:p1], 1, tile, "clip")
            for sims, column in rest:
                np.take(sims[r0:r1], column[p0:p1], 1, spare, "clip")
                tile += spare
            yield run, r0, tile, spare


def _threshold(terms: np.ndarray, total: float, tau: float) -> None:
    """Turn weighted slot sums into terms in place: divide them by the
    weight total, then zero those below the pair threshold ``tau``.

    Terms are never negative, so a ``tau`` at or below 0 zeroes none: the
    threshold is then the identity, and its pass is skipped.  Otherwise
    each term is multiplied by whether it reaches ``tau``: every term is
    finite and not -0.0, so that is the term or 0.0 exactly, and faster
    than a masked write."""
    terms /= total
    if tau > 0:
        np.multiply(terms, terms >= tau, out=terms)


def _ranked(
    kept: np.ndarray, scores: np.ndarray, top: int
) -> tuple[list[int], list[float]]:
    """The ``top`` best of the ascending positions ``kept`` and their
    ``scores``: score descending, then position ascending."""
    order = np.argsort(-scores, kind="stable")[:top]
    return kept[order].tolist(), scores[order].tolist()


def _top_documents(
    pred_terms: np.ndarray, query_terms: np.ndarray, offsets: np.ndarray, top: int
) -> tuple[list[int], list[float]]:
    """The ``top`` documents by ``math.fsum(terms) / len(terms)`` and their
    scores, best first, ties by document number.

    The terms of document ``d``, all ``>= 0``, are
    ``pred_terms[offsets[d]:offsets[d + 1]]`` (at least one) and
    ``query_terms[:, d]``.  Their naive sum makes ``k - 1`` roundings for
    ``k`` terms, so it is within a relative ``(k - 1) * 2**-53`` (to first
    order) of the exact sum S; ``err`` is at least eight times that.  ``math.fsum`` returns S rounded,
    and rounding and division by ``k`` are monotone, so ``lo <= score <=
    hi``.  Only the documents that ``_select`` keeps are summed exactly.
    """
    sizes = np.diff(offsets) + len(query_terms)
    naive = np.add.reduceat(pred_terms, offsets[:-1]) + query_terms.sum(axis=0)
    err = naive * sizes * 2.0**-50
    lo = (naive - err) / sizes
    hi = (naive + err) / sizes
    kept = _select(lo, hi, top)
    sums = [
        math.fsum(pred_terms[a:b].tolist() + query_terms[:, d].tolist())
        for d, a, b in zip(kept.tolist(), offsets[kept].tolist(), offsets[kept + 1].tolist())
    ]
    return _ranked(kept, np.array(sums) / sizes[kept], top)


def _numbered(ranking: list[tuple[str, float]]) -> list[RankedDocument]:
    """The (id, score) pairs of a ranking, ranked from 1 in order."""
    return [RankedDocument(doc, score, rank) for rank, (doc, score) in enumerate(ranking, start=1)]


def _check_type(name: str, value: object, kind: type) -> None:
    """Raise ``TypeError``, naming the argument, unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be {kind.__name__}, got {type(value).__name__}")


class RetrievalEngine:
    """Similarity scoring and ranking over immutable inputs.

    The constructor raises ``TypeError``, naming the argument, for a
    hierarchy that is not a :class:`Hierarchy` or a ``config`` that is
    neither None nor a :class:`SimConfig`; each ranking call does the same
    for a ``corpus`` that is not a :class:`Corpus`, a ``query`` that is not
    a :class:`PredicationSet` and a ``pattern`` that is not a
    :class:`PredicationPattern`."""

    def __init__(
        self,
        concept_hierarchy: Hierarchy,
        relation_hierarchy: Hierarchy,
        config: SimConfig | None = None,
    ):
        if config is None:
            config = SimConfig()
        _check_type("concept_hierarchy", concept_hierarchy, Hierarchy)
        _check_type("relation_hierarchy", relation_hierarchy, Hierarchy)
        _check_type("config", config, SimConfig)
        self.concepts = concept_hierarchy
        self.relations = relation_hierarchy
        self.config = config
        self._index: _Index | None = None
        self._lock = threading.Lock()

    # -- columnar scoring ---------------------------------------------------

    def _index_for(self, corpus: Corpus) -> _Index:
        """The index of ``corpus``, built if it is not the one held.  The
        caller holds the engine's lock from this check to its last read of
        the index's buffers, and keeps no reference to the index past it:
        so calls that start together on a new corpus build one index, and
        a call on another corpus frees the index before building its own."""
        index = self._index
        if index is None or index.corpus is not corpus:
            self._index = index = None  # let the old index go before building the new one
            index = self._index = _Index(corpus, self.concepts, self.relations)
        return index

    def _weighted_slots(
        self, index: _Index, subjects: list, relations: list, objects: list
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """The (weighted Jaccard rows, corpus slot column) pairs of the
        slots that have keys (corpus codes or names), in subject, relation,
        object order, for ``_tiles``: a row per key.  The subject and object
        keys get their rows in one call, so names are walked once."""
        weights = self.config.weights
        concept_rows = index.concept_vocab.similarity_rows(subjects + objects)
        rows = (
            concept_rows[:len(subjects)],
            index.relation_vocab.similarity_rows(relations),
            concept_rows[len(subjects):],
        )
        slots = []
        weighted = weights.ws, weights.wr, weights.wo
        for sims, weight, column in zip(rows, weighted, index.corpus._slots):
            if len(sims):
                sims *= weight
                slots.append((sims, column))
        return slots

    def _document_terms(
        self, index: _Index, subjects: list, relations: list, objects: list
    ) -> tuple[np.ndarray, np.ndarray]:
        """The best-match terms of every document against the query whose
        members have the given slot keys (corpus codes or names),
        thresholded: one per corpus predication, in the index's position
        buffer, and one per query member and document (rows follow the
        query's members).  The caller holds the engine's lock until it has
        read the first."""
        corpus = index.corpus
        weights = self.config.weights
        n, offsets = len(subjects), corpus.doc_offsets
        per_member = 2 * len(index.concept_vocab.names) + len(index.relation_vocab.names)
        chunk = min(n, max(1, TILE_ELEMENTS // per_member))
        runs = _runs(offsets, chunk)
        # best_in_doc[j, d]: best weighted slot sum of query member j in
        # document d; best_of_pred[i]: best of corpus predication i over the
        # query.  Both are divided by the weight total only once their
        # maxima are complete, which gives the same maxima because rounding
        # is monotone.  The maxima compare the sums' int64 bit patterns,
        # which order finite doubles with a clear sign bit as their values
        # do.  Every sum has one: one weight is positive, so one of its
        # addends is +0.0 or more, and such a sum is never -0.0; and
        # best_of_pred starts at +0.0, whose bit pattern is 0: it is the
        # index's position buffer, zeroed here on every call.
        best_in_doc = np.empty((n, len(corpus)))
        best_of_pred = index.positions
        best_of_pred.fill(0.0)
        doc_bits, pred_bits = best_in_doc.view(np.int64), best_of_pred.view(np.int64)
        for lo in range(0, n, chunk):
            hi = lo + chunk
            slots = self._weighted_slots(index, subjects[lo:hi], relations[lo:hi], objects[lo:hi])
            for (d0, d1, p0, p1, _), r0, tile, spare in _tiles(index, runs, slots):
                tile, best = tile.view(np.int64), pred_bits[p0:p1]
                in_doc = doc_bits[lo + r0:lo + r0 + len(tile), d0:d1]
                np.maximum.reduceat(tile, offsets[d0:d1] - p0, 1, out=in_doc)
                np.maximum(best, tile.max(axis=0, out=spare[0].view(np.int64)), out=best)
            # The chunk's rows of best_in_doc are complete.
            _threshold(best_in_doc[lo:hi], weights.total, self.config.pair_threshold)
            # Free the chunk's Jaccard rows before the next chunk's are built.
            del slots
        _threshold(best_of_pred, weights.total, self.config.pair_threshold)
        return best_of_pred, best_in_doc

    # -- ranking ------------------------------------------------------------

    def _rank_documents(
        self, corpus: Corpus, query: tuple[list, list, list], top_n: int
    ) -> list[tuple[str, float]]:
        """The ``top_n`` best documents against the query's subject,
        relation and object keys (corpus codes or names), as (id, score)
        pairs, best first."""
        with self._lock:
            terms = self._document_terms(self._index_for(corpus), *query)
            top, scores = _top_documents(*terms, corpus.doc_offsets, top_n)
            del terms  # the index's buffer: once the lock is free, a call may replace it
        doc_ids = corpus.doc_ids()
        return [(doc_ids[d], score) for d, score in zip(top, scores)]

    def related_documents(
        self, corpus: Corpus, seed: str, top_n: int
    ) -> list[RankedDocument]:
        """Rank all other documents against the seed's predication set: the
        ``top_n + 1`` best documents, the seed left out, are the ``top_n``
        best others, in the same order."""
        _check_type("corpus", corpus, Corpus)
        try:
            d = corpus.doc_number(seed)
        except KeyError:
            raise UnknownDocumentError(f"unknown seed document {seed!r}") from None
        top_n = check_count(top_n, "top_n")
        a, b = corpus.doc_offsets[d:d + 2].tolist()
        columns = corpus.subjects, corpus.relations, corpus.objects
        query = tuple(codes[a:b].tolist() for codes in columns)
        ranked = self._rank_documents(corpus, query, top_n + 1)
        return _numbered([(doc, score) for doc, score in ranked if doc != seed][:top_n])

    def query_documents(
        self, corpus: Corpus, query: PredicationSet, top_n: int
    ) -> list[RankedDocument]:
        """Rank every document against an ad-hoc predication set."""
        _check_type("corpus", corpus, Corpus)
        _check_type("query", query, PredicationSet)
        if len(query) == 0:
            raise EmptySetError("query predication set is empty")
        top_n = check_count(top_n, "top_n")
        members = query.members
        slots = (
            [p.subject for p in members],
            [p.relation for p in members],
            [p.object for p in members],
        )
        return _numbered(self._rank_documents(corpus, slots, top_n))

    def related_predications(
        self, corpus: Corpus, pattern: PredicationPattern, top_k: int
    ) -> list[RankedPredication]:
        """Rank every distinct corpus predication against the pattern.

        The score is ``pattern_similarity``: the bound slots' weighted
        similarities summed in subject, relation, object order over the
        sum of their weights.
        """
        _check_type("corpus", corpus, Corpus)
        _check_type("pattern", pattern, PredicationPattern)
        top_k = check_count(top_k, "top_k")
        weights = self.config.weights
        denominator = bound_weight(pattern, weights)
        names = pattern.subject, pattern.relation, pattern.object
        codes = corpus.predication_codes
        # Every code from 0 to the largest occurs, so every score is
        # written; equal codes have equal slot codes, so their scores are
        # equal.  There are at most as many codes as positions.
        count = int(codes.max()) + 1
        with self._lock:
            index = self._index_for(corpus)
            keys = ([] if name is None else [name] for name in names)
            slots = self._weighted_slots(index, *keys)
            scores = index.positions[:count]
            runs = _runs(corpus.doc_offsets, 1)
            for (_, _, p0, p1, _), _, tile, _ in _tiles(index, runs, slots):
                tile /= denominator
                scores[codes[p0:p1]] = tile[0]
            # Free the rows before the selection's arrays are built.
            del slots
            kept = _select(scores, scores, top_k)
            top, top_scores = _ranked(kept, scores[kept], top_k)
            del index, scores, tile  # once the lock is free, a call may replace them
        chosen = np.zeros(count, dtype=bool)
        chosen[top] = True
        # The chosen codes' positions, ascending, grouped by code: each
        # group starts at the code's first position, and its documents
        # ascend with its positions.
        at = np.flatnonzero(chosen[codes])
        at = at[np.argsort(codes[at], kind="stable")]
        grouped = codes[at]
        starts = np.searchsorted(grouped, top).tolist()
        ends = np.searchsorted(grouped, top, "right").tolist()
        first = at[starts]
        predications = corpus.predications_of(
            corpus.subjects[first], corpus.relations[first], corpus.objects[first]
        )
        doc_ids = corpus.doc_ids()
        docs = (np.searchsorted(corpus.doc_offsets, at, "right") - 1).tolist()
        return [
            RankedPredication(predication, score, rank, tuple(doc_ids[d] for d in docs[a:b]))
            for rank, (predication, score, a, b) in enumerate(
                zip(predications, top_scores, starts, ends), start=1
            )
        ]
