"""Ranked retrieval of documents and predications.

The :class:`RetrievalEngine` binds the concept and relationship
hierarchies to a similarity configuration and exposes the three query
surfaces:

- ``related_documents``: rank every other document against a seed
  document's predication set (the seed never appears in its own results);
- ``query_documents``: rank all documents against an ad-hoc predication
  set treated as a virtual document;
- ``related_predications``: rank every distinct predication in the corpus
  against a (possibly wildcard) pattern.

Scoring is columnar.  On the first query against a corpus the engine
builds an index of it: concepts and relations are interned to
ints, each document's predications become flat subject, relation and
object id arrays with per-document offsets, and each interned id's
self-inclusive ancestor set is stored flat (CSR form).  The engine keeps
the index of the last corpus it saw only.

A query turns each query identifier into one row of Jaccard scores
against every interned id, gathers the weighted slot sums of all
query-by-corpus predication pairs in blocks of at most ``BLOCK_ELEMENTS``
elements, and reduces each block to best-match terms per document.

Only the documents that can still rank among the top ``n`` get an exact
score.  Each document's naive numpy sum of its terms, widened by the
error bound of floating-point summation (Higham, *Accuracy and
Stability of Numerical Algorithms*, 4.2), bounds its score from below
and above.  A document whose upper bound falls short of the ``n``-th
largest lower bound cannot rank; the others get ``math.fsum`` of their
terms.  ``related_predications`` selects the same way, with its exact
scores as both bounds.

Each returned score is built from the same IEEE operations, in the same
order, as the scalar cascade (``Hierarchy.similarity``,
``predication_similarity`` or ``pattern_similarity``,
``set_similarity``), so results are bit-identical to it, at every ``n``.
Ties are broken by document id (ascending) or by the predication's
pipe-delimited literal (ascending).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import Corpus
from .docsim import SimConfig, set_similarity
from .errors import EmptySetError, UnknownDocumentError
from .ontology import Hierarchy
from .predication import (
    Predication,
    PredicationPattern,
    PredicationSet,
    bound_weight,
    format_predication,
    predication_similarity,
)

# Upper bound on the elements of one query-by-corpus block; a block holds
# at least one query row.
BLOCK_ELEMENTS = 1 << 20


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


def _intern(names: list[str]) -> tuple[dict[str, int], np.ndarray]:
    """Number the distinct names in first-seen order; return the numbering
    and the number of each name passed."""
    ids = {name: i for i, name in enumerate(dict.fromkeys(names))}
    return ids, np.fromiter(map(ids.__getitem__, names), dtype=np.intp, count=len(names))


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """Start offset of each segment, then the total."""
    return np.concatenate(([0], np.cumsum(sizes)))


class _Vocabulary:
    """The identifiers of one hierarchy that a corpus uses, interned.

    ``codes`` holds the number of each name passed in.  The ancestor set
    of the identifier numbered ``i`` is ``flat[starts[i]:][:sizes[i]]``,
    in node numbers; ``nodes`` numbers every identifier of those sets.
    """

    def __init__(self, hierarchy: Hierarchy, names: list[str]):
        self.hierarchy = hierarchy
        self.ids, self.codes = _intern(names)
        ancestor_sets = hierarchy.ancestor_sets(list(self.ids))
        self.nodes, self.flat = _intern([a for s in ancestor_sets for a in s])
        self.sizes = np.fromiter(map(len, ancestor_sets), dtype=np.int64)
        self.starts = _offsets(self.sizes)[:-1]

    def similarity_rows(self, names: list[str]) -> np.ndarray:
        """Jaccard of each name's ancestor set with every interned id's.

        Row ``k`` equals ``hierarchy.similarity(names[k], v)`` for every
        interned ``v``: the integer counts are the same, and so is the
        one division.
        """
        distinct = {name: k for k, name in enumerate(dict.fromkeys(names))}
        rows = np.empty((len(distinct), len(self.ids)))
        mark = np.zeros(len(self.nodes), dtype=np.int64)
        for name, k in distinct.items():
            ancestors = self.hierarchy.ancestors(name)
            hits = [self.nodes[a] for a in ancestors if a in self.nodes]
            mark[hits] = 1
            shared = np.add.reduceat(mark[self.flat], self.starts)
            rows[k] = shared / (len(ancestors) + self.sizes - shared)
            mark[hits] = 0
        return rows[[distinct[name] for name in names]]


class _Distinct:
    """The corpus's distinct predications, sorted by literal.

    Distinct predication ``u`` first occurs at corpus position
    ``first[u]``; the numbers of the documents holding it, ascending, are
    ``docs[offsets[u]:offsets[u + 1]]``.
    """

    def __init__(self, index: _Index):
        literals = [format_predication(p) for p in index.predications]
        rank = {literal: u for u, literal in enumerate(sorted(set(literals)))}
        distinct = np.fromiter(map(rank.__getitem__, literals), dtype=np.intp)
        grouped = np.argsort(distinct, kind="stable")
        self.offsets = _offsets(np.bincount(distinct, minlength=len(rank)))
        self.first = grouped[self.offsets[:-1]]
        self.docs = index.doc_of[grouped]
        self.subjects = index.subjects[self.first]
        self.relations = index.relations[self.first]
        self.objects = index.objects[self.first]


class _Index:
    """Columnar form of one corpus over interned identifiers.

    Corpus position ``i`` is the ``i``-th predication when documents are
    taken in id order; document number ``d`` owns positions
    ``doc_offsets[d]`` to ``doc_offsets[d + 1]``.
    """

    def __init__(self, corpus: Corpus, concepts: Hierarchy, relations: Hierarchy):
        self.corpus = corpus
        self.doc_ids = corpus.doc_ids()
        self.predications = [p for doc_id in self.doc_ids for p in corpus[doc_id]]
        preds = self.predications
        self.doc_sizes = np.array([len(corpus[d]) for d in self.doc_ids], dtype=np.int64)
        self.doc_offsets = _offsets(self.doc_sizes)
        self.doc_of = np.repeat(np.arange(len(self.doc_ids)), self.doc_sizes)
        self.concept_vocab = _Vocabulary(
            concepts, [p.subject for p in preds] + [p.object for p in preds]
        )
        self.relation_vocab = _Vocabulary(relations, [p.relation for p in preds])
        self.subjects = self.concept_vocab.codes[:len(preds)]
        self.objects = self.concept_vocab.codes[len(preds):]
        self.relations = self.relation_vocab.codes

    @cached_property
    def distinct(self) -> _Distinct:
        return _Distinct(self)

    @cached_property
    def doc_number(self) -> dict[str, int]:
        return {doc_id: d for d, doc_id in enumerate(self.doc_ids)}


def _select(lo: np.ndarray, hi: np.ndarray, top: int) -> np.ndarray:
    """Ascending positions of every score that may rank among the ``top``
    highest, given ``lo <= score <= hi`` at each position.

    At least ``top`` positions score at least ``bar``, the ``top``-th
    largest ``lo``.  A position with ``hi < bar`` scores strictly below
    each of them, so it cannot rank among the ``top`` whatever the
    tie-break.  A position masked with ``lo = hi = -inf`` is left out as
    long as ``top`` does not exceed the number of unmasked positions.
    """
    if top < 1:
        return np.empty(0, dtype=np.intp)
    kth = len(lo) - top
    bar = np.partition(lo, kth)[kth]
    return np.flatnonzero(hi >= bar)


def _ranked(
    kept: np.ndarray, scores: np.ndarray, top: int
) -> tuple[list[int], list[float]]:
    """The ``top`` best of the ascending positions ``kept`` and their
    ``scores``: score descending, then position ascending."""
    order = np.argsort(-scores, kind="stable")[:top]
    return kept[order].tolist(), scores[order].tolist()


def _top_documents(
    pred_terms: np.ndarray,
    query_terms: np.ndarray,
    offsets: np.ndarray,
    top: int,
    skip: int | None = None,
) -> tuple[list[int], list[float]]:
    """The ``top`` documents by ``math.fsum(terms) / len(terms)`` and their
    scores, best first, ties by document number, leaving out ``skip``.

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
    eligible = len(sizes)
    if skip is not None:
        lo[skip] = hi[skip] = -np.inf
        eligible -= 1
    top = min(top, eligible)
    kept = _select(lo, hi, top)
    sums = [
        math.fsum(pred_terms[a:b].tolist() + query_terms[:, d].tolist())
        for d, a, b in zip(kept.tolist(), offsets[kept].tolist(), offsets[kept + 1].tolist())
    ]
    return _ranked(kept, np.array(sums) / sizes[kept], top)


class RetrievalEngine:
    """Similarity scoring and ranking over immutable inputs."""

    def __init__(
        self,
        concept_hierarchy: Hierarchy,
        relation_hierarchy: Hierarchy,
        config: SimConfig | None = None,
    ):
        self.concepts = concept_hierarchy
        self.relations = relation_hierarchy
        self.config = config if config is not None else SimConfig()
        self._index: _Index | None = None

    # -- scalar similarity --------------------------------------------------

    def concept_similarity(self, a: str, b: str) -> float:
        return self.concepts.similarity(a, b)

    def relation_similarity(self, a: str, b: str) -> float:
        return self.relations.similarity(a, b)

    def predication_similarity(self, p1: Predication, p2: Predication) -> float:
        return predication_similarity(
            p1, p2, self.config.weights, self.concept_similarity, self.relation_similarity
        )

    def set_similarity(self, s1: PredicationSet, s2: PredicationSet) -> float:
        return set_similarity(
            s1, s2, self.config, self.concept_similarity, self.relation_similarity
        )

    # -- columnar scoring ---------------------------------------------------

    def _index_for(self, corpus: Corpus) -> _Index:
        index = self._index
        if index is None or index.corpus is not corpus:
            self._index = index = None  # let the old index go before building the new one
            index = self._index = _Index(corpus, self.concepts, self.relations)
        return index

    def _document_terms(
        self, index: _Index, query: PredicationSet
    ) -> tuple[np.ndarray, np.ndarray]:
        """The best-match terms of every indexed document against the query,
        thresholded: one per corpus predication, and one per query member
        and document (rows follow the query's members)."""
        weights = self.config.weights
        members = query.members
        n = len(members)
        # best_in_doc[j, d]: best weighted slot sum of query member j in
        # document d; best_of_pred[i]: best of corpus predication i over
        # the query.  Both are divided by the weight total only at the end,
        # which gives the same maxima because rounding is monotone.
        best_in_doc = np.empty((n, len(index.doc_ids)))
        best_of_pred = np.zeros(len(index.predications))
        rows = max(1, BLOCK_ELEMENTS // len(index.predications))
        for lo in range(0, n, rows):
            chunk = members[lo:lo + rows]
            concept_sims = index.concept_vocab.similarity_rows(
                [p.subject for p in chunk] + [p.object for p in chunk]
            )
            relation_sims = index.relation_vocab.similarity_rows([p.relation for p in chunk])
            block = np.take(weights.ws * concept_sims[:len(chunk)], index.subjects, axis=1)
            block += np.take(weights.wr * relation_sims, index.relations, axis=1)
            block += np.take(weights.wo * concept_sims[len(chunk):], index.objects, axis=1)
            best_in_doc[lo:lo + rows] = np.maximum.reduceat(
                block, index.doc_offsets[:-1], axis=1
            )
            np.maximum(best_of_pred, block.max(axis=0), out=best_of_pred)
            del block  # free it before the next block is gathered

        tau = self.config.pair_threshold
        for terms in (best_of_pred, best_in_doc):
            terms /= weights.total
            np.putmask(terms, terms < tau, 0.0)
        return best_of_pred, best_in_doc

    # -- ranking ------------------------------------------------------------

    def _rank_documents(
        self, corpus: Corpus, query: PredicationSet, top_n: int, seed: str | None = None
    ) -> list[RankedDocument]:
        if top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {top_n}")
        index = self._index_for(corpus)
        pred_terms, query_terms = self._document_terms(index, query)
        skip = None if seed is None else index.doc_number[seed]
        top, scores = _top_documents(pred_terms, query_terms, index.doc_offsets, top_n, skip)
        return [
            RankedDocument(index.doc_ids[d], score, rank)
            for rank, (d, score) in enumerate(zip(top, scores), start=1)
        ]

    def related_documents(
        self, corpus: Corpus, seed: str, top_n: int
    ) -> list[RankedDocument]:
        """Rank all other documents against the seed's predication set."""
        if seed not in corpus.docs:
            if seed in corpus.skipped:
                raise EmptySetError(f"seed document {seed!r} has no predications")
            raise UnknownDocumentError(f"unknown seed document {seed!r}")
        return self._rank_documents(corpus, corpus[seed], top_n, seed)

    def query_documents(
        self, corpus: Corpus, query: PredicationSet, top_n: int
    ) -> list[RankedDocument]:
        """Rank every document against an ad-hoc predication set."""
        if len(query) == 0:
            raise EmptySetError("query predication set is empty")
        return self._rank_documents(corpus, query, top_n)

    def related_predications(
        self, corpus: Corpus, pattern: PredicationPattern, top_k: int
    ) -> list[RankedPredication]:
        """Rank every distinct corpus predication against the pattern.

        The score is ``pattern_similarity``: the bound slots' weighted
        similarities summed in subject, relation, object order over the
        sum of their weights.
        """
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        weights = self.config.weights
        denominator = bound_weight(pattern, weights)
        index = self._index_for(corpus)
        distinct = index.distinct
        numerator = 0.0
        for name, weight, vocab, codes in (
            (pattern.subject, weights.ws, index.concept_vocab, distinct.subjects),
            (pattern.relation, weights.wr, index.relation_vocab, distinct.relations),
            (pattern.object, weights.wo, index.concept_vocab, distinct.objects),
        ):
            if name is not None:
                sims = vocab.similarity_rows([name])[0]
                numerator = numerator + np.take(weight * sims, codes)
        scores = numerator / denominator
        kept = _select(scores, scores, min(top_k, len(scores)))
        top, top_scores = _ranked(kept, scores[kept], top_k)
        offsets = distinct.offsets
        return [
            RankedPredication(
                index.predications[distinct.first[u]],
                score,
                rank,
                tuple(
                    index.doc_ids[d]
                    for d in distinct.docs[offsets[u]:offsets[u + 1]].tolist()
                ),
            )
            for rank, (u, score) in enumerate(zip(top, top_scores), start=1)
        ]
