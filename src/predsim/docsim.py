"""Similarity between two predication sets (document-level kernel).

For sets S1 (m members) and S2 (n members), every predication in each set
is matched with its best counterpart in the other set and the m+n maxima
are averaged:

    sim(S1, S2) = ( sum_{k in S1} max_{p in S2} sim(k, p)
                  + sum_{p in S2} max_{k in S1} sim(k, p) ) / (m + n)

The full m*n pairwise matrix is computed once; both directional maxima
are reduced from it.  An optional pair threshold tau zeroes any best-match
term that falls below it (strictly below, so tau = 0 recovers the plain
formula) while keeping the m+n denominator, which makes the score
non-increasing in tau.

The m+n best-match terms are totalled with ``math.fsum``, whose result
does not depend on summation order, so the score is exactly symmetric in
its two arguments and bit-identical across runs.  This function is the
scalar definition of the document score; the columnar kernel in
``retrieval`` reproduces it bit for bit when ranking a corpus.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from ._input import check_type
from .errors import EmptySetError
from .predication import (
    PredicationSet,
    SimilarityFn,
    SimWeights,
    predication_similarity,
)


@dataclass(frozen=True)
class SimConfig:
    """Weights and pair threshold for similarity scoring."""

    weights: SimWeights = field(default_factory=SimWeights)
    pair_threshold: float = 0.0

    def __post_init__(self):
        check_type("weights", self.weights, SimWeights)
        check_type("pair_threshold", self.pair_threshold, numbers.Real)
        if not 0.0 <= self.pair_threshold <= 1.0:
            raise ValueError(
                f"pair_threshold must be in [0, 1], got {self.pair_threshold!r}"
            )


def set_similarity(
    s1: PredicationSet,
    s2: PredicationSet,
    config: SimConfig,
    concept_sim: SimilarityFn,
    relation_sim: SimilarityFn,
) -> float:
    """Bidirectional best-match average between two non-empty sets."""
    m = len(s1)
    n = len(s2)
    if m == 0 or n == 0:
        raise EmptySetError("set similarity requires two non-empty predication sets")
    weights = config.weights
    matrix = [
        [predication_similarity(p, q, weights, concept_sim, relation_sim) for q in s2]
        for p in s1
    ]
    row_max = [max(row) for row in matrix]
    col_max = [max(matrix[i][j] for i in range(m)) for j in range(n)]
    tau = config.pair_threshold
    terms = [best if best >= tau else 0.0 for best in row_max]
    terms += [best if best >= tau else 0.0 for best in col_max]
    return math.fsum(terms) / (m + n)
