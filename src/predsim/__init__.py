"""Ontology-aware document retrieval over subject-relation-object predications.

Documents are represented as sets of predications.  Similarity cascades
through three levels: identifier pairs (Jaccard overlap of ancestor sets
in a hierarchy), predication pairs (weighted slot average), and
predication sets (bidirectional best-match average).  Retrieval ranks
documents or predications by these scores, and the evaluation module
sweeps precision/recall/F against a gold standard.
"""

from .corpus import (
    Corpus,
    CorpusStats,
    GoldStandard,
    load_gold_file,
    load_predications_file,
    parse_gold,
    parse_predications,
    write_predications_file,
)
from .docsim import SimConfig, set_similarity
from .errors import EmptySetError, LoadError, UnknownDocumentError
from .evaluation import (
    EvalReport,
    Metrics,
    f_measure,
    precision_at,
    recall_at,
    run_eval,
)
from .ontology import Hierarchy, load_hierarchy_file, parse_hierarchy
from .predication import (
    WILDCARD,
    Predication,
    PredicationPattern,
    PredicationSet,
    SimWeights,
    format_pattern,
    format_predication,
    parse_pattern,
    parse_predication,
    pattern_similarity,
    predication_similarity,
)
from .retrieval import RankedDocument, RankedPredication, RetrievalEngine

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "CorpusStats",
    "EmptySetError",
    "EvalReport",
    "GoldStandard",
    "Hierarchy",
    "LoadError",
    "Metrics",
    "Predication",
    "PredicationPattern",
    "PredicationSet",
    "RankedDocument",
    "RankedPredication",
    "RetrievalEngine",
    "SimConfig",
    "SimWeights",
    "UnknownDocumentError",
    "WILDCARD",
    "f_measure",
    "format_pattern",
    "format_predication",
    "load_gold_file",
    "load_hierarchy_file",
    "load_predications_file",
    "parse_gold",
    "parse_hierarchy",
    "parse_pattern",
    "parse_predication",
    "parse_predications",
    "pattern_similarity",
    "precision_at",
    "predication_similarity",
    "recall_at",
    "run_eval",
    "set_similarity",
    "write_predications_file",
]
