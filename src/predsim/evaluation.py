"""Precision / recall / F-measure sweeps against a gold standard.

For each gold seed, the engine retrieves the top max(n_values) documents
once; every cutoff n then scores the length-n prefix of that ranking:

    precision@n = |top-n retrieved & relevant| / |top-n retrieved|
    recall@n    = |top-n retrieved & relevant| / |relevant|
    F@n         = 2 * P * R / (P + R), defined as 0 when P + R = 0

The relevant set for a seed is its gold list restricted to documents
actually present in the corpus; gold entries naming absent documents are
dropped with a warning, and a seed whose relevant set ends up empty is
skipped from the macro average (also with a warning).  Reported
aggregates are macro averages: the arithmetic mean of per-seed values at
each cutoff.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from ._input import check_count, warn
from .corpus import Corpus, GoldStandard
from .errors import UnknownDocumentError
from .retrieval import RetrievalEngine


class Metrics(NamedTuple):
    precision: float
    recall: float
    f_measure: float


def precision_at(retrieved: Sequence[str], relevant: Collection[str], n: int) -> float:
    """Fraction of the top-n retrieved documents that are relevant.

    ``retrieved`` must already be deduplicated.  When fewer than n
    documents were retrieved, the actual count is the denominator; zero
    retrieved documents give 0 with a warning.
    """
    n = check_count(n, "n")
    top = retrieved[:n]
    if not top:
        warn("precision over zero retrieved documents; defined as 0")
        return 0.0
    hits = sum(1 for doc in top if doc in relevant)
    return hits / len(top)


def recall_at(retrieved: Sequence[str], relevant: Collection[str], n: int) -> float:
    """Fraction of the relevant documents found in the top-n retrieved."""
    n = check_count(n, "n")
    if not relevant:
        raise ValueError("recall requires a non-empty relevant set")
    top = retrieved[:n]
    hits = sum(1 for doc in top if doc in relevant)
    return hits / len(relevant)


def f_measure(p: float, r: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if p + r == 0:
        return 0.0
    return 2 * p * r / (p + r)


@dataclass(frozen=True)
class EvalReport:
    """Per-seed and macro-averaged metrics at each evaluated cutoff."""

    n_values: tuple[int, ...]
    per_seed: Mapping[str, Mapping[int, Metrics]]
    macro: Mapping[int, Metrics]
    skipped_seeds: tuple[str, ...]

    def to_csv(self) -> str:
        """One row per cutoff of the macro averages."""
        return _csv(["n"], (((n,), self.macro[n]) for n in self.n_values))

    def per_seed_csv(self) -> str:
        """One row per seed and cutoff; a seed id holding ``,`` or ``"``
        is quoted, so that a CSV reader reads it back as written."""
        rows = (((seed, n), by_n[n]) for seed, by_n in self.per_seed.items() for n in self.n_values)
        return _csv(["seed", "n"], rows)


def _csv(keys: list[str], rows: Iterable[tuple[tuple, Metrics]]) -> str:
    """CSV text: a header of the ``keys`` columns and the metric names, then
    per ``(key values, metrics)`` row its key values and each metric to 4
    decimals.  A value holding ``,`` or ``"`` is quoted; numbers never are."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([*keys, *Metrics._fields])
    for key, metrics in rows:
        writer.writerow([*key, *(f"{value:.4f}" for value in metrics)])
    return out.getvalue()


def run_eval(
    engine: RetrievalEngine,
    corpus: Corpus,
    gold: GoldStandard,
    n_values: Iterable[int],
) -> EvalReport:
    """Sweep precision/recall/F over the gold standard at each cutoff."""
    cutoffs = tuple(sorted({check_count(n, "cutoff in n_values") for n in n_values}))
    if not cutoffs:
        raise ValueError("n_values must contain at least one cutoff")
    seeds = gold.seeds()
    missing = [s for s in seeds if s not in corpus]
    if missing:
        raise UnknownDocumentError(
            f"gold seeds missing from corpus: {', '.join(missing)}"
        )
    top = cutoffs[-1]
    per_seed: dict[str, Mapping[int, Metrics]] = {}
    skipped: list[str] = []
    for seed in seeds:
        gold_list = gold[seed]
        relevant = {d for d in gold_list if d in corpus}
        absent = [d for d in gold_list if d not in corpus]
        if absent:
            warn(
                f"seed {seed!r}: {len(absent)} gold documents absent from corpus "
                f"({', '.join(absent[:5])}); dropped from the relevant set"
            )
        if not relevant:
            warn(
                f"seed {seed!r}: no gold documents present in corpus; "
                "skipped from macro average"
            )
            skipped.append(seed)
            continue
        retrieved = [r.doc_id for r in engine.related_documents(corpus, seed, top)]
        by_n = {}
        for n in cutoffs:
            p = precision_at(retrieved, relevant, n)
            r = recall_at(retrieved, relevant, n)
            by_n[n] = Metrics(p, r, f_measure(p, r))
        per_seed[seed] = MappingProxyType(by_n)
    if not per_seed:
        raise ValueError("no evaluable seeds: every seed's relevant set was empty")
    # Each field's per-seed values, in seed order, summed exactly.
    count = len(per_seed)
    macro = {
        n: Metrics(*(math.fsum(field) / count for field in zip(*(m[n] for m in per_seed.values()))))
        for n in cutoffs
    }
    return EvalReport(
        n_values=cutoffs,
        per_seed=MappingProxyType(per_seed),
        macro=MappingProxyType(macro),
        skipped_seeds=tuple(skipped),
    )
