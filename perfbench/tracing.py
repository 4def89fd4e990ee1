"""In-memory tracer that wraps ``predsim``'s public functions from outside.

Coarse boundaries (loads, retrieval queries, ``run_eval``, ``cli.main`` and
the benchmark's own operations) are recorded as spans with a parent link.
Hot boundaries (per-pair and per-lookup calls) are only aggregated: call
count, self time and, where useful, a work count.  Self time is a call's
duration minus the time spent in wrapped calls nested inside it, so time
in an unwrapped helper counts towards the nearest wrapped caller.

A function is wrapped at every ``predsim`` module that holds it, so a
``from .x import f`` copy is wrapped as well.  A target that no longer
exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import dataclass, field

# (defining module, attribute path, key, hot?)
TARGETS = (
    ("predsim.ontology", "load_hierarchy_file", "ontology.load", False),
    ("predsim.corpus", "load_predications_file", "corpus.load", False),
    ("predsim.corpus", "load_gold_file", "corpus.load_gold", False),
    ("predsim.ontology", "Hierarchy.similarity", "ontology.similarity", True),
    ("predsim.ontology", "Hierarchy.ancestors", "ontology.ancestors", True),
    ("predsim.corpus", "SimCache.lookup_or_compute", "corpus.cache", True),
    ("predsim.predication", "predication_similarity", "predication.pair", True),
    ("predsim.predication", "pattern_similarity", "predication.pattern", True),
    ("predsim.docsim", "set_similarity", "docsim.set_similarity", True),
    ("predsim.retrieval", "RetrievalEngine.related_documents", "retrieval", False),
    ("predsim.retrieval", "RetrievalEngine.query_documents", "retrieval", False),
    ("predsim.retrieval", "RetrievalEngine.related_predications", "retrieval", False),
    ("predsim.evaluation", "run_eval", "evaluation", False),
    ("predsim.cli", "main", "cli", False),
)

# Per-candidate calls a retrieval query makes directly.
CANDIDATE_KEYS = (
    "docsim.set_similarity@predsim.retrieval",
    "predication.pair@predsim.retrieval",
    "predication.pattern@predsim.retrieval",
)


@dataclass
class Hot:
    calls: int = 0
    self_s: float = 0.0
    work: int = 0


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    self_s: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.hot: dict[str, Hot] = {}
        self.absent: list[str] = []
        self._stack: list[list] = [[0.0, None]]  # [child seconds, span id]
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, path, key, hot in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            if owner_name:  # a method: patch the class once
                self._patch(owner, attr, self._wrap(original, key, hot, module_name))
                continue
            for site_name, site in list(sys.modules.items()):
                if site_name.split(".")[0] == "predsim" and getattr(site, attr, None) is original:
                    self._patch(site, attr, self._wrap(original, key, hot, site_name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, key: str, hot: bool, site: str):
        if not hot:
            return self._span_wrapper(fn, key)
        record = self.hot.setdefault(f"{key}@{site}", Hot())
        stack = self._stack
        clock = time.perf_counter

        if key == "corpus.cache":
            # A lookup that grows the cache was a miss: work counts misses.
            def wrapped(cache, *args, **kwargs):
                frame = [0.0, None]
                stack.append(frame)
                before = len(cache)
                t0 = clock()
                try:
                    return fn(cache, *args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    stack.pop()
                    record.calls += 1
                    record.self_s += elapsed - frame[0]
                    record.work += len(cache) - before
                    stack[-1][0] += elapsed

            return wrapped

        count_pairs = key == "docsim.set_similarity"

        def wrapped(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                record.calls += 1
                record.self_s += elapsed - frame[0]
                if count_pairs:
                    record.work += len(args[0]) * len(args[1])
                stack[-1][0] += elapsed

        return wrapped

    def _span_wrapper(self, fn, key: str):
        def wrapped(*args, **kwargs):
            with self.span(key) as attrs:
                result = fn(*args, **kwargs)
                _describe(key, result, attrs)
                return result
        return wrapped

    # -- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a coarse span around the block; yields its attribute dict."""
        parent = self._stack[-1]
        span = Span(len(self.spans), parent[1], name, time.perf_counter() - self._origin)
        self.spans.append(span)
        frame = [0.0, span.id]
        self._stack.append(frame)
        candidates = self.candidate_calls() if name == "retrieval" else 0
        try:
            yield span.attrs
        finally:
            span.end = time.perf_counter() - self._origin
            elapsed = span.end - span.start
            self._stack.pop()
            span.self_s = elapsed - frame[0]
            self._stack[-1][0] += elapsed
            if name == "retrieval":
                span.attrs["candidates"] = self.candidate_calls() - candidates

    def candidate_calls(self) -> int:
        return sum(self.hot[k].calls for k in CANDIDATE_KEYS if k in self.hot)

    def to_json(self) -> dict:
        return {
            "absent": self.absent,
            "hot": {k: vars(v) for k, v in sorted(self.hot.items())},
            "spans": [vars(s) for s in self.spans],
        }


def _describe(key: str, result, attrs: dict) -> None:
    """Work counts a coarse call's result reveals."""
    if key == "corpus.load":
        attrs["records"] = result.stats.predications + result.stats.duplicates_dropped
        attrs["duplicates_dropped"] = result.stats.duplicates_dropped
    elif key == "corpus.load_gold":
        attrs["records"] = sum(len(result[s]) for s in result.seeds())


# name -> (unit, trace keys it needs)
PER_LAYER = {
    "corpus.load_s": ("s", ("corpus.load",)),
    "corpus.records_per_s": ("1/s", ("corpus.load",)),
    "corpus.duplicates_dropped": ("count", ("corpus.load",)),
    "corpus.cache_lookups": ("count", ("corpus.cache",)),
    "corpus.cache_hit_ratio": ("ratio", ("corpus.cache",)),
    "corpus.cache_entries": ("count", ("corpus.cache",)),
    "corpus.cache_self_s": ("s", ("corpus.cache",)),
    "ontology.load_s": ("s", ("ontology.load",)),
    "ontology.similarity_calls": ("count", ("ontology.similarity",)),
    "ontology.similarity_self_s": ("s", ("ontology.similarity",)),
    "ontology.ancestors_calls": ("count", ("ontology.ancestors",)),
    "ontology.ancestors_self_s": ("s", ("ontology.ancestors",)),
    "predication.pairs_scored": ("count", ("predication.pair",)),
    "predication.pattern_pairs_scored": ("count", ("predication.pattern",)),
    "predication.self_s": ("s", ("predication.pair", "predication.pattern")),
    "docsim.set_similarity_calls": ("count", ("docsim.set_similarity",)),
    "docsim.pairs_per_call": ("count", ("docsim.set_similarity",)),
    "docsim.self_s": ("s", ("docsim.set_similarity",)),
    "retrieval.self_s": ("s", ("retrieval",)),
    "retrieval.candidates_per_op": ("count", ("retrieval",)),
    "evaluation.self_s": ("s", ("evaluation",)),
    "cli.self_s": ("s", ("cli",)),
    "trace.overhead_frac": ("ratio", ()),
}


def per_layer_metrics(tracer: Tracer, overhead_frac: float) -> tuple[dict, list[str]]:
    """Per-layer metrics derived from one traced pass, and those absent."""
    absent_keys = {
        key for module, path, key, _ in TARGETS if f"{module}.{path}" in tracer.absent
    }

    def hot(key: str) -> Hot:
        total = Hot()
        for name, rec in tracer.hot.items():
            if name.split("@")[0] == key:
                total.calls += rec.calls
                total.self_s += rec.self_s
                total.work += rec.work
        return total

    def spans(name: str) -> list[Span]:
        return [s for s in tracer.spans if s.name == name]

    corpus_loads = spans("corpus.load") + spans("corpus.load_gold")
    load_s = sum(s.end - s.start for s in corpus_loads)
    records = sum(s.attrs["records"] for s in corpus_loads)
    cache = hot("corpus.cache")
    pair, pattern = hot("predication.pair"), hot("predication.pattern")
    docsim = hot("docsim.set_similarity")
    retrieval = spans("retrieval")
    values = {
        "corpus.load_s": load_s,
        "corpus.records_per_s": records / load_s if load_s else 0.0,
        "corpus.duplicates_dropped": max(
            (s.attrs["duplicates_dropped"] for s in spans("corpus.load")), default=0
        ),
        "corpus.cache_lookups": cache.calls,
        "corpus.cache_hit_ratio": 1 - cache.work / cache.calls if cache.calls else 0.0,
        "corpus.cache_entries": cache.work,
        "corpus.cache_self_s": cache.self_s,
        "ontology.load_s": sum(s.end - s.start for s in spans("ontology.load")),
        "ontology.similarity_calls": hot("ontology.similarity").calls,
        "ontology.similarity_self_s": hot("ontology.similarity").self_s,
        "ontology.ancestors_calls": hot("ontology.ancestors").calls,
        "ontology.ancestors_self_s": hot("ontology.ancestors").self_s,
        "predication.pairs_scored": pair.calls,
        "predication.pattern_pairs_scored": pattern.calls,
        "predication.self_s": pair.self_s + pattern.self_s,
        "docsim.set_similarity_calls": docsim.calls,
        "docsim.pairs_per_call": docsim.work / docsim.calls if docsim.calls else 0.0,
        "docsim.self_s": docsim.self_s,
        "retrieval.self_s": sum(s.self_s for s in retrieval),
        "retrieval.candidates_per_op": (
            sum(s.attrs["candidates"] for s in retrieval) / len(retrieval) if retrieval else 0.0
        ),
        "evaluation.self_s": sum(s.self_s for s in spans("evaluation")),
        "cli.self_s": sum(s.self_s for s in spans("cli")),
        "trace.overhead_frac": overhead_frac,
    }
    metrics, absent = {}, []
    for name, (unit, keys) in PER_LAYER.items():
        if any(k in absent_keys for k in keys):
            absent.append(name)
            metrics[name] = {"value": 0, "unit": unit}
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    return metrics, absent
