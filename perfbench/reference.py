"""Brute-force reference for the benchmark's correctness spot checks.

Reads the generated files itself and recomputes scores straight from the
defining formulas, sharing no code with ``predsim``'s scoring path:
ancestor sets by depth-first closure, identifier similarity as Jaccard,
predication similarity as the weighted slot average (all weights 1), and
document similarity as the bidirectional best-match average.
"""

from __future__ import annotations

import math
from pathlib import Path

Triple = tuple[str, str, str]
TOLERANCE = 1e-9


def read_rows(path: Path, n_fields: int) -> list[list[str]]:
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
                fields = line.split("\t")
                if len(fields) != n_fields:
                    raise ValueError(f"{path}: expected {n_fields} fields: {line!r}")
                rows.append(fields)
    return rows


class IdentifierSim:
    """Jaccard overlap of self-inclusive ancestor sets."""

    def __init__(self, edges: list[list[str]]):
        self.parents: dict[str, list[str]] = {}
        for child, parent in edges:
            self.parents.setdefault(child, []).append(parent)
        self._anc: dict[str, frozenset[str]] = {}
        self._memo: dict[tuple[str, str], float] = {}

    def ancestors(self, node: str) -> frozenset[str]:
        if node not in self._anc:
            seen = {node}
            todo = [node]
            while todo:
                for parent in self.parents.get(todo.pop(), ()):
                    if parent not in seen:
                        seen.add(parent)
                        todo.append(parent)
            self._anc[node] = frozenset(seen)
        return self._anc[node]

    def __call__(self, a: str, b: str) -> float:
        key = (a, b)
        if key not in self._memo:
            sa, sb = self.ancestors(a), self.ancestors(b)
            self._memo[key] = len(sa & sb) / len(sa | sb)
        return self._memo[key]


class Reference:
    """Documents, occurrences, gold lists and scorers for one input directory."""

    def __init__(self, inputs: Path):
        self.concept = IdentifierSim(read_rows(inputs / "concepts.tsv", 2))
        self.relation = IdentifierSim(read_rows(inputs / "relations.tsv", 2))
        docs: dict[str, set[Triple]] = {}
        for doc, s, r, o in read_rows(inputs / "predications.tsv", 4):
            docs.setdefault(doc, set()).add((s, r, o))
        self.docs: dict[str, list[Triple]] = {d: sorted(p) for d, p in sorted(docs.items())}
        occurrences: dict[Triple, list[str]] = {}
        for doc, preds in self.docs.items():
            for p in preds:
                occurrences.setdefault(p, []).append(doc)
        self.occurrences = occurrences
        self.gold: dict[str, set[str]] = {}
        if (inputs / "gold.tsv").exists():
            for seed, related, _ in read_rows(inputs / "gold.tsv", 3):
                self.gold.setdefault(seed, set()).add(related)
        self._rankings: dict[tuple, list[tuple[str, float]]] = {}

    def triple(self, p: Triple, q: Triple) -> float:
        return (
            self.concept(p[0], q[0]) + self.relation(p[1], q[1]) + self.concept(p[2], q[2])
        ) / 3.0

    def pattern(self, pattern: tuple[str | None, ...], p: Triple) -> float:
        sims = (self.concept, self.relation, self.concept)
        bound = [sims[i](pattern[i], p[i]) for i in range(3) if pattern[i] is not None]
        total = 0.0
        for value in bound:
            total += value
        return total / float(len(bound))

    def doc_sim(self, a: list[Triple], b: list[Triple]) -> float:
        terms = [max(self.triple(p, q) for q in b) for p in a]
        terms += [max(self.triple(p, q) for p in a) for q in b]
        return math.fsum(terms) / (len(a) + len(b))

    def related(self, seed: str, top: int) -> list[tuple[str, float]]:
        """Top documents for a seed document, scoring every other one."""
        key = (seed, top)
        if key not in self._rankings:
            query = self.docs[seed]
            scored = [(d, self.doc_sim(p, query)) for d, p in self.docs.items() if d != seed]
            scored.sort(key=lambda item: (-item[1], item[0]))
            self._rankings[key] = scored[:top]
        return self._rankings[key]


def check_ranking(
    got: list[tuple[str, float]],
    expected_len: int,
    score_of,
    outsiders: list[str],
) -> list[str]:
    """Problems with a top-n list of ``(key, score)`` pairs.

    Each listed score must match ``score_of(key)``; the list must follow the
    engine's order (score descending, then key ascending); and no sampled
    outsider may outrank the last entry.
    """
    problems = []
    if len(got) != expected_len:
        problems.append(f"expected {expected_len} results, got {len(got)}")
    ref_scores = []
    for key, score in got:
        ref = score_of(key)
        ref_scores.append(ref)
        if abs(ref - score) > TOLERANCE:
            problems.append(f"{key}: score {score!r} != reference {ref!r}")
    for (k1, s1), (k2, s2) in zip(got, got[1:]):
        if s2 > s1 or (s2 == s1 and k2 < k1):
            problems.append(f"{k2} is listed after {k1} out of order")
    if got:
        last_key, last = got[-1][0], ref_scores[-1]
        listed = {k for k, _ in got}
        for key in outsiders:
            if key in listed:
                continue
            s = score_of(key)
            if s > last + TOLERANCE or (s == last and key < last_key):
                problems.append(f"{key} (score {s!r}) outranks the last result")
    return problems
