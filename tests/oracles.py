"""Brute-force reference implementations used as independent oracles.

Everything here works on plain tuples and dicts, never on the package's
own types, so a bug in the library cannot hide inside its oracle.
Identifier similarity is recomputed from scratch with a boolean-matrix
transitive closure; triple and set similarity are written out directly
from their defining formulas.
"""

from __future__ import annotations

import math

import numpy as np


def closure_ancestor_sets(
    nodes: list[str], edges: list[tuple[str, str]]
) -> dict[str, frozenset[str]]:
    """Self-inclusive ancestor sets via repeated boolean matrix products."""
    names = sorted(set(nodes))
    index = {n: i for i, n in enumerate(names)}
    k = len(names)
    adj = np.zeros((k, k), dtype=bool)
    for child, parent in edges:
        adj[index[child], index[parent]] = True
    reach = np.eye(k, dtype=bool)
    while True:
        grown = reach | (reach @ adj)
        if (grown == reach).all():
            break
        reach = grown
    return {
        n: frozenset(names[j] for j in np.flatnonzero(reach[index[n]])) for n in names
    }


def make_identifier_sim(nodes: list[str], edges: list[tuple[str, str]]):
    """Jaccard of closure ancestor sets; unknown identifiers map to {self}."""
    ancestor_sets = closure_ancestor_sets(nodes, edges)

    def sim(a: str, b: str) -> float:
        sa = ancestor_sets.get(a, frozenset([a]))
        sb = ancestor_sets.get(b, frozenset([b]))
        return len(sa & sb) / len(sa | sb)

    return sim


def make_triple_sim(concept_sim, relation_sim, ws=1.0, wr=1.0, wo=1.0):
    def sim(p: tuple[str, str, str], q: tuple[str, str, str]) -> float:
        weighted = (
            ws * concept_sim(p[0], q[0])
            + wr * relation_sim(p[1], q[1])
            + wo * concept_sim(p[2], q[2])
        )
        return weighted / (ws + wr + wo)

    return sim


def set_sim_bruteforce(set1, set2, triple_sim, tau: float = 0.0) -> float:
    """Direct evaluation of the bidirectional best-match average."""
    terms = []
    for p in set1:
        best = max(triple_sim(p, q) for q in set2)
        terms.append(best if best >= tau else 0.0)
    for q in set2:
        best = max(triple_sim(p, q) for p in set1)
        terms.append(best if best >= tau else 0.0)
    return math.fsum(terms) / (len(set1) + len(set2))


def related_docs_bruteforce(
    docs: dict[str, list[tuple[str, str, str]]],
    seed: str,
    triple_sim,
    tau: float = 0.0,
    top_n: int | None = None,
) -> list[tuple[str, float]]:
    """Score every other document against the seed and sort like retrieval."""
    scored = []
    for doc_id in sorted(docs):
        if doc_id == seed:
            continue
        scored.append((doc_id, set_sim_bruteforce(docs[seed], docs[doc_id], triple_sim, tau)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:top_n] if top_n is not None else scored


def random_dag(rng: np.random.Generator, max_nodes: int = 20, max_edges: int = 40):
    """Random DAG as (nodes, child->parent edges); edges point to higher indices."""
    n = int(rng.integers(2, max_nodes + 1))
    names = [f"n{i:02d}" for i in range(n)]
    edges = set()
    for _ in range(int(rng.integers(0, max_edges + 1))):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        lo, hi = (int(i), int(j)) if i < j else (int(j), int(i))
        edges.add((names[lo], names[hi]))
    return names, sorted(edges)


def random_corpus(
    rng: np.random.Generator,
    concept_nodes: list[str],
    relation_nodes: list[str],
    max_docs: int = 10,
    max_preds: int = 5,
) -> dict[str, list[tuple[str, str, str]]]:
    """Random documents as lists of distinct (subject, relation, object) tuples."""
    n_docs = int(rng.integers(2, max_docs + 1))
    docs: dict[str, list[tuple[str, str, str]]] = {}
    for d in range(n_docs):
        n_preds = int(rng.integers(1, max_preds + 1))
        triples = set()
        for _ in range(n_preds):
            s = concept_nodes[int(rng.integers(0, len(concept_nodes)))]
            r = relation_nodes[int(rng.integers(0, len(relation_nodes)))]
            o = concept_nodes[int(rng.integers(0, len(concept_nodes)))]
            triples.add((s, r, o))
        docs[f"d{d:02d}"] = sorted(triples)
    return docs


def random_cyclic_graph(
    rng: np.random.Generator, max_nodes: int = 20, max_edges: int = 40
):
    """Random child->parent graph with at least one cycle and a chain of
    two nodes hanging below it; other arcs point either way."""
    n = int(rng.integers(3, max_nodes + 1))
    names = [f"n{i:02d}" for i in range(n)]
    edges = set()
    for _ in range(int(rng.integers(0, max_edges + 1))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.add((names[int(i)], names[int(j)]))
    ring = [names[int(i)] for i in rng.permutation(n)[: int(rng.integers(2, min(n, 5) + 1))]]
    edges.update(zip(ring, ring[1:] + ring[:1]))
    edges.update([("below1", "below0"), ("below0", ring[0])])
    return names + ["below0", "below1"], sorted(edges)
