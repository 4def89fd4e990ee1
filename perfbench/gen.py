"""Seeded input generator for the predsim benchmark.

Writes, for one workload and one seed, the files the program reads
(``concepts.tsv``, ``relations.tsv``, ``predications.tsv`` and, for
``eval-cli``, ``gold.tsv``) plus two files only the benchmark reads:
``ops.json`` (the operation list) and ``sizes.json`` (input descriptors).

Shape of the inputs:

- Concept and relation hierarchies are layered polyhierarchies of bounded
  depth (``CONCEPT_DEPTH`` = 10 levels for concepts, 3 for relations, as in
  MeSH-like ontologies).  Each non-root node has 1-3 parents on the level
  directly above, chosen near its own position so ancestor sets stay in
  the tens, not the hundreds.  Depth drives the cost of ancestor closure
  and Jaccard, so it is fixed, not drawn.
- Concept and relation use is Zipf-skewed (weight 1/rank) over a seeded
  permutation of the vocabulary.
- Document sizes follow a log-normal law with mean about 10.  The sizes
  are the law's quantiles, shuffled by the seed, so every seed has the same
  size multiset and per-operation costs stay comparable across seeds.
- Documents belong to planted topic clusters of about 20.  Half of each
  slot value comes from the topic's own concepts and relations, so a
  document's topic mates are its gold related documents: precision and
  recall land between 0 and 1.
- ``adhoc-10k`` adds a few very large documents with planted duplicate
  lines, which the loader must drop.

Only ``random.Random.random`` is used, so the bytes written depend on the
seed alone.  Run as ``python3 perfbench/gen.py --workload NAME --seed N
--ops N --out DIR``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import random
import statistics
from pathlib import Path

CONCEPT_DEPTH = 10
RELATION_DEPTH = 3
TOPIC_SIZE = 20
MEAN_DOC_SIZE = 10.0
DOC_SIZE_SIGMA = 0.6

# name -> (concepts, relations, documents, large document sizes, gold seeds)
SHAPES = {
    "related-1k": (2000, 40, 1000, (), 0),
    "adhoc-10k": (20000, 40, 10000, (3000, 2000, 1500), 0),
    "eval-cli": (2000, 40, 1000, (), 10),
}
LARGE_DOC_DUPLICATE_SHARE = 0.1


class Rng:
    """``random.random`` plus the few draws built on it."""

    def __init__(self, seed: int):
        self._r = random.Random(seed)
        self.random = self._r.random

    def below(self, n: int) -> int:
        return min(int(self.random() * n), n - 1)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


class Zipf:
    """Draws items with probability proportional to 1/rank."""

    def __init__(self, items: list[str], rng: Rng):
        self.items = list(items)
        rng.shuffle(self.items)
        self.cdf = []
        total = 0.0
        for rank in range(1, len(self.items) + 1):
            total += 1.0 / rank
            self.cdf.append(total)
        self.total = total

    def draw(self, rng: Rng) -> str:
        i = bisect.bisect_left(self.cdf, rng.random() * self.total)
        return self.items[min(i, len(self.items) - 1)]


def layered_hierarchy(
    prefix: str, n_nodes: int, depth: int, rng: Rng
) -> tuple[list[list[str]], list[tuple[str, str]]]:
    """Levels of node ids and child->parent edges of a bounded-depth DAG.

    Level sizes grow geometrically; level 0 holds the roots.  A node's
    first parent sits at the same relative position on the level above,
    and extra parents (one with probability 0.3, two with 0.1) lie within a
    few positions of it.
    """
    growth = 1.8
    weights = [growth**level for level in range(depth)]
    scale = n_nodes / sum(weights)
    sizes = [max(2, round(w * scale)) for w in weights]
    sizes[-1] += n_nodes - sum(sizes)
    width = len(str(n_nodes))
    levels: list[list[str]] = []
    counter = 0
    for size in sizes:
        levels.append([f"{prefix}{counter + i:0{width}d}" for i in range(size)])
        counter += size
    edges = []
    for level in range(1, depth):
        above = levels[level - 1]
        for pos, node in enumerate(levels[level]):
            centre = pos * len(above) // len(levels[level])
            u = rng.random()
            extra = 2 if u < 0.1 else 1 if u < 0.4 else 0
            parents = [above[centre]]
            while len(parents) < 1 + extra and len(parents) < len(above):
                offset = rng.below(7) - 3
                cand = above[min(max(centre + offset, 0), len(above) - 1)]
                if cand not in parents:
                    parents.append(cand)
            edges.extend((node, p) for p in parents)
    return levels, edges


def mean_ancestor_set_size(edges: list[tuple[str, str]], nodes: list[str]) -> float:
    parents: dict[str, list[str]] = {}
    for child, parent in edges:
        parents.setdefault(child, []).append(parent)
    memo: dict[str, frozenset[str]] = {}

    def ancestors(node: str) -> frozenset[str]:
        # Parents are always on the level above, so recursion depth is
        # bounded by the hierarchy depth.
        if node not in memo:
            acc = {node}
            for p in parents.get(node, ()):
                acc |= ancestors(p)
            memo[node] = frozenset(acc)
        return memo[node]

    return statistics.fmean(len(ancestors(n)) for n in nodes)


def lognormal_sizes(n: int) -> list[int]:
    mu = math.log(MEAN_DOC_SIZE) - DOC_SIZE_SIGMA**2 / 2
    law = statistics.NormalDist(mu, DOC_SIZE_SIGMA)
    return [max(1, round(math.exp(law.inv_cdf((i + 0.5) / n)))) for i in range(n)]


def generate(workload: str, seed: int, n_ops: int, out: Path) -> dict:
    n_concepts, n_relations, n_docs, large_sizes, n_gold = SHAPES[workload]
    rng = Rng(seed)
    c_levels, c_edges = layered_hierarchy("C", n_concepts, CONCEPT_DEPTH, rng)
    r_levels, r_edges = layered_hierarchy("R", n_relations, RELATION_DEPTH, rng)
    concepts = [c for level in c_levels for c in level]
    relations = [r for level in r_levels for r in level]
    concept_zipf = Zipf(concepts, rng)
    relation_zipf = Zipf(relations, rng)
    deep_concepts = [c for level in c_levels[CONCEPT_DEPTH // 2 :] for c in level]

    sizes = lognormal_sizes(n_docs)
    rng.shuffle(sizes)
    width = len(str(n_docs))
    doc_ids = [f"D{i:0{width}d}" for i in range(n_docs)]
    n_topics = max(1, n_docs // TOPIC_SIZE)
    topic_of = [i % n_topics for i in range(n_docs)]
    rng.shuffle(topic_of)
    topics = [
        (
            [deep_concepts[rng.below(len(deep_concepts))] for _ in range(6)],
            [relations[rng.below(len(relations))] for _ in range(2)],
        )
        for _ in range(n_topics)
    ]

    def topical(topic: int) -> tuple[str, str, str]:
        core, core_rel = topics[topic]
        s = core[rng.below(6)] if rng.random() < 0.5 else concept_zipf.draw(rng)
        r = core_rel[rng.below(2)] if rng.random() < 0.5 else relation_zipf.draw(rng)
        o = core[rng.below(6)] if rng.random() < 0.5 else concept_zipf.draw(rng)
        return s, r, o

    def background() -> tuple[str, str, str]:
        return concept_zipf.draw(rng), relation_zipf.draw(rng), concept_zipf.draw(rng)

    def distinct(n: int, draw) -> list[tuple[str, str, str]]:
        seen: set[tuple[str, str, str]] = set()
        preds = []
        while len(preds) < n:
            p = draw()
            if p not in seen:
                seen.add(p)
                preds.append(p)
        return preds

    docs: list[tuple[str, list[tuple[str, str, str]]]] = []
    for i, doc_id in enumerate(doc_ids):
        docs.append((doc_id, distinct(sizes[i], lambda t=topic_of[i]: topical(t))))
    duplicates = 0
    for k, size in enumerate(large_sizes):
        preds = distinct(size, background)
        n_dup = int(size * LARGE_DOC_DUPLICATE_SHARE)
        lines = preds + [preds[rng.below(size)] for _ in range(n_dup)]
        rng.shuffle(lines)
        duplicates += n_dup
        docs.append((f"L{k}", lines))

    out.mkdir(parents=True, exist_ok=True)
    write_tsv(out / "concepts.tsv", c_edges)
    write_tsv(out / "relations.tsv", r_edges)
    write_tsv(out / "predications.tsv", [(d, *p) for d, preds in docs for p in preds])

    ops: dict = {}
    gold_seeds: list[str] = []
    if workload == "related-1k":
        ops["seeds"] = at_size_quantiles(doc_ids, sizes, n_ops, rng)
    elif workload == "adhoc-10k":
        ops["ops"] = adhoc_ops(n_ops, concept_zipf, relation_zipf, rng)
    else:
        gold_seeds = at_size_quantiles(doc_ids, sizes, n_gold, rng)
        mates: dict[int, list[str]] = {}
        for i, doc_id in enumerate(doc_ids):
            mates.setdefault(topic_of[i], []).append(doc_id)
        gold_rows = []
        for seed_doc in gold_seeds:
            topic = topic_of[doc_ids.index(seed_doc)]
            related = [d for d in mates[topic] if d != seed_doc]
            gold_rows += [(seed_doc, d, str(r)) for r, d in enumerate(related, 1)]
        write_tsv(out / "gold.tsv", gold_rows)
        ops["invocations"] = n_ops
    (out / "ops.json").write_text(json.dumps(ops, indent=1) + "\n", encoding="utf-8")

    sizes_record = {
        "documents": len(docs),
        "predication_lines": sum(len(p) for _, p in docs),
        "planted_duplicates": duplicates,
        "concepts": len(concepts),
        "concept_depth": CONCEPT_DEPTH,
        "relations": len(relations),
        "relation_depth": RELATION_DEPTH,
        "mean_concept_ancestor_set": round(mean_ancestor_set_size(c_edges, concepts), 3),
        "mean_relation_ancestor_set": round(mean_ancestor_set_size(r_edges, relations), 3),
        "gold_seeds": len(gold_seeds),
        "file_bytes": {
            p.name: p.stat().st_size for p in sorted(out.glob("*.tsv"))
        },
    }
    (out / "sizes.json").write_text(json.dumps(sizes_record) + "\n", encoding="utf-8")
    return sizes_record


def at_size_quantiles(
    doc_ids: list[str], sizes: list[int], n: int, rng: Rng
) -> list[str]:
    """``n`` distinct documents at evenly spaced size quantiles.

    Every seed has the same size multiset, so this picks documents of the
    same sizes for every seed (which documents is seeded): per-operation
    work, and with it the median cost, does not jump between seeds.
    """
    order = sorted(range(len(doc_ids)), key=lambda i: (sizes[i], rng.random()))
    picked = [doc_ids[order[(2 * k + 1) * len(order) // (2 * n)]] for k in range(n)]
    rng.shuffle(picked)
    return picked


def adhoc_ops(n: int, concept_zipf: Zipf, relation_zipf: Zipf, rng: Rng) -> list:
    """Equal shares of queries with 1, 2 and 3 predications and of patterns
    with 1, 2 and 3 bound slots, in seeded order."""
    bound_choices = {1: ["s", "r", "o"], 2: ["sr", "so", "ro"], 3: ["sro"]}
    ops = []
    for k in range(n):
        size = 1 + (k // 2) % 3
        if k % 2 == 0:
            preds = set()
            while len(preds) < size:
                s, r, o = (concept_zipf.draw(rng), relation_zipf.draw(rng),
                           concept_zipf.draw(rng))
                preds.add(f"{s}|{r}|{o}")
            ops.append({"kind": "query", "preds": sorted(preds)})
        else:
            slots = bound_choices[size][rng.below(len(bound_choices[size]))]
            pattern = [
                concept_zipf.draw(rng) if "s" in slots else "?",
                relation_zipf.draw(rng) if "r" in slots else "?",
                concept_zipf.draw(rng) if "o" in slots else "?",
            ]
            ops.append({"kind": "find", "pattern": "|".join(pattern)})
    rng.shuffle(ops)
    return ops


def write_tsv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines("\t".join(row) + "\n" for row in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--ops", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    print(json.dumps(generate(args.workload, args.seed, args.ops, args.out)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
