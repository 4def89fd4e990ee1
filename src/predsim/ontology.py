"""Identifier hierarchies and ancestor-overlap similarity.

A :class:`Hierarchy` is a directed child->parent graph over opaque string
identifiers.  The same structure serves both concept hierarchies (subjects
and objects of predications) and relationship hierarchies.

Similarity between two identifiers is the Jaccard coefficient of their
self-inclusive ancestor sets:

    sim(a, b) = |anc(a) & anc(b)| / |anc(a) | anc(b)|

where anc(x) contains x itself plus every node reachable from x by
following child->parent edges.  Including the node itself keeps similarity
high for identifiers deep in the hierarchy and makes sim(x, x) = 1 even
for identifiers the hierarchy has never seen (their ancestor set is just
{x}).  Values always fall in [0, 1].

Hierarchies are immutable after construction; ancestor sets are memoized
per identifier on first use.  Cycles are tolerated (every member of a
cycle becomes an ancestor of every other) but reported with a warning at
load time, since well-formed hierarchies are expected to be acyclic.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from pathlib import Path

from .errors import LoadError


def _check_token(token: str, what: str, where: str) -> None:
    if not token:
        raise LoadError(f"{where}: empty {what}")
    if "\t" in token or "\n" in token or "\r" in token:
        raise LoadError(f"{where}: {what} contains tab or newline")


class Hierarchy:
    """Immutable child->parent graph with memoized ancestor sets."""

    def __init__(
        self,
        edges: Iterable[tuple[str, str]],
        isolated: Iterable[str] = (),
        source: str = "<memory>",
    ):
        edge_set: set[tuple[str, str]] = set()
        parents: dict[str, set[str]] = {}
        nodes: set[str] = set(isolated)
        for child, parent in edges:
            if child == parent:
                raise LoadError(f"{source}: self-loop edge {child!r} -> {parent!r}")
            if (child, parent) in edge_set:
                continue
            edge_set.add((child, parent))
            parents.setdefault(child, set()).add(parent)
            nodes.add(child)
            nodes.add(parent)
        self.source = source
        self.edges: frozenset[tuple[str, str]] = frozenset(edge_set)
        self.nodes: frozenset[str] = frozenset(nodes)
        self._parents: dict[str, frozenset[str]] = {
            child: frozenset(ps) for child, ps in parents.items()
        }
        self._ancestor_memo: dict[str, frozenset[str]] = {}
        cyclic = self._cycle_members()
        if cyclic:
            sample = ", ".join(sorted(cyclic)[:5])
            warnings.warn(
                f"{source}: hierarchy contains a cycle "
                f"({len(cyclic)} nodes involved, e.g. {sample}); "
                "cycle members become mutual ancestors",
                stacklevel=2,
            )

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: str) -> bool:
        return node in self.nodes

    def __repr__(self) -> str:
        return f"Hierarchy({len(self.nodes)} nodes, {len(self.edges)} edges)"

    def parents_of(self, node: str) -> frozenset[str]:
        return self._parents.get(node, frozenset())

    def _cycle_members(self) -> frozenset[str]:
        # Kahn peeling over child->parent arcs; whatever survives sits on
        # (or feeds into) a cycle.
        indegree = {n: 0 for n in self.nodes}
        for _, parent in self.edges:
            indegree[parent] += 1
        ready = [n for n, d in indegree.items() if d == 0]
        remaining = len(indegree)
        while ready:
            node = ready.pop()
            remaining -= 1
            for parent in self._parents.get(node, ()):
                indegree[parent] -= 1
                if indegree[parent] == 0:
                    ready.append(parent)
        if remaining == 0:
            return frozenset()
        return frozenset(n for n, d in indegree.items() if d > 0)

    def ancestors(self, node: str) -> frozenset[str]:
        """Self-inclusive ancestor set of ``node``.

        Unknown identifiers yield ``{node}``.  Results are memoized; the
        memo is safe under concurrent lookups because duplicate
        computations of the same set are identical.
        """
        cached = self._ancestor_memo.get(node)
        if cached is not None:
            return cached
        seen = {node}
        stack = [node]
        while stack:
            for parent in self._parents.get(stack.pop(), ()):
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        result = frozenset(seen)
        self._ancestor_memo[node] = result
        return result

    def similarity(self, a: str, b: str) -> float:
        """Jaccard overlap of the two self-inclusive ancestor sets."""
        anc_a = self.ancestors(a)
        anc_b = self.ancestors(b)
        shared = len(anc_a & anc_b)
        total = len(anc_a) + len(anc_b) - shared
        return shared / total


def load_hierarchy(
    records: Iterable[tuple[str, str]], source: str = "<records>"
) -> Hierarchy:
    """Build a hierarchy from (child, parent) records, validating each."""
    checked: list[tuple[str, str]] = []
    for i, record in enumerate(records, start=1):
        where = f"{source}: record {i}"
        if len(record) != 2:
            raise LoadError(f"{where}: expected 2 fields, got {len(record)}")
        child, parent = record
        _check_token(child, "child identifier", where)
        _check_token(parent, "parent identifier", where)
        if child == parent:
            raise LoadError(f"{where}: self-loop edge {child!r} -> {parent!r}")
        checked.append((child, parent))
    return Hierarchy(checked, source=source)


def parse_hierarchy(lines: Iterable[str], source: str = "<memory>") -> Hierarchy:
    """Parse ``child<TAB>parent`` lines; ``#`` comments and blanks ignored."""
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        where = f"{source}: line {lineno}"
        if len(fields) != 2:
            raise LoadError(f"{where}: expected 2 fields, got {len(fields)}")
        child, parent = fields
        _check_token(child, "child identifier", where)
        _check_token(parent, "parent identifier", where)
        if child == parent:
            raise LoadError(f"{where}: self-loop edge {child!r} -> {parent!r}")
        edges.append((child, parent))
    return Hierarchy(edges, source=source)


def load_hierarchy_file(path: str | Path) -> Hierarchy:
    path = Path(path)
    with open(path, encoding="utf-8-sig") as handle:
        return parse_hierarchy(handle, source=str(path))
