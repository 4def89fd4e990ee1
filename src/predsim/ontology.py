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

Hierarchies hold nothing that changes after construction: every
ancestor set is walked when asked for, and callers that reuse sets keep
them (the retrieval engine's index does).  Cycles are tolerated (every
member of a cycle becomes an ancestor of every other) but reported with a
warning at load time, since well-formed hierarchies are expected to be
acyclic.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from pathlib import Path

from ._input import check_identifier, line_records, read_file, tuple_records, warn
from .errors import LoadError


class Hierarchy:
    """Immutable child->parent graph.

    ``Hierarchy(edges, source)`` numbers its (child, parent) edges from 1
    and checks each: two fields, both identifiers non-empty and free of
    tabs and line breaks, no self-loop.  Each distinct identifier is
    checked once, where it first occurs, as the corpus loader does; one
    that fails never enters the node table, so the error names the first
    bad record.  Errors read ``"{source}: record N: {problem}"``;
    :func:`parse_hierarchy` builds through the same :meth:`_fill` and
    names the line instead.

    Ancestor sets are not kept: :meth:`ancestor_sets` walks each batch
    anew, parents first, so a set is built from those of its ancestors in
    the same batch.
    """

    def __init__(self, edges: Iterable[Sequence[str]], source: str = "<memory>"):
        self._fill(tuple_records(edges, 2, source), source, "record")

    def _fill(
        self, numbered: Iterable[tuple[int, Sequence[str]]], source: str, unit: str
    ) -> None:
        """Build every attribute from numbered (child, parent) records."""
        parents: dict[str, set[str]] = {}  # every node; a root's set is empty
        for number, (child, parent) in numbered:
            try:
                child_parents = parents.get(child)
                known = parent in parents
            except TypeError:  # an unhashable identifier, which no check passes
                child_parents, known = None, False
            if child_parents is None or not known or child == parent:
                try:
                    if child_parents is None:
                        check_identifier(child, "child identifier")
                    if not known:
                        check_identifier(parent, "parent identifier")
                    if child == parent:
                        raise LoadError(f"self-loop edge {child!r} -> {parent!r}")
                except LoadError as err:
                    raise LoadError(f"{source}: {unit} {number}: {err}") from None
                parents.setdefault(parent, set())
                child_parents = parents.setdefault(child, set())
            child_parents.add(parent)
        self.source = source
        self.edges: frozenset[tuple[str, str]] = frozenset(
            (child, parent) for child, ps in parents.items() for parent in ps
        )
        self.nodes: frozenset[str] = frozenset(parents)
        self._parents = parents
        peeled = self._leaves_first()
        # ancestor_sets' walk order: parents before children, and first the
        # nodes on or above a cycle, which peeling leaves out (rank 0).
        self._rank = dict.fromkeys(parents, 0)
        self._rank.update((node, r) for r, node in enumerate(reversed(peeled), 1))
        if len(peeled) < len(self.nodes):
            cyclic = self.nodes.difference(peeled)
            sample = ", ".join(sorted(cyclic)[:5])
            warn(
                f"{source}: hierarchy contains a cycle "
                f"({len(cyclic)} nodes involved, e.g. {sample}); "
                "cycle members become mutual ancestors"
            )

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: str) -> bool:
        return node in self.nodes

    def __repr__(self) -> str:
        return f"Hierarchy({len(self.nodes)} nodes, {len(self.edges)} edges)"

    def _leaves_first(self) -> list[str]:
        # Kahn peeling over child->parent arcs: each node comes after all
        # of its children.  The nodes on a cycle, and every node above one,
        # never come.
        indegree = dict.fromkeys(self.nodes, 0)
        for _, parent in self.edges:
            indegree[parent] += 1
        ready = [n for n, d in indegree.items() if d == 0]
        order = []
        while ready:
            node = ready.pop()
            order.append(node)
            for parent in self._parents[node]:
                indegree[parent] -= 1
                if indegree[parent] == 0:
                    ready.append(parent)
        return order

    def ancestors(self, node: str) -> frozenset[str]:
        """Self-inclusive ancestor set of ``node``; ``{node}`` for an
        identifier that is not a hierarchy node."""
        return self.ancestor_sets([node])[0]

    def ancestor_sets(self, names: Sequence[str]) -> list[frozenset[str]]:
        """The self-inclusive ancestor set of each name, in order.

        Each distinct hierarchy node among ``names`` is walked once,
        iteratively (so depth is not bounded by the recursion limit),
        parents before children.  A walk does not pass an ancestor already
        walked in this call: it takes that whole set in one union instead.
        A walked set is closed under parents, so this is exact on cycles
        too.  Only the requested sets are kept, and only for the call, so
        memory stays linear in what is asked for even on a deep chain.
        """
        rank, parents = self._rank, self._parents
        walked: dict[str, frozenset[str]] = {}
        for node in sorted({name for name in names if name in rank}, key=rank.__getitem__):
            seen = {node}
            stack = [node]
            while stack:
                for parent in parents[stack.pop()]:
                    if parent not in seen:
                        known = walked.get(parent)
                        if known is None:
                            seen.add(parent)
                            stack.append(parent)
                        else:
                            seen |= known
            walked[node] = frozenset(seen)
        return [walked.get(name) or frozenset((name,)) for name in names]

    def similarity(self, a: str, b: str) -> float:
        """Jaccard overlap of the two self-inclusive ancestor sets."""
        anc_a, anc_b = self.ancestor_sets([a, b])
        shared = len(anc_a & anc_b)
        total = len(anc_a) + len(anc_b) - shared
        return shared / total


def parse_hierarchy(lines: Iterable[str], source: str = "<memory>") -> Hierarchy:
    """Parse ``child<TAB>parent`` lines; ``#`` comments and blanks ignored."""
    hierarchy = Hierarchy.__new__(Hierarchy)
    hierarchy._fill(line_records(lines, 2, source), source, "line")
    return hierarchy


def load_hierarchy_file(path: str | Path) -> Hierarchy:
    return read_file(path, parse_hierarchy)
