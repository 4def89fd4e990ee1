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

Hierarchies number their nodes once, as they read them, and hold
nothing else that changes after construction: every ancestor set is
walked over node numbers when asked for, and callers that reuse sets
keep them (the retrieval engine's index does).  Cycles are tolerated
(every member of a cycle becomes an ancestor of every other) but
reported with a warning at load time, since well-formed hierarchies are
expected to be acyclic.
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

    Node ``n``, numbered from 0 in the order first met, is ``_names[n]``.
    Ancestor sets are not kept: :meth:`_node_sets` walks each batch anew,
    parents first, so a set is built from those of its ancestors in the
    same batch.
    """

    def __init__(self, edges: Iterable[Sequence[str]], source: str = "<memory>"):
        self._fill(tuple_records(edges, 2, source), source, "record")

    def _fill(
        self, numbered: Iterable[tuple[int, Sequence[str]]], source: str, unit: str
    ) -> None:
        """Build every attribute from numbered (child, parent) records."""
        numbers: dict[str, int] = {}  # every node, numbered as first met
        arcs: set[tuple[int, int]] = set()  # (child, parent) node numbers
        for number, (child, parent) in numbered:
            try:
                c = numbers.get(child)
                p = numbers.get(parent)
            except TypeError:  # an unhashable identifier, which no check passes
                c = p = None
            if c is None or p is None or c == p:
                try:
                    if c is None:
                        check_identifier(child, "child identifier")
                    if p is None:
                        check_identifier(parent, "parent identifier")
                    if child == parent:
                        raise LoadError(f"self-loop edge {child!r} -> {parent!r}")
                except LoadError as err:
                    raise LoadError(f"{source}: {unit} {number}: {err}") from None
                if p is None:
                    p = numbers[parent] = len(numbers)
                if c is None:
                    c = numbers[child] = len(numbers)
            arcs.add((c, p))
        self.source = source
        self._numbers = numbers
        self._names = names = list(numbers)
        self._parents: list[list[int]] = [[] for _ in names]  # a root's list is empty
        for c, p in arcs:
            self._parents[c].append(p)
        self.edges: frozenset[tuple[str, str]] = frozenset((names[c], names[p]) for c, p in arcs)
        self.nodes: frozenset[str] = frozenset(numbers)
        self._rank = self._walk_ranks()
        cyclic = [name for name, r in zip(names, self._rank) if r == 0]
        if cyclic:
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

    def _walk_ranks(self) -> list[int]:
        # _node_sets' walk order, by Kahn peeling over child->parent arcs:
        # a node is peeled after all of its children and ranks below them.
        # The nodes on a cycle, and every node above one, are never peeled:
        # they rank 0 and are walked first.
        indegree = [0] * len(self._parents)
        for ps in self._parents:
            for parent in ps:
                indegree[parent] += 1
        rank = [0] * len(indegree)
        ready = [n for n, d in enumerate(indegree) if d == 0]
        left = len(rank)
        while ready:
            node = ready.pop()
            rank[node] = left
            left -= 1
            for parent in self._parents[node]:
                indegree[parent] -= 1
                if indegree[parent] == 0:
                    ready.append(parent)
        return rank

    def _node_sets(self, names: Sequence[str]) -> list[frozenset[int] | None]:
        """The self-inclusive ancestor set of each name, in order, as node
        numbers; ``None`` for a name that is not a node.

        Each distinct node among ``names`` is walked once, iteratively (so
        depth is not bounded by the recursion limit), parents before
        children.  A walk does not pass an ancestor already walked in this
        call: it takes that whole set in one union instead.  A walked set
        is closed under parents, so this is exact on cycles too.  Only the
        requested sets are kept, and only for the call, so memory stays
        linear in what is asked for even on a deep chain.
        """
        rank, parents = self._rank, self._parents
        wanted = list(map(self._numbers.get, names))
        walked: dict[int, frozenset[int]] = {}
        for node in sorted(set(wanted) - {None}, key=rank.__getitem__):
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
        return [walked.get(node) for node in wanted]

    def ancestors(self, node: str) -> frozenset[str]:
        """Self-inclusive ancestor set of ``node``; ``{node}`` for an
        identifier that is not a hierarchy node."""
        nodes = self._node_sets([node])[0]
        return frozenset((node,) if nodes is None else map(self._names.__getitem__, nodes))

    def similarity(self, a: str, b: str) -> float:
        """Jaccard overlap of the two self-inclusive ancestor sets; a name
        that is not a node stands for itself, equal to no node number."""
        anc_a, anc_b = (
            frozenset((name,)) if nodes is None else nodes
            for name, nodes in zip((a, b), self._node_sets([a, b]))
        )
        shared = len(anc_a & anc_b)
        return shared / (len(anc_a) + len(anc_b) - shared)


def parse_hierarchy(lines: Iterable[str], source: str = "<memory>") -> Hierarchy:
    """Parse ``child<TAB>parent`` lines; ``#`` comments and blanks ignored."""
    hierarchy = Hierarchy.__new__(Hierarchy)
    hierarchy._fill(line_records(lines, 2, source), source, "line")
    return hierarchy


def load_hierarchy_file(path: str | Path) -> Hierarchy:
    return read_file(path, parse_hierarchy)
