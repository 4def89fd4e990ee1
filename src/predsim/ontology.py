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

Hierarchies are immutable after construction.  The ancestor sets of
hierarchy nodes are memoized on first use, and those of other identifiers
are not, so the memo never outgrows the hierarchy.  Cycles are tolerated
(every member of a cycle becomes an ancestor of every other) but reported
with a warning at load time, since well-formed hierarchies are expected to
be acyclic.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from pathlib import Path

from ._input import check_identifier, line_records, read_file, tuple_records, warn
from .errors import LoadError


class Hierarchy:
    """Immutable child->parent graph with memoized ancestor sets.

    ``Hierarchy(edges, source)`` numbers its (child, parent) edges from 1
    and checks each: two fields, both identifiers non-empty and free of
    tabs and line breaks, no self-loop.  Each distinct identifier is
    checked once, where it first occurs, as the corpus loader does; one
    that fails never enters the node table, so the error names the first
    bad record.  Errors read ``"{source}: record N: {problem}"``;
    :func:`parse_hierarchy` builds through the same :meth:`_fill` and
    names the line instead.

    A node's ancestor set is memoized when asked for and built from the
    memoized sets of its ancestors (see :meth:`ancestors`);
    :meth:`ancestor_sets` asks parents first.
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
        self._ancestor_memo: dict[str, frozenset[str]] = {}
        peeled = self._leaves_first()
        self._roots_first: list[str] = peeled[::-1]
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
        """Self-inclusive ancestor set of ``node``.

        An identifier that is not a hierarchy node yields a fresh
        ``{node}``, which is not memoized, so the memo never outgrows the
        hierarchy.  A node's set is built by an iterative walk up from
        ``node`` (so depth is not bounded by the recursion limit) that does
        not pass an ancestor whose set is already memoized: it takes that
        whole set in one union instead.  A memoized set is closed under
        parents, so this is exact on cycles too, with no special case.
        Only requested sets are memoized, never the intermediate ones, so
        memory stays linear in what is asked for even on a deep chain;
        :meth:`ancestor_sets` orders a batch so that each set is built from
        its parents' sets.

        The memo is safe under concurrent lookups: it only ever holds
        finished sets, and two computations of one set are equal.
        """
        memo = self._ancestor_memo
        known = memo.get(node)
        if known is not None:
            return known
        if node not in self.nodes:
            return frozenset((node,))
        seen = {node}
        stack = [node]
        while stack:
            for parent in self._parents[stack.pop()]:
                if parent not in seen:
                    known = memo.get(parent)
                    if known is None:
                        seen.add(parent)
                        stack.append(parent)
                    else:
                        seen |= known
        result = frozenset(seen)
        memo[node] = result
        return result

    def ancestor_sets(self, names: Sequence[str]) -> list[frozenset[str]]:
        """``[self.ancestors(name) for name in names]``, built parents first.

        The missing sets are computed in reverse peeling order, parents
        before children, so a name whose parents are among ``names`` gets
        its set as ``{name}`` united with their memoized sets.  Names on or
        above a cycle, and unknown names, come last.
        """
        memo = self._ancestor_memo
        missing = set(names).difference(memo)
        if missing:
            for node in self._roots_first:
                if node in missing:
                    self.ancestors(node)
        return [memo.get(name) or self.ancestors(name) for name in names]

    def similarity(self, a: str, b: str) -> float:
        """Jaccard overlap of the two self-inclusive ancestor sets."""
        anc_a = self.ancestors(a)
        anc_b = self.ancestors(b)
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
