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

Hierarchies number their nodes once, as they read them, hold one name
table, one list of parents per node and each node's height, and nothing
else that changes after construction.  Ancestor sets are computed over
node numbers when asked for, and callers that reuse sets keep them (the
retrieval engine's index does).  A few names at a time are walked one by
one; the many names of an index are closed in one bottom-up array pass
over the heights, which hands its last pairs to one walk as soon as they
are fewer than the heights left, so a deep, thin hierarchy costs a walk,
not a pass per height.  Cycles are tolerated (every member of a cycle
becomes an ancestor of every other) but reported with a warning at load
time, since well-formed hierarchies are expected to be acyclic.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from heapq import heappop, heappush
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from ._arrays import segment_offsets, sorted_distinct, spans
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

    Node ``n``, numbered from 0 in the order first met, is ``_names[n]``,
    and ``_numbers`` maps each name back to its number; ``nodes``,
    ``len``, ``in`` and ``repr`` read these.  The parents of node ``n``,
    ascending, are the list ``_parents[n]``, the one parent store; each
    distinct edge is held once.  Its height ``_height[n]`` is the longest
    path down to a leaf, or ``len(self)`` on or above a cycle.
    ``edge_count`` is the number of distinct edges; ``nodes`` and
    ``edges`` build their frozensets of names on each access.

    Ancestor sets are not kept.  :meth:`_node_sets` walks each batch of
    names anew with :meth:`_walk`, in descending height, so a set is built
    from those of its ancestors in the same batch; it is the scalar
    definition.  :meth:`_holder_keys` gives the same sets for a batch of
    many names in one array pass, which ends in one :meth:`_walk` of the
    pairs still pending.
    """

    def __init__(self, edges: Iterable[Sequence[str]], source: str = "<memory>"):
        self._fill(tuple_records(edges, 2, source), source, "record")

    def _fill(
        self, numbered: Iterable[tuple[int, Sequence[str]]], source: str, unit: str
    ) -> None:
        """Build every attribute from numbered (child, parent) records."""
        numbers: dict[str, int] = {}  # every node, numbered as first met
        children, parents = array("q"), array("q")
        add_child, add_parent = children.append, parents.append
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
            add_child(c)
            add_parent(p)
        self.source = source
        self._numbers = numbers
        self._names = names = list(numbers)
        # The distinct keys child * len(names) + parent, ascending, hold each
        # node's parents as one ascending run; duplicate edges go.
        size = len(names)
        arcs = np.frombuffer(children, dtype=np.int64) * size
        arcs += np.frombuffer(parents, dtype=np.int64)
        arcs = sorted_distinct(arcs)
        self._parents: list[list[int]] = [[] for _ in names]  # a root's list is empty
        node = list(numbers.values())  # each number's int object, held once
        for c, p in zip((arcs // size).tolist(), (arcs % size).tolist()):
            self._parents[c].append(node[p])
        self.edge_count = len(arcs)
        self._height = self._heights(np.bincount(arcs % size, minlength=size))
        cyclic = np.flatnonzero(self._height == size).tolist()
        if cyclic:
            sample = ", ".join(sorted(names[n] for n in cyclic)[:5])
            warn(
                f"{source}: hierarchy contains a cycle "
                f"({len(cyclic)} nodes involved, e.g. {sample}); "
                "cycle members become mutual ancestors"
            )

    def __len__(self) -> int:
        return len(self._numbers)

    def __contains__(self, node: str) -> bool:
        return node in self._numbers

    def __repr__(self) -> str:
        return f"Hierarchy({len(self)} nodes, {self.edge_count} edges)"

    @property
    def nodes(self) -> frozenset[str]:
        """Every node name; built anew on each access (``len(h)`` counts them)."""
        return frozenset(self._numbers)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        """Every (child, parent) edge, by name; built anew on each access."""
        names = self._names
        return frozenset(
            (names[child], names[parent])
            for child, ps in enumerate(self._parents)
            for parent in ps
        )

    def _heights(self, child_counts: np.ndarray) -> np.ndarray:
        # Each node's height, the longest path down to a leaf, by Kahn
        # peeling over child->parent arcs from each node's child count: a
        # node is peeled after all of its children, one above the highest
        # of them.  The nodes on a cycle, and every node above one, are
        # never peeled: they take the sentinel len(self), above every height.
        parents = self._parents
        children = child_counts.tolist()
        height = [0] * len(parents)
        peeled = [n for n, k in enumerate(children) if k == 0]
        for node in peeled:  # grows as nodes are peeled
            above = height[node] + 1
            for parent in parents[node]:
                if height[parent] < above:
                    height[parent] = above
                children[parent] -= 1
                if children[parent] == 0:
                    peeled.append(parent)
        heights = np.array(height, dtype=np.intp)
        heights[np.array(children, dtype=np.intp) > 0] = len(parents)
        return heights

    def _node_sets(self, names: Sequence[str]) -> list[frozenset[int] | None]:
        """The self-inclusive ancestor set of each name, in order, as node
        numbers; ``None`` for a name that is not a node."""
        wanted = list(map(self._numbers.get, names))
        walked = self._walk(set(wanted) - {None})
        return [walked.get(node) for node in wanted]

    def _walk(self, nodes: Iterable[int]) -> dict[int, frozenset[int]]:
        """The self-inclusive ancestor set of each of the distinct node
        numbers ``nodes``, by node.

        Each node is walked once, iteratively (so depth is not bounded by
        the recursion limit), in descending height, so parents before
        children.  A walk does not pass an ancestor already walked in this
        call: it takes that whole set in one union instead.  A walked set
        is closed under parents, so this is exact on cycles too.  Only the
        requested sets are kept, and only for the call, so memory stays
        linear in what is asked for even on a deep chain.
        """
        parents = self._parents
        walked: dict[int, frozenset[int]] = {}
        for node in sorted(nodes, key=self._height.__getitem__, reverse=True):
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
        return walked

    def _holder_keys(self, names: Sequence[str]) -> np.ndarray:
        """The keys ``node * len(names) + i``, ascending, of every node in
        the self-inclusive ancestor set of each ``names[i]`` that is a node:
        the same sets as :meth:`_node_sets`, in one array.

        One bottom-up pass over heights, ascending, starts from each
        name's ``(own node, i)`` pair.  All the pairs at a height have
        arrived once the lower heights are done: they are deduplicated,
        kept, and pushed to their nodes' parents.  Only pairs of the given
        names exist, so memory stays linear in the sizes of their sets,
        even on a deep chain.  The parents are laid out as int CSR arrays
        for the call.

        Each height visited costs a fixed few numpy calls, however few
        pairs it holds, while a walk costs about one step per pair.  So
        before each height the pass stops, and closes every pending pair
        with one :meth:`_walk` over their distinct nodes, once fewer pairs
        are pending than heights are left up to the highest finite one, or
        once the next height is the sentinel of a cycle, which no pass
        over heights can close.
        """
        width = len(names)
        height = self._height
        # Node n's parents are parent_nodes[parent_starts[n]:parent_starts[n + 1]].
        parent_starts = segment_offsets(np.fromiter(map(len, self._parents), np.intp, len(self)))
        parent_nodes = np.fromiter(chain.from_iterable(self._parents), np.intp, self.edge_count)
        finite = height[height < len(self)]
        top = int(finite.max()) if len(finite) else -1  # the highest finite height
        own = np.fromiter(map(self._numbers.get, names, repeat(-1)), np.intp, width)
        ids = np.flatnonzero(own >= 0)
        pending: dict[int, list[np.ndarray]] = {}  # pair keys by their nodes' height
        levels: list[int] = []  # a heap of the keys of pending
        count = 0  # the pending pairs
        found = []

        def push(keys: np.ndarray, nodes: np.ndarray) -> None:
            nonlocal count
            count += len(keys)
            at = height[nodes]
            order = at.argsort()
            at, keys = at[order], keys[order]
            cuts = (np.flatnonzero(at[1:] != at[:-1]) + 1).tolist()
            for a, b in zip([0, *cuts], [*cuts, len(keys)]):
                h = int(at[a])
                if h not in pending:
                    pending[h] = []
                    heappush(levels, h)
                pending[h].append(keys[a:b])

        if len(ids):
            push(own[ids] * width + ids, own[ids])
        while levels:
            if levels[0] == len(self) or count < top + 1 - levels[0]:
                keys = np.concatenate(list(chain.from_iterable(pending.values())))
                nodes, ids = np.divmod(keys, width)
                entries = sorted_distinct(nodes)
                walked = self._walk(entries.tolist())
                sets = [walked[n] for n in entries.tolist()]
                sizes = np.fromiter(map(len, sets), np.intp, len(sets))
                members = np.fromiter(chain.from_iterable(sets), np.intp, sizes.sum())
                at, counts = spans(segment_offsets(sizes), np.searchsorted(entries, nodes))
                found.append(sorted_distinct(members[at] * width + np.repeat(ids, counts)))
                break
            parts = pending.pop(heappop(levels))
            count -= sum(map(len, parts))
            keys = sorted_distinct(np.concatenate(parts) if len(parts) > 1 else parts[0])
            found.append(keys)
            nodes, ids = np.divmod(keys, width)
            at, counts = spans(parent_starts, nodes)
            if len(at):
                parents = parent_nodes[at]
                push(parents * width + np.repeat(ids, counts), parents)
        keys = np.concatenate(found) if found else np.empty(0, dtype=np.intp)
        keys.sort(kind="stable")  # merges the ascending runs
        return keys

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
