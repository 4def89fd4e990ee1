"""Identifier hierarchies, ancestor-overlap similarity, and the index of
ancestor sets that ranking reads.

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

A hierarchy file is read as a predications file is, by the one driver
``_input.read_blocks``: a block of lines at a time, cut by
``_input.read_file`` from the UTF-8 of the chunks of text it reads.
:meth:`_Edges.add_block` interns each block's fields through
``_input.intern_fields``, each line's parent before its child, so that
nodes are first met in the order of a reader of one line at a time: it
looks up each distinct name of a block once and checks the new ones in
one pass.  A block that holds a self-loop raises ``_input.Refused``
there, once its codes are known, as the shared steps do for a new name
that fails its check or a block they cannot read whole; the driver then
hands the block to the per-record loop, :meth:`_Edges.add_records`, the
only path of ``Hierarchy(edges)`` and of lines given in memory.  The
edge columns grow only for a block read whole, and a self-loop ends that
loop's load at its line, so every error, its line number and its message
are the per-record loop's.

Hierarchies number their nodes once, by ascending height, hold one name
table, one flat parent store and each node's height, and nothing else
that changes after construction.  Heights come from peeling the leaves a
level at a time, in numpy, and a thin tail one node at a time.  Ancestor
sets are computed over node numbers when asked for, and only a
:class:`_Vocabulary` keeps them.  A few names at a time are walked one by
one; the many names of an index are closed in one bottom-up array pass
over the heights, which hands its last pairs to one walk as soon as they
are fewer than the heights left, so a deep, thin hierarchy costs a walk,
not a pass per height.  Since every height is one run of node numbers,
that pass keeps its (node, name) pair keys in height order with plain
sorts, in int32 whenever they fit.  Cycles are tolerated (every member of
a cycle becomes an ancestor of every other) but reported with a warning
at load time, since well-formed hierarchies are expected to be acyclic.

A :class:`_Vocabulary` is the index of the identifiers that a corpus
uses from one hierarchy, interned: their self-inclusive ancestor sets,
in the hierarchy's own node numbers, stored inverted, per ancestor node,
as the ascending ids whose set holds the node (CSR form), beside each
set's size.  It decodes the array pass's sorted (node, id) keys once,
with ``_arrays.grouped``, into ids of int32 whenever they fit, 4 bytes a
pair, with no set object per identifier.  A name that is not a node
holds no node there: it is its own set of one, equal to no node number.
From the index, ``similarity_rows`` builds the Jaccard row of a key, an
interned id or a name, against every interned id, counting shared
ancestors from the holder lists of the key's own ancestors only, with the
integer counts and the one division of :meth:`Hierarchy.similarity`, so
the rows equal it exactly.  A call's names are walked, all at once; an
id's set is read from the sets by id, which the index builds from its
inverted sets on the first row keyed by an id and keeps from then on.
The retrieval engine keeps one per hierarchy for the last corpus it
ranked, keyed by the corpus's codes.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from ._arrays import grouped, key_dtype, ranks, segment_offsets, sorted_distinct, spans
from ._input import (
    Refused,
    check_identifier,
    intern_fields,
    read_blocks,
    read_file,
    read_records,
    warn,
)
from .errors import LoadError


class Hierarchy:
    """Immutable child->parent graph.

    ``Hierarchy(edges, source)`` numbers its (child, parent) edges from 1
    and checks each: two fields, both identifiers non-empty and free of
    tabs and line breaks, no self-loop.  Each distinct identifier is
    checked once, where it first occurs, as the corpus loader does; one
    that fails never enters the node table, so the error names the first
    bad record.  Errors read ``"{source}: record N: {problem}"``;
    :func:`parse_hierarchy` reads blocks of lines, falls back on the same
    per-record loop, :meth:`_Edges.add_records`, builds through the same
    :meth:`_fill` and names the line instead.

    Node ``n`` is ``_names[n]``, and ``_numbers`` maps each name back to
    its number; ``nodes``, ``len``, ``in`` and ``repr`` read these.  Its
    height ``_height[n]`` is the longest path down to a leaf, or
    ``len(self)`` on or above a cycle.  Nodes are numbered from 0 by
    ascending height, in the order first met within one height, so
    ``_height`` is sorted and each height is one run of numbers.  The
    parents of node ``n``, ascending, are
    ``_parent_nodes[_parent_starts[n]:_parent_starts[n + 1]]``: two flat
    int64 arrays, the one parent store, which the array pass reads
    without a copy and which holds no int object per edge.  Each
    distinct edge is held once.  ``edge_count`` is the number of distinct
    edges; ``nodes`` and ``edges`` build their frozensets of names on
    each access.

    Ancestor sets are not kept.  :meth:`_node_sets` walks each batch of
    names anew with :meth:`_walk`, in descending height, so a set is built
    from those of its ancestors in the same batch; it is the scalar
    definition.  :meth:`_holder_keys` gives the same sets for a batch of
    many names in one array pass, which ends in one :meth:`_walk` of the
    pairs still pending.
    """

    def __init__(self, edges: Iterable[Sequence[str]], source: str = "<memory>"):
        self._fill(read_records(edges, 2, source, _Edges()), source)

    def _fill(self, edges: _Edges, source: str) -> None:
        """Build every attribute from the node table and edge columns."""
        numbers, children, parents = edges.numbers, edges.children, edges.parents
        self.source = source
        # The distinct keys child * size + parent, ascending, hold each
        # node's parents as one ascending run; duplicate edges go.
        size = len(numbers)
        arcs = np.frombuffer(children, dtype=np.int64) * size
        arcs += np.frombuffer(parents, dtype=np.int64)
        starts, parent = grouped(sorted_distinct(arcs), size, size, np.int64)
        height = _heights(starts, parent, size)
        # Renumber the nodes by ascending height, as first met within one
        # height, so that every height is one run of node numbers.
        order = np.argsort(height, kind="stable")
        rank = ranks(order)
        arcs = np.repeat(rank, np.diff(starts))  # each arc's child, renumbered
        arcs *= size
        arcs += rank[parent]
        arcs.sort()
        first_met = list(numbers)
        self._names = names = [first_met[n] for n in order.tolist()]
        del first_met
        # Renumbered in place: a dict whose keys stay keeps its table.
        numbers.update(zip(names, range(size)))
        self._numbers = numbers
        starts, parents = grouped(arcs, size, size, np.int64)  # over the arcs
        self._parent_starts = array("q", starts.tobytes())
        self._parent_nodes = array("q", parents.tobytes())
        self.edge_count = len(parents)
        self._height = height[order]
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
        names, starts = self._names, self._parent_starts
        return frozenset(
            (names[child], names[parent])
            for child in range(len(names))
            for parent in self._parent_nodes[starts[child]:starts[child + 1]]
        )

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
        the recursion limit), in descending number, which is descending
        height, so parents before children.  A walk does not pass an
        ancestor already walked in this call: it takes that whole set in
        one union instead.  A walked set is closed under parents, so this
        is exact on cycles too.  Only the requested sets are kept, and
        only for the call, so memory stays linear in what is asked for
        even on a deep chain.
        """
        parents, starts = self._parent_nodes, self._parent_starts
        walked: dict[int, frozenset[int]] = {}
        for node in sorted(nodes, reverse=True):
            seen = {node}
            stack = [node]
            while stack:
                child = stack.pop()
                for parent in parents[starts[child]:starts[child + 1]]:
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
        the same sets as :meth:`_node_sets`, in one array, of int32 if
        ``len(self) * len(names)`` is below 2**31, else of int64.

        One bottom-up pass over heights, ascending, starts from each
        name's ``(own node, i)`` pair.  All the pairs at a height have
        arrived once the lower heights are done: they are deduplicated,
        kept, and pushed to their nodes' parents.  Node numbers ascend
        with height, so a height's keys are one range of key values: a
        push sorts its keys and splits them at the heights' bounds, and
        the heights' runs, kept in order, are already the keys ascending.
        A height's sorted keys group its pairs by node, so a push copies
        each node's run of keys once per parent and adds that arc's
        ``(parent - node) * len(names)``, with no key decoded.  Only pairs
        of the given names exist, so memory stays linear in the sizes of
        their sets, even on a deep chain.

        Each height visited costs a fixed few numpy calls, however few
        pairs it holds, while a walk costs about one step per pair.  So
        before each height the pass stops, and closes every pending pair
        with one :meth:`_walk` over their distinct nodes, once fewer pairs
        are pending than heights are left up to the highest finite one, or
        once the next height is the sentinel of a cycle, which no pass
        over heights can close.  So on a 50,000-node chain with only its
        leaf named, no height is visited at all.  The rule counts pairs,
        not the sets the walk will build: 2,000 leaves under one
        3,000-node chain go to one walk, which follows the chain once per
        leaf.
        """
        width, size = len(names), len(self)
        dtype = key_dtype(size * width)
        height = self._height
        # Arc k, the k-th of the parent store, leaves node arc_child[k]; a
        # pair pushed along it becomes its parent's, its key growing by lift[k].
        parent_starts = self._parent_starts
        degree = np.diff(np.frombuffer(parent_starts, dtype=np.int64))
        arc_child = np.repeat(np.arange(size, dtype=dtype), degree)
        lift = np.frombuffer(self._parent_nodes, dtype=np.int64).astype(dtype)
        lift -= arc_child
        lift *= width
        # Heights 0 to top are finite; the cycles' nodes, last, make level
        # top + 1.  Level h holds the nodes firsts[h]:firsts[h + 1], and
        # the keys of level h + 1 start at bounds[h].
        finite = int(np.searchsorted(height, size))
        top = int(height[finite - 1]) if finite else -1
        firsts = np.append(np.searchsorted(height, np.arange(top + 2)), size).tolist()
        bounds = np.array(firsts[1:-1], dtype=dtype) * width
        own = np.fromiter(map(self._numbers.get, names, repeat(-1)), dtype, width)
        pending: dict[int, list[np.ndarray]] = {}  # sorted pair keys by level
        count = 0  # the pending pairs
        found = []

        def push(keys: np.ndarray) -> None:
            nonlocal count
            count += len(keys)
            keys.sort()
            lo, hi = (min(int(height[k // width]), top + 1) for k in (keys[0], keys[-1]))
            cuts = np.searchsorted(keys, bounds[lo:hi]).tolist()
            for h, a, b in zip(range(lo, hi + 1), [0, *cuts], [*cuts, len(keys)]):
                if a < b:
                    pending.setdefault(h, []).append(keys[a:b])

        keys = own * width
        keys += np.arange(width, dtype=dtype)
        keys = keys[own >= 0]
        if len(keys):
            push(keys)
        # A push goes to higher levels only, so one ascending loop visits
        # the pending levels in order.
        for level in range(top + 2):
            if level not in pending:
                continue
            if level > top or count < top + 1 - level:
                keys = np.concatenate(list(chain.from_iterable(pending.values())))
                nodes, ids = np.divmod(keys, width)
                entries = sorted_distinct(nodes)
                walked = self._walk(entries.tolist())
                sets = [walked[n] for n in entries.tolist()]
                sizes = np.fromiter(map(len, sets), np.intp, len(sets))
                members = np.fromiter(chain.from_iterable(sets), dtype, sizes.sum())
                at, counts = spans(segment_offsets(sizes), np.searchsorted(entries, nodes))
                found.append(sorted_distinct(members[at] * width + np.repeat(ids, counts)))
                break
            parts = pending.pop(level)
            count -= sum(map(len, parts))
            keys = sorted_distinct(np.concatenate(parts) if len(parts) > 1 else parts[0])
            found.append(keys)
            # The keys of node n0 + r are keys[runs[r]:runs[r + 1]].
            n0, n1 = firsts[level], firsts[level + 1]
            a0, a1 = parent_starts[n0], parent_starts[n1]
            if a0 < a1:
                runs = np.searchsorted(keys, np.arange(n0, n1 + 1, dtype=dtype) * width)
                at, counts = spans(runs, arc_child[a0:a1] - n0)
                if len(at):
                    keys = keys[at]
                    keys += np.repeat(lift[a0:a1], counts)
                    push(keys)
        return np.concatenate(found) if found else np.empty(0, dtype=dtype)

    def ancestors(self, node: str) -> frozenset[str]:
        """Self-inclusive ancestor set of ``node``; ``{node}`` for an
        identifier that is not a hierarchy node."""
        nodes = self._node_sets([node])[0]
        return frozenset((node,) if nodes is None else map(self._names.__getitem__, nodes))

    def similarity(self, a: str, b: str) -> float:
        """Jaccard overlap of the two self-inclusive ancestor sets; a
        hashable name that is not a node, of any type, is its own set of
        one: 1.0 against an equal name and 0.0 against anything else."""
        anc_a, anc_b = self._node_sets([a, b])
        if anc_a is None or anc_b is None:
            return 1.0 if a == b else 0.0
        shared = len(anc_a & anc_b)
        return shared / (len(anc_a) + len(anc_b) - shared)


class _Edges:
    """The node table and the (child, parent) node-number columns that a
    hierarchy load fills, a record or a block of lines at a time.

    The table numbers each node from 0 as first met, taking a record's
    parent before its child, and takes a name only once it passes its
    check; a self-loop ends the load.
    """

    def __init__(self) -> None:
        self.numbers: dict[str, int] = {}
        self.children, self.parents = array("q"), array("q")

    def add_records(
        self, numbered: Iterable[tuple[int, Sequence[str]]], source: str, unit: str
    ) -> None:
        """Add numbered (child, parent) records, one at a time; the first
        that fails a check names its number."""
        numbers = self.numbers
        add_child, add_parent = self.children.append, self.parents.append
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

    def add_block(self, block: tuple[bytes, np.ndarray]) -> None:
        """Add a tokenized block of lines whole; ``_input.Refused``, the
        columns unchanged, if a line is a self-loop or a step of the block
        path refuses the block.

        ``_input.intern_fields`` looks up each distinct name of the block
        and checks the new ones once, and gives the block's codes, one row
        per column.
        """
        parents, children = intern_fields(block, [1, 0], self.numbers, False)  # parent first
        if (parents == children).any():  # a self-loop
            raise Refused
        self.parents.frombytes(parents.view(np.uint8))
        self.children.frombytes(children.view(np.uint8))


class _Vocabulary:
    """The identifiers of one hierarchy that a corpus uses, interned, and
    their self-inclusive ancestor sets: the engine's only copy of them.

    ``names`` are the distinct names passed in, id ``i`` being ``names[i]``;
    a corpus passes its identifier table, so the ids are its codes.  The
    sets hold the hierarchy's node numbers only: a name that is not a node
    holds none, and ``similarity_rows`` gives it its set of one.  They are
    stored inverted, per node: the ids whose set holds node ``n``,
    ascending, are ``holders[o[n]:o[n + 1]]``, with ``o = holder_offsets``,
    decoded once from the sorted (node, id) keys of
    :meth:`Hierarchy._holder_keys`.  ``holders`` holds ids below V, so it is
    int32 whenever V and N fit, as they do whenever the keys are int32: 4
    bytes a pair.  ``similarity_rows`` widens a row's holders to intp as it
    joins them, which ``np.bincount`` counts without a copy.
    ``holder_offsets`` is an ``array('q')``, as the hierarchy's parent
    store is: indexing it gives a Python int, which slices an array faster
    than a numpy integer does, and none is kept per node.  ``float_sizes``
    are the sets' sizes as float64, which ``similarity_rows`` builds its
    denominators from; the interned names whose set is empty are the ones
    that are not nodes, since every node's set holds the node itself, and
    ``strays`` maps each of them to its id.

    Only a seed document's keys are ids; names, an ad-hoc query's or a
    pattern's, are walked.  So the sets by id, :attr:`id_sets`, are built
    from ``holders`` on the first row keyed by an id and kept from then on.
    That build takes no lock: callers that share a vocabulary between
    threads hold one lock across their calls on it, as the retrieval
    engine holds its own, so the sets by id are built once.
    """

    def __init__(self, hierarchy: Hierarchy, names: Sequence[str]):
        self.hierarchy = hierarchy
        self.names = tuple(names)
        width, size = len(self.names), len(hierarchy)
        # The keys node * V + id, ascending, group the ids by node, ascending
        # within each.  Every id fits the holders' width; the keys' width
        # fits them too, so with int32 keys the remainders are the holders.
        keys = hierarchy._holder_keys(self.names)
        starts, self.holders = grouped(keys, size, width, key_dtype(max(width, size)))
        self.holder_offsets = array("q", starts.tobytes())
        del keys, starts
        # Counted a slice at a time, since np.bincount copies narrower ids
        # to intp: a slice as long as the sizes or the offsets copies no
        # more than they hold, and the slices take O(pairs) in all.
        sizes = np.zeros(width, dtype=np.intp)
        step = max(width, len(self.holder_offsets))
        for a in range(0, len(self.holders), step):
            sizes += np.bincount(self.holders[a:a + step], minlength=width)
        self.float_sizes = sizes.astype(float)
        self.strays = {self.names[i]: i for i in np.flatnonzero(sizes == 0).tolist()}
        self._id_sets: tuple[np.ndarray, array] | None = None

    @property
    def id_sets(self) -> tuple[np.ndarray, array]:
        """The sets by id, built on first use: id ``i``'s nodes, ascending,
        are ``nodes[s[i]:s[i + 1]]``, for ``(nodes, s)``.

        The holders, tagged with their nodes as keys ``id * N + node``,
        below V * N as the holder keys are, and sorted, group the nodes by
        id: an integer sort is several times faster than a stable argsort.
        Id i's start is the first key at or above i * N.  ``nodes`` is as
        narrow as ``holders`` and ``s`` is an ``array('q')``.
        """
        if self._id_sets is None:
            width, size = len(self.names), len(self.hierarchy)
            dtype = key_dtype(width * size)
            keys = self.holders.astype(dtype)
            keys *= size
            keys += np.repeat(
                np.arange(size, dtype=dtype), np.diff(np.frombuffer(self.holder_offsets, np.int64))
            )
            keys.sort()
            starts, nodes = grouped(keys, width, size, self.holders.dtype.type)
            self._id_sets = nodes, array("q", starts.tobytes())
        return self._id_sets

    def similarity_rows(self, keys: Sequence[int | str]) -> np.ndarray:
        """Jaccard of each key's ancestor set with every interned id's, in
        a new array, one row per key.

        A key is an interned id, such as a corpus code, or a name.  Row
        ``k`` equals ``hierarchy.similarity(name, v)`` for every interned
        ``v``, ``name`` being the key's name: the integer counts are the
        same, and so is the one division.  Only the holders of the key's
        own ancestors are counted, once per distinct key.  An id's set is
        read from :attr:`id_sets`; the names are walked, all in one call.

        A name that is not a node is its own set of one: its row is 0.0,
        and 1.0 at its own id if it is interned.  The index holds no node
        for it, so ``float_sizes`` counts none; in any other key's row its
        column reads ``0 / (size + 0 - 0)``, which is 0.0 whatever the size.
        """
        names = [key for key in dict.fromkeys(keys) if isinstance(key, str)]
        walked = dict(zip(names, self.hierarchy._node_sets(names))) if names else {}
        rows = np.empty((len(keys), len(self.names)))
        holders, offsets = self.holders, self.holder_offsets
        first: dict[int | str, int] = {}
        for k, key in enumerate(keys):
            seen = first.setdefault(key, k)
            if seen != k:
                rows[k] = rows[seen]
                continue
            if isinstance(key, str):
                own = list(walked[key] or ())
                self_id = self.strays.get(key)
            else:
                nodes, starts = self.id_sets
                own = nodes[starts[key]:starts[key + 1]].tolist()
                self_id = key
            if not own:
                rows[k] = 0.0
                if self_id is not None:
                    rows[k, self_id] = 1.0
                continue
            held = [holders[offsets[n]:offsets[n + 1]] for n in own]
            # Widened as they are joined: bincount would copy narrower ids.
            shared = np.bincount(np.concatenate(held, dtype=np.intp), minlength=len(self.names))
            # The denominator len(own) + size - shared, built in the row:
            # every count is an integer below 2**53, so each step is exact.
            row = rows[k]
            np.add(self.float_sizes, len(own), out=row)
            row -= shared
            np.divide(shared, row, out=row)
        return rows


def _heights(starts: np.ndarray, parent: np.ndarray, size: int) -> np.ndarray:
    """Each node's height, the longest path down to a leaf, given the
    distinct parents of each node ``n``, ``parent[starts[n]:starts[n + 1]]``.

    By Kahn peeling from each node's child count, one level at a time: the
    leaves make level 0, and a node is peeled one level after its last
    child, so the level that peels it is its height.  Each level costs a
    fixed few numpy calls, however few nodes it peels, while a peel of one
    node at a time costs a step per node and arc.  So once a level peels
    fewer nodes than the levels that the nodes left would fill at its
    width, the rest are peeled one at a time, each one above the highest
    of its children.  The nodes on a cycle, and every node above one, are
    never peeled: they take the sentinel ``size``, above every height.
    """
    children = np.bincount(parent, minlength=size)  # the children not yet peeled
    height = np.zeros(size, dtype=np.intp)  # one above the highest child peeled
    peeled = np.flatnonzero(children == 0)
    left = size - len(peeled)
    level = 0
    while len(peeled) and len(peeled) ** 2 >= left:
        ups = np.sort(parent[spans(starts, peeled)[0]])
        height[ups] = level + 1
        # The last arc of each parent's run, and the run's length.
        last = np.flatnonzero(np.diff(ups, append=size))
        ups = ups[last]
        children[ups] -= np.diff(last, prepend=-1)
        peeled = ups[children[ups] == 0]
        left -= len(peeled)
        level += 1
    if len(peeled):
        arcs, offsets = parent.tolist(), starts.tolist()
        counts, heights = children.tolist(), height.tolist()
        queue = peeled.tolist()
        for node in queue:  # grows as nodes are peeled
            above = heights[node] + 1
            for p in arcs[offsets[node]:offsets[node + 1]]:
                if heights[p] < above:
                    heights[p] = above
                counts[p] -= 1
                if counts[p] == 0:
                    queue.append(p)
        height = np.array(heights, dtype=np.intp)
        children = np.array(counts, dtype=np.intp)
    height[children > 0] = size
    return height


def parse_hierarchy(lines: Iterable[str], source: str = "<memory>") -> Hierarchy:
    """Parse ``child<TAB>parent`` lines; ``#`` comments and blanks ignored."""
    hierarchy = Hierarchy.__new__(Hierarchy)
    hierarchy._fill(read_blocks(lines, 2, source, _Edges()), source)
    return hierarchy


def load_hierarchy_file(path: str | Path) -> Hierarchy:
    return read_file(path, parse_hierarchy)
