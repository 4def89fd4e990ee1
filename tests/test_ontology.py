import warnings
from collections.abc import Collection

import numpy as np
import pytest

from predsim import (
    Hierarchy,
    LoadError,
    Predication,
    PredicationSet,
    RetrievalEngine,
    load_hierarchy_file,
    parse_hierarchy,
)

from predsim import ontology
from predsim._arrays import segment_offsets

from conftest import traced_memory
from oracles import closure_ancestor_sets, make_identifier_sim, random_cyclic_graph, random_dag


def ancestor_sets(h, names):
    """Each name's ancestor set from one batch of the hierarchy's walk,
    decoded to names."""
    return [
        frozenset((name,)) if nodes is None else frozenset(h._names[n] for n in nodes)
        for name, nodes in zip(names, h._node_sets(names))
    ]


class TestLoading:
    def test_single_edge(self):
        h = Hierarchy([("A", "R")])
        assert h.nodes == {"A", "R"}
        assert h.edges == {("A", "R")}

    def test_size_membership_and_repr(self):
        h = Hierarchy([("A", "R"), ("B", "R"), ("A", "R")])
        assert len(h) == 3
        assert "A" in h and "R" in h
        assert "Z" not in h
        assert repr(h) == "Hierarchy(3 nodes, 2 edges)"

    def test_duplicate_edges_collapse(self):
        h = Hierarchy([("A", "R"), ("A", "R")])
        assert len(h.edges) == h.edge_count == 1

    def test_nodes_numbered_by_ascending_height(self):
        # Heights: a, d 0; b 1; c 2; x, y (a cycle) and z (above it) the
        # sentinel.  Within a height, nodes keep the order first met, a
        # record's parent before its child.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            h = Hierarchy(
                [("x", "y"), ("y", "x"), ("y", "z"),
                 ("a", "b"), ("b", "c"), ("d", "c"), ("d", "x")]
            )
        assert h._names == ["a", "d", "b", "c", "y", "x", "z"]
        assert h._numbers == {name: n for n, name in enumerate(h._names)}
        assert h._height.tolist() == [0, 0, 1, 2, 7, 7, 7]
        starts, parents = list(h._parent_starts), list(h._parent_nodes)
        assert starts == [0, 1, 3, 4, 4, 6, 7, 7]
        assert parents == [2, 3, 5, 3, 5, 6, 4]
        assert h.edges == {
            ("x", "y"), ("y", "x"), ("y", "z"), ("a", "b"), ("b", "c"), ("d", "c"), ("d", "x")
        }

    def test_self_loop_rejected(self):
        with pytest.raises(LoadError, match="self-loop"):
            Hierarchy([("A", "A")])

    def test_self_loop_names_line(self):
        with pytest.raises(LoadError, match=r"^h\.tsv: line 3: self-loop edge 'C' -> 'C'$"):
            parse_hierarchy(["A\tR\n", "# c\n", "C\tC\n"], source="h.tsv")

    def test_self_loop_names_record(self):
        with pytest.raises(LoadError, match=r"^<memory>: record 2: self-loop edge"):
            Hierarchy([("A", "R"), ("B", "B")])

    def test_self_loop_rejected_by_constructor(self):
        with pytest.raises(LoadError, match=r"^<memory>: record 2: self-loop edge 'A' -> 'A'$"):
            Hierarchy([("A", "R"), ("A", "A")])

    def test_constructor_rejects_wrong_field_count(self):
        with pytest.raises(LoadError, match=r"^<memory>: record 1: expected 2 fields, got 3$"):
            Hierarchy([("A", "B", "C")])

    def test_bad_identifier_fails_where_first_seen(self):
        # the bad parent on line 3 recurs as a child on line 5: it never
        # entered the node table, so line 3 fails with the parent message
        lines = ["A\tR\n", "B\tR\n", "C\tX\rY\n", "D\tR\n", "X\rY\tR\n"]
        with pytest.raises(
            LoadError, match=r"^h: line 3: parent identifier contains tab or newline$"
        ):
            parse_hierarchy(lines, source="h")
        edges = [("A", "R"), ("B", "R"), ("C", "X\tY"), ("D", "R"), ("X\tY", "R")]
        with pytest.raises(
            LoadError, match=r"^<memory>: record 3: parent identifier contains tab or newline$"
        ):
            Hierarchy(edges)

    def test_entry_points_build_equal_hierarchies(self):
        rng = np.random.default_rng(17)
        for make in (random_dag, random_cyclic_graph):
            for _ in range(50):
                _, edges = make(rng)
                lines = [f"{child}\t{parent}\n" for child, parent in edges]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # cycles are reported with a warning
                    built = [Hierarchy(edges), parse_hierarchy(lines)]
                expected_nodes = {n for edge in edges for n in edge}
                for h in built:
                    assert h.nodes == expected_nodes
                    assert h.edges == set(edges)

    def test_bad_identifier_names_line(self):
        with pytest.raises(LoadError, match=r"^h: line 2: child identifier contains tab or newline$"):
            parse_hierarchy(["A\tR\n", "B\rX\tR\n"], source="h")
        with pytest.raises(LoadError, match=r"^h: line 1: empty parent identifier$"):
            parse_hierarchy(["A\t\n"], source="h")

    def test_wrong_field_count_names_record(self):
        with pytest.raises(LoadError, match="record 2: expected 2 fields"):
            Hierarchy([("A", "R"), ("A", "R", "X")])

    def test_empty_token_rejected(self):
        with pytest.raises(LoadError, match="empty"):
            Hierarchy([("A", "")])

    def test_parse_lines_with_comments_and_blanks(self):
        lines = ["# comment\n", "\n", "A\tR\n", "  \n", "B\tR\n"]
        h = parse_hierarchy(lines)
        assert h.edges == {("A", "R"), ("B", "R")}

    def test_parse_error_names_line(self):
        with pytest.raises(LoadError, match="line 2: expected 2 fields, got 3"):
            parse_hierarchy(["A\tR\n", "B\tR\tX\n"])

    @pytest.mark.parametrize("line", [b"B\tR\n", None, 7])
    def test_line_that_is_not_a_str_names_its_line(self, line):
        with pytest.raises(LoadError) as raised:
            parse_hierarchy(["A\tR\n", "# c\n", line], source="h")
        assert str(raised.value) == f"h: line 3: line must be a string, got {type(line).__name__}"
        # An earlier bad line is reported first.
        with pytest.raises(LoadError, match=r"^h: line 1: expected 2 fields, got 1$"):
            parse_hierarchy(["A\n", line], source="h")

    def test_parse_crlf_tolerated(self):
        h = parse_hierarchy(["A\tR\r\n"])
        assert h.edges == {("A", "R")}

    def test_load_file(self, tmp_path):
        path = tmp_path / "h.tsv"
        path.write_text("# concept hierarchy\nA\tR\n", encoding="utf-8")
        h = load_hierarchy_file(path)
        assert h.nodes == {"A", "R"}
        assert h.source == str(path)
        assert load_hierarchy_file(f"{tmp_path}/./h.tsv").source == str(path)

    def test_load_file_ignores_byte_order_mark(self, tmp_path):
        path = tmp_path / "h.tsv"
        path.write_text("\ufeffA\tP\nB\tP\nP\tR\n", encoding="utf-8")
        h = load_hierarchy_file(path)
        assert h.nodes == {"A", "B", "P", "R"}
        assert h.similarity("A", "B") == 0.5


class TestLoadMemory:
    def test_load_peak_stays_near_what_the_hierarchy_holds(self):
        # The traced allocation peak of a load of a shallow polyhierarchy
        # (depth 11), against what the loaded hierarchy holds: about 1.77
        # times, since the name table is renumbered in place.  Building a
        # second name-to-number dict beside the first, it was about 2.2.
        lines = _peak_hierarchy_lines()
        parse_hierarchy(lines)  # numpy's first calls allocate caches
        with traced_memory() as memory:
            hierarchy = parse_hierarchy(lines)
            held, peak = memory()
        assert len(hierarchy) == 6_000 and int(hierarchy._height.max()) < 12
        assert peak < 2.1 * held, (peak, held)
        assert hierarchy.edges == {tuple(line[:-1].split("\t")) for line in lines}

    def test_file_load_peak_stays_near_what_the_hierarchy_holds(self, tmp_path):
        # The same hierarchy read from its 149 kB file: about 1.71 times, as
        # given in memory, since the load peaks once the edges are read.  A
        # reader that holds the file's lines through the load peaks at about
        # 2.64 times.
        lines = _peak_hierarchy_lines()
        path = tmp_path / "concepts.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        load_hierarchy_file(path)
        with traced_memory() as memory:
            hierarchy = load_hierarchy_file(path)
            held, peak = memory()
        assert peak < 2.0 * held, (peak, held)
        assert hierarchy.edges == {tuple(line[:-1].split("\t")) for line in lines}


def _peak_hierarchy_lines():
    """The edge lines of a shallow polyhierarchy of 6,000 nodes, a tenth
    of them duplicates to drop."""
    rng = np.random.default_rng(22)
    lines = []
    for child in range(1, 6_000):
        picks = rng.integers(child // 3, max(child // 3 + 1, child // 2), int(rng.integers(1, 4)))
        lines += [f"n{child}\tn{parent}\n" for parent in set(picks.tolist())]
    return lines + lines[::10]


class TestAncestors:
    def test_chain(self):
        h = Hierarchy([("C1", "A"), ("A", "R")])
        assert h.ancestors("C1") == {"C1", "A", "R"}

    def test_root_is_only_itself(self):
        h = Hierarchy([("C1", "A"), ("A", "R")])
        assert h.ancestors("R") == {"R"}

    def test_unknown_identifier(self):
        h = Hierarchy([("C1", "A")])
        assert h.ancestors("nope") == {"nope"}

    def test_polyhierarchy_union(self):
        h = Hierarchy([("C", "P1"), ("C", "P2"), ("P1", "R"), ("P2", "R")])
        assert h.ancestors("C") == {"C", "P1", "P2", "R"}

    def test_lookups_leave_the_hierarchies_unchanged(self, concept_h, relation_h, small_corpus):
        def sizes(h):  # the parent store is two flat arrays, so this covers it
            return {
                name: len(value)
                for name, value in vars(h).items()
                if isinstance(value, Collection) and not isinstance(value, str)
            }

        before = sizes(concept_h), sizes(relation_h)
        engine = RetrievalEngine(concept_h, relation_h)
        engine.query_documents(small_corpus, small_corpus["d1"], top_n=2)  # builds the index
        for i in range(1000):
            assert concept_h.similarity(f"unknown{i}", "C1") == 0.0
        for i in range(50):
            query = PredicationSet.from_iterable([Predication(f"S{i}", f"REL{i}", f"O{i}")])
            engine.query_documents(small_corpus, query, top_n=2)
        assert (sizes(concept_h), sizes(relation_h)) == before

    def test_long_chain_no_recursion_limit(self):
        edges = [(f"n{i}", f"n{i + 1}") for i in range(5000)]
        h = Hierarchy(edges)
        assert len(h.ancestors("n0")) == 5001

    def test_deep_chain_leaf_first_then_root(self):
        # only requested sets are built: building every intermediate set
        # of this chain would take about 1.25e9 set entries
        n = 50_000
        h = Hierarchy([(f"n{i}", f"n{i + 1}") for i in range(n)])
        assert len(h.ancestors("n0")) == n + 1
        assert h.ancestors(f"n{n}") == {f"n{n}"}
        assert len(h.ancestors(f"n{n - 10}")) == 11
        assert len(h.ancestors("n1")) == n

    def test_ancestor_sets_equal_single_lookups(self, concept_h):
        names = sorted(concept_h.nodes) + ["ghost", "C1"]
        fresh = Hierarchy(list(concept_h.edges))
        assert ancestor_sets(fresh, names) == [concept_h.ancestors(n) for n in names]


class TestSimilarity:
    def test_identity_present(self, concept_h):
        assert concept_h.similarity("C1", "C1") == 1.0

    def test_identity_absent(self, concept_h):
        assert concept_h.similarity("ghost", "ghost") == 1.0

    def test_siblings_under_shared_parent(self, concept_h):
        # {C1, A, R} vs {C2, A, R}: 2 shared, union 4
        assert concept_h.similarity("C1", "C2") == 0.5

    def test_disjoint_roots(self, concept_h):
        assert concept_h.similarity("R", "E1") == 0.0

    def test_unknown_vs_known(self, concept_h):
        assert concept_h.similarity("ghost", "C1") == 0.0

    @pytest.mark.parametrize("name", [1, np.int64(1), 1.0, True])
    def test_name_outside_the_hierarchy_equals_only_itself(self, name):
        # "b" is node number 1; a name that is not a node must not meet it.
        h = Hierarchy([("a", "b")])
        assert h._numbers["b"] == 1
        for other in ("a", "b", "ghost", 2):
            assert h.similarity(name, other) == h.similarity(other, name) == 0.0
        assert h.similarity(name, name) == 1.0
        assert h.similarity(name, 1) == 1.0  # an equal name

    def test_relation_siblings(self, relation_h):
        assert relation_h.similarity("TREATS", "PREVENTS") == 0.5

    def test_relation_identity(self, relation_h):
        assert relation_h.similarity("TREATS", "TREATS") == 1.0

    def test_relations_without_shared_ancestor(self, relation_h):
        assert relation_h.similarity("TREATS", "UNRELATED_REL") == 0.0

    def test_symmetry_exact(self, concept_h):
        nodes = sorted(concept_h.nodes) + ["ghost"]
        for a in nodes:
            for b in nodes:
                assert concept_h.similarity(a, b) == concept_h.similarity(b, a)

    def test_range(self, concept_h):
        nodes = sorted(concept_h.nodes)
        for a in nodes:
            for b in nodes:
                assert 0.0 <= concept_h.similarity(a, b) <= 1.0

    def test_distinct_present_nodes_never_reach_one(self, concept_h):
        # both self-members always differ in an acyclic hierarchy
        nodes = sorted(concept_h.nodes)
        for a in nodes:
            for b in nodes:
                if a != b:
                    assert concept_h.similarity(a, b) < 1.0

    def test_deeper_siblings_are_more_similar(self):
        # two leaves under a chain of d nodes share d ancestors of d+2 total
        for depth in (1, 2, 3, 10):
            chain = [(f"c{i}", f"c{i + 1}") for i in range(depth - 1)]
            edges = chain + [("leaf1", "c0"), ("leaf2", "c0")]
            h = Hierarchy(edges)
            assert h.similarity("leaf1", "leaf2") == depth / (depth + 2)


class TestCycles:
    def test_cycle_warns_at_load(self):
        with pytest.warns(UserWarning, match="cycle"):
            Hierarchy([("A", "B"), ("B", "A")])

    @pytest.mark.parametrize("entry", ["Hierarchy", "parse_hierarchy", "load_hierarchy_file"])
    def test_cycle_warning_points_at_the_caller(self, entry, tmp_path):
        lines = ["A\tB\n", "B\tA\n"]
        path = tmp_path / "cyclic.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.warns(UserWarning, match="cycle") as caught:
            if entry == "Hierarchy":
                Hierarchy([("A", "B"), ("B", "A")])
            elif entry == "parse_hierarchy":
                parse_hierarchy(lines)
            else:
                load_hierarchy_file(path)
        assert [w.filename for w in caught] == [__file__]

    def test_cycle_members_become_mutual_ancestors(self):
        with pytest.warns(UserWarning):
            h = Hierarchy([("A", "B"), ("B", "C"), ("C", "A")])
        assert h.ancestors("A") == {"A", "B", "C"}
        assert h.similarity("A", "B") == 1.0

    def test_acyclic_load_does_not_warn(self, recwarn):
        Hierarchy([("A", "B"), ("B", "C")])
        assert not recwarn.list

    def test_nodes_below_a_cycle_reach_all_of_it(self):
        with pytest.warns(UserWarning, match="3 nodes involved"):
            h = Hierarchy([("A", "B"), ("B", "C"), ("C", "B"), ("C", "TOP"), ("L", "A")])
        assert h.ancestors("L") == {"L", "A", "B", "C", "TOP"}
        assert h.ancestors("B") == {"B", "C", "TOP"}


def _heights_by_scalar_peel(starts, parent, size):
    """``ontology._heights`` as first written: a Kahn peel one node at a
    time, each node one above the highest of its children."""
    ups = parent.tolist()
    starts = starts.tolist()
    children = np.bincount(parent, minlength=size).tolist()
    height = [0] * size
    peeled = [n for n, k in enumerate(children) if k == 0]
    for node in peeled:
        for p in ups[starts[node]:starts[node + 1]]:
            height[p] = max(height[p], height[node] + 1)
            children[p] -= 1
            if children[p] == 0:
                peeled.append(p)
    return [size if k else h for h, k in zip(height, children)]


class TestHeights:
    """``_heights``, which peels a level at a time in numpy and hands a
    thin tail to a peel of one node at a time, against the scalar peel."""

    @staticmethod
    def _arcs(edges):
        """The distinct parents of each node of the edges, numbered by
        name, as ``parent[starts[n]:starts[n + 1]]``, and the number of
        nodes: ``(starts, parent, size)``."""
        names = sorted({name for edge in edges for name in edge})
        number = {name: n for n, name in enumerate(names)}
        arcs = np.unique([number[c] * len(names) + number[p] for c, p in edges])
        child, parent = np.divmod(arcs, len(names))
        return segment_offsets(np.bincount(child, minlength=len(names))), parent, len(names)

    def test_random_graphs_with_and_without_cycles(self):
        rng = np.random.default_rng(31)
        for graph in (random_dag, random_cyclic_graph):
            for _ in range(300):
                _, edges = graph(rng, max_nodes=40, max_edges=80)
                if edges:
                    starts, parent, size = self._arcs(edges)
                    got = ontology._heights(starts, parent, size)
                    assert got.tolist() == _heights_by_scalar_peel(starts, parent, size)

    def test_wide_levels_then_a_thin_tail(self):
        # 600 leaves under 30 nodes, under one 200-node chain with a cycle
        # on top: the wide levels are peeled in numpy, the chain one node
        # at a time, and the cycle and a node above it are never peeled.
        edges = [(f"l{j}", f"m{j % 30}") for j in range(600)]
        edges += [(f"m{k}", "q0") for k in range(30)]
        edges += [(f"q{i}", f"q{i + 1}") for i in range(199)]
        edges += [("q199", "c0"), ("c0", "c1"), ("c1", "c0"), ("c1", "top")]
        starts, parent, size = self._arcs(edges)
        got = ontology._heights(starts, parent, size)
        assert got.tolist() == _heights_by_scalar_peel(starts, parent, size)
        assert sorted(got.tolist())[-5:] == [200, 201, size, size, size]

    def test_deep_chain_peels_at_most_one_level_in_numpy(self, monkeypatch):
        # Each level peeled in numpy gathers its nodes' arcs with one spans
        # call; a chain's one leaf is fewer nodes than the levels above it.
        calls = []
        spans = ontology.spans

        def counted(*args):
            calls.append(len(args[1]))
            return spans(*args)

        monkeypatch.setattr(ontology, "spans", counted)
        n = 50_000
        chain = Hierarchy([(f"n{i}", f"n{i + 1}") for i in range(n - 1)])
        assert len(calls) <= 1
        assert chain._height.tolist() == list(range(n))
        assert chain._names[:3] == ["n0", "n1", "n2"]


class TestConcurrentReads:
    def test_parallel_ancestor_lookups_agree(self, concept_h):
        from concurrent.futures import ThreadPoolExecutor

        nodes = sorted(concept_h.nodes) * 20
        expected = {n: concept_h.ancestors(n) for n in set(nodes)}
        fresh = Hierarchy(list(concept_h.edges))
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(fresh.ancestors, nodes))
        for node, got in zip(nodes, results):
            assert got == expected[node]


class TestOracleEquivalence:
    def test_random_cyclic_graphs_match_closure(self):
        # every node, asked one at a time in a random order, then all at
        # once, shuffled, with duplicates and an unknown name, so sets
        # walked earlier in the batch are met at varying points of a walk
        rng = np.random.default_rng(11)
        for _ in range(200):
            nodes, edges = random_cyclic_graph(rng)
            expected = closure_ancestor_sets(nodes, edges)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                h = Hierarchy(edges)
            for k in rng.permutation(len(nodes)):
                assert h.ancestors(nodes[k]) == expected[nodes[k]]
            order = [nodes[k] for k in rng.permutation(len(nodes))]
            order += ["ghost"] + order[: len(order) // 2]
            rng.shuffle(order)
            expected["ghost"] = {"ghost"}
            assert ancestor_sets(h, order) == [expected[n] for n in order]

    def test_random_dags_match_closure_in_batches(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            nodes, edges = random_dag(rng)
            expected = closure_ancestor_sets(nodes, edges)
            h = Hierarchy(edges)
            half = [nodes[k] for k in rng.permutation(len(nodes))[: len(nodes) // 2]]
            assert ancestor_sets(h, half) == [expected[n] for n in half]
            assert ancestor_sets(h, nodes) == [expected[n] for n in nodes]

    def test_random_dags_match_bruteforce(self):
        # nodes the random DAG leaves edgeless are absent from the loaded
        # hierarchy; both sides then give them the ancestor set {self}
        rng = np.random.default_rng(7)
        for _ in range(50):
            nodes, edges = random_dag(rng)
            h = Hierarchy(edges)
            oracle = make_identifier_sim(nodes, edges)
            for a in nodes:
                for b in nodes:
                    assert h.similarity(a, b) == oracle(a, b)
