import warnings

import numpy as np
import pytest

from predsim import (
    Hierarchy,
    LoadError,
    Predication,
    PredicationSet,
    RetrievalEngine,
    load_hierarchy,
    load_hierarchy_file,
    parse_hierarchy,
)

from oracles import closure_ancestor_sets, make_identifier_sim, random_cyclic_graph, random_dag


class TestLoading:
    def test_single_edge(self):
        h = load_hierarchy([("A", "R")])
        assert h.nodes == {"A", "R"}
        assert h.edges == {("A", "R")}

    def test_duplicate_edges_collapse(self):
        h = load_hierarchy([("A", "R"), ("A", "R")])
        assert len(h.edges) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(LoadError, match="self-loop"):
            load_hierarchy([("A", "A")])

    def test_self_loop_names_line(self):
        with pytest.raises(LoadError, match=r"^h\.tsv: line 3: self-loop edge 'C' -> 'C'$"):
            parse_hierarchy(["A\tR\n", "# c\n", "C\tC\n"], source="h.tsv")

    def test_self_loop_names_record(self):
        with pytest.raises(LoadError, match=r"^<records>: record 2: self-loop edge"):
            load_hierarchy([("A", "R"), ("B", "B")])

    def test_self_loop_rejected_by_constructor(self):
        with pytest.raises(LoadError, match=r"^<memory>: self-loop edge 'A' -> 'A'$"):
            Hierarchy([("A", "R"), ("A", "A")])

    def test_bad_identifier_names_line(self):
        with pytest.raises(LoadError, match=r"^h: line 2: child identifier contains tab or newline$"):
            parse_hierarchy(["A\tR\n", "B\rX\tR\n"], source="h")
        with pytest.raises(LoadError, match=r"^h: line 1: empty parent identifier$"):
            parse_hierarchy(["A\t\n"], source="h")

    def test_wrong_field_count_names_record(self):
        with pytest.raises(LoadError, match="record 2: expected 2 fields"):
            load_hierarchy([("A", "R"), ("A", "R", "X")])

    def test_empty_token_rejected(self):
        with pytest.raises(LoadError, match="empty"):
            load_hierarchy([("A", "")])

    def test_parse_lines_with_comments_and_blanks(self):
        lines = ["# comment\n", "\n", "A\tR\n", "  \n", "B\tR\n"]
        h = parse_hierarchy(lines)
        assert h.edges == {("A", "R"), ("B", "R")}

    def test_parse_error_names_line(self):
        with pytest.raises(LoadError, match="line 2: expected 2 fields, got 3"):
            parse_hierarchy(["A\tR\n", "B\tR\tX\n"])

    def test_parse_crlf_tolerated(self):
        h = parse_hierarchy(["A\tR\r\n"])
        assert h.edges == {("A", "R")}

    def test_load_file(self, tmp_path):
        path = tmp_path / "h.tsv"
        path.write_text("# concept hierarchy\nA\tR\n", encoding="utf-8")
        h = load_hierarchy_file(path)
        assert h.nodes == {"A", "R"}
        assert h.source == str(path)

    def test_load_file_ignores_byte_order_mark(self, tmp_path):
        path = tmp_path / "h.tsv"
        path.write_text("\ufeffA\tP\nB\tP\nP\tR\n", encoding="utf-8")
        h = load_hierarchy_file(path)
        assert h.nodes == {"A", "B", "P", "R"}
        assert h.similarity("A", "B") == 0.5


class TestAncestors:
    def test_chain(self):
        h = load_hierarchy([("C1", "A"), ("A", "R")])
        assert h.ancestors("C1") == {"C1", "A", "R"}

    def test_root_is_only_itself(self):
        h = load_hierarchy([("C1", "A"), ("A", "R")])
        assert h.ancestors("R") == {"R"}

    def test_unknown_identifier(self):
        h = load_hierarchy([("C1", "A")])
        assert h.ancestors("nope") == {"nope"}

    def test_polyhierarchy_union(self):
        h = load_hierarchy([("C", "P1"), ("C", "P2"), ("P1", "R"), ("P2", "R")])
        assert h.ancestors("C") == {"C", "P1", "P2", "R"}

    def test_memoized_result_reused(self, concept_h):
        first = concept_h.ancestors("C1")
        again = concept_h.ancestors("C1")
        assert first is again

    def test_memo_holds_hierarchy_nodes_only(self, concept_h, relation_h, small_corpus):
        engine = RetrievalEngine(concept_h, relation_h)
        engine.query_documents(small_corpus, small_corpus["d1"], top_n=2)  # builds the index
        concept_h.similarity("C1", "C2")
        sizes = len(concept_h._ancestor_memo), len(relation_h._ancestor_memo)
        for i in range(1000):
            assert concept_h.similarity(f"unknown{i}", "C1") == 0.0
        for i in range(50):
            query = PredicationSet.from_iterable([Predication(f"S{i}", f"REL{i}", f"O{i}")])
            engine.query_documents(small_corpus, query, top_n=2)
        assert (len(concept_h._ancestor_memo), len(relation_h._ancestor_memo)) == sizes
        assert set(concept_h._ancestor_memo) <= concept_h.nodes
        assert set(relation_h._ancestor_memo) <= relation_h.nodes

    def test_long_chain_no_recursion_limit(self):
        edges = [(f"n{i}", f"n{i + 1}") for i in range(5000)]
        h = load_hierarchy(edges)
        assert len(h.ancestors("n0")) == 5001

    def test_deep_chain_leaf_first_then_root(self):
        # only requested sets are memoized: memoizing every intermediate
        # set of this chain would take about 1.25e9 set entries
        n = 50_000
        h = load_hierarchy([(f"n{i}", f"n{i + 1}") for i in range(n)])
        assert len(h.ancestors("n0")) == n + 1
        assert h.ancestors(f"n{n}") == {f"n{n}"}
        assert len(h.ancestors(f"n{n - 10}")) == 11
        assert len(h.ancestors("n1")) == n

    def test_ancestor_sets_equal_single_lookups(self, concept_h):
        names = sorted(concept_h.nodes) + ["ghost", "C1"]
        fresh = Hierarchy(list(concept_h.edges))
        assert fresh.ancestor_sets(names) == [concept_h.ancestors(n) for n in names]


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
            h = load_hierarchy(edges)
            assert h.similarity("leaf1", "leaf2") == depth / (depth + 2)


class TestCycles:
    def test_cycle_warns_at_load(self):
        with pytest.warns(UserWarning, match="cycle"):
            load_hierarchy([("A", "B"), ("B", "A")])

    def test_cycle_members_become_mutual_ancestors(self):
        with pytest.warns(UserWarning):
            h = load_hierarchy([("A", "B"), ("B", "C"), ("C", "A")])
        assert h.ancestors("A") == {"A", "B", "C"}
        assert h.similarity("A", "B") == 1.0

    def test_acyclic_load_does_not_warn(self, recwarn):
        load_hierarchy([("A", "B"), ("B", "C")])
        assert not recwarn.list

    def test_nodes_below_a_cycle_reach_all_of_it(self):
        with pytest.warns(UserWarning, match="3 nodes involved"):
            h = load_hierarchy([("A", "B"), ("B", "C"), ("C", "B"), ("C", "TOP"), ("L", "A")])
        assert h.ancestors("L") == {"L", "A", "B", "C", "TOP"}
        assert h.ancestors("B") == {"B", "C", "TOP"}


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
        # every node, asked in a random order so memoized sets are met at
        # varying points of the walk, then all at once on a fresh hierarchy
        rng = np.random.default_rng(11)
        for _ in range(200):
            nodes, edges = random_cyclic_graph(rng)
            expected = closure_ancestor_sets(nodes, edges)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                h = load_hierarchy(edges)
                fresh = load_hierarchy(edges)
            for k in rng.permutation(len(nodes)):
                assert h.ancestors(nodes[k]) == expected[nodes[k]]
            order = [nodes[k] for k in rng.permutation(len(nodes))]
            assert fresh.ancestor_sets(order) == [expected[n] for n in order]

    def test_random_dags_match_closure_in_batches(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            nodes, edges = random_dag(rng)
            expected = closure_ancestor_sets(nodes, edges)
            h = load_hierarchy(edges)
            half = [nodes[k] for k in rng.permutation(len(nodes))[: len(nodes) // 2]]
            assert h.ancestor_sets(half) == [expected[n] for n in half]
            assert h.ancestor_sets(nodes) == [expected[n] for n in nodes]

    def test_random_dags_match_bruteforce(self):
        # nodes the random DAG leaves edgeless are absent from the loaded
        # hierarchy; both sides then give them the ancestor set {self}
        rng = np.random.default_rng(7)
        for _ in range(50):
            nodes, edges = random_dag(rng)
            h = load_hierarchy(edges)
            oracle = make_identifier_sim(nodes, edges)
            for a in nodes:
                for b in nodes:
                    assert h.similarity(a, b) == oracle(a, b)
