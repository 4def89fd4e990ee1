import numpy as np
import pytest

from predsim import (
    EmptySetError,
    Hierarchy,
    Predication,
    PredicationSet,
    SimConfig,
    SimWeights,
    set_similarity,
)

from conftest import stub_sim
from oracles import make_identifier_sim, make_triple_sim, random_dag, set_sim_bruteforce


def pset(*preds):
    return PredicationSet.from_iterable(preds)


PA = Predication("sa", "ra", "oa")
PB = Predication("sb", "rb", "ob")
PC = Predication("sc", "rc", "oc")


def uniform_pair_stubs(pair_levels):
    """Stub sources giving every slot of a predication pair one level.

    pair_levels maps (left_tag, right_tag) -> similarity, where tags are
    the single-letter suffixes used by PA/PB/PC above.
    """
    concept, relation = {}, {}
    for (x, y), level in pair_levels.items():
        concept[(f"s{x}", f"s{y}")] = level
        concept[(f"o{x}", f"o{y}")] = level
        relation[(f"r{x}", f"r{y}")] = level
    return stub_sim(concept), stub_sim(relation)


class TestConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.weights == SimWeights()
        assert cfg.pair_threshold == 0.0

    @pytest.mark.parametrize("tau", [-0.1, 1.5])
    def test_threshold_out_of_range(self, tau):
        with pytest.raises(ValueError):
            SimConfig(pair_threshold=tau)

    @pytest.mark.parametrize("weights, kind", [(None, "NoneType"), ((1.0, 1.0, 1.0), "tuple")])
    def test_weights_must_be_sim_weights(self, weights, kind):
        # rejected when built, not at the first ranking call
        with pytest.raises(TypeError, match=rf"^weights must be SimWeights, got {kind}$"):
            SimConfig(weights=weights)

    @pytest.mark.parametrize("tau, kind", [("0.5", "str"), (None, "NoneType")])
    def test_threshold_must_be_a_number(self, tau, kind):
        with pytest.raises(TypeError, match=rf"^pair_threshold must be Real, got {kind}$"):
            SimConfig(pair_threshold=tau)

    @pytest.mark.parametrize("tau", [True, np.float32(0.5), np.int64(1)])
    def test_threshold_bool_and_numpy_scalars_allowed(self, tau):
        assert SimConfig(pair_threshold=tau).pair_threshold == tau


class TestSetSimilarity:
    def test_self_similarity_is_one(self, concept_h, relation_h):
        s = pset(
            Predication("C1", "TREATS", "OA"),
            Predication("C2", "PREVENTS", "OB"),
            Predication("D1", "CAUSES", "E1"),
        )
        score = set_similarity(
            s, s, SimConfig(), concept_h.similarity, relation_h.similarity
        )
        assert score == 1.0

    def test_single_pair_on_fixture(self, concept_h, relation_h):
        # components: subjects (C1, C2) = 0.5, relation identity = 1.0,
        # objects (OA, OB) = 0.3 -> predication sim 0.6, set sim 0.6
        s1 = pset(Predication("C1", "TREATS", "OA"))
        s2 = pset(Predication("C2", "TREATS", "OB"))
        score = set_similarity(
            s1, s2, SimConfig(), concept_h.similarity, relation_h.similarity
        )
        assert score == pytest.approx(0.6, abs=1e-12)

    def test_two_against_one(self):
        concept, relation = uniform_pair_stubs({("a", "c"): 0.8, ("b", "c"): 0.4})
        score = set_similarity(
            pset(PA, PB), pset(PC), SimConfig(), concept, relation
        )
        # best matches: PA->0.8, PB->0.4, PC->0.8 over 3 terms
        assert score == pytest.approx(0.6666666666666666, abs=1e-12)

    def test_threshold_zeroes_weak_terms(self):
        concept, relation = uniform_pair_stubs({("a", "c"): 0.8, ("b", "c"): 0.4})
        score = set_similarity(
            pset(PA, PB), pset(PC), SimConfig(pair_threshold=0.5), concept, relation
        )
        assert score == pytest.approx(0.5333333333333333, abs=1e-12)

    def test_threshold_boundary_term_is_kept(self):
        concept, relation = uniform_pair_stubs({("a", "c"): 0.5})
        score = set_similarity(
            pset(PA), pset(PC), SimConfig(pair_threshold=0.5), concept, relation
        )
        assert score == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("left_empty", [True, False])
    def test_empty_side_rejected(self, left_empty, concept_h, relation_h):
        full = pset(Predication("C1", "TREATS", "OA"))
        empty = PredicationSet(())
        s1, s2 = (empty, full) if left_empty else (full, empty)
        with pytest.raises(EmptySetError):
            set_similarity(s1, s2, SimConfig(), concept_h.similarity, relation_h.similarity)


class TestProperties:
    def _random_sets(self, rng, nodes, relations, max_size=5):
        def triples(k):
            out = set()
            for _ in range(k):
                s, o = (nodes[int(i)] for i in rng.integers(0, len(nodes), size=2))
                r = relations[int(rng.integers(0, len(relations)))]
                out.add(Predication(s, r, o))
            return PredicationSet.from_iterable(out)

        return (
            triples(int(rng.integers(1, max_size + 1))),
            triples(int(rng.integers(1, max_size + 1))),
        )

    def test_symmetry_exact(self, concept_h, relation_h):
        rng = np.random.default_rng(23)
        nodes = sorted(concept_h.nodes)
        rels = sorted(relation_h.nodes)
        for _ in range(50):
            s1, s2 = self._random_sets(rng, nodes, rels)
            cfg = SimConfig(pair_threshold=float(rng.uniform(0, 1)))
            ab = set_similarity(s1, s2, cfg, concept_h.similarity, relation_h.similarity)
            ba = set_similarity(s2, s1, cfg, concept_h.similarity, relation_h.similarity)
            assert ab == ba

    def test_range(self, concept_h, relation_h):
        rng = np.random.default_rng(29)
        nodes = sorted(concept_h.nodes)
        rels = sorted(relation_h.nodes)
        for _ in range(50):
            s1, s2 = self._random_sets(rng, nodes, rels)
            score = set_similarity(
                s1, s2, SimConfig(), concept_h.similarity, relation_h.similarity
            )
            assert 0.0 <= score <= 1.0

    def test_threshold_monotonicity(self, concept_h, relation_h):
        rng = np.random.default_rng(31)
        nodes = sorted(concept_h.nodes)
        rels = sorted(relation_h.nodes)
        taus = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        for _ in range(25):
            s1, s2 = self._random_sets(rng, nodes, rels)
            scores = [
                set_similarity(
                    s1,
                    s2,
                    SimConfig(pair_threshold=tau),
                    concept_h.similarity,
                    relation_h.similarity,
                )
                for tau in taus
            ]
            for earlier, later in zip(scores, scores[1:]):
                assert later <= earlier

    def test_matches_bruteforce_on_random_hierarchies(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            cnodes, cedges = random_dag(rng, max_nodes=12, max_edges=20)
            rnodes, redges = random_dag(rng, max_nodes=5, max_edges=6)
            ch = Hierarchy(cedges)
            rh = Hierarchy(redges)
            s1, s2 = self._random_sets(rng, cnodes, rnodes)
            got = set_similarity(
                s1, s2, SimConfig(), ch.similarity, rh.similarity
            )
            oracle_triple = make_triple_sim(
                make_identifier_sim(cnodes, cedges), make_identifier_sim(rnodes, redges)
            )
            want = set_sim_bruteforce(
                [(p.subject, p.relation, p.object) for p in s1],
                [(p.subject, p.relation, p.object) for p in s2],
                oracle_triple,
            )
            assert got == pytest.approx(want, abs=1e-12)
