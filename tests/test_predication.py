import numpy as np
import pytest

from predsim import (
    LoadError,
    Predication,
    PredicationPattern,
    PredicationSet,
    SimWeights,
    format_pattern,
    format_predication,
    parse_pattern,
    parse_predication,
    pattern_similarity,
    predication_similarity,
)

from conftest import stub_sim


class TestPredicationType:
    def test_slots(self):
        p = Predication("ASPIRIN", "TREATS", "HEADACHE")
        assert (p.subject, p.relation, p.object) == ("ASPIRIN", "TREATS", "HEADACHE")

    def test_equality_is_slotwise(self):
        assert Predication("a", "b", "c") == Predication("a", "b", "c")
        assert Predication("a", "b", "c") != Predication("a", "b", "d")

    def test_empty_slot_rejected(self):
        with pytest.raises(LoadError, match="empty"):
            Predication("", "TREATS", "HEADACHE")

    @pytest.mark.parametrize("bad", ["a|b", "a\tb", "a\nb", "a\rb", "?"])
    def test_forbidden_tokens_rejected(self, bad):
        with pytest.raises(LoadError):
            Predication("ASPIRIN", "TREATS", bad)

    def test_instances_are_slotted(self):
        p = Predication("ASPIRIN", "TREATS", "HEADACHE")
        assert not hasattr(p, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(p, "note", "x")


class TestLiterals:
    def test_parse_roundtrip(self):
        p = parse_predication("ASPIRIN|TREATS|HEADACHE")
        assert p == Predication("ASPIRIN", "TREATS", "HEADACHE")
        assert format_predication(p) == "ASPIRIN|TREATS|HEADACHE"

    def test_parse_wrong_field_count_names_literal(self):
        with pytest.raises(LoadError, match=r"ASPIRIN\|TREATS"):
            parse_predication("ASPIRIN|TREATS")

    def test_parse_rejects_wildcard_slot(self):
        with pytest.raises(LoadError, match="wildcard"):
            parse_predication("?|TREATS|HEADACHE")

    def test_pattern_roundtrip(self):
        pat = parse_pattern("?|TREATS|HEADACHE")
        assert pat == PredicationPattern(None, "TREATS", "HEADACHE")
        assert format_pattern(pat) == "?|TREATS|HEADACHE"

    def test_all_wildcards_rejected(self):
        with pytest.raises(LoadError) as raised:
            parse_pattern("?|?|?")
        assert str(raised.value) == "pattern must bind at least one slot"

    @pytest.mark.parametrize(
        "text, predication_problem, pattern_problem",
        [
            ("a||?", "empty relation", "empty relation"),
            ("|r|?", "empty subject", "empty subject"),
            ("?|r|", "wildcard subject not allowed here", "empty object"),
            ("a|?|", "wildcard relation not allowed here", "empty object"),
            ("a|b\tc|?", "relation contains a forbidden character",
             "relation contains a forbidden character"),
            ("\r|?|?", "subject contains a forbidden character",
             "subject contains a forbidden character"),
            ("a|r|", "empty object", "empty object"),
        ],
    )
    def test_first_bad_slot_is_reported(self, text, predication_problem, pattern_problem):
        """Slots are checked in subject, relation, object order; a wildcard
        counts as a bad slot of a predication literal only."""
        with pytest.raises(LoadError) as raised:
            parse_predication(text)
        assert str(raised.value) == f"predication literal {text!r}: {predication_problem}"
        with pytest.raises(LoadError) as raised:
            parse_pattern(text)
        assert str(raised.value) == f"pattern literal {text!r}: {pattern_problem}"

    def test_fully_bound_pattern(self):
        pat = parse_pattern("ASPIRIN|TREATS|HEADACHE")
        assert pat == PredicationPattern("ASPIRIN", "TREATS", "HEADACHE")

    def test_pattern_without_a_bound_slot_rejected(self):
        with pytest.raises(LoadError) as raised:
            PredicationPattern(None, None, None)
        assert str(raised.value) == "pattern must bind at least one slot"

    def test_pattern_wrong_field_count_names_literal(self):
        with pytest.raises(LoadError) as raised:
            parse_pattern("a|b")
        assert str(raised.value) == "pattern literal 'a|b': expected 3 fields, got 2"


class TestWeights:
    def test_defaults_are_unit(self):
        w = SimWeights()
        assert (w.ws, w.wr, w.wo) == (1.0, 1.0, 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SimWeights(ws=-0.1)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            SimWeights(0.0, 0.0, 0.0)

    def test_single_zero_allowed(self):
        assert SimWeights(0.0, 1.0, 1.0).total == 2.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            SimWeights(ws=float("nan"))

    def test_sum_that_overflows_rejected(self):
        # Each weight is finite, but their sum is not.
        with pytest.raises(ValueError, match="weight sum must be finite and positive, got inf"):
            SimWeights(1e308, 1e308, 1e308)

    @pytest.mark.parametrize(
        "args, name, kind", [(("1", 1, 1), "ws", "str"), ((1, None, 1), "wr", "NoneType")]
    )
    def test_weight_must_be_a_number(self, args, name, kind):
        with pytest.raises(TypeError, match=rf"^weight {name} must be Real, got {kind}$"):
            SimWeights(*args)

    def test_bool_and_numpy_scalars_allowed(self):
        assert SimWeights(True, np.int64(2), np.float32(0.5)).total == 3.5


class TestPredicationSet:
    def test_dedup_and_canonical_order(self):
        a = Predication("s1", "r", "o")
        b = Predication("s0", "r", "o")
        pset = PredicationSet.from_iterable([a, b, a])
        assert pset.members == (b, a)
        assert len(pset) == 2
        assert a in pset

    def test_direct_construction_normalizes(self):
        a = Predication("s1", "r", "o")
        b = Predication("s0", "r", "o")
        assert PredicationSet((a, b)).members == (b, a)
        # Any iterable, a generator included, is read once.
        assert PredicationSet(p for p in (a, b)).members == (b, a)
        assert PredicationSet(iter([a, b, a])).members == (b, a)
        assert PredicationSet([a, b]).members == (b, a)

    @pytest.mark.parametrize(
        "members, place, kind",
        [([("a", "r", "b")], 1, "tuple"), ("abc", 1, "str"), ([None], 1, "NoneType"),
         ([Predication("a", "r", "b"), None], 2, "NoneType")],
    )
    def test_member_that_is_not_a_predication_is_named(self, members, place, kind):
        with pytest.raises(LoadError) as raised:
            PredicationSet(members)
        assert str(raised.value) == (
            f"predication set: member {place}: expected a Predication, got {kind}"
        )


def _components(s_sim, r_sim, o_sim):
    """Stub sources pinning the three slot similarities of (p1, p2)."""
    concept = stub_sim({("s1", "s2"): s_sim, ("o1", "o2"): o_sim})
    relation = stub_sim({("r1", "r2"): r_sim})
    return concept, relation


P1 = Predication("s1", "r1", "o1")
P2 = Predication("s2", "r2", "o2")


class TestPredicationSimilarity:
    def test_worked_example_equal_weights(self):
        concept, relation = _components(0.5621, 1.0, 0.7068)
        score = predication_similarity(P1, P2, SimWeights(), concept, relation)
        assert score == pytest.approx(0.7563, abs=5e-5)

    def test_identity_is_one(self, concept_h, relation_h):
        p = Predication("C1", "TREATS", "OA")
        for w in (SimWeights(), SimWeights(2, 1, 1), SimWeights(0, 3, 0.5)):
            assert predication_similarity(
                p, p, w, concept_h.similarity, relation_h.similarity
            ) == 1.0

    def test_weighted_components_on_fixture(self, concept_h, relation_h):
        # subject (C1, C2) = 0.5; relation identity = 1.0; object (D1, C2) = 0.0
        p1 = Predication("C1", "TREATS", "D1")
        p2 = Predication("C2", "TREATS", "C2")
        score = predication_similarity(
            p1, p2, SimWeights(2, 1, 1), concept_h.similarity, relation_h.similarity
        )
        assert score == 0.5

    def test_symmetry(self, concept_h, relation_h):
        p1 = Predication("C1", "TREATS", "OA")
        p2 = Predication("C2", "PREVENTS", "OB")
        w = SimWeights(1.5, 0.5, 2.0)
        ab = predication_similarity(p1, p2, w, concept_h.similarity, relation_h.similarity)
        ba = predication_similarity(p2, p1, w, concept_h.similarity, relation_h.similarity)
        assert ab == ba

    def test_scaling_weights_leaves_score_unchanged(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            sims = rng.uniform(0, 1, size=3)
            raw = rng.uniform(0.01, 5.0, size=3)
            factor = float(rng.uniform(0.01, 100.0))
            concept, relation = _components(*sims)
            base = predication_similarity(
                P1, P2, SimWeights(*raw), concept, relation
            )
            scaled = predication_similarity(
                P1, P2, SimWeights(*(raw * factor)), concept, relation
            )
            assert scaled == pytest.approx(base, abs=1e-12)

    def test_all_zero_components_dominate(self):
        concept, relation = _components(0.0, 0.0, 0.0)
        for w in (SimWeights(), SimWeights(5, 0.1, 2)):
            assert predication_similarity(P1, P2, w, concept, relation) == 0.0

    def test_score_between_component_extremes(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            sims = rng.uniform(0, 1, size=3)
            weights = SimWeights(*rng.uniform(0, 3, size=3) + [0.01, 0, 0])
            concept, relation = _components(*sims)
            score = predication_similarity(P1, P2, weights, concept, relation)
            assert min(sims) - 1e-12 <= score <= max(sims) + 1e-12

    def test_range(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            concept, relation = _components(*rng.uniform(0, 1, size=3))
            score = predication_similarity(P1, P2, SimWeights(), concept, relation)
            assert 0.0 <= score <= 1.0


class TestPatternSimilarity:
    def test_identical_bound_slots_score_one(self):
        pat = PredicationPattern(None, "TREATS", "HEADACHE")
        p = Predication("ASPIRIN", "TREATS", "HEADACHE")
        score = pattern_similarity(pat, p, SimWeights(), stub_sim({}), stub_sim({}))
        assert score == 1.0

    def test_two_bound_slots_renormalize(self):
        pat = PredicationPattern(None, "r1", "o1")
        p = Predication("s2", "r2", "o2")
        concept = stub_sim({("o1", "o2"): 0.8})
        relation = stub_sim({("r1", "r2"): 0.4})
        score = pattern_similarity(pat, p, SimWeights(), concept, relation)
        assert score == pytest.approx((0.4 + 0.8) / 2, abs=1e-12)

    def test_single_bound_slot_passes_through(self):
        pat = PredicationPattern("s1", None, None)
        p = Predication("s2", "r2", "o2")
        concept = stub_sim({("s1", "s2"): 0.25})
        score = pattern_similarity(pat, p, SimWeights(), concept, stub_sim({}))
        assert score == 0.25

    def test_fully_bound_matches_predication_similarity(self, concept_h, relation_h):
        pat = PredicationPattern("C1", "TREATS", "OA")
        p = Predication("C2", "PREVENTS", "OB")
        w = SimWeights(2, 1, 0.5)
        via_pattern = pattern_similarity(
            pat, p, w, concept_h.similarity, relation_h.similarity
        )
        direct = predication_similarity(
            Predication("C1", "TREATS", "OA"), p, w, concept_h.similarity, relation_h.similarity
        )
        assert via_pattern == direct

    def test_wildcard_weights_drop_from_denominator(self):
        # subject wildcard with a huge subject weight must not dilute
        pat = PredicationPattern(None, "r1", "o1")
        p = Predication("s2", "r2", "o2")
        concept = stub_sim({("o1", "o2"): 1.0})
        relation = stub_sim({("r1", "r2"): 1.0})
        score = pattern_similarity(pat, p, SimWeights(ws=100.0), concept, relation)
        assert score == 1.0

    def test_zero_weight_on_all_bound_slots_rejected(self):
        pat = PredicationPattern("s1", None, None)
        p = Predication("s2", "r2", "o2")
        with pytest.raises(ValueError, match="zero weight"):
            pattern_similarity(pat, p, SimWeights(0, 1, 1), stub_sim({}), stub_sim({}))
