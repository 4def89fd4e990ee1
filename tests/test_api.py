"""The public surface: the names ``predsim`` exports, the identifier
check every in-memory constructor shares, and the count check every
count argument shares."""

import re

import numpy as np
import pytest

import predsim
from predsim import (
    Corpus,
    GoldStandard,
    Hierarchy,
    LoadError,
    Predication,
    PredicationPattern,
    RetrievalEngine,
    parse_gold,
    parse_hierarchy,
    parse_pattern,
    parse_predication,
    parse_predications,
    precision_at,
    recall_at,
    run_eval,
)


def test_all_names_the_public_surface():
    assert all(hasattr(predsim, name) for name in predsim.__all__)
    assert len(set(predsim.__all__)) == len(predsim.__all__)
    # each type has one in-memory constructor, over records
    for gone in ("load_hierarchy", "load_corpus", "load_gold"):
        assert not hasattr(predsim, gone)
    # the scalar similarities are the module functions only
    for gone in ("concept_similarity", "relation_similarity", "predication_similarity",
                 "set_similarity"):
        assert not hasattr(predsim.RetrievalEngine, gone)
    for gone in ("is_fully_bound", "as_predication"):
        assert not hasattr(PredicationPattern, gone)


BUILDERS = {
    "Hierarchy": (lambda v: Hierarchy([(v, "A")]), "<memory>: record 1: child identifier"),
    "Corpus": (lambda v: Corpus([("d", v, "R", "O")]), "<memory>: record 1: predication: subject"),
    "GoldStandard": (lambda v: GoldStandard([(v, "d", 1)]), "<memory>: record 1: seed id"),
    "Predication": (lambda v: Predication(v, "a", "b"), "predication: subject"),
    "PredicationPattern": (lambda v: PredicationPattern(v, "R", None), "pattern: subject"),
}
VALUES = {"int": 1, "NoneType": None, "bytes": b"x", "list": ["x"]}


@pytest.mark.parametrize(
    "builder, kind",
    [
        (builder, kind)
        for builder in BUILDERS
        for kind in VALUES
        # None is the pattern's wildcard, a valid slot
        if (builder, kind) != ("PredicationPattern", "NoneType")
    ],
)
def test_non_string_identifier_rejected(builder, kind):
    build, prefix = BUILDERS[builder]
    with pytest.raises(LoadError) as caught:
        build(VALUES[kind])
    assert str(caught.value) == f"{prefix} must be a string, got {kind}"


@pytest.mark.parametrize(
    "parse, kind", [(parse_predication, "predication"), (parse_pattern, "pattern")]
)
@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES)
def test_non_string_literal_rejected(parse, kind, value):
    with pytest.raises(TypeError) as caught:
        parse(value)
    assert str(caught.value) == f"{kind} literal must be str, got {type(value).__name__}"


@pytest.mark.parametrize(
    "build, n_fields, got",
    [
        (lambda: Hierarchy(["AB"]), 2, "a string"),
        (lambda: Corpus({"doc1": ()}), 4, "a string"),  # a mapping iterates its keys
        (lambda: GoldStandard({"abc": ("d",)}), 3, "a string"),
        (lambda: Hierarchy([5]), 2, "int"),
        (lambda: Corpus([5]), 4, "int"),
        (lambda: GoldStandard([None]), 3, "NoneType"),
        (lambda: Hierarchy([{"x", "y"}]), 2, "set"),
        (lambda: Corpus([{"d1", "a", "r", "b"}]), 4, "set"),
        (lambda: GoldStandard([{"s": 0, "d": 0, 1: 0}]), 3, "dict"),
    ],
    ids=["Hierarchy", "Corpus", "GoldStandard", "Hierarchy-int", "Corpus-int", "GoldStandard-None",
         "Hierarchy-set", "Corpus-set", "GoldStandard-dict"],
)
def test_string_record_rejected(build, n_fields, got):
    # each string has as many characters as a record has fields; a record
    # without a length is named by its type, and so is a set or a mapping
    # of the right length, whose order is not the fields' order
    with pytest.raises(LoadError) as caught:
        build()
    assert str(caught.value) == f"<memory>: record 1: expected {n_fields} fields, got {got}"


@pytest.mark.parametrize(
    "parse, text",
    [(parse_predications, "d1\ta\tr\tb\n"), (parse_hierarchy, "a\tb\n"), (parse_gold, "s\td\t1\n")],
    ids=["parse_predications", "parse_hierarchy", "parse_gold"],
)
@pytest.mark.parametrize("encode", [str, str.encode], ids=["str", "bytes"])
def test_string_lines_rejected(parse, text, encode):
    # one string given as the lines is refused whole, not read as lines of
    # one character or one byte each
    lines = encode(text)
    with pytest.raises(LoadError) as caught:
        parse(lines)
    got = type(lines).__name__
    assert str(caught.value) == f"<memory>: expected an iterable of lines, got {got}"


PATTERN = PredicationPattern(None, "TREATS", "OA")
COUNTS = {
    "top_n": (lambda e, c, v: e.related_documents(c, "d1", v), "top_n"),
    "query top_n": (lambda e, c, v: e.query_documents(c, c["d1"], v), "top_n"),
    "top_k": (lambda e, c, v: e.related_predications(c, PATTERN, v), "top_k"),
    "cutoffs": (
        lambda e, c, v: run_eval(e, c, GoldStandard([("d1", "d2", 1)]), [v]).to_csv(),
        "cutoff in n_values",
    ),
    "precision_at": (lambda e, c, v: precision_at(["a", "b", "c", "d"], {"a", "c"}, v), "n"),
    "recall_at": (lambda e, c, v: recall_at(["a", "b", "c", "d"], {"a", "c"}, v), "n"),
    "gold rank": (lambda e, c, v: dict(GoldStandard([("s", "d", v)])), "<memory>: record 1: rank"),
}


@pytest.mark.parametrize("surface", COUNTS)
def test_count_arguments_take_positive_integers_only(surface, concept_h, relation_h, small_corpus):
    call, name = COUNTS[surface]
    engine = RetrievalEngine(concept_h, relation_h)
    for bad in (True, 2.5, "3", None, 0):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a"):
            call(engine, small_corpus, bad)
    assert call(engine, small_corpus, np.int64(3)) == call(engine, small_corpus, 3)
