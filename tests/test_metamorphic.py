"""Metamorphic relations at corpus scale: changes to the input that leave
its meaning alone leave every ranking as it was.

A seeded corpus of a few hundred documents over a layered 10-level
concept hierarchy is written to files and ranked: a handful of seeds, an
ad-hoc query and a ``find``, the top 20 of each.  Some documents are
copies of others, so the rankings hold ties, which are broken by
document id or by literal.  Each relation then changes how the same
input reaches the loaders, and every ranking must come out the same:
the same ids, bit-identical scores and the same order.  No oracle is
needed, so the relations check the file readers, the index and the
kernel together on inputs far larger than the oracle tests'.  One more
relation needs no second input: a seed's score for another is the other
seed's score for it."""

import itertools
import random

import pytest

from predsim import (
    Predication,
    PredicationPattern,
    PredicationSet,
    RetrievalEngine,
    _input,
    load_hierarchy_file,
    load_predications_file,
    parse_hierarchy,
    parse_predications,
)

# A prefix of 16 bytes puts every concept field over the 8 bytes that
# equal_spans reads as one word.  Concept names of one level differ in
# their last byte or two, so a long field read one byte short would merge
# them.
PREFIX = "urn:predsim:cui/"
LEVELS = (2, 4, 7, 11, 16, 22, 28, 34, 40, 46)
RELATIONS = [
    ("TREATS", "AFFECTS"), ("PREVENTS", "AFFECTS"), ("CAUSES", "AFFECTS"),
    ("INHIBITS", "INTERACTS"), ("STIMULATES", "INTERACTS"),
    ("AFFECTS", "RELATED"), ("INTERACTS", "RELATED"), ("ISA", "RELATED"),
]
SEEDS = ("d000", "d017", "d101", "d233", "d299")


def _lines(seed=11):
    """The lines of the concept, relation and predication files."""
    rng = random.Random(seed)
    levels = [[f"c{depth}_{k:02d}" for k in range(size)] for depth, size in enumerate(LEVELS)]
    concepts = []
    for above, level in zip(levels, levels[1:]):
        for pos, child in enumerate(level):
            centre = pos * len(above) // len(level)
            parents = {centre, *(rng.randrange(len(above)) for _ in range(rng.choice((0, 0, 1, 2))))}
            concepts += [f"{child}\t{above[k]}\n" for k in sorted(parents)]
    relations = [f"{child}\t{parent}\n" for child, parent in RELATIONS]
    names = [name for level in levels[3:] for name in level]
    leaves = [child for child, _ in RELATIONS[:5]]
    documents = {}
    for d in range(280):
        documents[f"d{d:03d}"] = {
            (rng.choice(names), rng.choice(leaves), rng.choice(names))
            for _ in range(rng.randint(2, 8))
        }
    # Copies of other documents, and so ties against every seed.
    for d in range(280, 300):
        documents[f"d{d:03d}"] = documents[f"d{rng.randrange(280):03d}"]
    corpus = [f"{doc}\t{s}\t{r}\t{o}\n" for doc, triples in documents.items() for s, r, o in sorted(triples)]
    return concepts, relations, corpus


def _prefixed(concepts, relations, corpus):
    """The same lines with ``PREFIX`` before every concept id."""
    concepts = [PREFIX + line.replace("\t", "\t" + PREFIX) for line in concepts]
    rows = [line.split("\t") for line in corpus]
    corpus = [f"{doc}\t{PREFIX}{s}\t{r}\t{PREFIX}{o}" for doc, s, r, o in rows]
    return concepts, relations, corpus


def _shuffled(*files):
    """The lines of each file in a seeded random order."""
    rng = random.Random(3)
    return [rng.sample(lines, len(lines)) for lines in files]


def _crlf(*files):
    """The same lines ended by ``\\r\\n``."""
    return [[line.replace("\n", "\r\n") for line in lines] for lines in files]


def _twice(*files):
    """Each file written out twice, one copy after the other."""
    return [lines + lines for lines in files]


def _load(tmp_path, files):
    """The hierarchies and corpus read from ``files`` written to ``tmp_path``."""
    paths = [tmp_path / f"{name}.tsv" for name in ("concepts", "relations", "corpus")]
    for path, lines in zip(paths, files):
        path.write_text("".join(lines), encoding="utf-8")
    concepts, relations, corpus = paths
    return load_hierarchy_file(concepts), load_hierarchy_file(relations), load_predications_file(corpus)


def _rankings(concepts, relations, corpus, prefix=""):
    """Each ranking, its concept ids read without ``prefix``."""
    engine = RetrievalEngine(concepts, relations)
    ranked = [
        [(r.doc_id, r.score, r.rank) for r in engine.related_documents(corpus, seed, 20)]
        for seed in SEEDS
    ]
    query = PredicationSet.from_iterable([
        Predication(prefix + "c5_03", "TREATS", prefix + "c8_10"),
        Predication(prefix + "c9_21", "INHIBITS", prefix + "c4_07"),
    ])
    ranked.append([(r.doc_id, r.score, r.rank) for r in engine.query_documents(corpus, query, 20)])
    found = engine.related_predications(corpus, PredicationPattern(prefix + "c7_12", None, None), 20)
    cut = len(prefix)
    ranked.append([
        (f.predication.subject[cut:], f.predication.relation, f.predication.object[cut:],
         f.score, f.rank, f.documents)
        for f in found
    ])
    return ranked


@pytest.fixture(scope="module")
def expected(tmp_path_factory):
    ranked = _rankings(*_load(tmp_path_factory.mktemp("written"), _lines()))
    # The relations are not vacuous: every ranking scores something, and
    # the copies tie with what they copy.
    *documents, found = ranked
    assert all(ranking[0][1] > 0 for ranking in documents) and found[0][3] > 0
    assert any(a[1] == b[1] for ranking in documents for a, b in zip(ranking, ranking[1:]))
    return ranked


def test_shuffled_lines(tmp_path, expected):
    assert _rankings(*_load(tmp_path, _shuffled(*_lines()))) == expected


def test_lines_given_in_memory(expected):
    concepts, relations, corpus = _lines()
    loaded = parse_hierarchy(concepts), parse_hierarchy(relations), parse_predications(corpus)
    assert _rankings(*loaded) == expected


def test_blocks_of_seven_lines(tmp_path, monkeypatch, expected):
    monkeypatch.setattr(_input, "BLOCK_LINES", 7)
    assert _rankings(*_load(tmp_path, _lines())) == expected


def test_concept_ids_over_one_word(tmp_path, expected):
    assert len(PREFIX.encode()) == 16
    assert _rankings(*_load(tmp_path, _prefixed(*_lines())), prefix=PREFIX) == expected


def test_crlf_line_ends(tmp_path, expected):
    assert _rankings(*_load(tmp_path, _crlf(*_lines()))) == expected


def test_every_line_written_twice(tmp_path, expected):
    assert _rankings(*_load(tmp_path, _twice(*_lines()))) == expected


def test_unreached_chain_of_concepts(tmp_path, expected):
    # Forty nodes above no corpus identifier, four times as tall as the
    # hierarchy they join.
    concepts, relations, corpus = _lines()
    chain = [f"z{k}\tz{k + 1}\n" for k in range(40)]
    loaded = _load(tmp_path, [concepts + chain, relations, corpus])
    assert len(loaded[0]) == sum(LEVELS) + 41
    assert _rankings(*loaded) == expected


def test_seed_scores_are_symmetric(tmp_path):
    concepts, relations, corpus = _load(tmp_path, _lines())
    engine = RetrievalEngine(concepts, relations)
    scores = {
        seed: {r.doc_id: r.score for r in engine.related_documents(corpus, seed, len(corpus))}
        for seed in SEEDS
    }
    for a, b in itertools.combinations(SEEDS, 2):
        assert scores[a][b] == scores[b][a] > 0, (a, b)
