"""Ranked document retrieval over a predication corpus.

Documents are sets of predications; two documents are compared by
matching every predication with its best counterpart on the other side
and averaging the m+n best-match scores.  Ranking a corpus against a
seed document or an ad-hoc query set is then just exhaustive scoring
plus a deterministic sort.
"""

from pathlib import Path

from predsim import (
    Predication,
    PredicationSet,
    RetrievalEngine,
    format_predication,
    load_hierarchy_file,
    load_predications_file,
)

DATA = Path(__file__).parent / "data"


def main():
    concepts = load_hierarchy_file(DATA / "concepts.tsv")
    relations = load_hierarchy_file(DATA / "relations.tsv")
    corpus = load_predications_file(DATA / "predications.tsv")
    stats = corpus.stats
    print(f"corpus: {stats.documents} documents, {stats.predications} predications\n")

    engine = RetrievalEngine(concepts, relations)

    seed = "d001"
    print(f"document {seed} contains:")
    for pred in corpus[seed]:
        print(f"  {format_predication(pred)}")

    print(f"\ndocuments related to {seed}:")
    for r in engine.related_documents(corpus, seed, top_n=5):
        members = "; ".join(format_predication(p) for p in corpus[r.doc_id])
        print(f"  {r.rank}. {r.doc_id}  {r.score:.6f}   [{members}]")
    print("  (the seed itself is never returned)")

    query = PredicationSet.from_iterable(
        [Predication("ACETAMINOPHEN", "TREATS", "HEADACHE")]
    )
    print("\nad-hoc query ACETAMINOPHEN|TREATS|HEADACHE ranks every document:")
    for r in engine.query_documents(corpus, query, top_n=4):
        print(f"  {r.rank}. {r.doc_id}  {r.score:.6f}")


if __name__ == "__main__":
    main()
