"""Identifier similarity from ancestor overlap.

Loads the demo concept hierarchy and walks through how the Jaccard
overlap of self-inclusive ancestor sets behaves: identical ids score 1,
near siblings score high, distant relatives decay toward 0, and deeper
placement makes siblings look more alike than shallow ones.
"""

from pathlib import Path

from predsim import Hierarchy, load_hierarchy_file

DATA = Path(__file__).parent / "data"


def main():
    concepts = load_hierarchy_file(DATA / "concepts.tsv")
    print(f"loaded {len(concepts)} concepts, {concepts.edge_count} edges\n")

    print("ancestor sets are self-inclusive:")
    for node in ("ASPIRIN", "HEADACHE", "DRUG"):
        members = ", ".join(sorted(concepts.ancestors(node)))
        print(f"  ancestors({node}) = {{{members}}}")

    print("\npairwise similarity (shared ancestors / all ancestors):")
    pairs = [
        ("ASPIRIN", "ASPIRIN"),
        ("ASPIRIN", "IBUPROFEN"),      # siblings under NSAID
        ("ASPIRIN", "ACETAMINOPHEN"),  # cousins under ANALGESIC
        ("ASPIRIN", "ATORVASTATIN"),   # only DRUG and SUBSTANCE shared
        ("ASPIRIN", "HEADACHE"),       # different subtrees entirely
        ("HEADACHE", "MIGRAINE"),
        ("HEADACHE", "FEVER"),
    ]
    for a, b in pairs:
        print(f"  sim({a:13s}, {b:13s}) = {concepts.similarity(a, b):.4f}")

    # Depth effect: siblings hanging off a deeper chain share a larger
    # fraction of their ancestry, so their similarity climbs with depth.
    print("\nsiblings at the bottom of a chain of depth d score d/(d+2):")
    for depth in (1, 2, 3, 10):
        chain = [(f"n{i}", f"n{i + 1}") for i in range(depth - 1)]
        h = Hierarchy(chain + [("leafA", "n0"), ("leafB", "n0")])
        print(f"  depth {depth:2d}: sim(leafA, leafB) = {h.similarity('leafA', 'leafB'):.4f}")

    print("\nidentifiers the hierarchy has never seen degrade gracefully:")
    print(f"  sim(UNKNOWN, UNKNOWN) = {concepts.similarity('UNKNOWN', 'UNKNOWN'):.4f}")
    print(f"  sim(UNKNOWN, ASPIRIN) = {concepts.similarity('UNKNOWN', 'ASPIRIN'):.4f}")


if __name__ == "__main__":
    main()
