"""Predication triples and weighted triple-to-triple similarity.

A predication is a (subject, relation, object) triple of identifiers.
Similarity between two predications is the weighted average of the three
slot similarities:

    sim(p1, p2) = (ws*sim(s1,s2) + wr*sim(r1,r2) + wo*sim(o1,o2)) / (ws+wr+wo)

where subject/object slots are compared through a concept similarity
source and the relation slot through a relation similarity source.  Each
source is any callable ``(id, id) -> float`` returning values in [0, 1],
typically ``Hierarchy.similarity``; tests may inject stubs.

Patterns are predications with wildcard slots (written ``?`` in literal
form).  Pattern similarity restricts the average to the bound slots:
wildcards contribute neither to the numerator nor the denominator, so a
wildcard means "no constraint" rather than "perfect match".

Literal syntax (CLI and files): ``subject|relation|object``, wildcard
slot written ``?``.  Identifiers must not contain ``|``, tabs, or
newlines, and the bare token ``?`` is reserved for wildcards.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from ._input import WILDCARD, check_identifier
from .errors import LoadError

SimilarityFn = Callable[[str, str], float]


@dataclass(frozen=True, slots=True)
class Predication:
    """A fully bound subject-relation-object triple.

    Instances have ``__slots__``: no ``__dict__``, and no attributes
    beyond the three slots.
    """

    subject: str
    relation: str
    object: str

    def __post_init__(self):
        check_identifier(self.subject, "subject", "predication", literal=True)
        check_identifier(self.relation, "relation", "predication", literal=True)
        check_identifier(self.object, "object", "predication", literal=True)


@dataclass(frozen=True)
class PredicationPattern:
    """A triple with optional wildcard slots (``None`` = unconstrained)."""

    subject: str | None
    relation: str | None
    object: str | None

    def __post_init__(self):
        if self.subject is None and self.relation is None and self.object is None:
            raise LoadError("pattern must bind at least one slot")
        for value, slot in (
            (self.subject, "subject"),
            (self.relation, "relation"),
            (self.object, "object"),
        ):
            if value is not None:
                check_identifier(value, slot, "pattern", literal=True)

    @property
    def is_fully_bound(self) -> bool:
        return None not in (self.subject, self.relation, self.object)

    def as_predication(self) -> Predication:
        if not self.is_fully_bound:
            raise ValueError("pattern has wildcard slots")
        return Predication(self.subject, self.relation, self.object)


@dataclass(frozen=True)
class SimWeights:
    """Non-negative slot weights; at least one must be positive."""

    ws: float = 1.0
    wr: float = 1.0
    wo: float = 1.0

    def __post_init__(self):
        for name, value in (("ws", self.ws), ("wr", self.wr), ("wo", self.wo)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"weight {name} must be finite and >= 0, got {value!r}")
        if self.total <= 0:
            raise ValueError("weight sum must be positive")

    @property
    def total(self) -> float:
        return self.ws + self.wr + self.wo


def format_predication(p: Predication) -> str:
    return f"{p.subject}|{p.relation}|{p.object}"


def format_pattern(pat: PredicationPattern) -> str:
    slots = (pat.subject, pat.relation, pat.object)
    return "|".join(WILDCARD if s is None else s for s in slots)


def parse_predication(text: str) -> Predication:
    """Parse a ``subject|relation|object`` literal; wildcards rejected."""
    fields = text.split("|")
    where = f"predication literal {text!r}"
    if len(fields) != 3:
        raise LoadError(f"{where}: expected 3 fields, got {len(fields)}")
    for field, slot in zip(fields, ("subject", "relation", "object")):
        if field == WILDCARD:
            raise LoadError(f"{where}: wildcard {slot} not allowed here")
        check_identifier(field, slot, where, literal=True)
    return Predication(*fields)


def parse_pattern(text: str) -> PredicationPattern:
    """Parse a literal where any slot may be the wildcard ``?``."""
    fields = text.split("|")
    where = f"pattern literal {text!r}"
    if len(fields) != 3:
        raise LoadError(f"{where}: expected 3 fields, got {len(fields)}")
    slots = [None if f == WILDCARD else f for f in fields]
    if slots == [None, None, None]:
        raise LoadError(f"{where}: at least one slot must be bound")
    for value, slot in zip(slots, ("subject", "relation", "object")):
        if value is not None:
            check_identifier(value, slot, where, literal=True)
    return PredicationPattern(*slots)


@dataclass(frozen=True)
class PredicationSet:
    """Deduplicated predications in canonical (literal-sorted) order."""

    members: tuple[Predication, ...]

    def __post_init__(self):
        canonical = tuple(sorted(set(self.members), key=format_predication))
        if canonical != self.members:
            object.__setattr__(self, "members", canonical)

    @classmethod
    def from_iterable(cls, preds: Iterable[Predication]) -> "PredicationSet":
        return cls(tuple(preds))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, p: Predication) -> bool:
        return p in self.members


def predication_similarity(
    p1: Predication,
    p2: Predication,
    weights: SimWeights,
    concept_sim: SimilarityFn,
    relation_sim: SimilarityFn,
) -> float:
    """Weighted average of subject, relation, and object similarities."""
    numerator = (
        weights.ws * concept_sim(p1.subject, p2.subject)
        + weights.wr * relation_sim(p1.relation, p2.relation)
        + weights.wo * concept_sim(p1.object, p2.object)
    )
    return numerator / weights.total


def pattern_similarity(
    pattern: PredicationPattern,
    p: Predication,
    weights: SimWeights,
    concept_sim: SimilarityFn,
    relation_sim: SimilarityFn,
) -> float:
    """Weighted average over the pattern's bound slots only.

    Raises ValueError when every bound slot carries zero weight (see
    ``bound_weight``).
    """
    denominator = bound_weight(pattern, weights)
    numerator = 0.0
    if pattern.subject is not None:
        numerator += weights.ws * concept_sim(pattern.subject, p.subject)
    if pattern.relation is not None:
        numerator += weights.wr * relation_sim(pattern.relation, p.relation)
    if pattern.object is not None:
        numerator += weights.wo * concept_sim(pattern.object, p.object)
    return numerator / denominator


def bound_weight(pattern: PredicationPattern, weights: SimWeights) -> float:
    """The weights of the pattern's bound slots, summed in subject,
    relation, object order.

    Raises ValueError when the sum is zero, because the renormalized
    average of ``pattern_similarity`` is then undefined.
    """
    total = 0.0
    if pattern.subject is not None:
        total += weights.ws
    if pattern.relation is not None:
        total += weights.wr
    if pattern.object is not None:
        total += weights.wo
    if total <= 0:
        raise ValueError(
            f"pattern {format_pattern(pattern)!r}: every bound slot has zero weight"
        )
    return total
