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
Every ``Predication``, ``PredicationPattern`` and ``PredicationSet``,
those the corpus hands out included, is built through its own
constructor, which checks the slots or, for a set, deduplicates and
sorts the members.  ``parse_predication`` and ``parse_pattern`` share
one splitter, which checks each slot first, so that their errors name
the literal.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from ._input import WILDCARD, check_identifier, check_type
from .errors import LoadError

SimilarityFn = Callable[[str, str], float]

_SLOTS = ("subject", "relation", "object")


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
        slots = (self.subject, self.relation, self.object)
        if all(value is None for value in slots):
            raise LoadError("pattern must bind at least one slot")
        for value, slot in zip(slots, _SLOTS):
            if value is not None:
                check_identifier(value, slot, "pattern", literal=True)


@dataclass(frozen=True)
class SimWeights:
    """Real, finite, non-negative slot weights; the weights' sum must be
    finite and positive."""

    ws: float = 1.0
    wr: float = 1.0
    wo: float = 1.0

    def __post_init__(self):
        for name, value in (("ws", self.ws), ("wr", self.wr), ("wo", self.wo)):
            check_type(f"weight {name}", value, numbers.Real)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"weight {name} must be finite and >= 0, got {value!r}")
        if not 0 < self.total < math.inf:
            raise ValueError(f"weight sum must be finite and positive, got {self.total!r}")

    @property
    def total(self) -> float:
        return self.ws + self.wr + self.wo


def format_predication(p: Predication) -> str:
    return f"{p.subject}|{p.relation}|{p.object}"


def format_pattern(pat: PredicationPattern) -> str:
    slots = (pat.subject, pat.relation, pat.object)
    return "|".join(WILDCARD if s is None else s for s in slots)


def _literal_slots(text: str, kind: str, wildcards: bool) -> list[str | None]:
    """The three slots of a ``subject|relation|object`` literal, each
    checked in that order, a wildcard ``?`` read as None if ``wildcards``
    and refused otherwise; every error names the literal as a ``kind``."""
    check_type(f"{kind} literal", text, str)
    fields = text.split("|")
    where = f"{kind} literal {text!r}"
    if len(fields) != 3:
        raise LoadError(f"{where}: expected 3 fields, got {len(fields)}")
    for field, slot in zip(fields, _SLOTS):
        if field != WILDCARD:
            check_identifier(field, slot, where, literal=True)
        elif not wildcards:
            raise LoadError(f"{where}: wildcard {slot} not allowed here")
    return [None if field == WILDCARD else field for field in fields]


def parse_predication(text: str) -> Predication:
    """Parse a ``subject|relation|object`` literal; wildcards rejected."""
    return Predication(*_literal_slots(text, "predication", wildcards=False))


def parse_pattern(text: str) -> PredicationPattern:
    """Parse a literal where any slot may be the wildcard ``?``."""
    return PredicationPattern(*_literal_slots(text, "pattern", wildcards=True))


@dataclass(frozen=True)
class PredicationSet:
    """Deduplicated predications in canonical (literal-sorted) order, built
    from any iterable of them.  A member that is not a :class:`Predication`
    fails with a :class:`LoadError` naming its place, from 1, and its type."""

    members: tuple[Predication, ...]

    def __post_init__(self):
        # Literals are distinct exactly when predications are, so the
        # literal-keyed dict both deduplicates and gives the sort keys.  The
        # members are read once, so any iterable will do.
        members = tuple(self.members)
        for place, member in enumerate(members, start=1):
            if not isinstance(member, Predication):
                raise LoadError(
                    f"predication set: member {place}: "
                    f"expected a Predication, got {type(member).__name__}"
                )
        by_literal = dict(zip(map(format_predication, members), members))
        object.__setattr__(self, "members", tuple(map(by_literal.__getitem__, sorted(by_literal))))

    @classmethod
    def from_iterable(cls, preds: Iterable[Predication]) -> "PredicationSet":
        return cls(preds)

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
