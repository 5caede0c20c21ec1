"""Knowledge bases: strict and defeasible inclusions plus assertional facts.

A defeasible inclusion states that the typical instances of its left-hand
side fall under its right-hand side. The left-hand side is an ordinary
concept; the typicality marker is part of the axiom, never nested inside a
concept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

from .syntax import Concept, complement, concept_key, concept_to_text, subconcepts


@dataclass(frozen=True, repr=False)
class Strict:
    lhs: Concept
    rhs: Concept

    def __repr__(self) -> str:
        return serialize_axiom(self)


@dataclass(frozen=True, repr=False)
class Defeasible:
    """Typical instances of lhs are rhs."""

    lhs: Concept
    rhs: Concept

    def __repr__(self) -> str:
        return serialize_axiom(self)


Axiom = Union[Strict, Defeasible]


@dataclass(frozen=True)
class ConceptAssertion:
    concept: Concept
    individual: str
    typical: bool = False


@dataclass(frozen=True)
class RoleAssertion:
    role: str
    subject: str
    target: str


Assertion = Union[ConceptAssertion, RoleAssertion]


@dataclass(frozen=True)
class KnowledgeBase:
    """Ordered, duplicate-free axiom and assertion lists.

    Order is the order of first occurrence in the source text; it is kept
    because reports and materializations iterate it deterministically.
    The KB keys memos, so, like a concept node, it computes its hash once
    and keeps it; it also keeps its sorted aspect set (`aspect_set`).
    Neither cache changes what it compares equal to, and a copy or pickle
    carries only the three lists.
    """

    strict: tuple[Strict, ...] = ()
    defeasible: tuple[Defeasible, ...] = ()
    abox: tuple[Assertion, ...] = ()

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.strict, self.defeasible, self.abox))

    @cached_property
    def _aspects(self) -> tuple[Concept, ...]:
        found: set[Concept] = set()
        for ax in self.axioms:
            for side in (ax.lhs, ax.rhs):
                found.update(subconcepts(side))
        return tuple(sorted(found, key=concept_key))

    def __reduce__(self):
        return (KnowledgeBase, (self.strict, self.defeasible, self.abox))

    @property
    def axioms(self) -> tuple[Axiom, ...]:
        return self.strict + self.defeasible

    @staticmethod
    def build(axioms: Iterable[Axiom] = (), abox: Iterable[Assertion] = ()) -> "KnowledgeBase":
        axioms = list(axioms)
        strict = tuple(dict.fromkeys(ax for ax in axioms if isinstance(ax, Strict)))
        defeasible = tuple(dict.fromkeys(ax for ax in axioms if not isinstance(ax, Strict)))
        return KnowledgeBase(strict, defeasible, tuple(dict.fromkeys(abox)))


def aspect_set(kb: KnowledgeBase) -> tuple[Concept, ...]:
    """Every concept expression occurring syntactically in the KB's axioms,
    sorted by `concept_key`.

    Occurrences are collected from both sides of every axiom (for defeasible
    axioms, the concept under the typicality marker) including proper
    subexpressions, and deduplicated structurally. No derived negations are
    added: `not Fly` on a right-hand side contributes both `not Fly` and
    `Fly`, but `Bird` on a left-hand side does not contribute `not Bird`.
    Sorted once per KB, which keeps the result.
    """
    return kb._aspects


def subconcept_closure(kb: KnowledgeBase, extra: Iterable[Concept] = ()) -> frozenset[Concept]:
    """Subconcepts of all axioms, assertions, and `extra`, closed under single negation.

    For every member c the set also contains its single-negation complement
    (a double negation is stripped rather than stacked), so members pair up.
    The result is monotone in `extra` and closed under taking subconcepts.
    """
    roots = [side for ax in kb.axioms for side in (ax.lhs, ax.rhs)]
    roots += [a.concept for a in kb.abox if isinstance(a, ConceptAssertion)] + list(extra)
    base = {s for c in roots for s in subconcepts(c)}
    return frozenset(base | {complement(c) for c in base})


def serialize_axiom(ax: Axiom) -> str:
    if isinstance(ax, Defeasible):
        return f"T({concept_to_text(ax.lhs)}) => {concept_to_text(ax.rhs)}"
    return f"{concept_to_text(ax.lhs)} => {concept_to_text(ax.rhs)}"


def serialize_assertion(a: Assertion) -> str:
    if isinstance(a, RoleAssertion):
        return f"{a.role}({a.subject}, {a.target})"
    if a.typical:
        return f"T({concept_to_text(a.concept)})({a.individual})"
    return f"{concept_to_text(a.concept)}({a.individual})"


def serialize_kb(kb: KnowledgeBase) -> str:
    """Renders a KB in the surface syntax; parsing the result gives back the KB."""
    lines = [serialize_axiom(ax) for ax in kb.axioms]
    lines.extend(serialize_assertion(a) for a in kb.abox)
    return "\n".join(lines) + ("\n" if lines else "")
