"""Concept expressions for the ALC fragment used throughout the package.

Concepts are immutable trees built from named atoms, the two constants,
boolean connectives, and role restrictions. Structural equality (and
hashing) is the only notion of concept identity anywhere in the package;
nothing is normalised implicitly. The typicality operator is not a concept
constructor: it may only wrap the left-hand side of an axiom, so it lives
in the axiom types, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class Concept:
    """Base class for concept expressions."""

    def __repr__(self) -> str:
        return concept_to_text(self)


@dataclass(frozen=True, repr=False)
class Atom(Concept):
    name: str


@dataclass(frozen=True, repr=False)
class Top(Concept):
    pass


@dataclass(frozen=True, repr=False)
class Bottom(Concept):
    pass


@dataclass(frozen=True, repr=False)
class Not(Concept):
    sub: Concept


@dataclass(frozen=True, repr=False)
class And(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True, repr=False)
class Or(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True, repr=False)
class Exists(Concept):
    role: str
    sub: Concept


@dataclass(frozen=True, repr=False)
class Forall(Concept):
    role: str
    sub: Concept


TOP = Top()
BOT = Bottom()


def complement(c: Concept) -> Concept:
    """Single-negation complement: strips one outer negation instead of stacking."""
    if isinstance(c, Not):
        return c.sub
    return Not(c)


def to_nnf(c: Concept) -> Concept:
    """Negation normal form: negation pushed onto atoms, constants resolved.

    Idempotent, and preserves the set of atom names.
    """
    if isinstance(c, (Atom, Top, Bottom)):
        return c
    if isinstance(c, And):
        return And(to_nnf(c.left), to_nnf(c.right))
    if isinstance(c, Or):
        return Or(to_nnf(c.left), to_nnf(c.right))
    if isinstance(c, Exists):
        return Exists(c.role, to_nnf(c.sub))
    if isinstance(c, Forall):
        return Forall(c.role, to_nnf(c.sub))
    if isinstance(c, Not):
        s = c.sub
        if isinstance(s, Atom):
            return c
        if isinstance(s, Top):
            return BOT
        if isinstance(s, Bottom):
            return TOP
        if isinstance(s, Not):
            return to_nnf(s.sub)
        if isinstance(s, And):
            return Or(to_nnf(Not(s.left)), to_nnf(Not(s.right)))
        if isinstance(s, Or):
            return And(to_nnf(Not(s.left)), to_nnf(Not(s.right)))
        if isinstance(s, Exists):
            return Forall(s.role, to_nnf(Not(s.sub)))
        if isinstance(s, Forall):
            return Exists(s.role, to_nnf(Not(s.sub)))
    raise TypeError(f"not a concept: {c!r}")


def subconcepts(c: Concept) -> Iterator[Concept]:
    """Yields c and every subexpression of c, outermost first."""
    yield c
    if isinstance(c, Not):
        yield from subconcepts(c.sub)
    elif isinstance(c, (And, Or)):
        yield from subconcepts(c.left)
        yield from subconcepts(c.right)
    elif isinstance(c, (Exists, Forall)):
        yield from subconcepts(c.sub)


def atom_names(c: Concept) -> frozenset[str]:
    return frozenset(s.name for s in subconcepts(c) if isinstance(s, Atom))


def role_names(c: Concept) -> frozenset[str]:
    return frozenset(s.role for s in subconcepts(c) if isinstance(s, (Exists, Forall)))


def conjoin(concepts: Iterable[Concept]) -> Concept:
    """Right-folded conjunction of the given concepts; top for the empty list."""
    items = list(concepts)
    if not items:
        return TOP
    out = items[-1]
    for c in reversed(items[:-1]):
        out = And(c, out)
    return out


def concept_to_text(c: Concept) -> str:
    """Renders a concept in the surface syntax accepted by the parser."""
    if isinstance(c, Atom):
        return c.name
    if isinstance(c, Top):
        return "top"
    if isinstance(c, Bottom):
        return "bot"
    if isinstance(c, Not):
        return f"not {concept_to_text(c.sub)}"
    if isinstance(c, And):
        return f"({concept_to_text(c.left)} and {concept_to_text(c.right)})"
    if isinstance(c, Or):
        return f"({concept_to_text(c.left)} or {concept_to_text(c.right)})"
    if isinstance(c, Exists):
        return f"exists {c.role}. {concept_to_text(c.sub)}"
    if isinstance(c, Forall):
        return f"forall {c.role}. {concept_to_text(c.sub)}"
    raise TypeError(f"not a concept: {c!r}")


def concept_key(c: Concept) -> str:
    """Deterministic sort key for concepts."""
    return concept_to_text(c)
