"""Concept expressions for the ALC fragment used throughout the package.

Concepts are immutable trees built from named atoms, the two constants,
boolean connectives, and role restrictions. Structural equality (and
hashing) is the only notion of concept identity anywhere in the package;
nothing is normalised implicitly. The typicality operator is not a concept
constructor: it may only wrap the left-hand side of an axiom, so it lives
in the axiom types, not here.

Each node stores its hash in a slot as it is built, computed from its
parts, whose hashes are stored by then, so hashing a node is one slot
read and no walk, however deep the tree. Its rendered text is cached in
a slot the first time it is asked for. One cached text serves both
output (`concept_to_text`, which renders a node's children through
itself) and sort order (`concept_key`, which returns it). The node itself
is the key of every memo in the package (concept extensions, ranks); the
text serves only as a deterministic sort order. The text belongs to the
node and dies with it. A parse interns its nodes into a table the caller
owns, keyed by that text, which the parse stores as the node's cached
text (`parser`), so equal concepts parsed with one table are one object
and those memos hit on identity; no module keeps a table. Whether the
text is cached or a node interned never changes what a node compares
equal to.
"""

from __future__ import annotations

from typing import Iterable, Mapping

_set = object.__setattr__


class Concept:
    """Base class for concept expressions. Each constructor stores the
    node's hash, that of the tuple of its parts, and an empty text cache;
    equality compares the stored hashes before the parts."""

    __slots__ = ("_key", "_hash")

    def __init__(self) -> None:
        _set(self, "_key", None)
        _set(self, "_hash", hash(()))

    def _parts(self) -> tuple:
        return ()

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._parts() == other._parts()

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"concepts are immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"concepts are immutable: cannot delete {name!r}")

    def __reduce__(self):
        return (self.__class__, self._parts())

    def __repr__(self) -> str:
        return concept_to_text(self)


class Atom(Concept):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)
        _set(self, "_key", None)
        _set(self, "_hash", hash((name,)))

    def _parts(self) -> tuple:
        return (self.name,)


class Top(Concept):
    __slots__ = ()


class Bottom(Concept):
    __slots__ = ()


class Not(Concept):
    __slots__ = ("sub",)

    def __init__(self, sub: Concept) -> None:
        _set(self, "sub", sub)
        _set(self, "_key", None)
        _set(self, "_hash", hash((sub,)))

    def _parts(self) -> tuple:
        return (self.sub,)


class _Binary(Concept):
    __slots__ = ("left", "right")

    def __init__(self, left: Concept, right: Concept) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_key", None)
        _set(self, "_hash", hash((left, right)))

    def _parts(self) -> tuple:
        return (self.left, self.right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class _Restriction(Concept):
    __slots__ = ("role", "sub")

    def __init__(self, role: str, sub: Concept) -> None:
        _set(self, "role", role)
        _set(self, "sub", sub)
        _set(self, "_key", None)
        _set(self, "_hash", hash((role, sub)))

    def _parts(self) -> tuple:
        return (self.role, self.sub)


class Exists(_Restriction):
    __slots__ = ()


class Forall(_Restriction):
    __slots__ = ()


TOP = Top()
BOT = Bottom()


def complement(c: Concept) -> Concept:
    """Single-negation complement: strips one outer negation instead of stacking."""
    if isinstance(c, Not):
        return c.sub
    return Not(c)


def to_nnf(c: Concept) -> Concept:
    """Negation normal form: negation pushed onto atoms, constants resolved.

    Idempotent, and preserves the set of atom names. A node whose children
    it leaves unchanged is kept, not rebuilt, as `substitute` does.
    """
    if isinstance(c, (Atom, Top, Bottom)):
        return c
    if isinstance(c, (And, Or)):
        left, right = to_nnf(c.left), to_nnf(c.right)
        return c if left is c.left and right is c.right else c.__class__(left, right)
    if isinstance(c, (Exists, Forall)):
        sub = to_nnf(c.sub)
        return c if sub is c.sub else c.__class__(c.role, sub)
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
    raise TypeError(f"not a concept: {c.__class__.__name__}")


def subconcepts(c: Concept) -> list[Concept]:
    """c and every subexpression of c, outermost first, left before right."""
    out = []
    todo = [c]
    while todo:
        c = todo.pop()
        out.append(c)
        kind = c.__class__
        if kind is Not or kind is Exists or kind is Forall:
            todo.append(c.sub)
        elif kind is And or kind is Or:
            todo += (c.right, c.left)
    return out


def substitute(c: Concept, values: Mapping[Concept, Concept]) -> Concept:
    """c with each subconcept that is a key of `values` replaced by its
    value; a node with nothing replaced under it is kept, not rebuilt."""
    hit = values.get(c)
    if hit is not None:
        return hit
    if isinstance(c, Not):
        sub = substitute(c.sub, values)
        return c if sub is c.sub else Not(sub)
    if isinstance(c, (And, Or)):
        left, right = substitute(c.left, values), substitute(c.right, values)
        return c if left is c.left and right is c.right else c.__class__(left, right)
    if isinstance(c, (Exists, Forall)):
        sub = substitute(c.sub, values)
        return c if sub is c.sub else c.__class__(c.role, sub)
    return c


def conjoin(concepts: Iterable[Concept]) -> Concept:
    """Right-folded conjunction of the given concepts; top for the empty list."""
    items = list(concepts)
    if not items:
        return TOP
    out = items[-1]
    for c in reversed(items[:-1]):
        out = And(c, out)
    return out


def _render(c: Concept) -> str:
    """Surface syntax of one node, its children drawn from their cached text."""
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
    raise TypeError(f"not a concept: {c.__class__.__name__}")  # not its repr: that renders it


def concept_to_text(c: Concept) -> str:
    """Renders a concept in the surface syntax accepted by the parser,
    computed once per node and cached on it."""
    text = c._key
    if text is None:
        text = _render(c)
        _set(c, "_key", text)
    return text


def concept_key(c: Concept) -> str:
    """Deterministic sort key for concepts: their cached rendered text."""
    key = c._key
    return key if key is not None else concept_to_text(c)
