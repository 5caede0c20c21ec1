"""Knowledge bases: strict and defeasible inclusions plus assertional facts.

A defeasible inclusion states that the typical instances of its left-hand
side fall under its right-hand side. The left-hand side is an ordinary
concept; the typicality marker is part of the axiom, never nested inside a
concept.

The package's value types, here and in `tableau` and `models`, are plain
classes on one frozen base (`Frozen`): each names its fields and sets them
in its own constructor, and compares, hashes, prints and pickles by them.
`Strict` and `Defeasible` keep their fields in slots and compute their
hash once, as they are built. A field computed on first use is stored by
one lock-free descriptor (`cached`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

from .syntax import Concept, complement, concept_key, concept_to_text, subconcepts

_set = object.__setattr__


class cached:
    """A method read as an attribute, computed on the first read and stored
    in the instance's `__dict__`, where later reads find it first: what
    `functools.cached_property` does, without the lock it takes on every
    first read before Python 3.12."""

    def __init__(self, fn: Callable[[object], object]):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __get__(self, obj: object, owner: Optional[type] = None):
        if obj is None:
            return self
        value = obj.__dict__[self.fn.__name__] = self.fn(obj)
        return value


class Frozen:
    """Base of the package's value types. A class names its fields in
    `_fields` and sets them in its own constructor; a value compares equal
    to one of its own class with equal fields, and hashes, prints as
    `Name(field=value, ...)` and pickles or copies by them. Assigning or
    deleting an attribute raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return (self.__class__, self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _Inclusion(Frozen):
    """An inclusion `lhs => rhs`, its hash computed once, as it is built."""

    __slots__ = ("lhs", "rhs", "_hash")
    _fields = ("lhs", "rhs")

    def __init__(self, lhs: Concept, rhs: Concept) -> None:
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "_hash", hash((lhs, rhs)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.lhs == other.lhs and self.rhs == other.rhs  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return serialize_axiom(self)  # type: ignore[arg-type]


class Strict(_Inclusion):
    __slots__ = ()


class Defeasible(_Inclusion):
    """Typical instances of lhs are rhs."""

    __slots__ = ()


Axiom = Union[Strict, Defeasible]


class ConceptAssertion(Frozen):
    _fields = ("concept", "individual", "typical")

    def __init__(self, concept: Concept, individual: str, typical: bool = False) -> None:
        _set(self, "concept", concept)
        _set(self, "individual", individual)
        _set(self, "typical", typical)


class RoleAssertion(Frozen):
    _fields = ("role", "subject", "target")

    def __init__(self, role: str, subject: str, target: str) -> None:
        _set(self, "role", role)
        _set(self, "subject", subject)
        _set(self, "target", target)


Assertion = Union[ConceptAssertion, RoleAssertion]


class KnowledgeBase(Frozen):
    """Ordered, duplicate-free axiom and assertion lists.

    Order is the order of first occurrence in the source text; it is kept
    because reports and materializations iterate it deterministically.
    The KB keys memos, so, like a concept node, it computes its hash once,
    as it is built, and keeps it; it also keeps the subconcepts of its
    axioms, which start every closure (`subconcept_closure`), and their
    sorted tuple (`aspect_set`). None of these changes what it compares
    equal to, and a copy or pickle carries only the three lists.
    """

    _fields = ("strict", "defeasible", "abox")

    def __init__(self, strict: tuple[Strict, ...] = (), defeasible: tuple[Defeasible, ...] = (),
                 abox: tuple[Assertion, ...] = ()) -> None:
        _set(self, "strict", strict)
        _set(self, "defeasible", defeasible)
        _set(self, "abox", abox)
        _set(self, "_hash", hash((strict, defeasible, abox)))

    def __hash__(self) -> int:
        return self._hash

    @cached
    def _occurring(self) -> frozenset[Concept]:
        """The subconcepts of both sides of every axiom."""
        return frozenset().union(*[subconcepts(side) for ax in self.axioms
                                   for side in (ax.lhs, ax.rhs)])

    @cached
    def _aspects(self) -> tuple[Concept, ...]:
        return tuple(sorted(self._occurring, key=concept_key))

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
    roots = [a.concept for a in kb.abox if isinstance(a, ConceptAssertion)] + list(extra)
    base = kb._occurring.union(*map(subconcepts, roots))
    return base | {complement(c) for c in base}


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
