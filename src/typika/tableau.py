"""Concept satisfiability for ALC with a general TBox.

The decision procedure is a labelled-tree tableau. The TBox is internalised:
the conjunction of `not lhs or rhs` over all axioms, each put in NNF on
its own, is added to every node label, and subset blocking against
ancestors guarantees termination. Building that conjunction walks each
inclusion, never the conjunction's length, so the number of axioms is
not bounded by Python's recursion limit.
The `and` and `forall` rules are applied as a concept enters a label (a
new successor takes its parent's `forall`s), and a clash is noted then;
these rules are monotone, so the labels are those full saturation would
reach. The first node with a pending `or` branches, left-first, on its
`concept_key`-least one, and `exists` is expanded likewise, so runs are
deterministic; both scans skip the nodes that cannot change before the
search backtracks. The search is a loop with an explicit stack of the
untried right disjuncts, so neither branching nor successors are
bounded by Python's recursion limit.

`StrictTBox`, `Witness` and `SatResult` are value types on `kb.Frozen`.
Each `StrictTBox` computes its internalised concept once, on first use, and
keeps it (`kb.cached`), so the cache lives exactly as long as the TBox
does. The reasoner calls the tableau once per knowledge base:
`ranking.RankedTBox` checks the consistency of the strict axioms plus
its last level's defaults, each read as its material counterpart,
against type elimination, which gives the stratification, the ranks and
the canonical domain.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .kb import Axiom, Frozen, cached
from .syntax import (
    And,
    Atom,
    Bottom,
    Concept,
    Exists,
    Forall,
    Not,
    Or,
    concept_key,
    conjoin,
    to_nnf,
)


_set = object.__setattr__


class StrictTBox(Frozen):
    """A purely classical TBox: ordered strict inclusions."""

    _fields = ("axioms",)

    def __init__(self, axioms: tuple[tuple[Concept, Concept], ...] = ()) -> None:
        _set(self, "axioms", axioms)

    @staticmethod
    def from_axioms(axioms: Iterable[Axiom]) -> "StrictTBox":
        """The inclusions in order, strict or defeasible: a default
        `T(C) => D` enters as its material counterpart `C => D`."""
        return StrictTBox(tuple((ax.lhs, ax.rhs) for ax in axioms))

    @cached
    def internalized(self) -> Optional[Concept]:
        """The conjunction of `not lhs or rhs` over the axioms, each put in
        NNF on its own: equal to the NNF of the whole conjunction, with no
        walk along the conjunction's length."""
        if not self.axioms:
            return None
        return conjoin(to_nnf(Or(Not(lhs), rhs)) for lhs, rhs in self.axioms)


class Witness(Frozen):
    """A finite model extracted from an open tableau branch.

    `atom_ext` maps atom names to element sets, `role_ext` maps role names
    to edge sets; elements are 0..size-1 and `root` satisfies the input.
    """

    _fields = ("size", "atom_ext", "role_ext", "root")

    def __init__(self, size: int, atom_ext: tuple[tuple[str, frozenset[int]], ...],
                 role_ext: tuple[tuple[str, frozenset[tuple[int, int]]], ...], root: int) -> None:
        _set(self, "size", size)
        _set(self, "atom_ext", atom_ext)
        _set(self, "role_ext", role_ext)
        _set(self, "root", root)


class SatResult(Frozen):
    _fields = ("satisfiable", "witness")

    def __init__(self, satisfiable: bool, witness: Optional[Witness] = None) -> None:
        _set(self, "satisfiable", satisfiable)
        _set(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.satisfiable


class _Tableau:
    def __init__(self, meta: Optional[Concept]):
        self.meta = meta
        self.labels: list[set[Concept]] = []
        self.parent: list[Optional[int]] = []
        self.children: list[list[tuple[str, int]]] = []
        self.clash = False
        # the first nodes that may have a pending `or` and `exists`: no
        # earlier node has one, nor gains one before the next restore
        self.or_from = self.exists_from = 0

    def new_node(self, seed: Iterable[Concept], parent: Optional[int], role: str = "") -> int:
        n = len(self.labels)
        self.labels.append(set())
        self.parent.append(parent)
        self.children.append([])
        todo = list(seed) if self.meta is None else [*seed, self.meta]
        if parent is not None:
            self.children[parent].append((role, n))
            todo += [c.sub for c in self.labels[parent] if isinstance(c, Forall) and c.role == role]
        self.add(n, todo)
        return n

    def add(self, n: int, concepts: Iterable[Concept]) -> None:
        """Adds the concepts to node n's label, applying the `and` and
        `forall` rules as each concept enters a label, and records a
        clash: `bot`, or an atom and its negation (in NNF only atoms are
        negated). It stops at the first clash, as the branch is dropped."""
        labels, children = self.labels, self.children
        todo = [(n, c) for c in concepts]
        while todo:
            n, c = todo.pop()
            label = labels[n]
            if c in label:
                continue
            label.add(c)
            if isinstance(c, And):
                todo += ((n, c.right), (n, c.left))
            elif isinstance(c, Forall):
                todo += [(m, c.sub) for role, m in children[n] if role == c.role]
            elif (isinstance(c, Atom) and Not(c) in label
                  or isinstance(c, Not) and c.sub in label or isinstance(c, Bottom)):
                self.clash = True
                return

    def snapshot(self):
        return ([set(l) for l in self.labels], list(self.parent),
                [list(c) for c in self.children], self.or_from, self.exists_from)

    def restore(self, snap) -> None:
        """Goes back to a snapshot, taken on a clash-free branch; each
        snapshot is restored at most once, so it is not copied."""
        self.labels, self.parent, self.children, self.or_from, self.exists_from = snap
        self.clash = False

    def blocker(self, n: int) -> Optional[int]:
        """Root-most strict ancestor whose label includes this node's label."""
        found = None
        a = self.parent[n]
        while a is not None:
            if self.labels[n] <= self.labels[a]:
                found = a
            a = self.parent[a]
        return found

    def pending_or(self) -> Optional[tuple[int, Or]]:
        for n in range(self.or_from, len(self.labels)):
            label = self.labels[n]
            todo = [c for c in label if isinstance(c, Or) and c.left not in label
                    and c.right not in label]
            if todo:
                self.or_from = n
                return n, min(todo, key=concept_key)
        # only a new node, past these, gains concepts before the next restore
        self.or_from = len(self.labels)
        return None

    def pending_exists(self) -> Optional[tuple[int, Exists]]:
        for n in range(self.exists_from, len(self.labels)):
            todo = [c for c in self.labels[n] if isinstance(c, Exists) and not any(
                role == c.role and c.sub in self.labels[m] for role, m in self.children[n])]
            if todo and self.blocker(n) is None:
                self.exists_from = n
                return n, min(todo, key=concept_key)
        return None

    def run(self) -> bool:
        """Takes the first pending `or` left-first or the first pending
        `exists`, until a clash-free branch has nothing left to do. On a
        clash the search goes back to the latest `or` whose right disjunct
        is untried, from the snapshot taken before its left one; an
        explicit stack holds those, so deep searches need no recursion."""
        untried: list[tuple[tuple, int, Concept]] = []
        while True:
            if not self.clash:
                branch = self.pending_or()
                if branch is not None:
                    n, c = branch
                    untried.append((self.snapshot(), n, c.right))
                    self.add(n, [c.left])
                    continue
                ex = self.pending_exists()
                if ex is None:
                    return True
                n, c = ex
                self.new_node([c.sub], n, c.role)
                continue
            if not untried:
                return False
            snap, n, disjunct = untried.pop()
            self.restore(snap)
            self.add(n, [disjunct])

    def extract_witness(self, root: int) -> Witness:
        redirect = {}
        for n in range(len(self.labels)):
            b = self.blocker(n)
            redirect[n] = n if b is None else b
        # keep nodes reachable from the root through redirected edges
        keep: list[int] = []
        seen = {root}
        queue = [root]
        while queue:
            n = queue.pop(0)
            keep.append(n)
            for _, m in self.children[n]:
                t = redirect[m]
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        index = {n: i for i, n in enumerate(keep)}
        atoms: dict[str, set[int]] = {}
        roles: dict[str, set[tuple[int, int]]] = {}
        for n in keep:
            for c in self.labels[n]:
                if isinstance(c, Atom):
                    atoms.setdefault(c.name, set()).add(index[n])
            for role, m in self.children[n]:
                roles.setdefault(role, set()).add((index[n], index[redirect[m]]))
        return Witness(
            size=len(keep),
            atom_ext=tuple(sorted((a, frozenset(s)) for a, s in atoms.items())),
            role_ext=tuple(sorted((r, frozenset(s)) for r, s in roles.items())),
            root=index[root],
        )


def is_satisfiable(concept: Concept, tbox: StrictTBox = StrictTBox(),
                   want_witness: bool = False) -> SatResult:
    """Decides satisfiability of `concept` with respect to `tbox`.

    When satisfiable and `want_witness` is set, the result carries a finite
    model that satisfies the concept at its root and every TBox axiom.
    """
    tab = _Tableau(tbox.internalized)
    root = tab.new_node([to_nnf(concept)], None)
    if not tab.run():
        return SatResult(False)
    if not want_witness:
        return SatResult(True)
    return SatResult(True, tab.extract_witness(root))


def entails_strict(tbox: StrictTBox, lhs: Concept, rhs: Concept) -> bool:
    """Classical entailment of an inclusion: lhs and not rhs is unsatisfiable."""
    return not is_satisfiable(And(lhs, Not(rhs)), tbox)

