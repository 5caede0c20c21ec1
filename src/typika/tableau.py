"""Concept satisfiability for ALC with a general TBox.

The decision procedure is a labelled-tree tableau. The TBox is internalised:
the conjunction of `not lhs or rhs` over all axioms is added to every node
label, and subset blocking against ancestors guarantees termination.
Disjunctions branch left-first, and the branching and successor rules are
chosen in a fixed scan order, so runs are deterministic; the non-branching
rules are monotone and reach the same fixpoint in any order. The search is
a loop with an explicit stack of the untried right disjuncts, so neither
branching nor successors are bounded by Python's recursion limit.

Each `StrictTBox` computes its internalised concept once, on first use, and
keeps it, so the cache lives exactly as long as the TBox does. The reasoner
calls the tableau once per knowledge base: `ranking.RankedTBox` checks the
consistency of its last level's TBox against type elimination, which gives
the stratification, the ranks and the canonical domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .kb import Strict
from .syntax import (
    BOT,
    And,
    Atom,
    Concept,
    Exists,
    Forall,
    Not,
    Or,
    concept_key,
    conjoin,
    to_nnf,
)


@dataclass(frozen=True)
class StrictTBox:
    """A purely classical TBox: ordered strict inclusions."""

    axioms: tuple[tuple[Concept, Concept], ...] = ()

    @staticmethod
    def from_axioms(axioms: Iterable[Strict]) -> "StrictTBox":
        return StrictTBox(tuple((ax.lhs, ax.rhs) for ax in axioms))

    def extended(self, lhs: Concept, rhs: Concept) -> "StrictTBox":
        return StrictTBox(self.axioms + ((lhs, rhs),))

    @cached_property
    def internalized(self) -> Optional[Concept]:
        """The NNF of the conjunction of `not lhs or rhs` over the axioms."""
        if not self.axioms:
            return None
        return to_nnf(conjoin(Or(Not(lhs), rhs) for lhs, rhs in self.axioms))


@dataclass(frozen=True)
class Witness:
    """A finite model extracted from an open tableau branch.

    `atom_ext` maps atom names to element sets, `role_ext` maps role names
    to edge sets; elements are 0..size-1 and `root` satisfies the input.
    """

    size: int
    atom_ext: tuple[tuple[str, frozenset[int]], ...]
    role_ext: tuple[tuple[str, frozenset[tuple[int, int]]], ...]
    root: int


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    witness: Optional[Witness] = None

    def __bool__(self) -> bool:
        return self.satisfiable


class _Tableau:
    def __init__(self, meta: Optional[Concept]):
        self.meta = meta
        self.labels: list[set[Concept]] = []
        self.parent: list[Optional[int]] = []
        self.children: list[list[tuple[str, int]]] = []

    def new_node(self, seed: Iterable[Concept], parent: Optional[int], role: str = "") -> int:
        label = set(seed)
        if self.meta is not None:
            label.add(self.meta)
        self.labels.append(label)
        self.parent.append(parent)
        self.children.append([])
        if parent is not None:
            self.children[parent].append((role, len(self.labels) - 1))
        return len(self.labels) - 1

    def snapshot(self):
        return ([set(l) for l in self.labels], list(self.parent),
                [list(c) for c in self.children])

    def restore(self, snap) -> None:
        labels, parent, children = snap
        self.labels = [set(l) for l in labels]
        self.parent = list(parent)
        self.children = [list(c) for c in children]

    def has_clash(self, n: int) -> bool:
        label = self.labels[n]
        if BOT in label:
            return True
        return any(isinstance(c, Not) and c.sub in label for c in label)

    def blocker(self, n: int) -> Optional[int]:
        """Root-most strict ancestor whose label includes this node's label."""
        found = None
        a = self.parent[n]
        while a is not None:
            if self.labels[n] <= self.labels[a]:
                found = a
            a = self.parent[a]
        return found

    def saturate(self) -> bool:
        """Applies non-branching rules to a fixpoint; False on clash."""
        changed = True
        while changed:
            changed = False
            for n in range(len(self.labels)):
                if self.has_clash(n):
                    return False
                for c in tuple(self.labels[n]):
                    if isinstance(c, And):
                        missing = {c.left, c.right} - self.labels[n]
                        if missing:
                            self.labels[n].update(missing)
                            changed = True
                    elif isinstance(c, Forall):
                        for role, m in self.children[n]:
                            if role == c.role and c.sub not in self.labels[m]:
                                self.labels[m].add(c.sub)
                                changed = True
        return not any(self.has_clash(n) for n in range(len(self.labels)))

    def pending_or(self) -> Optional[tuple[int, Or]]:
        for n in range(len(self.labels)):
            for c in sorted(self.labels[n], key=concept_key):
                if isinstance(c, Or) and c.left not in self.labels[n] \
                        and c.right not in self.labels[n]:
                    return n, c
        return None

    def pending_exists(self) -> Optional[tuple[int, Exists]]:
        for n in range(len(self.labels)):
            label = self.labels[n]
            todo = sorted((c for c in label if isinstance(c, Exists)), key=concept_key)
            if not todo:
                continue
            if self.blocker(n) is not None:
                continue
            for c in todo:
                if not any(role == c.role and c.sub in self.labels[m]
                           for role, m in self.children[n]):
                    return n, c
        return None

    def run(self) -> bool:
        """Saturates, then takes the first pending `or` left-first or the
        first pending `exists`, until a clash-free branch has nothing left
        to do. On a clash the search goes back to the latest `or` whose
        right disjunct is untried, from the snapshot taken before its
        left one; an explicit stack holds those, so deep searches need no
        recursion."""
        untried: list[tuple[tuple, int, Concept]] = []
        while True:
            if self.saturate():
                branch = self.pending_or()
                if branch is not None:
                    n, c = branch
                    untried.append((self.snapshot(), n, c.right))
                    self.labels[n].add(c.left)
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
            self.labels[n].add(disjunct)

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

