"""Seeded inputs for the typika benchmark.

Concepts are nested tuples rendered to the KB surface syntax, so the inputs do
not depend on the program under test: the program only ever sees the KB and
query files written from them.

A workload is a list of KB templates, each with a seeded sample of queries and
the verdicts that hold for them by construction. A run repeats the list in
rounds. Every KB of a run gets its own name prefix, prepended to every atom
and role name, so no KB (and no strict part of a KB) repeats within a run and
no value-keyed cache of the program can answer one KB from another. The
prefix is the same for all names of a KB, which keeps the sort order of its
concepts and so the work the program does on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

WORKLOADS = ("corpus", "chains", "roles")

# -- concepts and axioms ----------------------------------------------------

TOP = ("top",)


def atom(name: str) -> tuple:
    return ("atom", name)


def neg(c: tuple) -> tuple:
    return ("not", c)


def conj(a: tuple, b: tuple) -> tuple:
    return ("and", a, b)


def disj(a: tuple, b: tuple) -> tuple:
    return ("or", a, b)


def some(role: str, c: tuple) -> tuple:
    return ("exists", role, c)


def every(role: str, c: tuple) -> tuple:
    return ("forall", role, c)


def strict(lhs: tuple, rhs: tuple) -> tuple:
    return ("strict", lhs, rhs)


def typical(lhs: tuple, rhs: tuple) -> tuple:
    return ("typical", lhs, rhs)


def render(c: tuple, prefix: str = "") -> str:
    """Surface syntax of a concept; atoms get `prefix`, roles its lower case."""
    tag = c[0]
    if tag == "atom":
        return prefix + c[1]
    if tag in ("top", "bot"):
        return tag
    if tag == "not":
        return f"not {render(c[1], prefix)}"
    if tag in ("and", "or"):
        return f"({render(c[1], prefix)} {tag} {render(c[2], prefix)})"
    if tag in ("exists", "forall"):
        return f"{tag} {prefix.lower()}{c[1]}. {render(c[2], prefix)}"
    raise ValueError(f"not a concept: {c!r}")


def render_axiom(ax: tuple, prefix: str = "") -> str:
    lhs, rhs = render(ax[1], prefix), render(ax[2], prefix)
    return f"T({lhs}) => {rhs}" if ax[0] == "typical" else f"{lhs} => {rhs}"


def subconcepts(c: tuple) -> Iterator[tuple]:
    yield c
    if c[0] == "not":
        yield from subconcepts(c[1])
    elif c[0] in ("and", "or"):
        yield from subconcepts(c[1])
        yield from subconcepts(c[2])
    elif c[0] in ("exists", "forall"):
        yield from subconcepts(c[2])


def closure(axioms: list[tuple]) -> list[tuple]:
    """Subconcepts of every axiom side, closed under single negation, sorted."""
    base = {s for ax in axioms for side in ax[1:] for s in subconcepts(side)}
    closed = base | {c[1] if c[0] == "not" else neg(c) for c in base}
    return sorted(closed, key=render)


# -- templates ----------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """One query row and what must hold for it by construction.

    `expect_rc` is the required `rc` verdict, if any; `same_as` is the index
    of a base row whose three verdicts this row must repeat.
    """

    axiom: tuple
    expect_rc: Optional[bool] = None
    same_as: Optional[int] = None


@dataclass(frozen=True)
class Template:
    name: str
    axioms: tuple
    queries: tuple


def _closure_queries(axioms: list[tuple], rng: random.Random,
                     n_defeasible: int, n_strict: int) -> tuple:
    members = closure(axioms)
    pairs = [(x, y) for x in members for y in members]
    picked = [typical(x, y) for x, y in rng.sample(pairs, n_defeasible)]
    picked += [strict(x, y) for x, y in rng.sample(pairs, n_strict)]
    return tuple(Query(ax) for ax in picked)


A, B, C, D, E = (atom(n) for n in "ABCDE")


def corpus_axiom_sets() -> list[list[tuple]]:
    """The 258 role-free KBs of the test corpus: up to three defaults drawn
    from nine, with and without the strict inclusion B => A."""
    pool = [typical(lhs, rhs) for lhs in (A, B, conj(A, B)) for rhs in (C, neg(C), D)]
    out = []
    for k in range(1, 4):
        for chosen in combinations(pool, k):
            for extra in ([], [strict(B, A)]):
                out.append(extra + list(chosen))
    return out


def corpus_templates(rng: random.Random) -> list[Template]:
    return [Template(f"corpus{i}", tuple(axs), _closure_queries(axs, rng, 6, 2))
            for i, axs in enumerate(corpus_axiom_sets())]


# Role-bearing KBs with at most three defaults; several are cyclic and need
# blocking in the tableau.
ROLE_AXIOM_SETS = {
    "self-loop": [strict(B, some("r", B)), typical(B, C), typical(conj(B, D), neg(C))],
    "loop-forall": [strict(A, some("r", A)), typical(A, every("r", B)),
                    typical(B, some("s", C))],
    "loop-exception": [strict(A, some("h", A)), typical(A, every("h", B)),
                       typical(conj(A, C), neg(B))],
    "exists-forall": [typical(A, some("r", B)), typical(conj(A, C), every("r", neg(B)))],
    "forall-exists": [strict(A, every("r", B)), typical(A, some("r", TOP)), typical(B, C)],
    "two-roles": [strict(A, some("r", conj(B, C))), strict(B, every("s", neg(C))),
                  typical(A, D), typical(conj(A, E), neg(D))],
    "disjunction": [strict(disj(A, B), some("r", A)), typical(A, neg(B)), typical(B, C)],
    "mutual-loop": [strict(A, some("r", B)), strict(B, some("r", A)),
                    typical(A, C), typical(B, neg(C))],
    "forall-disjunction": [strict(A, every("r", disj(B, C))), typical(A, some("r", neg(B))),
                           typical(B, D)],
    "successor-exception": [strict(A, some("r", B)), strict(B, every("r", A)),
                            typical(A, C), typical(B, neg(C))],
}

# Queries asked on top of the closure sample. On "successor-exception" `rc`
# entails this one while single-pref and enriched do not (the known defect of
# run.py), so a correct program must change at least one of those verdicts.
ROLE_PINNED_QUERIES = {
    "successor-exception": [typical(A, neg(every("r", A)))],
}


def roles_templates(rng: random.Random) -> list[Template]:
    return [Template(name, tuple(axs),
                     tuple(Query(q) for q in ROLE_PINNED_QUERIES.get(name, ()))
                     + _closure_queries(axs, rng, 6, 2))
            for name, axs in ROLE_AXIOM_SETS.items()]


BLOND = atom("Blond")


def _with_fresh_atom(base: Query, index: int) -> Query:
    """The irrelevance variant: the base query's antecedent plus an atom the
    KB never mentions; it must get the base query's verdicts."""
    ax = base.axiom
    return Query(typical(conj(ax[1], BLOND), ax[2]), same_as=index)


def chain_template(n: int, rng: random.Random, name: str, fresh: bool = True) -> Template:
    """An exception chain with n levels: C_i => C_{i-1}, T(C_i) => P for even
    i and not P for odd i, and T(C_i) => Q_i. Every level's own defaults are
    rc-entailed. The queries are one P default and one Q default of seeded
    levels, with `fresh` the P default again with a fresh atom, and for n > 1
    a strict inclusion between two levels."""
    c = [atom(f"C{i}") for i in range(n)]
    p = atom("P")
    axioms = [strict(c[i], c[i - 1]) for i in range(1, n)]
    for i in range(n):
        axioms += [typical(c[i], p if i % 2 == 0 else neg(p)), typical(c[i], atom(f"Q{i}"))]
    i, j = rng.randrange(n), rng.randrange(n)
    queries = [Query(typical(c[i], p if i % 2 == 0 else neg(p)), expect_rc=True),
               Query(typical(c[j], atom(f"Q{j}")), expect_rc=True)]
    if fresh:
        queries.append(_with_fresh_atom(queries[0], 0))
    if n > 1:
        hi = rng.randrange(1, n)
        queries.append(Query(strict(c[hi], c[rng.randrange(hi)]), expect_rc=True))
    return Template(name, tuple(axioms), tuple(queries))


def diamond_template(n: int, rng: random.Random, name: str, fresh: bool = True) -> Template:
    """n Nixon diamonds: T(Q_i) => P_i and T(R_i) => not P_i. Neither side of
    a conflict is rc-entailed for Q_i and R_i together."""
    axioms, sides = [], []
    for i in range(1, n + 1):
        q, r, p = atom(f"Q{i}"), atom(f"R{i}"), atom(f"P{i}")
        axioms += [typical(q, p), typical(r, neg(p))]
        sides.append((q, r, p))
    q, r, p = rng.choice(sides)
    conflict = Query(typical(conj(q, r), rng.choice((p, neg(p)))), expect_rc=False)
    base = Query(rng.choice(axioms), expect_rc=True)
    queries = [base, conflict]
    if fresh:
        queries.append(_with_fresh_atom(base, 0))
    return Template(name, tuple(axioms), tuple(queries))


def chains_templates(rng: random.Random) -> list[Template]:
    """Depths 1 to 3 and one or two diamonds. The three depth-2 chains, each
    with its own query sample, put the median call among like KBs. The
    fresh-atom rows are left off the two largest KBs to keep a round short."""
    return ([chain_template(1, rng, "chain1"), diamond_template(1, rng, "diamond1")]
            + [chain_template(2, rng, f"chain2-{k}") for k in range(3)]
            + [chain_template(3, rng, "chain3", fresh=False),
               diamond_template(2, rng, "diamond2", fresh=False)])


_TEMPLATE_SETS = {"corpus": corpus_templates, "chains": chains_templates,
             "roles": roles_templates}


# -- runs -----------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One `compare` call: a KB file's text and its query file's lines."""

    template: Template
    prefix: str
    kb_text: str
    query_lines: tuple


class Plan:
    """A run's inputs: the seeded template list and a source of fresh prefixes."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.templates = _TEMPLATE_SETS[workload](self.rng)
        self.rng.shuffle(self.templates)
        self._used: set[str] = set()

    def _prefix(self) -> str:
        while True:
            code = "K" + "".join(self.rng.choice("abcdefghijklmnopqrstuvwxyz")
                                 for _ in range(4))
            if code not in self._used:
                self._used.add(code)
                return code

    def next_round(self) -> list[Job]:
        jobs = []
        for t in self.templates:
            prefix = self._prefix()
            kb_text = "".join(render_axiom(ax, prefix) + "\n" for ax in t.axioms)
            lines = tuple(render_axiom(q.axiom, prefix) for q in t.queries)
            jobs.append(Job(t, prefix, kb_text, lines))
        return jobs


def uses_roles(template: Template) -> bool:
    """Whether the KB has an `exists` or `forall` concept."""
    return any(s[0] in ("exists", "forall")
               for ax in template.axioms for side in ax[1:] for s in subconcepts(side))


def outside_closure(template: Template, query: Query) -> bool:
    """Whether the query names a concept outside the KB closure."""
    members = set(closure(list(template.axioms)))
    return not all(s in members for side in query.axiom[1:] for s in subconcepts(side))


def fresh_share(templates: list[Template]) -> float:
    """Share of a round's rows naming a concept outside their KB's closure."""
    flags = [outside_closure(t, q) for t in templates for q in t.queries]
    return sum(flags) / len(flags)
