"""Preferential model semantics over a canonical type domain.

The caller builds a domain from a knowledge base's stratification (its
`ranking.RankedTBox`) and the concepts that widen the KB's closure, and
passes it to every model function here; none of them builds one. A query
is answered on the table `ranking` ranks it on: the closure widened by
its restrictions outside the KB's (`RankedTBox.outside`), its atoms the
domain has no bit for lifted. It is read as two masks
(`CanonicalDomain.masks`): its antecedent's extension and its
counterexamples, `lhs and not rhs`. A model entails it unless the
counterexamples meet the antecedent's least-ranked instances, the first
rank mask that meets the antecedent (a strict query, unless there are
any): `ranking.counterexamples` reads that off the two masks and a
model's rank masks, as it reads rank entailment off a table's levels.
`compare` builds one
domain per KB plus one per distinct set of such restrictions, `query`
the one its query needs by the same rule, and `query --emit-model` one
widened by both sides of the query. A domain's
elements are the types (maximal KB-satisfiable subsets of the closure)
that survive the stratification's type elimination, so the domain is the
`RankedTBox`'s table for the closure (`ranking.CanonicalDomain`), shared
with the ranks, and makes no tableau call. Every set of elements is an
int bitmask, bit i for element i: concept extensions (the domain's
`eval`, read off the type bits), role successors (the elimination's
successor test), violators and least-ranked instances. Rank functions
over the domain stand in for preference relations (lower rank = more
typical); a `Model` is the domain with its global ranks, plus one rank
function per aspect for an enriched model.

Both semantics read a KB's defaults through one constraint table per
domain and KB (`_Constraints`): per default its antecedent and violators,
the least aspect profile, and the element classes, elements in the same
antecedents and violating the same defaults. The rules below read an
element only through its violated aspects, the antecedents it lies in and
those of the defaults it violates, which fix its class, so the loop ranks
classes. The model checks read the table too, and it memoises each
minimal model's global ranks, or why there is none, per semantics and
rank bound, so the queries sharing a domain search once.

Both minimal models come from one search (`_minimal`), the κ fixpoint of
`_kappa_fixpoint`; its least ranks must fit the bound and leave no rank
empty. A vector κ
gives each antecedent j a concept rank, and under κ an element i gets the
static seed

    s[i] = max(κ_j over antecedents j containing i,
               κ_j + 1 over defaults with antecedent j that i violates),

the raise rule "a violator ranks above the least instance of the
antecedent" with that least rank read as κ_j. From κ = 0 the loop takes
the least ranks under κ and sets each κ_j to the least rank over
antecedent j, until κ stops changing or passes the rank bound; κ only
rises, so the loop ends.

- single preference: one global rank function, minimised pointwise; the
  ranks under κ are the seeds. Any model g* with concept ranks κ* has
  g* >= seeds(κ*). Seeds and concept ranks are monotone, so every κ the
  loop reaches from 0 stays <= κ*, and at the fixpoint the seeds obey the
  raise rule: the fixpoint is the least model, the unique minimal one, and
  the loop passes the bound exactly when that model does or there is
  none. It mirrors the rank-based entailment of `ranking`.
- enriched: one rank function per aspect plus a coupled global one. Aspect
  ranks are minimised first (the least admissible profile marks exactly
  the axiom violators), then globals subject to the coupling constraints:
  the ranks under κ are the longest path from the seeds over the two
  coupling orders, or a pair of classes the rules order both ways
  (`_Constraints.solve`). The result must then pass `satisfies_kb` and
  `check_coupling`. That this is the
  unique minimal model, the frontier a sweep over every guess of κ would
  find, is checked against such a sweep in the tests, not proven: rule (b)
  regroups the classes when κ changes, so the solve is not obviously
  monotone in κ.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable, Collection, Optional, Sequence, Union

from .kb import ConceptAssertion, Defeasible, KnowledgeBase, RoleAssertion, Strict, aspect_set
from .ranking import (CanonicalDomain, RankedTBox, bitmask, counterexamples, elements,
                      is_kb_consistent, least, level)
from .syntax import TOP, Concept, Exists, Forall, concept_key, concept_to_text


class InconsistentKBError(Exception):
    """The knowledge base admits no satisfiable type at all."""


class RankBoundExceededError(Exception):
    """No admissible rank assignment satisfies all constraints, for the
    `reason` given: the rank the least ranks reach past the bound, the two
    classes the coupling rules order both ways, or a rank left empty."""

    def __init__(self, bound: int, reason: str):
        super().__init__(reason)
        self.bound = bound


def default_rank_bound(kb: KnowledgeBase) -> int:
    return len(kb.defeasible) + 1


Query = Union[Strict, Defeasible]


def build_canonical_domain(ranked: RankedTBox,
                           closure: Optional[Collection[Concept]] = None) -> CanonicalDomain:
    """The canonical domain over the KB's closure widened by the concepts
    `closure` (a query's restrictions outside it, say, or a closure): its
    elements are all maximal KB-satisfiable types over it. A type is
    KB-satisfiable when it has finite rank, that is when it survives the
    last level's type elimination (the levels only shrink), so the domain
    is the stratification's table for that widening (`RankedTBox.table`),
    built once and shared with the ranks.
    The role edges come from the engine's successor test. The domain build
    makes no tableau call: raises InconsistentKBError when the KB is
    inconsistent, and AssertionError when the table holds no type for a
    consistent KB or a restriction's bits disagree with the role edges.
    """
    if not is_kb_consistent(ranked):
        raise InconsistentKBError("the knowledge base admits no satisfiable type")
    domain = ranked.table(closure or ())
    if not domain.codes:
        raise AssertionError("type elimination left no type for a consistent KB")
    _validate_witnesses(domain)
    return domain


def _validate_witnesses(domain: CanonicalDomain) -> None:
    """Every restriction of the closure holds, read off the type bits, on
    exactly the elements its role edges give: `exists r. C` where some
    r-successor is in C, `forall r. C` where every r-successor is. The
    successor test hands out one int per distinct restriction bits, so each
    distinct successor mask is tested once, keyed by its `id`: keyed by
    value, every mask of a wide domain would be hashed."""
    full = domain.eval.full
    for p in domain.closure:
        if isinstance(p, (Exists, Forall)):
            succ = domain.successors[p.role]
            # `exists r. C` holds where a successor is in C, `forall r. C`
            # where none is outside it
            sub = domain.eval(p.sub) if isinstance(p, Exists) else full ^ domain.eval(p.sub)
            meets = {k: bool(t & sub) for k, t in {id(t): t for t in succ}.items()}
            holds = bitmask(map(meets.__getitem__, map(id, succ)))
            if isinstance(p, Forall):
                holds ^= full
            wrong = domain.eval(p) ^ holds
            if wrong:
                raise AssertionError(f"{p!r} disagrees with the role edges on "
                                     f"element {elements(wrong)[0]}")


def _rank_masks(ranks: Sequence[int]) -> tuple[int, ...]:
    """Per rank from 0 to the highest, the elements with that rank as a
    bitmask. One pass writes the ranks as one character each; each rank's
    mask is then that text translated to binary digits, read in C."""
    top = max(ranks, default=-1)
    text = (bytes(ranks).decode("latin-1") if top < 256
            else "".join(map(chr, ranks)))[::-1]  # the last character is element 0's
    digits = dict.fromkeys(range(top + 1), "0")
    masks = []
    for k in range(top + 1):
        digits[k] = "1"
        masks.append(int(text.translate(digits), 2))
        digits[k] = "0"
    return tuple(masks)


@dataclass(frozen=True, eq=False)
class Model:
    """Ranks over a domain: the global rank of each element and, for an
    enriched model, one rank function per aspect (`per_aspect` is empty for
    a single-preference model). `rank_masks` holds the elements of each
    global rank and `aspect_masks`, per aspect, those of each aspect rank
    (`_rank_masks`), each read off the ranks on first use."""

    domain: CanonicalDomain
    global_ranks: tuple[int, ...]
    per_aspect: tuple[tuple[Concept, tuple[int, ...]], ...] = ()

    @cached_property
    def rank_masks(self) -> tuple[int, ...]:
        return _rank_masks(self.global_ranks)

    @cached_property
    def aspect_masks(self) -> dict[Concept, tuple[int, ...]]:
        return {a: _rank_masks(ranks) for a, ranks in self.per_aspect}


def min_global(model: Model, concept: Concept) -> int:
    """The globally most typical instances of a concept in the model, as a
    bitmask over the domain."""
    return least(model.rank_masks, model.domain.eval(concept))


class _Constraints:
    """A KB's defaults read over a domain once, for both semantics at every
    rank bound and for the model checks.

    Per default `T(C) => D`, in KB order, `violators` holds the instances
    of C outside D, a bitmask over the elements, and `ante_of` the index of
    C in `antecedents`, the bitmasks of the distinct antecedents with
    instances (-1 when C has none); κ has one entry per antecedent.
    `profile` is the least admissible aspect profile. Element i is in the
    element class `class_of[i]`. A class's search key `_keys[k]` is (vid,
    ante, outdone): the id of its violated-aspect set V in `_sets`, and of
    its sets of defaults lain in and violated, whose antecedents
    `_inside[ante]` and `_outdone[outdone]` list. V and those antecedents
    fix the class's default bits: it lies inside default d when d's
    antecedent is among its antecedents, and violates d when, besides,
    rhs_d is in V. So the search, which reads nothing else, ranks classes
    and has none to merge. `seeds` is the single-preference step of the κ
    loop; `solve`, the enriched one, adds the coupling orders and builds
    the subset tables of rule (a) on first use. `minimal` memoises, per
    (enriched, rank bound), the minimal model's global ranks or the reason
    there is none. Nothing here refers to the domain or a `Model`, so its
    memo forms no reference cycle.
    """

    def __init__(self, domain: CanonicalDomain, kb: KnowledgeBase):
        n = domain.size
        zero_one = bytes.maketrans(b"01", b"\0\1")

        def column(mask: int) -> str:
            return format(mask, f"0{n}b")[::-1]  # character i is bit i

        lhs = [domain.eval(ax.lhs) for ax in kb.defeasible]
        self.violators = tuple(ext & ~domain.eval(ax.rhs) for ax, ext in zip(kb.defeasible, lhs))
        bad: dict[Concept, int] = {}
        for ax, mask in zip(kb.defeasible, self.violators):
            bad[ax.rhs] = bad.get(ax.rhs, 0) | mask
        aspects = aspect_set(kb)
        self.profile = tuple((a, tuple(column(bad.get(a, 0)).encode().translate(zero_one)))
                             for a in aspects)
        seen: dict[Concept, int] = {}
        self.antecedents: list[int] = []
        for ax, ext in zip(kb.defeasible, lhs):
            if ext and ax.lhs not in seen:
                seen[ax.lhs] = len(self.antecedents)
                self.antecedents.append(ext)
        self.ante_of = tuple(seen.get(ax.lhs, -1) for ax in kb.defeasible)
        # each element's row: its bits of the violators, then of the
        # antecedents, the last default first, so each half read in binary
        # is a bitmask over the defaults
        columns = [column(mask) for mask in self.violators[::-1] + tuple(lhs[::-1])]
        rows = list(map("".join, zip(*columns))) or [""] * n
        # class ids in order of first occurrence
        ids = {row: k for k, row in enumerate(dict.fromkeys(rows))}
        self.class_of = tuple(map(ids.__getitem__, rows))
        # per class, the defaults it violates and those it lies in: the two
        # halves of its row, each distinct half read once
        d = len(kb.defeasible)
        violated = [row[:d] for row in ids]
        inside = [row[d:] for row in ids]
        outdone_id = {half: k for k, half in enumerate(dict.fromkeys(violated))}
        inside_id = {half: k for k, half in enumerate(dict.fromkeys(inside))}

        def defaults(half: str) -> list[int]:
            return elements(int(half or "0", 2))

        def among(half: str) -> tuple[int, ...]:
            return tuple(sorted({self.ante_of[e] for e in defaults(half)}))

        # each tuple of antecedents is evaluated once per κ
        self._outdone = [among(half) for half in outdone_id]
        self._inside = [among(half) for half in inside_id]
        aspects = [frozenset(kb.defeasible[e].rhs for e in defaults(half)) for half in outdone_id]
        # violation-set ids ascend with set size, so a subset has the lower id
        self._sets = sorted(dict.fromkeys(aspects), key=len)
        vid = {v: k for k, v in enumerate(self._sets)}
        vid_of = [vid[v] for v in aspects]
        self._keys = tuple([(vid_of[o], inside_id[i], o)
                            for i, o in zip(inside, map(outdone_id.__getitem__, violated))])
        # per antecedent, the classes inside it
        self._classes_in: list[list[int]] = [[] for _ in self.antecedents]
        for k, (_, ante, _) in enumerate(self._keys):
            for j in self._inside[ante]:
                self._classes_in[j].append(k)
        self.minimal: dict[tuple[bool, int], Union[tuple[int, ...], str]] = {}

    @cached_property
    def _above(self) -> list[frozenset[int]]:
        """Rule (a) over violation-set ids: the sets strictly above each one."""
        return [frozenset(k for k, big in enumerate(self._sets) if small < big)
                for small in self._sets]

    @cached_property
    def _below(self) -> list[tuple[int, ...]]:
        """The sets strictly below each one."""
        return [tuple(k for k, small in enumerate(self._sets) if small < big)
                for big in self._sets]

    def _outdone_by(self, kappa: Sequence[int]) -> list[int]:
        """Per `_outdone` tuple, its highest κ_j (-1 if empty)."""
        return [max([kappa[j] for j in t]) if t else -1 for t in self._outdone]

    def seeds(self, kappa: Sequence[int]) -> list[int]:
        """The static seed of each class under κ."""
        floor = [max([kappa[j] for j in t]) if t else 0 for t in self._inside]
        m_of = self._outdone_by(kappa)
        return [max(floor[ante], m_of[outdone] + 1) for _, ante, outdone in self._keys]

    def solve(self, kappa: Sequence[int]) -> Union[list[int], str]:
        """The least global rank of each class under κ, with no bound, or
        why there is none: the two classes the rules order both ways.

        The seeds then obey the two coupling rules as strict orders:

        - (a) g[x] < g[y] when vio(x) ⊂ vio(y), the aspects each element
          violates in the fixed aspect profile;
        - (b) g[x] < g[y] when m(x) < m(y), where m(i) is the largest κ_j
          over the defaults i violates (-1 if none).

        Both rules read a class only through its coupling class (V, m).
        Rule (b) orders coupling classes by m, so a cycle needs a coupling
        class (v, m) below (w, m') by rule (a), v ⊂ w, with m > m': a
        two-class cycle, which admits no ranks. Otherwise every coupling
        class that (w, m') is forced above has m < m', or m = m' and a
        violation set inside w. So g is the longest path from the seeds,
        taken level by level in m and within a level by ascending set size,
        with no graph built.
        """
        seeds = self.seeds(kappa)
        m_of = self._outdone_by(kappa)
        # coupling class (v, m) is the int m * width + v, so they sort by
        # m, then by violation-set size
        width = len(self._sets)
        coupling = [m_of[outdone] * width + vid for vid, _, outdone in self._keys]
        top: dict[int, int] = {}  # per coupling class, its highest seed
        for s, c in zip(seeds, coupling):
            if top.get(c, -1) < s:
                top[c] = s
        classes = sorted(top)
        lo: dict[int, int] = {}  # per violation-set id, its least m
        hi: dict[int, int] = {}  # and its greatest
        for c in classes:
            m, vid = divmod(c, width)
            lo.setdefault(vid, m)
            hi[vid] = m
        for vid, m in hi.items():
            for big in self._above[vid]:
                if lo.get(big, m) < m:
                    small, large = (
                        "{" + ", ".join(map(concept_to_text, sorted(self._sets[k], key=concept_key)))
                        + "}" for k in (vid, big))
                    return (f"no admissible rank assignment: rule (a) puts class"
                            f" {small} (m = {m}) below class {large} (m = {lo[big]})"
                            " and rule (b) puts it above (a class is an element's"
                            " violated aspects, m the highest concept rank of the"
                            " antecedents it violates)")
        into: dict[int, int] = {}  # per coupling class, the least rank the orders force
        best = -1  # the highest class value over the lower levels of m
        level = None
        level_best = -1
        done: dict[int, int] = {}  # the values of this level's classes
        for c in classes:
            m, vid = divmod(c, width)
            if m != level:
                level, best, done = m, max(best, level_best), {}
            reach = best + 1
            for small in self._below[vid]:
                value = done.get(small)
                if value is not None and value >= reach:
                    reach = value + 1
            into[c] = reach
            value = top[c]
            if value < reach:
                value = reach
            done[vid] = value
            if level_best < value:
                level_best = value
        return [s if s > into[c] else into[c] for s, c in zip(seeds, coupling)]

    def concept_ranks(self, values: Sequence[int]) -> list[int]:
        """Per antecedent, the least of its classes' values."""
        return [min([values[k] for k in classes]) for classes in self._classes_in]

    def ranks(self, values: Sequence[int]) -> tuple[int, ...]:
        """The rank of each element, from its class's value."""
        return tuple([values[c] for c in self.class_of])


def _constraints(domain: CanonicalDomain, kb: KnowledgeBase) -> _Constraints:
    """The domain's constraint table for the KB, built on first use."""
    table = domain._memo.get(kb)
    if table is None:
        table = domain._memo[kb] = _Constraints(domain, kb)
    return table


def _kappa_fixpoint(table: _Constraints, step: Callable[[Sequence[int]], Union[list[int], str]],
                    bound: int) -> Union[list[int], str]:
    """The class values `step` gives at the κ fixpoint, or past the bound,
    or the reason `step` gives none.

    Starting from κ = 0, take the values under κ, then set each κ_j to the
    least value over antecedent j, until κ stops changing. Every value
    inside antecedent j is at least κ_j, so κ never falls and, changing
    each round, never repeats; once some κ_j passes the bound the values
    do too, which ends the loop.
    """
    kappa = [0] * len(table.antecedents)
    while True:
        values = step(kappa)
        if isinstance(values, str):
            return values
        nxt = table.concept_ranks(values)
        if nxt == kappa:
            return values
        if any(new < old for new, old in zip(nxt, kappa)):
            raise AssertionError("a concept rank fell in the κ fixpoint")
        if max(nxt) > bound:
            return values  # max(values) >= max(nxt), past the bound too
        kappa = nxt


def check_coupling(m: Model, kb: KnowledgeBase) -> bool:
    """Whether the global ranks honour both aspect-driven forcing rules.

    Rule (a) forces x below y when some aspect prefers x and none prefers y.
    Rule (b) forces x below y when y violates an axiom and every axiom
    violated by x is outdone by one violated by y whose antecedent has a
    strictly higher concept rank (the least global rank over its
    extension). An axiom of x is outdone exactly when its concept rank is
    below the highest over y's axioms, so rule (b) reads an element only
    through m, the highest concept rank of the antecedents it violates (-1
    if none): it forces x below y exactly when m(x) < m(y).

    Both rules read an element only through its signature: its global
    rank, its aspect-rank vector and m. So they hold when, for every two
    distinct vectors v <= w, each global rank with v lies below each with w,
    and for every m, each global rank with a lower m lies below each with
    m: tested on the least and greatest global rank per vector and per m.
    """
    g = m.global_ranks
    table = _constraints(m.domain, kb)
    # an antecedent's concept rank: the first global rank meeting it
    ante_rank = [level(m.rank_masks, ext) for ext in table.antecedents]
    m_of = [max([ante_rank[j] for j in t], default=-1) for t in table._outdone]
    class_m = [m_of[outdone] for _, _, outdone in table._keys]
    aspect_rows = zip(*(ranks for _, ranks in m.per_aspect)) if m.per_aspect else repeat(())
    by_vector: dict[tuple[int, ...], list[int]] = {}
    by_m: dict[int, list[int]] = {}
    for gi, rx, mx in set(zip(g, aspect_rows, map(class_m.__getitem__, table.class_of))):
        by_vector.setdefault(rx, []).append(gi)
        by_m.setdefault(mx, []).append(gi)
    below = -1  # the greatest global rank over the lower m
    for mx in sorted(by_m):
        if min(by_m[mx]) <= below:
            return False
        below = max(below, *by_m[mx])
    vectors = [(rx, min(ranks), max(ranks)) for rx, ranks in by_vector.items()]
    for rx, _, hi in vectors:
        for ry, lo, _ in vectors:
            if hi >= lo and rx != ry and all(map(operator.le, rx, ry)):
                return False
    return True


def satisfies_kb(m: Model, kb: KnowledgeBase) -> bool:
    """Model-of-KB check of the TBox: strict axioms extensionally, defeasible
    axioms on the global minimum and (for enriched models) the
    right-hand-side aspect minimum: its violators give no counterexamples
    under the model's global rank masks or its aspect's."""
    dom = m.domain
    for ax in kb.strict:
        if dom.eval(ax.lhs) & ~dom.eval(ax.rhs):
            return False
    table = _constraints(dom, kb)
    for ax, j, bad in zip(kb.defeasible, table.ante_of, table.violators):
        if not bad:
            continue  # a default nothing violates holds on every minimum
        ext = table.antecedents[j]
        if counterexamples(m.rank_masks, ax, ext, bad):
            return False
        if m.per_aspect and counterexamples(m.aspect_masks[ax.rhs], ax, ext, bad):
            return False
    return True


def minimal_canonical_models(kb: KnowledgeBase, domain: CanonicalDomain,
                             rank_bound: Optional[int] = None) -> list[Model]:
    """The minimal canonical enriched model: the aspect profile fixed at
    the least admissible one, the global ranks minimised over valid
    couplings (`_minimal`). A list of one model, as callers take its
    `len()` (`perfbench/tracing.py` counts models with it)."""
    return [_minimal(kb, domain, rank_bound, True)]


def single_pref_model(kb: KnowledgeBase, domain: CanonicalDomain,
                      rank_bound: Optional[int] = None) -> Model:
    """The unique minimal single-preference model: the least global ranks
    under which every defeasible axiom holds on its global minimum
    (`_minimal`)."""
    return _minimal(kb, domain, rank_bound, False)


def _minimal(kb: KnowledgeBase, domain: CanonicalDomain, rank_bound: Optional[int],
             enriched: bool) -> Model:
    """The minimal model of one semantics, its global ranks or the reason
    there is none (`_least_ranks`) memoised per domain, KB, semantics and
    bound; raises RankBoundExceededError with that reason."""
    bound = default_rank_bound(kb) if rank_bound is None else rank_bound
    table = _constraints(domain, kb)
    key = (enriched, bound)
    if key not in table.minimal:
        table.minimal[key] = _least_ranks(domain, kb, table, bound, enriched)
    found = table.minimal[key]
    if isinstance(found, str):
        raise RankBoundExceededError(bound, found)
    return Model(domain, found, table.profile if enriched else ())


def _least_ranks(domain: CanonicalDomain, kb: KnowledgeBase, table: _Constraints, bound: int,
                 enriched: bool) -> Union[tuple[int, ...], str]:
    """The minimal model's global ranks at the κ fixpoint of
    `_Constraints.solve` (enriched) or `seeds` (single preference), or the
    reason there is none. An enriched model must pass the model checks."""
    values = _kappa_fixpoint(table, table.solve if enriched else table.seeds, bound)
    if isinstance(values, str):
        return values
    top = max(values)
    if top > bound:
        return f"no admissible rank assignment within bound {bound}: the least ranks reach {top}"
    gap = min(set(range(top + 1)).difference(values), default=None)
    if gap is not None:
        return f"no admissible rank assignment: the least ranks leave rank {gap} empty"
    g = table.ranks(values)
    if enriched:
        model = Model(domain, g, table.profile)
        if not satisfies_kb(model, kb) or not check_coupling(model, kb):
            raise AssertionError("the minimal enriched model failed validation")
    return g


@dataclass(frozen=True)
class Verdict:
    """Per-query result under one semantics. `model` is a witness when the
    query is entailed and a countermodel, with `counterelement` the element
    it fails on, when not."""

    entailed: bool
    model: Model
    counterelement: Optional[int] = None


def _holds_in(model: Model, query: Query) -> Verdict:
    """Whether the query holds in the model, and if not the first element
    it fails on, read off the query's two masks on the model's domain
    (`CanonicalDomain.masks`, which lifts the query's atoms the domain has
    no bit for)."""
    off = counterexamples(model.rank_masks, query, *model.domain.masks(query.lhs, query.rhs))
    return Verdict(not off, model, (off & -off).bit_length() - 1 if off else None)


def enriched_entails(kb: KnowledgeBase, query: Query, domain: CanonicalDomain,
                     rank_bound: Optional[int] = None) -> Verdict:
    """Entailment over the minimal canonical enriched model."""
    return _holds_in(minimal_canonical_models(kb, domain, rank_bound)[0], query)


def single_pref_entails(kb: KnowledgeBase, query: Query, domain: CanonicalDomain,
                        rank_bound: Optional[int] = None) -> Verdict:
    """Entailment over the minimal canonical single-preference model."""
    return _holds_in(single_pref_model(kb, domain, rank_bound), query)


def find_abox_mapping(model: Model, kb: KnowledgeBase) -> Optional[dict[str, int]]:
    """Maps each named individual to a domain type satisfying its assertions.

    Typical concept assertions confine the individual to the globally most
    typical instances; role assertions require a canonical edge when the
    role is constrained by the closure, and are free otherwise.
    """
    domain = model.domain
    individuals: list[str] = []
    for a in kb.abox:
        names = [a.individual] if isinstance(a, ConceptAssertion) else [a.subject, a.target]
        for name in names:
            if name not in individuals:
                individuals.append(name)
    # per individual, the bitmask of the elements it may map to
    candidates = dict.fromkeys(individuals, domain.eval(TOP))
    for a in kb.abox:
        if isinstance(a, ConceptAssertion):
            ext = domain.eval(a.concept)
            if a.typical:
                ext = least(model.rank_masks, ext)
            candidates[a.individual] &= ext
    role_pairs = [a for a in kb.abox
                  if isinstance(a, RoleAssertion) and a.role in domain.successors]
    return _assign(domain, individuals, candidates, role_pairs, {})


def _assign(domain: CanonicalDomain, individuals: Sequence[str],
            candidates: dict[str, int], role_pairs: Sequence[RoleAssertion],
            chosen: dict[str, int]) -> Optional[dict[str, int]]:
    """Extends `chosen`, which maps the first individuals, to all of them so
    that every role pair between chosen individuals is a canonical edge."""
    if len(chosen) == len(individuals):
        return dict(chosen)
    name = individuals[len(chosen)]
    for t in elements(candidates[name]):
        chosen[name] = t
        if all(domain.successors[a.role][chosen[a.subject]] >> chosen[a.target] & 1
               for a in role_pairs if a.subject in chosen and a.target in chosen):
            out = _assign(domain, individuals, candidates, role_pairs, chosen)
            if out is not None:
                return out
        del chosen[name]
    return None
