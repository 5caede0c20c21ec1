"""Preferential model semantics over a canonical type domain.

The caller builds a domain from a knowledge base's stratification (its
`ranking.RankedTBox`) and a subconcept closure (the KB's own, widened by a
query's two sides when they fall outside it), and passes it to every model
function here; none of them builds one. Every query whose concepts lie in
the same closure can share a domain: `compare` builds one per distinct
closure. Its elements are the maximal KB-satisfiable subsets of the closure
(types): the types that survive type elimination under the strict axioms
and the last level's material counterparts. The stratification already ran
that elimination for its ranks, so a domain is a view of the
`RankedTBox`'s type table for the closure: its type codes, reordered, and
runs no elimination of its own. Every set of elements is an int bitmask,
bit i for element i: concept extensions (`ranking.Extensions`, atoms and
restrictions read off the type bits), role successors, violators and the
least-ranked instances of a concept. A role edge joins two types when the
target honours the source's universal and negated existential members,
the same successor test the elimination uses. A build makes no tableau
call. Rank functions over this fixed domain stand in for preference
relations (lower rank = more typical); a `Model` is the domain with its
global ranks, plus one rank function per aspect for an enriched model. The
domain memoises the extensions of atoms and restrictions and, per KB and
rank bound, the ranks of its minimal single-pref model and of its
minimal enriched model, so the queries sharing a domain search for models
once. Two regimes are implemented:

- single preference: one global rank function, minimised pointwise; its
  least fixpoint is the unique minimal model and mirrors the rank-based
  entailment of `ranking`.
- enriched: one rank function per aspect plus a coupled global one. Aspect
  ranks are minimised first (the pointwise least admissible profile marks
  exactly the axiom violators), then globals are minimised subject to the
  coupling constraints. Under a vector κ of antecedent concept ranks,
  static seeds (antecedent members at least κ_j, violators one above it)
  and two coupling rules that read only an element's class (its
  aspect-violation set and the highest κ_j among the axioms it violates)
  give the least global ranks as a longest path over the classes, or a
  pair of classes the rules order both ways. The search starts from κ = 0
  and sets each κ_j to the least global rank over antecedent j until κ
  stops changing; κ only rises, so the loop ends, at the latest once a κ_j
  passes the rank bound. The result must then fit the bound, leave no rank
  gap, and pass `satisfies_kb` and `check_coupling`. That this fixpoint is
  the unique minimal model, the frontier a sweep over every guess of κ
  would find, is checked against such a sweep in the tests, not proven:
  rule (b) regroups the classes when κ changes, so the solve is not
  obviously monotone in κ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .kb import (
    ConceptAssertion,
    Defeasible,
    KnowledgeBase,
    RoleAssertion,
    Strict,
    aspect_set,
)
from .ranking import Extensions, RankedTBox, TypeTable, bitmask, elements, is_kb_consistent
from .syntax import TOP, Concept, Exists, Forall, Not, complement, concept_key, concept_to_text


class InconsistentKBError(Exception):
    """The knowledge base admits no satisfiable type at all."""


class RankBoundExceededError(Exception):
    """No admissible rank assignment satisfies all constraints.

    Without a `reason` the least ranks exceed the bound. A failed enriched
    search gives its own: the rank its least ranks reach past the bound,
    the two classes the coupling rules order both ways (which no bound
    admits), or the rank its least ranks leave empty.
    """

    def __init__(self, bound: int, reason: Optional[str] = None):
        super().__init__(reason or f"no admissible rank assignment within bound {bound}")
        self.bound = bound


def default_rank_bound(kb: KnowledgeBase) -> int:
    return len(kb.defeasible) + 1


Query = Union[Strict, Defeasible]


class CanonicalDomain:
    """A fixed interpretation: one element per maximal KB-satisfiable type,
    as a view of the stratification's `TypeTable` for its closure.

    Element i is the table's type code `codes[i]`; the elements are in the
    literal tree's order over the domain's own closure. `eval` gives a
    concept's extension as an int bitmask over the elements (bit i set when
    element i is an instance), reading atoms and restrictions off the type
    bits. `successors[role][i]` is the bitmask of the elements element i's
    role edges reach. The literal set of each element (`types`) and the
    edges as (i, j) pairs (`role_edges`) are built only when read, for
    printing a model. The minimal models over the domain are memoised per
    (KB, rank bound); a failed search is memoised too (an enriched one with
    the reason it failed) and raises the same error again. The memos hold
    rank tuples, never models, so nothing in them points back at a domain.
    Instances compare by identity; models built over the same instance
    share it.
    """

    def __init__(self, kb: KnowledgeBase, closure: tuple[Concept, ...],
                 table: TypeTable, codes: list[int]):
        self.kb = kb
        self.closure = closure
        self.codes = codes
        self.eval = Extensions(table.engine.bit, codes)
        self.successors = table.engine.successors(self.eval)
        self._single_pref_memo: dict[tuple[KnowledgeBase, int], Optional[tuple[int, ...]]] = {}
        self._frontier_memo: dict[tuple[KnowledgeBase, int], Union[_Frontier, str]] = {}

    @property
    def size(self) -> int:
        return len(self.codes)

    @cached_property
    def types(self) -> tuple[frozenset[Concept], ...]:
        positives = [c for c in self.closure if not isinstance(c, Not)]
        holds = [set(elements(self.eval(p))) for p in positives]
        return tuple(frozenset(p if i in ext else complement(p) for p, ext in zip(positives, holds))
                     for i in range(self.size))

    @cached_property
    def role_edges(self) -> dict[str, frozenset[tuple[int, int]]]:
        return {role: frozenset((i, j) for i, targets in enumerate(succ) for j in elements(targets))
                for role, succ in self.successors.items()}


def build_canonical_domain(ranked: RankedTBox,
                           closure: Optional[frozenset[Concept]] = None) -> CanonicalDomain:
    """Enumerates all maximal KB-satisfiable types over a closure.

    The closure is the KB's own (`ranked.closure`) unless the caller widens
    it, as `subconcept_closure(kb, (query.lhs, query.rhs))` does for a
    query. A type is KB-satisfiable when it has finite rank, that is when it
    survives the last level's type elimination (the levels only shrink).
    The types are the codes of the stratification's `TypeTable` for the
    closure, with no second elimination, reordered by their truth rows over
    this closure: a boolean member the table's closure lacks moves a type in
    the literal tree's order. The role edges come from the engine's
    successor test. The domain build makes no tableau call: raises
    InconsistentKBError when the KB is inconsistent, and AssertionError
    when the table holds no type for a consistent KB or a restriction's
    bits disagree with the role edges.
    """
    if not is_kb_consistent(ranked):
        raise InconsistentKBError("the knowledge base admits no satisfiable type")
    if closure is None:
        closure = ranked.closure
    table = ranked.table(closure)
    if not table.codes:
        raise AssertionError("type elimination left no type for a consistent KB")
    members = tuple(sorted(closure, key=concept_key))
    n = len(table.codes)
    # each type's truth row over the positives, a string of 0s and 1s;
    # descending rows are the literal tree's order over this closure
    columns = [format(table.ext(p), f"0{n}b")[::-1] for p in members if not isinstance(p, Not)]
    rows = ["".join(row) for row in zip(*columns)] or [""] * n
    domain = CanonicalDomain(ranked.kb, members, table,
                             [code for _, code in sorted(zip(rows, table.codes), reverse=True)])
    _validate_witnesses(domain)
    return domain


def _validate_witnesses(domain: CanonicalDomain) -> None:
    """Every restriction of the closure holds, read off the type bits, on
    exactly the elements its role edges give: `exists r. C` where some
    r-successor is in C, `forall r. C` where every r-successor is."""
    for p in domain.closure:
        if isinstance(p, (Exists, Forall)):
            sub = domain.eval(p.sub)
            wrong = domain.eval(p) ^ bitmask(
                targets & sub if isinstance(p, Exists) else not targets & ~sub
                for targets in domain.successors[p.role])
            if wrong:
                raise AssertionError(f"{p!r} disagrees with the role edges on "
                                     f"element {elements(wrong)[0]}")


@dataclass(frozen=True, eq=False)
class Model:
    """Ranks over a domain: the global rank of each element and, for an
    enriched model, one rank function per aspect (`per_aspect` is empty for
    a single-preference model)."""

    domain: CanonicalDomain
    global_ranks: tuple[int, ...]
    per_aspect: tuple[tuple[Concept, tuple[int, ...]], ...] = ()


# the minimal enriched model's aspect profile and global ranks
_Frontier = tuple[tuple[tuple[Concept, tuple[int, ...]], ...], tuple[int, ...]]


def _min_by(ranks: Sequence[int], ext: int) -> int:
    """The members of the bitmask `ext` with the least rank, as a bitmask."""
    if not ext:
        return 0
    lo = min(ranks[i] for i in elements(ext))
    return ext & bitmask(r == lo for r in ranks)


def min_global(model: Model, concept: Concept) -> int:
    """The globally most typical instances of a concept in the model, as a
    bitmask over the domain."""
    return _min_by(model.global_ranks, model.domain.eval(concept))


def _violations(domain: CanonicalDomain, kb: KnowledgeBase) -> list[tuple[Defeasible, int]]:
    """Per defeasible axiom, the bitmask of the elements violating it."""
    return [(ax, domain.eval(ax.lhs) & ~domain.eval(ax.rhs)) for ax in kb.defeasible]


def check_coupling(m: Model, kb: KnowledgeBase) -> bool:
    """Whether the global ranks honour both aspect-driven forcing rules.

    Rule (a) forces x below y when some aspect prefers x and none prefers y.
    Rule (b) forces x below y when y violates an axiom and every axiom
    violated by x is outdone by one violated by y whose antecedent has a
    strictly higher concept rank (min global rank over its extension).
    Both rules read an element only through its signature: its global
    rank, its aspect-rank vector and the concept ranks of the antecedents
    of the axioms it violates. Two elements with one signature break
    neither rule against each other, so both rules are tested literally on
    every pair of distinct signatures not already in order.
    """
    dom = m.domain
    g = m.global_ranks
    viol = [(ax, set(elements(bad))) for ax, bad in _violations(dom, kb)]
    ante_rank: dict[Concept, int] = {}
    for ax, _ in viol:
        if ax.lhs not in ante_rank:
            ext = dom.eval(ax.lhs)
            ante_rank[ax.lhs] = min(g[i] for i in elements(ext)) if ext else -1
    signatures = list({
        (g[i], tuple(ranks[i] for _, ranks in m.per_aspect),
         tuple(ante_rank[ax.lhs] for ax, bad in viol if i in bad))
        for i in range(dom.size)})

    def cond_a(rx: tuple[int, ...], ry: tuple[int, ...]) -> bool:
        some = any(a < b for a, b in zip(rx, ry))
        none_back = all(b >= a for a, b in zip(rx, ry))
        return some and none_back

    def cond_b(kx: tuple[int, ...], ky: tuple[int, ...]) -> bool:
        return bool(ky) and all(any(kj < kk for kk in ky) for kj in kx)

    for gx, rx, kx in signatures:
        for gy, ry, ky in signatures:
            if not gx < gy and (cond_a(rx, ry) or cond_b(kx, ky)):
                return False
    return True


def satisfies_kb(m: Model, kb: KnowledgeBase) -> bool:
    """Model-of-KB check of the TBox: strict axioms extensionally, defeasible
    axioms on the global minimum and (for enriched models) the
    right-hand-side aspect minimum."""
    dom = m.domain
    aspect_ranks = dict(m.per_aspect)
    for ax in kb.strict:
        if dom.eval(ax.lhs) & ~dom.eval(ax.rhs):
            return False
    for ax in kb.defeasible:
        lhs_ext = dom.eval(ax.lhs)
        outside = ~dom.eval(ax.rhs)
        if min_global(m, ax.lhs) & outside:
            return False
        if aspect_ranks and _min_by(aspect_ranks[ax.rhs], lhs_ext) & outside:
            return False
    return True


def canonical_aspect_profile(domain: CanonicalDomain, kb: KnowledgeBase,
                             ) -> tuple[tuple[Concept, tuple[int, ...]], ...]:
    """The pointwise least admissible aspect ranks: 1 on violators, else 0.

    An element must sit above some other instance of the antecedent in the
    aspect order whenever it violates an axiom with that aspect as its
    right-hand side, so every admissible profile dominates this one.
    """
    out = []
    for a in aspect_set(kb):
        bad = 0
        for ax in kb.defeasible:
            if ax.rhs == a:
                bad |= domain.eval(ax.lhs) & ~domain.eval(a)
        bad_at = set(elements(bad))
        out.append((a, tuple(1 if i in bad_at else 0 for i in range(domain.size))))
    return tuple(out)


def _raise_groups(domain: CanonicalDomain, kb: KnowledgeBase,
                  ) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per axiom with instances: (antecedent members, violators). Every
    violator must rank above the least-ranked member."""
    return tuple(
        (tuple(elements(domain.eval(ax.lhs))), tuple(elements(bad)))
        for ax, bad in _violations(domain, kb)
        if domain.eval(ax.lhs)
    )


def _least_fixpoint(n: int, bound: int,
                    raise_groups: Iterable[tuple[tuple[int, ...], tuple[int, ...]]],
                    ) -> Optional[tuple[int, ...]]:
    """Least g >= 0 with g[v] > min(g over members) for each (members,
    violators) group, or None past the bound. The rule is monotone, so
    iteration reaches the least fixpoint.
    """
    if bound < 0:
        return None
    g = [0] * n
    raise_groups = tuple(raise_groups)
    changed = True
    while changed:
        changed = False
        for members, violators in raise_groups:
            floor = min(g[i] for i in members) + 1
            for v in violators:
                if g[v] < floor:
                    g[v] = floor
                    changed = True
        if changed and max(g) > bound:
            return None
    return tuple(g)


class _EnrichedSearch:
    """The enriched global-rank solve over one domain and KB, per vector κ
    of antecedent concept ranks.

    κ gives each distinct antecedent j (with instances) a concept rank: the
    least global rank among its instances. Under κ, the least global ranks
    g start from static seeds

        s[i] = max(κ_j over antecedents j containing i,
                   κ_j + 1 over axioms with antecedent j that i violates),

    the second term being the raise rule "a violator ranks above the least
    instance of the antecedent" with that least rank read as κ_j. They
    then obey the two coupling rules as strict orders:

    - (a) g[x] < g[y] when vio(x) ⊂ vio(y), the aspects each element
      violates in the fixed aspect profile;
    - (b) g[x] < g[y] when m(x) < m(y), where m(i) is the largest κ_j over
      the axioms i violates (-1 if none).

    Both rules read only an element's key (violation set, m), so the
    elements sharing a key form one class and the orders run between
    classes. Rule (b) orders classes by m, so a cycle needs a class (v, m)
    below (w, m') by rule (a), v ⊂ w, with m > m'; that is a two-class
    cycle, and it admits no ranks. Otherwise every class a class (w, m')
    is forced above has m < m', or m = m' and a violation set inside w.
    So g is the longest path from the seeds, taken level by level in m and
    within a level by ascending set size, with no graph built: per κ O(n)
    for the seeds plus, over the classes present, one test per pair of
    nested violation sets. Where the least rank over each antecedent j is
    κ_j, the seeds honour the raise rule exactly, so g is the least
    fixpoint of the pairwise constraints, not an approximation;
    `_search_frontier` iterates κ to such a point.
    """

    def __init__(self, domain: CanonicalDomain, kb: KnowledgeBase):
        self.n = domain.size
        self.profile = canonical_aspect_profile(domain, kb)
        seen: dict[Concept, int] = {}
        self.antecedents: list[int] = []  # bitmasks over the elements
        violated: list[set[int]] = [set() for _ in range(self.n)]
        for ax, bad in _violations(domain, kb):
            ext = domain.eval(ax.lhs)
            if not ext:
                continue
            if ax.lhs not in seen:
                seen[ax.lhs] = len(self.antecedents)
                self.antecedents.append(ext)
            for i in elements(bad):
                violated[i].add(seen[ax.lhs])
        vio = [frozenset(a for a, ranks in self.profile if ranks[i])
               for i in range(self.n)]
        # violation-set ids ascend with set size, so a subset has the lower id
        distinct = sorted(dict.fromkeys(vio), key=len)
        vid = {v: k for k, v in enumerate(distinct)}
        self._sets = distinct
        # rule (a) over violation-set ids: the sets strictly above and
        # strictly below each one
        self._above = [frozenset(k for k, big in enumerate(distinct) if small < big)
                       for small in distinct]
        self._below = [tuple(k for k, small in enumerate(distinct) if small < big)
                       for big in distinct]
        # an element's seed and key depend on the antecedents containing it
        # and those of the axioms it violates; each distinct tuple is
        # evaluated once per κ
        inside: list[tuple[int, ...]] = [() for _ in range(self.n)]
        for j, ext in enumerate(self.antecedents):
            for i in elements(ext):
                inside[i] += (j,)
        outdone = [tuple(sorted(violated[i])) for i in range(self.n)]
        self._inside = list(dict.fromkeys(inside))
        self._outdone = list(dict.fromkeys(outdone))
        inside_id = {t: k for k, t in enumerate(self._inside)}
        outdone_id = {t: k for k, t in enumerate(self._outdone)}
        # elements grouped by signature, and per antecedent the groups inside it
        groups: dict[tuple[int, int, int], list[int]] = {}
        for i in range(self.n):
            sig = (vid[vio[i]], inside_id[inside[i]], outdone_id[outdone[i]])
            groups.setdefault(sig, []).append(i)
        self._keys = tuple(groups)
        self._members = tuple(groups.values())
        self._groups_inside = tuple(
            tuple(k for k, key in enumerate(self._keys) if j in self._inside[key[1]])
            for j in range(len(self.antecedents)))

    def solve(self, kappa: Sequence[int]) -> Union[list[int], str]:
        """The least global rank of each element group under κ, with no
        bound, or why there is none: the two classes the rules order both
        ways."""
        floor = [max([kappa[j] for j in t]) if t else 0 for t in self._inside]
        m_of = [max([kappa[j] for j in t]) if t else -1 for t in self._outdone]
        # class (v, m) is the int m * width + v, so classes sort by m, then
        # by violation-set size
        width = len(self._above)
        seeds: list[int] = []
        class_of: list[int] = []
        top: dict[int, int] = {}  # per class, its highest seed
        for vid, ante, outdone in self._keys:
            m = m_of[outdone]
            s = floor[ante]
            if s <= m:
                s = m + 1
            seeds.append(s)
            c = m * width + vid
            class_of.append(c)
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
        into: dict[int, int] = {}  # per class, the least rank the orders force
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
        return [s if s > into[c] else into[c] for s, c in zip(seeds, class_of)]

    def concept_ranks(self, values: Sequence[int]) -> list[int]:
        """Per antecedent, the least of its groups' values."""
        return [min([values[k] for k in groups]) for groups in self._groups_inside]

    def ranks(self, values: Sequence[int]) -> tuple[int, ...]:
        """The global rank of each element, from its group's value."""
        g = [0] * self.n
        for value, elements in zip(values, self._members):
            for i in elements:
                g[i] = value
        return tuple(g)


def minimal_canonical_models(kb: KnowledgeBase, domain: CanonicalDomain,
                             rank_bound: Optional[int] = None) -> list[Model]:
    """The minimal canonical enriched model, as a one-element list: the
    aspect profile fixed at the pointwise least admissible one, the global
    ranks minimised over valid couplings by the κ fixpoint of
    `_search_frontier`. Memoised per domain, KB and bound. Raises
    RankBoundExceededError, with the reason, when there is none: its least
    ranks pass the bound, the coupling rules order two classes both ways,
    or the least ranks leave a rank gap.
    """
    bound = default_rank_bound(kb) if rank_bound is None else rank_bound
    memo = domain._frontier_memo
    if (kb, bound) not in memo:
        memo[kb, bound] = _search_frontier(domain, kb, bound)
    found = memo[kb, bound]
    if isinstance(found, str):
        raise RankBoundExceededError(bound, found)
    profile, g = found
    return [Model(domain, g, profile)]


def _search_frontier(domain: CanonicalDomain, kb: KnowledgeBase, bound: int,
                     ) -> Union[_Frontier, str]:
    """The minimal enriched model's aspect profile and global ranks, or the
    reason there is none.

    Starting from κ = 0, solve under κ, then set each κ_j to the least
    global rank over antecedent j, until κ stops changing. Every seed
    inside antecedent j is at least κ_j, so κ never falls and, changing
    each round, never repeats; once some κ_j passes the bound the ranks do
    too, which ends the loop.
    """
    search = _EnrichedSearch(domain, kb)
    kappa = [0] * len(search.antecedents)
    while True:
        values = search.solve(kappa)
        if isinstance(values, str):
            return values
        top = max(values)
        nxt = search.concept_ranks(values)
        if nxt == kappa:
            break
        if any(new < old for new, old in zip(nxt, kappa)):
            raise AssertionError("internal error: a concept rank fell in the κ fixpoint")
        if max(nxt) > bound:
            break  # top >= max(nxt), so the bound check below fails
        kappa = nxt
    if top > bound:
        return f"no admissible rank assignment within bound {bound}: the least ranks reach {top}"
    g = search.ranks(values)
    gap = min(set(range(top + 1)).difference(g), default=None)
    if gap is not None:
        return f"no admissible rank assignment: the least ranks leave rank {gap} empty"
    model = Model(domain, g, search.profile)
    if not satisfies_kb(model, kb) or not check_coupling(model, kb):
        raise AssertionError("internal error: the minimal enriched model failed validation")
    return search.profile, g


def single_pref_model(kb: KnowledgeBase, domain: CanonicalDomain,
                      rank_bound: Optional[int] = None) -> Model:
    """The unique minimal single-preference model: the least global ranks
    under which every defeasible axiom holds on its global minimum."""
    bound = default_rank_bound(kb) if rank_bound is None else rank_bound
    memo = domain._single_pref_memo
    if (kb, bound) not in memo:
        memo[kb, bound] = _least_fixpoint(domain.size, bound, _raise_groups(domain, kb))
    g = memo[kb, bound]
    if g is None:
        raise RankBoundExceededError(bound)
    return Model(domain, g)


def _holds_in(model: Model, query: Query) -> tuple[bool, Optional[int]]:
    """Whether the query holds in the model, and if not the first element
    it fails on."""
    dom = model.domain
    lhs = dom.eval(query.lhs) if isinstance(query, Strict) else min_global(model, query.lhs)
    off = lhs & ~dom.eval(query.rhs)
    return (not off, (off & -off).bit_length() - 1 if off else None)


@dataclass(frozen=True)
class Verdict:
    """Per-query result under one semantics. `model` is a witness when the
    query is entailed and a countermodel, with `counterelement` the element
    it fails on, when not."""

    entailed: bool
    model: Model
    counterelement: Optional[int] = None


def enriched_entails(kb: KnowledgeBase, query: Query, domain: CanonicalDomain,
                     rank_bound: Optional[int] = None) -> Verdict:
    """Entailment over all minimal canonical enriched models."""
    models = minimal_canonical_models(kb, domain, rank_bound)
    for m in models:
        ok, bad = _holds_in(m, query)
        if not ok:
            return Verdict(False, m, bad)
    return Verdict(True, models[0])


def single_pref_entails(kb: KnowledgeBase, query: Query, domain: CanonicalDomain,
                        rank_bound: Optional[int] = None) -> Verdict:
    """Entailment over the minimal canonical single-preference model."""
    m = single_pref_model(kb, domain, rank_bound)
    ok, bad = _holds_in(m, query)
    return Verdict(ok, m, bad)


def find_abox_mapping(domain: CanonicalDomain, kb: KnowledgeBase,
                      global_ranks: Sequence[int]) -> Optional[dict[str, int]]:
    """Maps each named individual to a domain type satisfying its assertions.

    Typical concept assertions confine the individual to the globally most
    typical instances; role assertions require a canonical edge when the
    role is constrained by the closure, and are free otherwise.
    """
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
                ext = _min_by(global_ranks, ext)
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
