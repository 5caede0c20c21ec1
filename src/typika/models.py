"""Preferential model semantics over a canonical type domain.

The caller builds a domain from a knowledge base's stratification (its
`ranking.RankedTBox`) and a subconcept closure (the KB's own, widened by a
query's two sides when they fall outside it), and passes it to every model
function here; none of them builds one. Queries whose concepts lie in one
closure can share a domain: `compare` builds one per distinct closure. Its
elements are the types (maximal KB-satisfiable subsets of the closure) that
survive the stratification's type elimination, so a domain is a view of the
`RankedTBox`'s type table for the closure and makes no tableau call. Every
set of elements is an int bitmask, bit i for element i: concept extensions
(`ranking.Extensions`, read off the type bits), role successors (the
elimination's successor test), violators and least-ranked instances. Rank
functions over the domain stand in for preference relations (lower rank =
more typical); a `Model` is the domain with its global ranks, plus one rank
function per aspect for an enriched model.

Both semantics read a KB's defaults through one constraint table per
domain and KB (`_Constraints`): per default its antecedent and its
violators, the least aspect profile, and the element classes, elements with
the same antecedents and violated defaults. The model checks read it too,
and it memoises the minimal models per rank bound, so the queries sharing
a domain search for models once. Two regimes are implemented:

- single preference: one global rank function, minimised pointwise; its
  least fixpoint, taken over the element classes, is the unique minimal
  model and mirrors the rank-based entailment of `ranking`.
- enriched: one rank function per aspect plus a coupled global one. Aspect
  ranks are minimised first (the least admissible profile marks exactly
  the axiom violators), then globals subject to the coupling constraints.
  Under a vector κ of antecedent concept ranks, static seeds and two
  coupling rules that read only an element's coupling class (its violated
  aspects and the highest κ_j among the axioms it violates) give the least
  global ranks as a longest path over those classes, or a pair of them the
  rules order both ways. The search starts from κ = 0 and sets each κ_j to
  the least global rank over antecedent j until κ stops changing; κ only
  rises, so the loop ends, at the latest once a κ_j passes the rank bound.
  The result must then fit the bound, leave no rank gap, and pass
  `satisfies_kb` and `check_coupling`. That this is the unique minimal
  model, the frontier a sweep over every guess of κ would find, is checked
  against such a sweep in the tests, not proven: rule (b) regroups the
  classes when κ changes, so the solve is not obviously monotone in κ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

from .kb import ConceptAssertion, Defeasible, KnowledgeBase, RoleAssertion, Strict, aspect_set
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
    printing a model. `_memo` holds one `_Constraints` table per KB, which
    memoises the minimal models per rank bound, failed searches included.
    Instances compare by identity; models built over the same instance
    share it.
    """

    def __init__(self, closure: tuple[Concept, ...], table: TypeTable, codes: list[int]):
        self.closure = closure
        self.codes = codes
        self.eval = Extensions(table.engine.bit, codes)
        self.successors = table.engine.successors(self.eval)
        self._memo: dict[KnowledgeBase, _Constraints] = {}

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
    domain = CanonicalDomain(members, table,
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


class _Constraints:
    """A KB's defaults read over a domain once, for both semantics and the
    model checks.

    Per default `T(C) => D`, in KB order, `antecedents` holds the instances
    of C and `violators` those outside D, as bitmasks over the elements;
    `profile` is the least admissible aspect profile. Element i is in the
    element class `class_of[i]`. The elements of a class have the same
    antecedents (`inside`) and violated defaults (`violated`), bitmasks over
    the defaults, so every constraint treats them alike. `single_pref` and
    `enriched` memoise the minimal models per rank bound. Nothing here
    refers to the domain, so its memo forms no reference cycle.
    """

    def __init__(self, domain: CanonicalDomain, kb: KnowledgeBase):
        n = domain.size
        zero_one = bytes.maketrans(b"01", b"\0\1")

        def column(mask: int) -> str:
            return format(mask, f"0{n}b")[::-1]  # character i is bit i

        self.antecedents = tuple(domain.eval(ax.lhs) for ax in kb.defeasible)
        self.violators = tuple(ext & ~domain.eval(ax.rhs)
                               for ax, ext in zip(kb.defeasible, self.antecedents))
        bad: dict[Concept, int] = {}
        for ax, mask in zip(kb.defeasible, self.violators):
            bad[ax.rhs] = bad.get(ax.rhs, 0) | mask
        self.profile = tuple((a, tuple(column(bad.get(a, 0)).encode().translate(zero_one)))
                             for a in aspect_set(kb))
        # each element's row: its bits of the violators, then of the
        # antecedents, the last default first, so each half read in binary
        # is a bitmask over the defaults
        columns = [column(mask) for mask in self.violators[::-1] + self.antecedents[::-1]]
        ids: dict[str, int] = {}
        rows = ["".join(row) for row in zip(*columns)] or [""] * n
        self.class_of = tuple([ids.setdefault(row, len(ids)) for row in rows])
        d = len(kb.defeasible)
        self.violated = tuple(int(row[:d] or "0", 2) for row in ids)
        self.inside = tuple(int(row[d:] or "0", 2) for row in ids)
        self.single_pref: dict[int, Optional[tuple[int, ...]]] = {}
        self.enriched: dict[int, Union[_Frontier, str]] = {}


def _constraints(domain: CanonicalDomain, kb: KnowledgeBase) -> _Constraints:
    """The domain's constraint table for the KB, built on first use."""
    if kb not in domain._memo:
        domain._memo[kb] = _Constraints(domain, kb)
    return domain._memo[kb]


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
    g = m.global_ranks
    table = _constraints(m.domain, kb)
    ante_rank = [min([g[i] for i in elements(ext)]) if ext else -1 for ext in table.antecedents]
    outdone = {bits: tuple(ante_rank[d] for d in elements(bits)) for bits in set(table.violated)}
    aspect_rows = list(zip(*(ranks for _, ranks in m.per_aspect))) or [()] * len(g)
    signatures = list({(gi, rx, outdone[table.violated[c]])
                       for gi, rx, c in zip(g, aspect_rows, table.class_of)})

    def cond_a(rx: tuple[int, ...], ry: tuple[int, ...]) -> bool:
        return any(a < b for a, b in zip(rx, ry)) and all(a <= b for a, b in zip(rx, ry))

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
    table = _constraints(dom, kb)
    for ax, ext, bad in zip(kb.defeasible, table.antecedents, table.violators):
        if _min_by(m.global_ranks, ext) & bad:
            return False
        if aspect_ranks and _min_by(aspect_ranks[ax.rhs], ext) & bad:
            return False
    return True


def canonical_aspect_profile(domain: CanonicalDomain, kb: KnowledgeBase,
                             ) -> tuple[tuple[Concept, tuple[int, ...]], ...]:
    """The pointwise least admissible aspect ranks: 1 on violators, else 0.

    An element must sit above some other instance of the antecedent in the
    aspect order whenever it violates an axiom with that aspect as its
    right-hand side, so every admissible profile dominates this one.
    """
    return _constraints(domain, kb).profile


def _least_fixpoint(n: int, bound: int,
                    raise_groups: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
                    ) -> Optional[tuple[int, ...]]:
    """Least g >= 0 over n items with g[v] > min(g over members) for each
    (members, violators) group, or None past the bound. The rule is
    monotone, so iteration reaches the least fixpoint.
    """
    if bound < 0:
        return None
    g = [0] * n
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
    below (w, m') by rule (a), v ⊂ w, with m > m': a two-class cycle,
    which admits no ranks. Otherwise every class a class (w, m') is forced
    above has m < m', or m = m' and a violation set inside w. So g is the
    longest path from the seeds, taken level by level in m and within a
    level by ascending set size, with no graph built. The solve ranks
    groups: the table's element classes merged by what seeds and keys
    read. Where the least rank over each antecedent j is κ_j, the seeds
    honour the raise rule exactly, so g is the least fixpoint of the
    pairwise constraints; `_search_frontier` iterates κ to such a point.
    """

    def __init__(self, domain: CanonicalDomain, kb: KnowledgeBase):
        table = _constraints(domain, kb)
        self.profile = table.profile
        seen: dict[Concept, int] = {}
        self.antecedents: list[int] = []  # bitmasks over the elements
        number = []  # per default, its antecedent's index (-1 if it has no instance)
        for ax, ext in zip(kb.defeasible, table.antecedents):
            if ext and ax.lhs not in seen:
                seen[ax.lhs] = len(self.antecedents)
                self.antecedents.append(ext)
            number.append(seen.get(ax.lhs, -1))
        # per set of defaults (a table class's `inside` or `violated` bits),
        # their antecedents and their aspects
        among = {bits: tuple(sorted({number[d] for d in elements(bits)}))
                 for bits in {*table.inside, *table.violated}}
        aspects = {bits: frozenset(kb.defeasible[d].rhs for d in elements(bits))
                   for bits in set(table.violated)}
        # violation-set ids ascend with set size, so a subset has the lower id
        distinct = sorted(dict.fromkeys(aspects[bits] for bits in table.violated), key=len)
        vid = {v: k for k, v in enumerate(distinct)}
        self._sets = distinct
        # rule (a) over violation-set ids: the sets strictly above and
        # strictly below each one
        self._above = [frozenset(k for k, big in enumerate(distinct) if small < big)
                       for small in distinct]
        self._below = [tuple(k for k, small in enumerate(distinct) if small < big)
                       for big in distinct]
        # a class's seed and key depend on the antecedents containing it and
        # those of the axioms it violates; each distinct tuple is evaluated
        # once per κ
        self._inside = list(dict.fromkeys(among[bits] for bits in table.inside))
        self._outdone = list(dict.fromkeys(among[bits] for bits in table.violated))
        inside_id = {t: k for k, t in enumerate(self._inside)}
        outdone_id = {t: k for k, t in enumerate(self._outdone)}
        # the table's classes merged by signature into groups, and per
        # antecedent the groups inside it
        groups: dict[tuple[int, int, int], int] = {}
        self._group_of = [
            groups.setdefault((vid[aspects[v]], inside_id[among[i]], outdone_id[among[v]]),
                              len(groups))
            for i, v in zip(table.inside, table.violated)]
        self._class_of = table.class_of
        self._keys = tuple(groups)
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
        by_class = [values[k] for k in self._group_of]
        return tuple([by_class[c] for c in self._class_of])


def minimal_canonical_models(kb: KnowledgeBase, domain: CanonicalDomain,
                             rank_bound: Optional[int] = None) -> list[Model]:
    """The minimal canonical enriched model: the aspect profile fixed at
    the least admissible one, the global ranks minimised over valid
    couplings by the κ fixpoint of `_search_frontier`. Memoised per domain,
    KB and bound. A list of one model, as callers take its `len()`
    (`perfbench/tracing.py` counts models with it). Raises
    RankBoundExceededError, with the reason, when there is none: its least
    ranks pass the bound, the coupling rules order two classes both ways,
    or the least ranks leave a rank gap.
    """
    bound = default_rank_bound(kb) if rank_bound is None else rank_bound
    memo = _constraints(domain, kb).enriched
    if bound not in memo:
        memo[bound] = _search_frontier(domain, kb, bound)
    found = memo[bound]
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
    under which every defeasible axiom holds on its global minimum. The
    raise rule reads an element only through its class, so the fixpoint
    runs over the classes of the constraint table."""
    bound = default_rank_bound(kb) if rank_bound is None else rank_bound
    table = _constraints(domain, kb)
    if bound not in table.single_pref:
        groups = [tuple(tuple(k for k, bits in enumerate(side) if bits >> d & 1)
                        for side in (table.inside, table.violated))
                  for d, ext in enumerate(table.antecedents) if ext]
        values = _least_fixpoint(len(table.inside), bound, groups)
        table.single_pref[bound] = (None if values is None
                                    else tuple([values[c] for c in table.class_of]))
    g = table.single_pref[bound]
    if g is None:
        raise RankBoundExceededError(bound)
    return Model(domain, g)


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
    it fails on."""
    dom = model.domain
    lhs = dom.eval(query.lhs) if isinstance(query, Strict) else min_global(model, query.lhs)
    off = lhs & ~dom.eval(query.rhs)
    return Verdict(not off, model, (off & -off).bit_length() - 1 if off else None)


def enriched_entails(kb: KnowledgeBase, query: Query, domain: CanonicalDomain,
                     rank_bound: Optional[int] = None) -> Verdict:
    """Entailment over the minimal canonical enriched model."""
    return _holds_in(minimal_canonical_models(kb, domain, rank_bound)[0], query)


def single_pref_entails(kb: KnowledgeBase, query: Query, domain: CanonicalDomain,
                        rank_bound: Optional[int] = None) -> Verdict:
    """Entailment over the minimal canonical single-preference model."""
    return _holds_in(single_pref_model(kb, domain, rank_bound), query)


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
