"""Preferential model semantics over a canonical type domain.

The caller builds a domain from a knowledge base's stratification (its
`ranking.RankedTBox`) and the concepts that widen the KB's closure, and
passes it to every model function here; none of them builds one. A query
is answered on the table `ranking` ranks it on: the closure widened by
its restrictions outside the KB's (`RankedTBox.outside`), its atoms the
domain has no bit for lifted. It is read as two masks
(`RankedTBox.place`): its antecedent's extension and its
counterexamples, `lhs and not rhs`. A model entails it unless the
counterexamples meet the antecedent's least-ranked instances, the first
rank mask that meets the antecedent (a strict query, unless there are
any): the caller reads that off the two masks and a minimal model's rank
masks with `ranking.counterexamples`, as it reads rank entailment off a
table's levels; nothing here answers a query. `compare` builds one
domain per KB plus one per distinct set of such restrictions, and
`query` the one its query needs by the same rule, the domain whose model
`query --emit-model` prints. A domain's elements are the types (maximal
KB-satisfiable subsets of the closure) that survive the stratification's
type elimination, so the domain is the `RankedTBox`'s table for the
closure (`ranking.CanonicalDomain`), shared with the ranks, and makes no
tableau call. Every set of elements is an int bitmask, bit i for element
i: concept extensions (the domain's `eval`, read off the type bits), the
distinct role successor sets (the elimination's successor test; each
element holds an index into them), violators, least-ranked instances
and ranks. Rank functions over the domain stand in for preference
relations (lower rank = more typical); a `Model` is the domain with the
elements of each global rank, plus those of each rank per aspect for an
enriched model. Each element's ranks are read off those masks only to
print a model.

Both semantics read a KB's defaults through one constraint table per
domain and KB (`_Constraints`), all of it bitmasks: per default its
antecedent and violators, per antecedent the violators of its defaults,
and per aspect the elements that violate a default on it (`bad`), whose
rank masks `(not bad, bad)` are the least aspect profile. The model
checks read the table too. Each model function searches anew; `compare`
keeps each table's minimal rank masks, so the rows sharing a domain
search once. Rule (a)'s order, dominance of aspect-rank vectors of any
number of ranks, is built in one place (`_order`): the enriched solve
and `check_coupling` read the same cells.

Both minimal models come from one search (`_minimal`), the κ fixpoint of
`_kappa_fixpoint`; its least ranks must fit the bound and leave no rank
empty. A vector κ
gives each antecedent j a concept rank, and under κ an element i gets the
static seed

    s[i] = max(κ_j over antecedents j containing i,
               κ_j + 1 over defaults with antecedent j that i violates),

the raise rule "a violator ranks above the least instance of the
antecedent" with that least rank read as κ_j. The elements with seed r
or more are the antecedents with κ_j >= r and the violators with
κ_j + 1 >= r (`_layers`). From κ = 0 the loop takes the least ranks under
κ and sets each κ_j to the first rank meeting antecedent j
(`ranking.level`), until κ stops changing or passes the rank bound; κ
only rises, so the loop ends.

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
  coupling orders, or a pair of cells the rules order both ways
  (`_Constraints.solve`). The result must then pass `satisfies_kb` and
  `check_coupling`. That this is the
  unique minimal model, the frontier a sweep over every guess of κ would
  find, is checked against such a sweep in the tests, not proven: rule (b)
  regroups the elements when κ changes, so the solve is not obviously
  monotone in κ.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, chain
from operator import and_, getitem, or_
from typing import Callable, Collection, Iterable, Optional, Sequence, Union

from .kb import ConceptAssertion, Frozen, KnowledgeBase, RoleAssertion, aspect_set, cached
from .ranking import (CanonicalDomain, RankedTBox, bitmask, counterexamples, elements,
                      highest, is_kb_consistent, least, level)
from .syntax import TOP, Concept, Exists, Forall, concept_key, concept_to_text


_set = object.__setattr__


class InconsistentKBError(Exception):
    """The knowledge base admits no satisfiable type at all."""


class RankBoundExceededError(Exception):
    """No admissible rank assignment satisfies all constraints, for the
    `reason` given: the rank the least ranks reach past the bound, the two
    cells the coupling rules order both ways, or a rank left empty."""

    def __init__(self, bound: int, reason: str):
        super().__init__(reason)
        self.bound = bound


def default_rank_bound(kb: KnowledgeBase) -> int:
    return len(kb.defeasible) + 1


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
    r-successor is in C, `forall r. C` where every r-successor is. Each
    distinct successor set is tested once, and each element reads its
    set's answer by its index."""
    full = domain.eval.full
    for p in domain.closure:
        if isinstance(p, (Exists, Forall)):
            sets, of = domain.successors[p.role]
            # `exists r. C` holds where a successor is in C, `forall r. C`
            # where none is outside it
            sub = domain.eval(p.sub) if isinstance(p, Exists) else full ^ domain.eval(p.sub)
            meets = [bool(t & sub) for t in sets]
            holds = bitmask(map(meets.__getitem__, of))
            if isinstance(p, Forall):
                holds ^= full
            wrong = domain.eval(p) ^ holds
            if wrong:
                raise AssertionError(f"{p!r} disagrees with the role edges on "
                                     f"element {elements(wrong)[0]}")


def _layers(pairs: Iterable[tuple[int, int]], full: int) -> tuple[int, ...]:
    """Rank masks from 0 to the highest rank given: each element of `full`
    takes the highest value v of the (v, mask) pairs whose mask holds it,
    and 0 when none does."""
    at: dict[int, int] = {}
    for v, mask in pairs:
        if mask:
            at[v] = at.get(v, 0) | mask
    if not any(at):  # nothing ranks above 0
        return (full,)
    masks = []
    above = 0  # the elements of the higher values
    for v in range(max(at, default=0), 0, -1):
        ge = above | at.get(v, 0)
        masks.append(ge & ~above)
        above = ge
    masks.append(full & ~above)
    return tuple(masks[::-1])


def _order(full: int, aspect_masks: Iterable[Sequence[int]]
           ) -> tuple[list[tuple[int, tuple[int, ...]]], list[int], list[int]]:
    """Rule (a)'s order: the elements of `full` cut by each aspect's rank
    masks, per rank vector that occurs its elements and the vector, and
    per such cell, as bitsets over the other cells' ids, those whose
    vector is at least its own in every aspect (`above`) and at most
    (`below`). Ids ascend with the vector's sum, then with the cell's
    lowest element, so a dominated cell has the lower id."""
    cells = [(full, ())]
    for ranks in aspect_masks:
        cells = [(part, vector + (r,)) for cell, vector in cells
                 for r, mask in enumerate(ranks) if (part := cell & mask)]
    cells.sort(key=lambda cell: (sum(cell[1]), (cell[0] & -cell[0]).bit_length()))
    vectors = [vector for _, vector in cells]
    atleast, atmost = [], []  # per aspect, per rank t, the cells at t or above, at t or below
    for column in zip(*vectors):
        at = [0] * (max(column) + 1)
        for k, r in enumerate(column):
            at[r] |= 1 << k
        atmost.append(list(accumulate(at, or_)))
        atleast.append(list(accumulate(at[::-1], or_))[::-1])
    every = (1 << len(cells)) - 1
    above = [reduce(and_, map(getitem, atleast, vector), every ^ 1 << k)
             for k, vector in enumerate(vectors)]
    below = [reduce(and_, map(getitem, atmost, vector), every ^ 1 << k)
             for k, vector in enumerate(vectors)]
    return cells, above, below


def _element_ranks(masks: Sequence[int], size: int) -> tuple[int, ...]:
    """Each element's rank, read off the rank masks."""
    ranks = [0] * size
    for r, mask in enumerate(masks):
        for i in elements(mask):
            ranks[i] = r
    return tuple(ranks)


class Model(Frozen):
    """Ranks over a domain as bitmasks: `rank_masks[r]` holds the elements
    of global rank r and, for an enriched model, `aspect_masks` pairs each
    aspect with its rank masks (it is empty for a single-preference model).
    `global_ranks` and `per_aspect` give each element's ranks, read off
    the masks on first use. Models compare by identity."""

    _fields = ("domain", "rank_masks", "aspect_masks")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, domain: CanonicalDomain, rank_masks: tuple[int, ...],
                 aspect_masks: tuple[tuple[Concept, tuple[int, ...]], ...] = ()) -> None:
        _set(self, "domain", domain)
        _set(self, "rank_masks", rank_masks)
        _set(self, "aspect_masks", aspect_masks)

    @cached
    def global_ranks(self) -> tuple[int, ...]:
        return _element_ranks(self.rank_masks, self.domain.size)

    @cached
    def per_aspect(self) -> tuple[tuple[Concept, tuple[int, ...]], ...]:
        return tuple((a, _element_ranks(masks, self.domain.size))
                     for a, masks in self.aspect_masks)


class _Constraints:
    """A KB's defaults read over a domain once, as bitmasks, for both
    semantics at every rank bound and for the model checks.

    Per default `T(C) => D`, in KB order, `violators` holds the instances
    of C outside D and `ante_of` the index of C in `antecedents`, the
    bitmasks of the distinct antecedents with instances (-1 when C has
    none); κ has one entry per antecedent, and `_outdone[j]` holds the
    violators of the defaults on antecedent j. `bad` maps each aspect to
    the elements that violate a default on it, and `aspect_masks` is the
    least admissible aspect profile as rank masks. `seeds` is the
    single-preference step of the κ loop; `solve`, the enriched one, reads
    the V-cells and their order (`_cells`), built on first use and read
    again by `check_coupling` for the search's own model. Nothing here
    refers to the domain or a `Model`, so the table forms no reference
    cycle.
    """

    def __init__(self, domain: CanonicalDomain, kb: KnowledgeBase):
        self.full = full = domain.eval.full
        lhs = [domain.eval(ax.lhs) for ax in kb.defeasible]
        self.violators = tuple(ext & ~domain.eval(ax.rhs) for ax, ext in zip(kb.defeasible, lhs))
        exts = {ax.lhs: ext for ax, ext in zip(kb.defeasible, lhs) if ext}
        self.antecedents = list(exts.values())
        index = dict(zip(exts, range(len(exts))))
        self.ante_of = tuple(index.get(ax.lhs, -1) for ax in kb.defeasible)
        self.bad = dict.fromkeys(aspect_set(kb), 0)
        self._outdone = [0] * len(self.antecedents)
        for ax, j, mask in zip(kb.defeasible, self.ante_of, self.violators):
            self.bad[ax.rhs] |= mask
            if mask:  # a violator lies in its default's antecedent, so j >= 0
                self._outdone[j] |= mask
        self.aspect_masks = tuple((a, (full & ~mask, mask)) for a, mask in self.bad.items())

    @cached
    def _cells(self) -> tuple[list[Concept], list[tuple[int, tuple[int, ...]]], list[int],
                              list[int]]:
        """The V-cells, the elements grouped by the aspects they violate:
        the aspects some element violates, and `_order` over their rank
        masks, a violated aspect at rank 1. Ids fix which pair a cycle
        message names."""
        aspects = [(a, masks) for a, masks in self.aspect_masks if self.bad[a]]
        return [a for a, _ in aspects], *_order(self.full, [masks for _, masks in aspects])

    def seeds(self, kappa: Sequence[int]) -> tuple[int, ...]:
        """The static seeds under κ, as rank masks."""
        return _layers(chain(zip(kappa, self.antecedents),
                             zip([k + 1 for k in kappa], self._outdone)), self.full)

    def m_levels(self, kappa: Sequence[int]) -> tuple[int, ...]:
        """Per m from -1 up, the elements whose highest κ_j over the
        defaults they violate is m (-1 when they violate none)."""
        return _layers(zip([k + 1 for k in kappa], self._outdone), self.full)

    def solve(self, kappa: Sequence[int]) -> Union[tuple[int, ...], str]:
        """The least global ranks under κ as rank masks, with no bound, or
        why there are none: the two cells the rules order both ways.

        The seeds then obey the two coupling rules as strict orders:

        - (a) g[x] < g[y] when x's aspect-rank vector in the fixed aspect
          profile is below y's: at most y's in every aspect, and unequal;
        - (b) g[x] < g[y] when m(x) < m(y), where m(i) is the largest κ_j
          over the defaults i violates (-1 if none).

        Both rules read an element only through its coupling cell, its
        V-cell AND its m-level. Rule (b) orders coupling cells by m, so a
        cycle needs a coupling cell (v, m) below (w, m') by rule (a),
        v's vector below w's, with m > m': a two-cell cycle, which admits
        no ranks. Otherwise every coupling cell that (w, m') is forced above
        has m < m', or m = m' and a vector below w's, so a lower V-cell id
        (`_order`). So g is the longest path from the seeds, taken level by
        level in m and within a level by ascending V-cell id, with no graph
        built. A coupling cell's
        value is the highest seed in it, or the rank the orders force.
        """
        seeds = self.seeds(kappa)
        aspects, cells, above, below = self._cells
        coupling = []  # (m, V-cell id, mask, highest seed), ascending in m, then in id
        hi: dict[int, int] = {}  # per V-cell id, its greatest m
        under: dict[int, int] = {}  # per m, the V-cells met at lower m, as a bitset
        met = 0
        for m, level_mask in enumerate(self.m_levels(kappa), -1):
            if not level_mask:
                continue
            under[m] = met
            for vid, (cell, _) in enumerate(cells):
                mask = cell & level_mask
                if mask:
                    coupling.append((m, vid, mask, highest(seeds, mask)))
                    hi[vid] = m
                    met |= 1 << vid
        for vid, m in hi.items():
            clash = above[vid] & under[m]  # the cells above this one with a lower m
            if clash:
                big = (clash & -clash).bit_length() - 1  # the first, by id
                small, large = ("{" + ", ".join(map(concept_to_text, sorted(
                    (a for a, violated in zip(aspects, cells[k][1]) if violated),
                    key=concept_key))) + "}" for k in (vid, big))
                low = next(n for n, k, _, _ in coupling if k == big)  # its least m
                return (f"no admissible rank assignment: rule (a) puts class"
                        f" {small} (m = {m}) below class {large} (m = {low})"
                        " and rule (b) puts it above (a class is an element's"
                        " violated aspects, m the highest concept rank of the"
                        " antecedents it violates)")
        forced = []  # per coupling cell, (the least rank the orders force, its mask)
        peak = -1  # the highest cell value so far
        current = None
        for m, vid, mask, top in coupling:
            if m != current:  # a new level: it lies above every cell so far
                current, floor, done = m, peak, {}
            reach = floor + 1
            for k, value in done.items():
                if value >= reach and below[vid] >> k & 1:
                    reach = value + 1
            forced.append((reach, mask))
            done[vid] = value = max(top, reach)
            peak = max(peak, value)
        return _layers(chain(enumerate(seeds), forced), self.full)


def _constraints(domain: CanonicalDomain, kb: KnowledgeBase) -> _Constraints:
    """The domain's constraint table for the KB, built on first use."""
    table = domain._memo.get(kb)
    if table is None:
        table = domain._memo[kb] = _Constraints(domain, kb)
    return table


def _kappa_fixpoint(table: _Constraints,
                    step: Callable[[Sequence[int]], Union[tuple[int, ...], str]],
                    bound: int) -> Union[tuple[int, ...], str]:
    """The rank masks `step` gives at the κ fixpoint, or past the bound, or
    the reason `step` gives none.

    Starting from κ = 0, take the rank masks under κ, then set each κ_j to
    the first rank meeting antecedent j, until κ stops changing. Every
    rank inside antecedent j is at least κ_j, so κ never falls and,
    changing each round, never repeats; once some κ_j passes the bound the
    ranks do too, which ends the loop.
    """
    kappa = [0] * len(table.antecedents)
    while True:
        masks = step(kappa)
        if isinstance(masks, str):
            return masks
        nxt = [level(masks, ext) for ext in table.antecedents]
        if nxt == kappa:
            return masks
        if any(new < old for new, old in zip(nxt, kappa)):
            raise AssertionError("a concept rank fell in the κ fixpoint")
        if max(nxt) > bound:
            return masks  # its top rank >= max(nxt), past the bound too
        kappa = nxt


def check_coupling(m: Model, kb: KnowledgeBase) -> bool:
    """Whether the global ranks honour both aspect-driven forcing rules.

    Rule (a) forces x below y when some aspect prefers x and none prefers y.
    Rule (b) forces x below y when y violates an axiom and every axiom
    violated by x is outdone by one violated by y whose antecedent has a
    strictly higher concept rank (the first global rank meeting its
    extension). An axiom of x is outdone exactly when its concept rank is
    below the highest over y's axioms, so rule (b) reads an element only
    through m, the highest concept rank of the antecedents it violates (-1
    if none): it forces x below y exactly when m(x) < m(y).

    Rule (b) holds when the least global rank of each m-level lies above
    the greatest over the lower levels. Rule (a) reads an element only
    through its aspect-rank vector, so it reads `_order`: the cells of
    equal vectors and, per cell, the other cells whose vector is at least
    its own (`above`). For the enriched search's own model those are the
    V-cells and the order the solve built (`_Constraints._cells`), whose
    vectors also hold an aspect every element violates, a coordinate equal
    in every cell, which changes no comparison; any other model's aspects
    that rank its elements apart are ordered anew, for any number of ranks.
    Rule (a) holds when no cell above a cell has a global rank at or below
    the cell's greatest.
    """
    table = _constraints(m.domain, kb)
    masks = m.rank_masks
    below = -1  # the greatest global rank over the lower levels of m
    for level_mask in table.m_levels([level(masks, ext) for ext in table.antecedents]):
        if level_mask:
            if level(masks, level_mask) <= below:
                return False
            below = max(below, highest(masks, level_mask))
    if m.aspect_masks is table.aspect_masks:  # the enriched search's model: its V-cells
        _, cells, above, _ = table._cells
    else:  # an aspect that ranks every element alike orders no two of them
        cells, above, _ = _order(table.full, [ranks for _, ranks in m.aspect_masks
                                              if sum(map(bool, ranks)) > 1])
    # per global rank t, the cells whose least global rank is t or less
    upto = [0] * len(masks)
    for k, (cell, _) in enumerate(cells):
        upto[level(masks, cell)] |= 1 << k
    for t in range(1, len(upto)):
        upto[t] |= upto[t - 1]
    return not any(up & upto[highest(masks, cell)] for up, (cell, _) in zip(above, cells))


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
    aspects = dict(m.aspect_masks)
    for ax, j, bad in zip(kb.defeasible, table.ante_of, table.violators):
        if not bad:
            continue  # a default nothing violates holds on every minimum
        ext = table.antecedents[j]
        if counterexamples(m.rank_masks, ax, ext, bad):
            return False
        if aspects and counterexamples(aspects[ax.rhs], ax, ext, bad):
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
    """The minimal model of one semantics, its global rank masks at the κ
    fixpoint of `_Constraints.solve` (enriched) or `seeds` (single
    preference); an enriched model must pass the model checks. Raises
    RankBoundExceededError with the reason there is none."""
    bound = default_rank_bound(kb) if rank_bound is None else rank_bound
    table = _constraints(domain, kb)
    masks = _kappa_fixpoint(table, table.solve if enriched else table.seeds, bound)
    if isinstance(masks, str):
        raise RankBoundExceededError(bound, masks)
    top = len(masks) - 1
    if top > bound:
        raise RankBoundExceededError(bound, f"no admissible rank assignment within bound"
                                     f" {bound}: the least ranks reach {top}")
    if 0 in masks:
        raise RankBoundExceededError(bound, "no admissible rank assignment: the least ranks"
                                     f" leave rank {masks.index(0)} empty")
    model = Model(domain, masks, table.aspect_masks if enriched else ())
    if enriched and not (satisfies_kb(model, kb) and check_coupling(model, kb)):
        raise AssertionError("the minimal enriched model failed validation")
    return model


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
    role_pairs = [(a.subject, a.target, *domain.successors[a.role]) for a in kb.abox
                  if isinstance(a, RoleAssertion) and a.role in domain.successors]
    return _assign(individuals, candidates, role_pairs, {})


def _assign(individuals: Sequence[str], candidates: dict[str, int],
            role_pairs: Sequence[tuple[str, str, tuple[int, ...], tuple[int, ...]]],
            chosen: dict[str, int]) -> Optional[dict[str, int]]:
    """Extends `chosen`, which maps the first individuals, to all of them so
    that every role pair between chosen individuals is a canonical edge."""
    if len(chosen) == len(individuals):
        return dict(chosen)
    name = individuals[len(chosen)]
    for t in elements(candidates[name]):
        chosen[name] = t
        if all(sets[of[chosen[a]]] >> chosen[b] & 1
               for a, b, sets, of in role_pairs if a in chosen and b in chosen):
            out = _assign(individuals, candidates, role_pairs, chosen)
            if out is not None:
                return out
        del chosen[name]
    return None
