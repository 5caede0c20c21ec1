"""Independent oracles used to cross-check the reasoner.

Nothing here calls the reasoner's κ fixpoint, and canonical domains come
from the caller. Of the reasoner's private names only its constraint table
`models._Constraints` and its type engine `ranking._TypeElimination` are
imported: `SweepFrontier` calls the table's per-guess solve, which the
other two references check, and reads nothing else of it;
`levels_by_level_enumeration` and
`survivors_by_level_enumeration` run the engine's enumeration once per
level, `candidates(strict + level)`, the reference for the stratification
and the widened tables of `ranking.RankedTBox`, which filter one
enumeration per table by level. Two
oracles call the tableau: `TableauRanks` stratifies a KB and ranks
concepts with one call per level, the reference for the type elimination
of `ranking.RankedTBox`, and `tableau_domain` makes one call per node of
the literal tree, the reference for `models.build_canonical_domain`.
Interpretations are enumerated explicitly: concept extensions as bitmasks
over tiny domains, rank functions as tuples over a canonical domain's
types (`model_of` turns them into a `models.Model`, `element_ranks` reads
a model's rank masks back per element, each by a scan, and
`least_profile` gives each element's rank per aspect in the least
aspect profile). Entailment over all models, which the reasoner never
answers, is decided here by pinned least fixpoints. Two references check
the per-guess solve of the enriched search, each per element:
`PairwiseEnrichedSolve`, a fixpoint over element pairs, and
`ClassGraphSolve`, the element classes (elements in the same antecedents
and violating the same defaults) with Kahn's algorithm over their class
graph. `SweepFrontier` tries every guess of antecedent ranks,
the reference for the κ fixpoint, and `coupling_holds_pairwise` tests the
coupling rules on every pair of elements, the reference for
`models.check_coupling`. `min_by` scans every rank for an extension's
least-ranked members, the reference for the per-rank masks of
`models.Model`, and `satisfies_kb_by_ranks` checks a model against the KB
with it, from the model's own ranks, the reference for
`models.satisfies_kb`. `widened_compare_row` answers a `compare` row on
the KB's closure widened by the query, the reference for the rows
`compare` answers on the domain of the query's restrictions outside the
closure with its fresh atoms lifted. `role_edges` reads a domain's
edges as element pairs off each element's successor set.
`rc_by_and_node` ranks a built `lhs and not rhs` node, and
`holds_in_by_variants` reads a model verdict per assignment of `top` or
`bot` to a query's atoms the table lacks, substituted without
`CanonicalDomain.lift`, the references for the two masks every verdict
is read off; `rank_on` is the rank read off a table level by level, and
`outside_by_full_walk` the walk outside the KB's closure that goes into
its members too. `atom_names` and `role_names` collect the names a
brute-force search enumerates. Slow on purpose, trusted because it is
simple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from typika.kb import (Defeasible, KnowledgeBase, Strict, aspect_set, serialize_axiom,
                       subconcept_closure)
from typika.models import (
    CanonicalDomain,
    InconsistentKBError,
    Model,
    RankBoundExceededError,
    _Constraints,
    build_canonical_domain,
    default_rank_bound,
    minimal_canonical_models,
    satisfies_kb,
    single_pref_model,
)
from typika.ranking import Extensions, RankedTBox, _TypeElimination, bitmask, elements
from typika.syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Bottom,
    Concept,
    Exists,
    Forall,
    Not,
    Or,
    Top,
    complement,
    concept_key,
    conjoin,
    subconcepts,
    substitute,
)
from typika.tableau import StrictTBox, Witness, entails_strict


Query = Union[Strict, Defeasible]


def atom_names(c: Concept) -> frozenset[str]:
    """The names of the atoms in a concept."""
    return frozenset(s.name for s in subconcepts(c) if isinstance(s, Atom))


def role_names(c: Concept) -> frozenset[str]:
    """The names of the roles a concept restricts."""
    return frozenset(s.role for s in subconcepts(c) if isinstance(s, (Exists, Forall)))


def element_set(mask: int) -> frozenset[int]:
    """The elements of a bitmask over a canonical domain, as a set."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def extension(domain: CanonicalDomain, c: Concept) -> frozenset[int]:
    """The instances of a concept in a canonical domain, as a set."""
    return element_set(domain.eval(c))


def role_edges(domain: CanonicalDomain) -> dict[str, frozenset[tuple[int, int]]]:
    """Per role, the domain's edges as (source, target) element pairs, read
    off each element's successor set."""
    return {role: frozenset((i, j) for i, k in enumerate(of) for j in element_set(sets[k]))
            for role, (sets, of) in domain.successors.items()}


@dataclass(frozen=True)
class Interp:
    """A finite interpretation: bitmask atom extensions, row-mask roles."""

    size: int
    atoms: dict
    roles: dict

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

    def eval(self, c: Concept) -> int:
        if isinstance(c, Top):
            return self.full
        if isinstance(c, Bottom):
            return 0
        if isinstance(c, Atom):
            return self.atoms.get(c.name, 0)
        if isinstance(c, Not):
            return self.full ^ self.eval(c.sub)
        if isinstance(c, And):
            return self.eval(c.left) & self.eval(c.right)
        if isinstance(c, Or):
            return self.eval(c.left) | self.eval(c.right)
        rows = self.roles.get(c.role, (0,) * self.size)
        sub = self.eval(c.sub)
        if isinstance(c, Exists):
            return sum(1 << i for i in range(self.size) if rows[i] & sub)
        if isinstance(c, Forall):
            return sum(1 << i for i in range(self.size) if not rows[i] & ~sub)
        raise TypeError(f"not a concept: {c.__class__.__name__}")

    def satisfies_tbox(self, pairs: Iterable[tuple[Concept, Concept]]) -> bool:
        return all(not self.eval(lhs) & ~self.eval(rhs) for lhs, rhs in pairs)


def interpretations(atoms: Sequence[str], roles: Sequence[str], size: int):
    atom_choices = itertools.product(range(1 << size), repeat=len(atoms))
    for amasks in atom_choices:
        amap = dict(zip(atoms, amasks))
        row_space = itertools.product(range(1 << size), repeat=size)
        for rrows in itertools.product(row_space, repeat=len(roles)):
            yield Interp(size, amap, dict(zip(roles, rrows)))


def brute_force_satisfiable(concept: Concept,
                            tbox_pairs: Iterable[tuple[Concept, Concept]] = (),
                            max_size: int = 3) -> bool:
    """Exhaustive model search over domains of up to `max_size` elements."""
    pairs = tuple(tbox_pairs)
    atoms = set(atom_names(concept))
    roles = set(role_names(concept))
    for lhs, rhs in pairs:
        atoms |= atom_names(lhs) | atom_names(rhs)
        roles |= role_names(lhs) | role_names(rhs)
    for size in range(1, max_size + 1):
        for interp in interpretations(sorted(atoms), sorted(roles), size):
            if interp.satisfies_tbox(pairs) and interp.eval(concept):
                return True
    return False


def witness_interp(w: Witness) -> Interp:
    atoms = {name: sum(1 << i for i in ext) for name, ext in w.atom_ext}
    roles = {}
    for name, ext in w.role_ext:
        rows = [0] * w.size
        for i, j in ext:
            rows[i] |= 1 << j
        roles[name] = tuple(rows)
    return Interp(w.size, atoms, roles)


def witness_checks_out(w: Witness, concept: Concept,
                       tbox_pairs: Iterable[tuple[Concept, Concept]] = ()) -> bool:
    interp = witness_interp(w)
    return bool(interp.eval(concept) >> w.root & 1) and interp.satisfies_tbox(tbox_pairs)


class TableauRanks:
    """The stratification of a KB and concept ranks by the tableau.

    `levels[i]` holds the defeasible axioms still exceptional after i
    rounds, to a fixpoint; an axiom stays when the strict axioms plus the
    level's material counterparts, each default `T(C) => D` an inclusion
    `C => D` of the TBox (`tboxes[i]`), force its antecedent empty. A
    concept's rank is the least level whose TBox does not force it empty,
    one `entails_strict` call per level tried.
    """

    def __init__(self, kb: KnowledgeBase):
        level = tuple(kb.defeasible)
        self.levels: list[tuple[Defeasible, ...]] = [level]
        self.tboxes = [StrictTBox.from_axioms(kb.strict + level)]
        while True:
            nxt = tuple(ax for ax in level if entails_strict(self.tboxes[-1], ax.lhs, BOT))
            if nxt == level:
                break
            level = nxt
            self.levels.append(level)
            self.tboxes.append(StrictTBox.from_axioms(kb.strict + level))

    def rank(self, concept: Concept) -> float:
        for i, tbox in enumerate(self.tboxes):
            if not entails_strict(tbox, concept, BOT):
                return i
        return math.inf


def _eliminate_list(engine: _TypeElimination, codes: list[int]) -> list[int]:
    """Type elimination over a list of codes: drops every code with a
    demand no surviving code meets, until none is dropped."""
    demands = {c: engine._demands(c) for c in codes}
    while True:
        ext = Extensions(engine.bit, codes)
        met = {d: ext.matching(*d) for d in {d for c in codes for d in demands[c]}}
        kept = [c for c in codes if all(met[d] for d in demands[c])]
        if len(kept) == len(codes):
            return codes
        codes = kept


def survivors_by_level_enumeration(kb: KnowledgeBase, closure: Iterable[Concept],
                                   levels: Sequence[Sequence[Defeasible]]) -> list[list[int]]:
    """Each level's surviving codes over the closure, one enumeration per
    level: `candidates(strict + level)`, then elimination."""
    engine = _TypeElimination(closure)
    return [_eliminate_list(engine, engine.candidates(kb.strict + tuple(level)))
            for level in levels]


def levels_by_level_enumeration(kb: KnowledgeBase) -> list[tuple[Defeasible, ...]]:
    """The stratification of a KB with one enumeration per level over its
    closure: an axiom stays when no code surviving the level holds its
    antecedent."""
    engine = _TypeElimination(subconcept_closure(kb))
    level = tuple(kb.defeasible)
    levels = [level]
    while True:
        alive = _eliminate_list(engine, engine.candidates(kb.strict + level))
        ext = Extensions(engine.bit, alive)
        nxt = tuple(ax for ax in level if not ext(ax.lhs))
        if nxt == level:
            return levels
        level = nxt
        levels.append(level)


def tableau_domain(kb: KnowledgeBase, closure: Sequence[Concept],
                   ) -> tuple[tuple[frozenset[Concept], ...], dict]:
    """The types and role edges of the canonical domain over `closure`.

    Types are the leaves of the literal tree: one literal per positive
    (non-negated) member in closure order, positive first, and a branch is
    kept while its literals are satisfiable under the last level's TBox of
    `TableauRanks`, that is while they have finite rank. An edge joins two
    types when the target holds every filler of the source's universals on
    the role and no filler of an existential the source lacks.
    """
    positives = [c for c in closure if not isinstance(c, Not)]
    types: list[frozenset[Concept]] = []
    _extend_types(TableauRanks(kb).tboxes[-1], positives, [], types)
    roles = sorted({r for c in closure for r in role_names(c)})
    edges = {
        role: frozenset((i, j) for i, x in enumerate(types) for j, y in enumerate(types)
                        if _role_edge_ok(x, y, role, positives))
        for role in roles
    }
    return tuple(types), edges


def _extend_types(last: StrictTBox, positives: Sequence[Concept],
                  chosen: list[Concept], types: list[frozenset[Concept]]) -> None:
    i = len(chosen)
    if i == len(positives):
        types.append(frozenset(chosen))
        return
    for literal in (positives[i], complement(positives[i])):
        chosen.append(literal)
        if not entails_strict(last, conjoin(sorted(chosen, key=concept_key)), BOT):
            _extend_types(last, positives, chosen, types)
        chosen.pop()


def _role_edge_ok(x: frozenset[Concept], y: frozenset[Concept], role: str,
                  positives: Sequence[Concept]) -> bool:
    for c in x:
        if isinstance(c, Forall) and c.role == role and c.sub not in y:
            return False
    for p in positives:
        if isinstance(p, Exists) and p.role == role and p not in x and p.sub in y:
            return False
    return True


def rank_masks_by_scan(ranks: Sequence[int]) -> tuple[int, ...]:
    """Per rank from 0 to the highest, the elements with that rank as a
    bitmask, one scan of the ranks per rank."""
    return tuple(bitmask(r == k for r in ranks) for k in range(max(ranks, default=-1) + 1))


def model_of(domain: CanonicalDomain, g: Sequence[int],
             per_aspect: Sequence[tuple[Concept, Sequence[int]]] = ()) -> Model:
    """The model with global ranks `g` and, per aspect, the ranks
    `per_aspect` gives it."""
    return Model(domain, rank_masks_by_scan(g),
                 tuple((a, rank_masks_by_scan(ranks)) for a, ranks in per_aspect))


def element_ranks(masks: Sequence[int], size: int) -> tuple[int, ...]:
    """Each element's rank: the first of the rank masks that holds it."""
    return tuple(next(r for r, mask in enumerate(masks) if mask >> i & 1) for i in range(size))


def least_profile(domain: CanonicalDomain, kb: KnowledgeBase,
                  ) -> tuple[tuple[Concept, tuple[int, ...]], ...]:
    """The least admissible aspect profile, per aspect in `aspect_set`
    order: rank 1 on the elements violating a default with that
    right-hand side, read off `extension`, and 0 elsewhere."""
    bad: dict[Concept, set[int]] = {}
    for ax in kb.defeasible:
        bad.setdefault(ax.rhs, set()).update(extension(domain, ax.lhs) - extension(domain, ax.rhs))
    return tuple((a, tuple(int(i in bad.get(a, ())) for i in range(domain.size)))
                 for a in aspect_set(kb))


def enumerate_single_models(domain: CanonicalDomain, kb: KnowledgeBase,
                            bound: int) -> list[tuple[int, ...]]:
    """All global rank tuples within the bound that satisfy the KB."""
    out = []
    for g in itertools.product(range(bound + 1), repeat=domain.size):
        if satisfies_kb(model_of(domain, g), kb):
            out.append(g)
    return out


def enumerate_enriched_globals(domain: CanonicalDomain, kb: KnowledgeBase,
                               bound: int) -> list[tuple[int, ...]]:
    """All global rank tuples that extend the least aspect profile to an
    enriched model: KB satisfaction plus the two coupling rules."""
    profile = least_profile(domain, kb)
    out = []
    for g in itertools.product(range(bound + 1), repeat=domain.size):
        m = model_of(domain, g, profile)
        if satisfies_kb(m, kb) and coupling_holds_pairwise(m, kb):
            out.append(g)
    return out


def coupling_holds_pairwise(m: Model, kb: KnowledgeBase) -> bool:
    """`models.check_coupling` in its per-element form: rule (a) and rule
    (b) tested literally on every ordered pair of elements not already in
    order."""
    dom = m.domain
    g = m.global_ranks
    n = dom.size
    viol = [(ax, extension(dom, ax.lhs) - extension(dom, ax.rhs)) for ax in kb.defeasible]
    ante_rank: dict[Concept, int] = {}
    for ax, _ in viol:
        if ax.lhs not in ante_rank:
            ext = extension(dom, ax.lhs)
            ante_rank[ax.lhs] = min(g[i] for i in ext) if ext else -1
    aspect_ranks = [tuple(ranks[i] for _, ranks in m.per_aspect) for i in range(n)]
    outdone = [tuple(ante_rank[ax.lhs] for ax, bad in viol if i in bad) for i in range(n)]

    def cond_a(x: int, y: int) -> bool:
        rx, ry = aspect_ranks[x], aspect_ranks[y]
        some = any(a < b for a, b in zip(rx, ry))
        none_back = all(b >= a for a, b in zip(rx, ry))
        return some and none_back

    def cond_b(x: int, y: int) -> bool:
        ky = outdone[y]
        return bool(ky) and all(any(kj < kk for kk in ky) for kj in outdone[x])

    return not any(x != y and not g[x] < g[y] and (cond_a(x, y) or cond_b(x, y))
                   for x in range(n) for y in range(n))


def pointwise_minima(candidates: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    return [
        g for g in candidates
        if not any(o != g and all(a <= b for a, b in zip(o, g)) for o in candidates)
    ]


def min_by(ranks: Sequence[int], ext: int) -> int:
    """The members of the bitmask `ext` with the least rank, as a bitmask:
    the least rank over the members, then every element with that rank."""
    if not ext:
        return 0
    lo = min(ranks[i] for i in elements(ext))
    return ext & bitmask(r == lo for r in ranks)


def satisfies_kb_by_ranks(m: Model, kb: KnowledgeBase) -> bool:
    """`models.satisfies_kb` per call from the model's own ranks: the
    strict axioms on the extensions, and each default on the least-ranked
    instances of its antecedent, scanned by `min_by` under the global
    ranks and, for an enriched model, under its right-hand side's aspect
    ranks."""
    dom = m.domain
    if any(dom.eval(ax.lhs) & ~dom.eval(ax.rhs) for ax in kb.strict):
        return False
    aspects = dict(m.per_aspect)
    for ax in kb.defeasible:
        lhs, outside = dom.eval(ax.lhs), ~dom.eval(ax.rhs)
        rankings = [m.global_ranks] + ([aspects[ax.rhs]] if aspects else [])
        if any(min_by(ranks, lhs) & outside for ranks in rankings):
            return False
    return True


def holds_in_ranks(domain: CanonicalDomain, g: Sequence[int], query) -> bool:
    lhs = extension(domain, query.lhs)
    if isinstance(query, Defeasible) and lhs:
        lo = min(g[i] for i in lhs)
        lhs = frozenset(i for i in lhs if g[i] == lo)
    return lhs <= extension(domain, query.rhs)


def outside_by_full_walk(ranked: RankedTBox, concepts: Sequence[Concept],
                         ) -> tuple[set[Concept], tuple[frozenset[Concept], frozenset[Atom]]]:
    """Every subconcept of the concepts outside the KB's closure, walked
    into closure members too, and `RankedTBox.outside` read off it: the
    reference for the walk that stops at members."""
    beyond = {s for c in concepts for s in subconcepts(c) if s not in ranked.closure}
    found = {s for s in beyond if isinstance(s, (Atom, Exists, Forall))}
    atoms = frozenset(s for s in found if isinstance(s, Atom))
    return beyond, (frozenset(found) - atoms, atoms)


def rank_on(table: CanonicalDomain, *concepts: Concept) -> float:
    """The least level at which a type of the table holding one of the
    concepts survives, each concept evaluated as a node of its own."""
    ext = 0
    for c in concepts:
        ext |= table.eval(c)
    return next((i for i, alive in enumerate(table.levels) if ext & alive), math.inf)


def rc_by_and_node(ranked: RankedTBox, query: Query) -> bool:
    """Rank entailment from the rank of the antecedent and that of a built
    `lhs and not rhs` node, each through `RankedTBox.rank` on the table of
    its own restrictions: the reference for `ranking.in_rational_closure`,
    which reads both off the query's two masks on one table."""
    r_off = ranked.rank(And(query.lhs, Not(query.rhs)))
    if isinstance(query, Strict):
        return r_off == math.inf
    r_lhs = ranked.rank(query.lhs)
    return r_lhs == math.inf or r_lhs < r_off


def holds_in_by_variants(model: Model, query: Query) -> tuple[bool, Optional[int]]:
    """Whether the query holds in the model, and the first element it
    fails on: both sides evaluated once per assignment of `top` or `bot`
    to the query's atoms the table has no bit for (found by a walk of
    every subconcept and put in by `substitute`, not by `CanonicalDomain.lift`),
    a defeasible query's on the least global rank (scanned by `min_by`)
    that meets any variant's `lhs`. The reference for the model verdicts
    of `query` and the `compare` rows, which read the query's two masks,
    each OR-ed over the variants `lift` gives."""
    dom = model.domain
    fresh = sorted({s for side in (query.lhs, query.rhs) for s in subconcepts(side)
                    if isinstance(s, Atom) and s not in dom.eval.bit}, key=concept_key)
    sides = []
    for values in itertools.product((TOP, BOT), repeat=len(fresh)):
        assigned = dict(zip(fresh, values))
        sides.append((dom.eval(substitute(query.lhs, assigned)),
                      dom.eval(substitute(query.rhs, assigned))))
    if isinstance(query, Defeasible):
        anywhere = 0
        for lhs, _ in sides:
            anywhere |= lhs
        least = min_by(model.global_ranks, anywhere)
        sides = [(lhs & least, rhs) for lhs, rhs in sides]
    bad = [i for lhs, rhs in sides for i in elements(lhs & ~rhs)]
    return not bad, min(bad, default=None)


def random_concept(rng, atoms: Sequence[str], roles: Sequence[str] = (),
                   depth: int = 3, role_depth: int = 2) -> Concept:
    """Seeded random concept; `role_depth` caps quantifier nesting."""
    ops = ["atom", "atom", "not", "and", "or"]
    if roles and role_depth > 0:
        ops += ["exists", "forall"]
    op = "atom" if depth <= 0 else rng.choice(ops)
    if op == "atom":
        leaves = list(atoms) + ["top", "bot"]
        name = rng.choice(leaves)
        if name == "top":
            return Top()
        if name == "bot":
            return Bottom()
        return Atom(name)
    if op == "not":
        return Not(random_concept(rng, atoms, roles, depth - 1, role_depth))
    if op in ("and", "or"):
        left = random_concept(rng, atoms, roles, depth - 1, role_depth)
        right = random_concept(rng, atoms, roles, depth - 1, role_depth)
        return And(left, right) if op == "and" else Or(left, right)
    role = rng.choice(list(roles))
    sub = random_concept(rng, atoms, roles, depth - 1, role_depth - 1)
    return Exists(role, sub) if op == "exists" else Forall(role, sub)


def random_interp(rng, atoms: Sequence[str], roles: Sequence[str], size: int) -> Interp:
    amap = {a: rng.randrange(1 << size) for a in atoms}
    rmap = {r: tuple(rng.randrange(1 << size) for _ in range(size)) for r in roles}
    return Interp(size, amap, rmap)


class PairwiseEnrichedSolve:
    """The per-guess solve of the enriched search in its first, pairwise
    form, kept as a reference for `models._Constraints.solve`.

    Rule (a) and rule (b) are listed as strict pairs of elements (rule (b)
    rebuilt for every guess), the raise rule as dynamic groups ("a violator
    ranks above the least instance of the antecedent"), and pins as
    nonstrict pairs; a least fixpoint is iterated over all of them until
    nothing changes. Antecedents are numbered as the search numbers them.
    """

    def __init__(self, domain: CanonicalDomain, kb: KnowledgeBase, bound: int):
        self.n = domain.size
        self.bound = bound
        profile = least_profile(domain, kb)
        vio_sets = [frozenset(a for a, ranks in profile if ranks[i])
                    for i in range(self.n)]
        self.a_pairs = tuple((x, y) for x in range(self.n) for y in range(self.n)
                             if vio_sets[x] < vio_sets[y])
        self.viol = [(ax, extension(domain, ax.lhs) - extension(domain, ax.rhs))
                     for ax in kb.defeasible]
        seen: dict = {}
        self.antecedents: list[frozenset[int]] = []
        self.axiom_ante: list = []
        for ax, _ in self.viol:
            ext = extension(domain, ax.lhs)
            if not ext:
                self.axiom_ante.append(None)
                continue
            if ax.lhs not in seen:
                seen[ax.lhs] = len(self.antecedents)
                self.antecedents.append(ext)
            self.axiom_ante.append(seen[ax.lhs])
        self.raise_groups = raise_groups(domain, kb)

    def b_pairs_for(self, kappa: Sequence[int]) -> tuple[tuple[int, int], ...]:
        m_of = [-1] * self.n
        for (_, bad), j in zip(self.viol, self.axiom_ante):
            if j is not None:
                for i in bad:
                    m_of[i] = max(m_of[i], kappa[j])
        return tuple((x, y) for x in range(self.n) for y in range(self.n)
                     if m_of[x] < m_of[y])

    def solve(self, kappa: Sequence[int],
              pin_pairs: Iterable[tuple[int, int]] = ()):
        """The least global ranks under the guess, or None."""
        g = [0] * self.n
        for j, ext in enumerate(self.antecedents):
            for i in ext:
                g[i] = max(g[i], kappa[j])
        if max(g, default=0) > self.bound:
            return None
        strict = self.a_pairs + self.b_pairs_for(kappa)
        nonstrict = tuple(pin_pairs)
        changed = True
        while changed:
            changed = False
            for x, y in strict:
                if g[y] <= g[x]:
                    g[y] = g[x] + 1
                    changed = True
            for x, y in nonstrict:
                if g[y] < g[x]:
                    g[y] = g[x]
                    changed = True
            for members, violators in self.raise_groups:
                floor = min(g[i] for i in members) + 1
                for v in violators:
                    if g[v] < floor:
                        g[v] = floor
                        changed = True
            if changed and max(g) > self.bound:
                return None
        if any(min(g[i] for i in ext) != kappa[j]
               for j, ext in enumerate(self.antecedents)):
            return None
        return tuple(g)


class ClassGraphSolve:
    """The per-guess solve of the enriched search in its class-graph form,
    kept as a reference for `models._Constraints.solve`, which reads
    bitmask cells instead. Elements lying in the same antecedents and
    violating the same defaults form one element class, read off
    `extension` per element; the search reads an element only through
    those, so it ranks classes. Per guess the two coupling rules become an
    explicit edge list over the coupling classes (violated aspects, m),
    O(C²) for C of them, and Kahn's algorithm finds a cycle or takes the
    longest path from the seeds. It returns each element's rank, or
    `CYCLIC` where the graph has a cycle. Antecedents are numbered as the
    search numbers them."""

    def __init__(self, domain: CanonicalDomain, kb: KnowledgeBase):
        lhs = [extension(domain, ax.lhs) for ax in kb.defeasible]
        bad = [ext - extension(domain, ax.rhs) for ax, ext in zip(kb.defeasible, lhs)]
        ante: dict[Concept, int] = {}
        for ax, ext in zip(kb.defeasible, lhs):
            if ext:
                ante.setdefault(ax.lhs, len(ante))
        aspect = {a: k for k, a in enumerate(dict.fromkeys(ax.rhs for ax in kb.defeasible))}
        keys: dict[tuple[frozenset, frozenset, frozenset], int] = {}
        self.class_of = []
        for i in range(domain.size):
            key = (frozenset(ante[ax.lhs] for ax, ext in zip(kb.defeasible, lhs) if i in ext),
                   frozenset(ante[ax.lhs] for ax, b in zip(kb.defeasible, bad) if i in b),
                   frozenset(aspect[ax.rhs] for ax, b in zip(kb.defeasible, bad) if i in b))
            self.class_of.append(keys.setdefault(key, len(keys)))
        # per class: the antecedents it lies in, those of the defaults it
        # violates, and its violated aspects (numbered)
        self.keys = list(keys)

    def solve(self, kappa: Sequence[int]):
        seeds: list[int] = []
        coupling: list[int] = []  # per class, its coupling class
        cids: dict[tuple[frozenset, int], int] = {}
        top: list[int] = []  # per coupling class, its highest seed
        for inside, outdone, vio in self.keys:
            m = max([kappa[j] for j in outdone], default=-1)
            s = max([kappa[j] for j in inside], default=0)
            if s <= m:
                s = m + 1
            seeds.append(s)
            c = cids.setdefault((vio, m), len(top))
            if c == len(top):
                top.append(s)
            elif top[c] < s:
                top[c] = s
            coupling.append(c)
        ckeys = tuple(cids)
        size = len(ckeys)
        succ: list[list[int]] = [[] for _ in range(size)]
        indeg = [0] * size
        for a, (va, ma) in enumerate(ckeys):
            for b, (vb, mb) in enumerate(ckeys):
                if ma < mb or va < vb:
                    succ[a].append(b)
                    indeg[b] += 1
        into = [0] * size  # the least rank the edges into a class force
        order = [c for c in range(size) if not indeg[c]]
        for a in order:  # Kahn's algorithm, taking the longest path
            reach = max(top[a], into[a]) + 1
            for b in succ[a]:
                if into[b] < reach:
                    into[b] = reach
                indeg[b] -= 1
                if not indeg[b]:
                    order.append(b)
        if len(order) < size:
            return CYCLIC
        values = [max(s, into[c]) for s, c in zip(seeds, coupling)]  # per class
        return tuple(map(values.__getitem__, self.class_of))


# How a guess of antecedent ranks can fail to give a model.
CYCLIC = "with cyclic order constraints"
OVER_BOUND = "over the bound"
KAPPA_MISMATCH = "disagreeing with their guess"
RANK_GAP = "leaving a rank gap"
FAILURE_CAUSES = (CYCLIC, OVER_BOUND, KAPPA_MISMATCH, RANK_GAP)


class SweepFrontier:
    """The enriched search in its sweep form, kept as the reference for the
    κ fixpoint of `models._minimal`.

    Every guess κ in [0, bound]^k of the k antecedents' concept ranks is
    solved by `_Constraints.solve`. A guess gives a candidate when the
    solve finds no cycle, the ranks fit the bound, the least rank over
    each antecedent j is κ_j and no rank is left empty; the pointwise
    minimal candidates are the frontier of minimal models. Each failed
    guess is counted by its first failing check, in `FAILURE_CAUSES` order.
    """

    def __init__(self, domain: CanonicalDomain, kb: KnowledgeBase, bound: int):
        self.search = _Constraints(domain, kb)
        self.size = domain.size
        self.bound = bound

    def guesses(self) -> Iterable[tuple[int, ...]]:
        return itertools.product(range(self.bound + 1),
                                 repeat=len(self.search.antecedents))

    def check(self, kappa: Sequence[int]):
        """The element ranks under the guess, or why it gives none:
        `CYCLIC`, `OVER_BOUND` or `KAPPA_MISMATCH`."""
        masks = self.search.solve(kappa)
        if isinstance(masks, str):
            return CYCLIC
        if max(r for r, mask in enumerate(masks) if mask) > self.bound:
            return OVER_BOUND
        # an antecedent's least rank: the first rank mask meeting it
        if [next(r for r, mask in enumerate(masks) if mask & ext)
                for ext in self.search.antecedents] != list(kappa):
            return KAPPA_MISMATCH
        return element_ranks(masks, self.size)

    def frontier(self) -> tuple[list[tuple[int, ...]], dict[str, int]]:
        """The frontier's global ranks, and the failed guesses by cause."""
        candidates: dict[tuple[int, ...], None] = {}
        causes = dict.fromkeys(FAILURE_CAUSES, 0)
        for kappa in self.guesses():
            g = self.check(kappa)
            if isinstance(g, str):
                causes[g] += 1
            elif set(g) != set(range(max(g) + 1)):
                causes[RANK_GAP] += 1
            else:
                candidates.setdefault(g)
        return pointwise_minima(list(candidates)), causes


def raise_groups(domain: CanonicalDomain, kb: KnowledgeBase,
                 ) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per defeasible axiom with instances, its (antecedent members,
    violators), read off `extension`: every violator must rank above the
    least-ranked member."""
    out = []
    for ax in kb.defeasible:
        members = extension(domain, ax.lhs)
        if members:
            out.append((tuple(sorted(members)),
                        tuple(sorted(members - extension(domain, ax.rhs)))))
    return tuple(out)


def pinned_least_fixpoint(n: int, bound: int,
                          raise_groups: Iterable[tuple[Sequence[int], Sequence[int]]],
                          pin_pairs: Iterable[tuple[int, int]]) -> Optional[tuple[int, ...]]:
    """Least g >= 0 with g[v] > min(g over members) for each (members,
    violators) group and g[y] >= g[x] for each pin pair, or None past the
    bound."""
    if bound < 0:
        return None
    g = [0] * n
    raise_groups = tuple(raise_groups)
    pin_pairs = tuple(pin_pairs)
    changed = True
    while changed:
        changed = False
        for x, y in pin_pairs:
            if g[y] < g[x]:
                g[y] = g[x]
                changed = True
        for members, violators in raise_groups:
            floor = min(g[i] for i in members) + 1
            for v in violators:
                if g[v] < floor:
                    g[v] = floor
                    changed = True
        if changed and max(g) > bound:
            return None
    return tuple(g)


def _counterexample_pins(domain: CanonicalDomain, query: Query,
                         ) -> list[tuple[tuple[int, int], ...]]:
    """Per instance x0 of the query's lhs outside its rhs, the pins
    (x0, y) that put x0 among the least-ranked instances of the lhs."""
    lhs_ext = extension(domain, query.lhs)
    return [tuple((x0, y) for y in sorted(lhs_ext) if y != x0)
            for x0 in sorted(lhs_ext - extension(domain, query.rhs))]


def entails_in_all_single_models(kb: KnowledgeBase, query: Query,
                                 domain: CanonicalDomain,
                                 rank_bound: Optional[int] = None) -> bool:
    """Whether the query holds in every (not only minimal) single-preference
    model over the canonical domain with ranks within the bound."""
    if isinstance(query, Strict):
        return extension(domain, query.lhs) <= extension(domain, query.rhs)
    bound = default_rank_bound(kb) if rank_bound is None else rank_bound
    groups = raise_groups(domain, kb)
    return all(pinned_least_fixpoint(domain.size, bound, groups, pairs) is None
               for pairs in _counterexample_pins(domain, query))


def entails_in_all_enriched_models(kb: KnowledgeBase, query: Query,
                                   domain: CanonicalDomain,
                                   rank_bound: Optional[int] = None) -> bool:
    """Whether the query holds in every enriched model over the canonical
    domain carrying the least admissible aspect profile, ranks within the
    bound."""
    if isinstance(query, Strict):
        return extension(domain, query.lhs) <= extension(domain, query.rhs)
    bound = default_rank_bound(kb) if rank_bound is None else rank_bound
    ref = PairwiseEnrichedSolve(domain, kb, bound)
    guesses = list(itertools.product(range(bound + 1), repeat=len(ref.antecedents)))
    return not any(ref.solve(kappa, pairs) is not None
                   for pairs in _counterexample_pins(domain, query) for kappa in guesses)


def widened_compare_row(ranked: RankedTBox, query: Query, bound: Optional[int],
                        domains: dict[frozenset[Concept], CanonicalDomain]) -> dict:
    """One `compare --json` row answered on the KB's closure explicitly
    widened by the query's two sides: the ranks and the models both read
    off the widened closure's table, which is its domain (kept in
    `domains` per closure) and holds every query atom, so no fresh atom is
    lifted; each model verdict is `holds_in_by_variants`'s, and a row is a
    violation when rc and single-pref differ or rc is not contained in
    enriched. The reference for the rows `compare` answers on the table of
    their restrictions outside the KB's closure, fresh atoms lifted."""
    closure = subconcept_closure(ranked.kb, (query.lhs, query.rhs))
    table = ranked.table(closure)
    row: dict = {"query": serialize_axiom(query)}
    r_off = rank_on(table, And(query.lhs, Not(query.rhs)))
    if isinstance(query, Strict):
        row["rc"] = r_off == math.inf
    else:
        r_lhs = rank_on(table, query.lhs)
        row["rc"] = r_lhs == math.inf or r_lhs < r_off
    try:
        domain = domains.get(closure)
        if domain is None:
            domain = domains[closure] = build_canonical_domain(ranked, closure)
        single = single_pref_model(ranked.kb, domain, bound)
        row["singlePref"] = holds_in_by_variants(single, query)[0]
        enriched = minimal_canonical_models(ranked.kb, domain, bound)[0]
        row["enriched"] = holds_in_by_variants(enriched, query)[0]
    except (RankBoundExceededError, InconsistentKBError) as exc:
        return {"query": row["query"], "error": str(exc)}
    row["violation"] = row["rc"] != row["singlePref"] or bool(row["rc"] and not row["enriched"])
    return row
