"""Rank-based entailment over defeasible knowledge bases.

A knowledge base is split into strict inclusions and defeasible ones. The
defeasible part is stratified by repeated exceptionality checks: a concept
is exceptional at a level when the level's material counterpart classically
forces it empty. Ranks of concepts fall out of the stratification as plain
ints (`math.inf` for a concept exceptional at every level), and both
defeasible and strict queries reduce to rank comparisons.

The caller owns the stratification: it builds one `RankedTBox` per KB and
passes it to `in_rational_closure`, `satisfiable_wrt_kb`, `is_kb_consistent`
and `models.build_canonical_domain`; the model searches of `models` take the
domain the caller built from it and never stratify on their own. The
`RankedTBox` keeps its level TBoxes (each with its internalised concept) and
its rank memo, so all of it lives as long as the caller keeps the
`RankedTBox`; this module keeps no state.
"""

from __future__ import annotations

import math
from typing import Iterable, Union

from .kb import Defeasible, KnowledgeBase, Strict
from .syntax import BOT, TOP, And, Concept, Not, Or, concept_key, conjoin
from .tableau import StrictTBox, entails_strict


def materialization(axioms: Iterable[Defeasible]) -> Concept:
    """The conjunction of material counterparts, in knowledge base order."""
    return conjoin(Or(Not(ax.lhs), ax.rhs) for ax in axioms)


def level_tbox(strict_core: StrictTBox, level: Iterable[Defeasible]) -> StrictTBox:
    """Strict core plus a level's material counterpart asserted globally."""
    level = tuple(level)
    if not level:
        return strict_core
    return strict_core.extended(TOP, materialization(level))


class RankedTBox:
    """The stratification of a knowledge base by exceptionality.

    `levels[i]` holds the defeasible axioms still exceptional after i
    rounds; the sequence is computed to a fixpoint, so the last level
    repeats under one more round. `strict_core` is the classical part, and
    each level's TBox is built once and kept for `rank`, whose answers are
    memoised per concept node.
    """

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.strict_core = StrictTBox.from_axioms(kb.strict)
        level = tuple(kb.defeasible)
        tbox = level_tbox(self.strict_core, level)
        self.levels: list[tuple[Defeasible, ...]] = [level]
        self._level_tboxes = [tbox]
        while True:
            # an axiom stays when the level forces its antecedent empty
            nxt = tuple(ax for ax in level if entails_strict(tbox, ax.lhs, BOT))
            if nxt == level:
                break
            level = nxt
            tbox = level_tbox(self.strict_core, level)
            self.levels.append(level)
            self._level_tboxes.append(tbox)
        self._rank_memo: dict[Concept, float] = {}

    def rank(self, concept: Concept) -> float:
        """Least level at which the concept is not exceptional: an int, or
        `math.inf` when there is none."""
        hit = self._rank_memo.get(concept)
        if hit is not None:
            return hit
        out = math.inf
        for i, tbox in enumerate(self._level_tboxes):
            if not entails_strict(tbox, concept, BOT):
                out = i
                break
        self._rank_memo[concept] = out
        return out


def satisfiable_wrt_kb(ranked: RankedTBox,
                       concepts: Union[Concept, Iterable[Concept]]) -> bool:
    """Whether a concept set has finite rank, i.e. is realisable under the KB."""
    if isinstance(concepts, Concept):
        conjunction = concepts
    else:
        conjunction = conjoin(sorted(concepts, key=concept_key))
    return ranked.rank(conjunction) < math.inf


def is_kb_consistent(ranked: RankedTBox) -> bool:
    return satisfiable_wrt_kb(ranked, TOP)


def in_rational_closure(ranked: RankedTBox, query) -> bool:
    """Rank-based entailment of a strict or defeasible inclusion."""
    if isinstance(query, Strict):
        return ranked.rank(And(query.lhs, Not(query.rhs))) == math.inf
    if isinstance(query, Defeasible):
        r_lhs = ranked.rank(query.lhs)
        if r_lhs == math.inf:
            return True
        return r_lhs < ranked.rank(And(query.lhs, Not(query.rhs)))
    raise TypeError(f"not an inclusion query: {query!r}")
