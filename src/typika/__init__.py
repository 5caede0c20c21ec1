"""Defeasible ALC reasoning with a typicality operator.

Submodules: `syntax` (concept terms), `kb` (axioms and knowledge bases),
`parser` (surface syntax), `tableau` (classical satisfiability),
`ranking` (exceptionality levels and rank-based entailment), `models`
(canonical-domain preferential semantics), `cli` (command line).
"""

from .kb import (
    ConceptAssertion,
    Defeasible,
    KnowledgeBase,
    RoleAssertion,
    Strict,
    aspect_set,
    serialize_axiom,
    serialize_kb,
    subconcept_closure,
)
from .models import (
    CanonicalDomain,
    EnrichedModel,
    InconsistentKBError,
    RankAssignment,
    RankBoundExceededError,
    SinglePrefModel,
    Verdict,
    build_canonical_domain,
    check_coupling,
    default_rank_bound,
    enriched_entails,
    minimal_canonical_models,
    satisfies_kb,
    single_pref_entails,
    single_pref_model,
)
from .parser import KBSyntaxError, parse_axiom, parse_concept, parse_kb
from .ranking import (
    Rank,
    concept_rank,
    in_rational_closure,
    is_kb_consistent,
    ranked_tbox,
    satisfiable_wrt_kb,
)
from .syntax import (
    And,
    Atom,
    Bottom,
    Concept,
    Exists,
    Forall,
    Not,
    Or,
    Top,
    BOT,
    TOP,
    complement,
    concept_key,
    concept_to_text,
    to_nnf,
)
from .tableau import SatResult, StrictTBox, Witness, entails_strict, is_satisfiable

__all__ = [name for name in dir() if not name.startswith("_")]
