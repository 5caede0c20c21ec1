"""Defeasible ALC reasoning with a typicality operator.

Submodules: `syntax` (concept terms), `kb` (axioms and knowledge bases),
`parser` (surface syntax), `tableau` (classical satisfiability),
`ranking` (exceptionality levels and rank-based entailment), `models`
(canonical-domain preferential semantics), `cli` (command line).
The public names are those of `__all__`; the submodules are not among them.
"""

from .kb import (ConceptAssertion, Defeasible, KnowledgeBase, RoleAssertion, Strict,
                 aspect_set, serialize_axiom, serialize_kb, subconcept_closure)
from .models import (CanonicalDomain, InconsistentKBError, Model, RankBoundExceededError,
                     build_canonical_domain, check_coupling, default_rank_bound,
                     minimal_canonical_models, satisfies_kb, single_pref_model)
from .parser import KBSyntaxError, parse_axiom, parse_concept, parse_kb
from .ranking import RankedTBox, in_rational_closure, is_kb_consistent, satisfiable_wrt_kb
from .syntax import (BOT, TOP, And, Atom, Bottom, Concept, Exists, Forall, Not, Or, Top,
                     complement, concept_key, concept_to_text, to_nnf)
from .tableau import SatResult, StrictTBox, Witness, entails_strict, is_satisfiable

__all__ = [
    # kb
    "ConceptAssertion", "Defeasible", "KnowledgeBase", "RoleAssertion", "Strict",
    "aspect_set", "serialize_axiom", "serialize_kb", "subconcept_closure",
    # models
    "CanonicalDomain", "InconsistentKBError", "Model", "RankBoundExceededError",
    "build_canonical_domain", "check_coupling", "default_rank_bound",
    "minimal_canonical_models", "satisfies_kb", "single_pref_model",
    # parser
    "KBSyntaxError", "parse_axiom", "parse_concept", "parse_kb",
    # ranking
    "RankedTBox", "in_rational_closure", "is_kb_consistent", "satisfiable_wrt_kb",
    # syntax
    "BOT", "TOP", "And", "Atom", "Bottom", "Concept", "Exists", "Forall", "Not", "Or",
    "Top", "complement", "concept_key", "concept_to_text", "to_nnf",
    # tableau
    "SatResult", "StrictTBox", "Witness", "entails_strict", "is_satisfiable",
]
