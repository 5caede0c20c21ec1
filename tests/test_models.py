import functools
import itertools
import json
import random

import pytest

import typika.models
from typika.cli import main
from typika.kb import (ConceptAssertion, Defeasible, KnowledgeBase, Strict, aspect_set,
                       serialize_axiom, subconcept_closure)
from typika.models import (
    InconsistentKBError,
    Model,
    RankBoundExceededError,
    build_canonical_domain,
    check_coupling,
    default_rank_bound,
    find_abox_mapping,
    minimal_canonical_models,
    satisfies_kb,
    single_pref_model,
    _Constraints,
    _element_ranks,
    _order,
    _validate_witnesses,
)
from typika.parser import parse_axiom, parse_concept, parse_kb
from typika.ranking import RankedTBox, counterexamples, elements, in_rational_closure, least
from typika.syntax import BOT, TOP, And, Atom, Exists, Forall, Not, concept_key

from conftest import SET3_TEXT
from corpus import corpus_kbs
from families import chain, chain_text, diamond, diamond_text, random_kbs, role_kbs
from oracles import (
    CYCLIC,
    KAPPA_MISMATCH,
    OVER_BOUND,
    RANK_GAP,
    ClassGraphSolve,
    PairwiseEnrichedSolve,
    SweepFrontier,
    coupling_holds_pairwise,
    element_set,
    entails_in_all_enriched_models,
    entails_in_all_single_models,
    enumerate_enriched_globals,
    holds_in_by_variants,
    enumerate_single_models,
    holds_in_ranks,
    least_profile,
    min_by,
    model_of,
    pinned_least_fixpoint,
    pointwise_minima,
    raise_groups,
    rank_masks_by_scan,
    role_edges,
    satisfies_kb_by_ranks,
    tableau_domain,
)
from test_acceptance import corpus_with_domains, placed_verdict

A, B, C = Atom("A"), Atom("B"), Atom("C")


def domain_of(kb, query=None):
    extra = () if query is None else (query.lhs, query.rhs)
    return build_canonical_domain(RankedTBox(kb), subconcept_closure(kb, extra))


def atom_signature(domain, i):
    return frozenset(c.name for c in domain.types[i] if isinstance(c, Atom))


def ranks_by_signature(domain, g):
    return {atom_signature(domain, i): r for i, r in enumerate(g)}


def frontier_ranks(kb, domain, rank_bound=None):
    return [(m.global_ranks, m.per_aspect)
            for m in minimal_canonical_models(kb, domain, rank_bound)]


# ---------------------------------------------------------------- domain


def test_set3_domain_has_twelve_types(kb_set3):
    dom = domain_of(kb_set3)
    assert dom.size == 12
    # strict Penguin => Bird rules out the four penguin-non-bird combinations
    signatures = {atom_signature(dom, i) for i in range(dom.size)}
    assert all("Bird" in s for s in signatures if "Penguin" in s)
    assert len(signatures) == 12


def test_eval_matches_membership(kb_set3, kb_set1):
    for kb in (kb_set3, kb_set1):
        dom = domain_of(kb)
        for c in sorted(subconcept_closure(kb), key=concept_key):
            ext = element_set(dom.eval(c))
            for i, t in enumerate(dom.types):
                assert (i in ext) == (c in t), (c, i)


def test_eval_matches_membership_with_roles():
    # the second KB puts a double negation under a restriction
    for text in ("exists r. C => D\nA => forall r. C\n",
                 "A => exists r. top\nT(A) => forall r. not not B\n"):
        kb = parse_kb(text)
        dom = domain_of(kb)
        assert role_edges(dom).keys() == {"r"}
        for c in sorted(subconcept_closure(kb), key=concept_key):
            if isinstance(c, Not) and isinstance(c.sub, Not):
                continue  # no type lists a double negation
            ext = element_set(dom.eval(c))
            for i, t in enumerate(dom.types):
                assert (i in ext) == (c in t), (c, i)


def test_type_elimination_matches_tableau_domain():
    """Type elimination gives the literal tree's types, in its order, and
    the same role edges, on the corpus, chains, diamonds, the role KBs and
    three closures widened by a query.

    A successor must honour the source's `not exists r. F` members as well
    as its `forall r. E` ones. Checking only the universals still passes
    the corpus, but `exists-forall`, `forall-exists` and
    `forall-disjunction` then keep 24, 24 and 48 types where the tableau
    gives 16, 20 and 40.

    The types share their literals: one node per positive and one `not`
    node per positive, however many elements there are.
    """
    cases = [(kb, None) for kb in corpus_kbs()]
    cases += [(chain(n), None) for n in range(1, 6)]
    cases += [(diamond(n), None) for n in (1, 2)]
    cases += [(kb, None) for kb in role_kbs().values()] + widened_closures()
    for kb, query in cases:
        dom = domain_of(kb, query)
        types, edges = tableau_domain(kb, dom.closure)
        assert dom.types == types, (kb, query)
        nodes = {id(c) for t in dom.types for c in t}
        assert len(nodes) <= 2 * len(dom.engine.positives), (kb, query)
        assert role_edges(dom) == edges, (kb, query)


def widened_closures():
    """Three KBs with a query that widens their closure."""
    roles = role_kbs()
    return [
        (chain(3), parse_axiom("T((C1 and Blond)) => not P")),
        (roles["successor-exception"], parse_axiom("T(A) => not forall r. A")),
        (roles["self-loop"], parse_axiom("T((B and exists r. D)) => forall r. C")),
    ]


def test_restrictions_read_off_bits_match_the_edges():
    # `eval` reads every restriction off the type bits; on every element it
    # must agree with the restriction's semantics over the role edges
    cases = [(kb, None) for kb in role_kbs().values()] + widened_closures()
    checked = 0
    for kb, query in cases:
        dom = domain_of(kb, query)
        _validate_witnesses(dom)
        edges = role_edges(dom)
        for c in dom.closure:
            if not isinstance(c, (Exists, Forall)):
                continue
            checked += 1
            sub = element_set(dom.eval(c.sub))
            reached = [{j for i2, j in edges[c.role] if i2 == i}
                       for i in range(dom.size)]
            if isinstance(c, Exists):
                by_edges = {i for i in range(dom.size) if reached[i] & sub}
            else:
                by_edges = {i for i in range(dom.size) if reached[i] <= sub}
            assert element_set(dom.eval(c)) == by_edges, (kb, query, c)
    assert checked > 20


def test_a_dropped_edge_fails_validation():
    # the A element's only r-successor in B is the one B element
    kb = parse_kb("A => exists r. B\nB => forall r. bot\n")
    dom = domain_of(kb)
    _validate_witnesses(dom)
    sets, of = dom.successors["r"]
    sets = list(sets)
    [i] = element_set(dom.eval(A))
    [j] = element_set(sets[of[i]] & dom.eval(B))
    sets[of[i]] &= ~(1 << j)
    dom.successors["r"] = (tuple(sets), of)
    with pytest.raises(AssertionError, match="disagrees with the role edges"):
        _validate_witnesses(dom)


def test_inconsistent_kb_has_no_domain():
    kb = parse_kb("A => bot\ntop => A\n")
    with pytest.raises(InconsistentKBError):
        domain_of(kb)


def test_query_concepts_join_the_closure(kb_set3):
    q = parse_axiom("T((Penguin and HasNiceFeather)) => Fly")
    dom = domain_of(kb_set3, q)
    assert parse_concept("(Penguin and HasNiceFeather)") in dom.closure


def test_default_rank_bound(kb_set3, kb_set1):
    assert default_rank_bound(kb_set3) == 4
    assert default_rank_bound(kb_set1) == 4


# ------------------------------------------------------- aspect profile


def test_set3_aspect_profile(kb_set3):
    dom = domain_of(kb_set3)
    profile = dict(minimal_canonical_models(kb_set3, dom)[0].per_aspect)
    assert set(profile) == set(aspect_set(kb_set3))
    fly = profile[Atom("Fly")]
    not_fly = profile[Not(Atom("Fly"))]
    hnf = profile[Atom("HasNiceFeather")]
    for i in range(dom.size):
        sig = atom_signature(dom, i)
        assert fly[i] == (1 if "Bird" in sig and "Fly" not in sig else 0)
        assert not_fly[i] == (1 if "Penguin" in sig and "Fly" in sig else 0)
        assert hnf[i] == (1 if "Bird" in sig and "HasNiceFeather" not in sig else 0)
    # aspects that are no axiom's right-hand side rank everything 0
    assert set(profile[Atom("Bird")]) == {0}


# ------------------------------------------------------ minimal models


SET3_EXPECTED_GLOBAL = {
    frozenset({"Bird", "Fly", "HasNiceFeather", "Penguin"}): 3,
    frozenset({"Bird", "Fly", "HasNiceFeather"}): 0,
    frozenset({"Bird", "Fly", "Penguin"}): 4,
    frozenset({"Bird", "Fly"}): 1,
    frozenset({"Bird", "HasNiceFeather", "Penguin"}): 1,
    frozenset({"Bird", "HasNiceFeather"}): 1,
    frozenset({"Bird", "Penguin"}): 2,
    frozenset({"Bird"}): 2,
    frozenset({"Fly", "HasNiceFeather"}): 0,
    frozenset({"Fly"}): 0,
    frozenset({"HasNiceFeather"}): 0,
    frozenset(): 0,
}

SET3_EXPECTED_SINGLE = {
    frozenset({"Bird", "Fly", "HasNiceFeather", "Penguin"}): 2,
    frozenset({"Bird", "Fly", "HasNiceFeather"}): 0,
    frozenset({"Bird", "Fly", "Penguin"}): 2,
    frozenset({"Bird", "Fly"}): 1,
    frozenset({"Bird", "HasNiceFeather", "Penguin"}): 1,
    frozenset({"Bird", "HasNiceFeather"}): 1,
    frozenset({"Bird", "Penguin"}): 1,
    frozenset({"Bird"}): 1,
    frozenset({"Fly", "HasNiceFeather"}): 0,
    frozenset({"Fly"}): 0,
    frozenset({"HasNiceFeather"}): 0,
    frozenset(): 0,
}


def test_set3_enriched_frontier_frozen(kb_set3):
    models = minimal_canonical_models(kb_set3, domain_of(kb_set3))
    assert len(models) == 1
    m = models[0]
    assert ranks_by_signature(m.domain, m.global_ranks) == SET3_EXPECTED_GLOBAL
    assert satisfies_kb(m, kb_set3)
    assert check_coupling(m, kb_set3)


def test_set3_single_pref_frozen(kb_set3):
    m = single_pref_model(kb_set3, domain_of(kb_set3))
    assert ranks_by_signature(m.domain, m.global_ranks) == SET3_EXPECTED_SINGLE
    assert satisfies_kb(m, kb_set3)


def test_single_pref_matches_element_fixpoint():
    # the fixpoint over element classes gives each element the rank the
    # per-element fixpoint of the oracle gives it, or overflows where it does
    families = [chain(n) for n in (1, 2, 3, 4)] + [diamond(n) for n in (1, 2, 3)]
    cases = [(kb, dom) for kb, _, dom in corpus_with_domains()]
    cases += [(kb, domain_of(kb)) for kb in families + list(role_kbs().values())]
    found = failed = 0
    for kb, dom in cases + list(random_kbs_with_domains()):
        groups = raise_groups(dom, kb)
        for bound in (default_rank_bound(kb), 0, 1, 2):
            want = pinned_least_fixpoint(dom.size, bound, groups, ())
            try:
                got = single_pref_model(kb, dom, bound).global_ranks
                found += 1
            except RankBoundExceededError:
                got = None
                failed += 1
            assert got == want, (kb, bound)
    assert found > 1000 and failed > 20


def test_least_instances_match_the_scan():
    # the first rank mask that meets an extension holds the members the
    # oracle's scan over every rank gives: globally under both semantics,
    # and per aspect
    families = [chain(n) for n in (1, 2, 3, 4)] + [diamond(n) for n in (1, 2, 3)]
    cases = [(kb, dom) for kb, _, dom in corpus_with_domains()]
    cases += [(kb, domain_of(kb)) for kb in families + list(role_kbs().values())]
    models = 0
    for kb, dom in cases + list(random_kbs_with_domains()):
        concepts = (TOP, BOT, *dom.closure)
        exts = [dom.eval(c) for c in concepts]
        for search in (single_pref_model, minimal_canonical_models):
            try:
                m = search(kb, dom)
            except RankBoundExceededError:
                continue
            m = m[0] if isinstance(m, list) else m
            models += 1
            assert [least(m.rank_masks, ext) for ext in exts] \
                == [min_by(m.global_ranks, ext) for ext in exts]
            for (_, masks), (_, ranks) in zip(m.aspect_masks, m.per_aspect):
                assert [least(masks, ext) for ext in exts] \
                    == [min_by(ranks, ext) for ext in exts]
    assert models > 1500


def test_rank_masks_match_a_scan():
    # one mask per rank from 0 to the highest, and each element's rank
    # read back off the masks, ranks past 127 and empty ranks included
    rng = random.Random(23)
    for top in (0, 1, 5, 127, 128, 300):
        ranks = [rng.randint(0, top) for _ in range(rng.randint(0, 200))]
        masks = rank_masks_by_scan(ranks)
        assert masks == tuple(sum(1 << i for i, r in enumerate(ranks) if r == k)
                              for k in range(max(ranks, default=-1) + 1))
        assert _element_ranks(masks, len(ranks)) == tuple(ranks)


def test_set3_minimal_penguins(kb_set3):
    peng = Atom("Penguin")
    dom = domain_of(kb_set3)
    enriched = minimal_canonical_models(kb_set3, dom)[0]
    single = single_pref_model(kb_set3, dom)
    penguins = dom.eval(peng)
    assert {atom_signature(dom, i) for i in element_set(least(enriched.rank_masks, penguins))} \
        == {frozenset({"Bird", "HasNiceFeather", "Penguin"})}
    assert {atom_signature(dom, i) for i in element_set(least(single.rank_masks, penguins))} \
        == {frozenset({"Bird", "HasNiceFeather", "Penguin"}),
            frozenset({"Bird", "Penguin"})}


def test_set1_enriched_strata(kb_set1):
    models = minimal_canonical_models(kb_set1, domain_of(kb_set1))
    assert len(models) == 1
    m = models[0]
    for i in range(m.domain.size):
        sig = atom_signature(m.domain, i)
        if "Student" not in sig:
            expect = 0
        elif {"Worker", "Apprentice", "EarnMoney"} <= sig:
            expect = 3
        elif "Worker" in sig and "EarnMoney" not in sig:
            expect = 2
        elif "EarnMoney" in sig:
            expect = 1
        else:
            expect = 0
        assert m.global_ranks[i] == expect, sig


def set3_models(kb_set3):
    """set3's stratification and its minimal single-preference and
    enriched models on the KB's own table."""
    ranked = RankedTBox(kb_set3)
    dom = build_canonical_domain(ranked)
    return ranked, single_pref_model(kb_set3, dom), minimal_canonical_models(kb_set3, dom)[0]


def test_entailment_verdicts(kb_set3):
    hnf = parse_axiom("T(Penguin) => HasNiceFeather")
    nofly = parse_axiom("T(Penguin) => not Fly")
    ranked, single, enriched = set3_models(kb_set3)
    assert not placed_verdict(ranked, single, hnf)
    assert placed_verdict(ranked, enriched, hnf)
    assert placed_verdict(ranked, single, nofly)
    assert placed_verdict(ranked, enriched, nofly)
    # a negative verdict's countermodel element, the lowest counterexample,
    # is a least-ranked penguin without nice feathers
    dom = single.domain
    entailed, first = holds_in_by_variants(single, hnf)
    off = counterexamples(single.rank_masks, hnf, *ranked.place(hnf)[1:3])
    assert not entailed and first == (off & -off).bit_length() - 1
    assert first in element_set(dom.eval(Atom("Penguin")))
    assert first not in element_set(dom.eval(Atom("HasNiceFeather")))
    assert first in element_set(least(single.rank_masks, dom.eval(Atom("Penguin"))))


def test_strict_queries_are_extensional(kb_set3):
    q = parse_axiom("Penguin => Bird")
    ranked, single, enriched = set3_models(kb_set3)
    dom = single.domain
    assert placed_verdict(ranked, single, q)
    assert placed_verdict(ranked, enriched, q)
    assert entails_in_all_single_models(kb_set3, q, dom)
    assert entails_in_all_enriched_models(kb_set3, q, dom)
    q2 = parse_axiom("Bird => Penguin")
    assert not placed_verdict(ranked, single, q2)
    assert not placed_verdict(ranked, enriched, q2)


def test_rank_bound_overflow(kb_set3):
    dom = domain_of(kb_set3)
    # the error says which rank the least ranks reach, under both semantics
    with pytest.raises(RankBoundExceededError) as exc:
        minimal_canonical_models(kb_set3, dom, rank_bound=1)
    assert (str(exc.value), exc.value.bound) == \
        ("no admissible rank assignment within bound 1: the least ranks reach 4", 1)
    with pytest.raises(RankBoundExceededError) as exc:
        single_pref_model(kb_set3, dom, rank_bound=1)
    assert (str(exc.value), exc.value.bound) == \
        ("no admissible rank assignment within bound 1: the least ranks reach 2", 1)
    # the default bound is exactly tight for this KB: the flying penguin
    # type needs rank 4
    assert minimal_canonical_models(kb_set3, dom, rank_bound=4)


# ------------------------------------------------------ shared domains


def _count_calls(monkeypatch, name):
    """Records each call of the function `name` of `typika.models`."""
    calls = []
    original = getattr(typika.models, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(typika.models, name, counting)
    return calls


def test_constraint_table_is_memoised_per_domain(kb_set3, monkeypatch):
    fixpoints = _count_calls(monkeypatch, "_kappa_fixpoint")
    tables = _count_calls(monkeypatch, "_Constraints")
    aspect_sets = _count_calls(monkeypatch, "aspect_set")
    dom = domain_of(kb_set3)
    first = minimal_canonical_models(kb_set3, domain=dom, rank_bound=4)
    again = minimal_canonical_models(kb_set3, domain=dom, rank_bound=4)
    assert [m.global_ranks for m in again] == [m.global_ranks for m in first]
    assert [m.per_aspect for m in again] == [m.per_aspect for m in first]
    m = single_pref_model(kb_set3, domain=dom, rank_bound=4)
    assert single_pref_model(kb_set3, domain=dom, rank_bound=4).global_ranks \
        == m.global_ranks
    minimal_canonical_models(kb_set3, domain=dom, rank_bound=5)
    single_pref_model(kb_set3, domain=dom, rank_bound=5)
    # no model is memoised: each call runs the κ loop
    assert len(fixpoints) == 6
    # one constraint table serves both semantics at both bounds, and it
    # sorts the KB's aspects once
    assert len(tables) == len(aspect_sets) == 1
    assert {table for table, _, _ in fixpoints} == {dom._memo[kb_set3]}
    # another domain reads the KB's defaults again; single preference
    # alone builds no V-cells
    other = domain_of(kb_set3)
    single_pref_model(kb_set3, domain=other, rank_bound=4)
    assert len(tables) == len(aspect_sets) == 2
    assert "_cells" in vars(dom._memo[kb_set3])
    assert "_cells" not in vars(other._memo[kb_set3])


def test_order_is_built_once_per_table(monkeypatch, tmp_path, capsys):
    # `compare` cuts rule (a)'s order once per table its enriched search runs
    # on: checking the search's own model reads the V-cells the solve cut
    orders = _count_calls(monkeypatch, "_order")
    searches = _count_calls(monkeypatch, "_minimal")
    texts = [SET3_TEXT] + [chain_text(n) for n in (1, 2)] + [diamond_text(n) for n in (1, 2)]
    for k, text in enumerate(texts):
        kb = parse_kb(text)
        antes = list(dict.fromkeys(ax.lhs for ax in kb.defeasible))
        rhss = list(dict.fromkeys(ax.rhs for ax in kb.defeasible))
        rows = [Defeasible(a, r) for a in antes for r in rhss]
        # a restriction outside the closure: the row's own widened table
        rows.append(Defeasible(And(antes[0], Exists("eats", Atom("Fish"))), rhss[0]))
        kb_file, queries = tmp_path / f"{k}.kb", tmp_path / f"{k}.txt"
        kb_file.write_text(text)
        queries.write_text("".join(serialize_axiom(q) + "\n" for q in rows))
        before = len(searches)
        assert main(["compare", "--json", str(kb_file), str(queries)]) in (0, 1)
        assert len(searches) - before == 4  # both semantics on the KB's table and the widened one
        capsys.readouterr()
    enriched = [args for args in searches if args[3]]
    assert len(orders) == len(enriched) == 2 * len(texts)
    # each call cut one table's V-cells
    assert [args[0] for args in orders] == [domain.eval.full for _, domain, _, _ in enriched]


def test_memo_serves_no_other_bound(kb_set3):
    dom = domain_of(kb_set3)
    # a tight bound fails; a wider one must not be served that failure
    with pytest.raises(RankBoundExceededError):
        minimal_canonical_models(kb_set3, domain=dom, rank_bound=1)
    with pytest.raises(RankBoundExceededError):
        single_pref_model(kb_set3, domain=dom, rank_bound=1)
    wide = minimal_canonical_models(kb_set3, domain=dom, rank_bound=7)
    fresh = minimal_canonical_models(
        kb_set3, domain=domain_of(kb_set3), rank_bound=7)
    assert [(m.global_ranks, m.per_aspect) for m in wide] \
        == [(m.global_ranks, m.per_aspect) for m in fresh]
    assert single_pref_model(kb_set3, domain=dom, rank_bound=7).global_ranks == \
        single_pref_model(kb_set3, domain=domain_of(kb_set3), rank_bound=7).global_ranks


def test_memo_serves_no_other_kb(kb_set3):
    dom = domain_of(kb_set3)
    full = single_pref_model(kb_set3, domain=dom).global_ranks
    full_frontier = frontier_ranks(kb_set3, dom)
    # the same closure without the penguin exception
    fewer = KnowledgeBase.build(kb_set3.strict + kb_set3.defeasible[:2])
    got = single_pref_model(fewer, domain=dom, rank_bound=4).global_ranks
    other = domain_of(kb_set3)
    assert got == single_pref_model(fewer, domain=other, rank_bound=4).global_ranks
    assert got != full
    got_frontier = frontier_ranks(fewer, dom, rank_bound=4)
    assert got_frontier == frontier_ranks(fewer, other, rank_bound=4)
    assert got_frontier != full_frontier


def test_failed_search_raises_on_every_call(kb_set3):
    dom = domain_of(kb_set3)
    for _ in range(2):
        with pytest.raises(RankBoundExceededError):
            minimal_canonical_models(kb_set3, domain=dom, rank_bound=0)
        with pytest.raises(RankBoundExceededError):
            single_pref_model(kb_set3, domain=dom, rank_bound=0)
    assert minimal_canonical_models(kb_set3, domain=dom, rank_bound=4)


def test_returned_frontier_is_the_callers_own(kb_set3):
    dom = domain_of(kb_set3)
    first = minimal_canonical_models(kb_set3, domain=dom)
    expect = [(m.global_ranks, m.per_aspect) for m in first]
    first.clear()
    assert frontier_ranks(kb_set3, dom) == expect


# ------------------------------------------- the per-guess enriched solve


def _solve_cases():
    """The corpus KBs, chain(1..3), diamond(1..2) and the ten role KBs."""
    for kb, _, dom in corpus_with_domains():
        yield kb, dom
    families = [chain(n) for n in (1, 2, 3)] + [diamond(n) for n in (1, 2)]
    for kb in families + list(role_kbs().values()):
        yield kb, domain_of(kb)


def test_class_solve_matches_pairwise_reference():
    # every guess of the sweep gets exactly the pairwise fixpoint's ranks,
    # or no ranks where it gets None
    causes = set()
    checked = 0
    for kb, dom in _solve_cases():
        for bound in (default_rank_bound(kb), 2):
            sweep = SweepFrontier(dom, kb, bound)
            ref = PairwiseEnrichedSolve(dom, kb, bound)
            assert list(map(element_set, sweep.search.antecedents)) == ref.antecedents
            for kappa in sweep.guesses():
                got = sweep.check(kappa)
                if isinstance(got, str):
                    causes.add(got)
                    got = None
                assert got == ref.solve(kappa), (kb, bound, kappa)
                checked += 1
    assert checked > 13000
    assert causes == {CYCLIC, OVER_BOUND, KAPPA_MISMATCH}


def test_solve_matches_class_graph_reference():
    # every guess gets the class graph's rank per element, or a cycle
    # where it finds one
    families = [chain(n) for n in (1, 2, 3, 4)] + [diamond(n) for n in (1, 2)]
    cases = [(kb, dom) for kb, _, dom in corpus_with_domains()]
    cases += [(kb, domain_of(kb)) for kb in families + list(role_kbs().values())]
    cyclic = set()
    checked = 0
    for kb, dom in cases:
        search = _Constraints(dom, kb)
        ref = ClassGraphSolve(dom, kb)
        for bound in (default_rank_bound(kb), 2):
            for kappa in SweepFrontier(dom, kb, bound).guesses():
                got = search.solve(kappa)
                cyclic.add(isinstance(got, str))
                got = CYCLIC if isinstance(got, str) else _element_ranks(got, dom.size)
                assert got == ref.solve(kappa), (kb, bound, kappa)
                checked += 1
    assert checked > 20000
    assert cyclic == {True, False}


CHAIN3_CAUSES = {CYCLIC: 224, OVER_BOUND: 276, KAPPA_MISMATCH: 12, RANK_GAP: 0}
CHAIN4_CAUSES = {CYCLIC: 6975, OVER_BOUND: 2964, KAPPA_MISMATCH: 61, RANK_GAP: 0}
CHAIN_CYCLE = (
    "no admissible rank assignment: rule (a) puts class {P} (m = 1) below"
    " class {P, Q0} (m = 0) and rule (b) puts it above (a class is an"
    " element's violated aspects, m the highest concept rank of the"
    " antecedents it violates)")


def test_failed_search_counts_guesses_by_cause():
    # the sweep counts its guesses by how each fails; the search names the
    # cycle it meets, not the bound
    kb = chain(3)
    bound = default_rank_bound(kb)
    assert sum(CHAIN3_CAUSES.values()) == (bound + 1) ** 3
    dom = domain_of(kb)
    assert SweepFrontier(dom, kb, bound).frontier() == ([], CHAIN3_CAUSES)
    messages = []
    for domain in (dom, dom, domain_of(kb)):
        with pytest.raises(RankBoundExceededError) as exc:
            minimal_canonical_models(kb, domain=domain)
        assert exc.value.bound == bound
        messages.append(str(exc.value))
    # the memoised failure and a fresh search say the same
    assert messages == [CHAIN_CYCLE] * 3


def test_chain4_counts_guesses_by_cause():
    kb = chain(4)
    dom = domain_of(kb)
    bound = default_rank_bound(kb)
    assert SweepFrontier(dom, kb, bound).frontier() == ([], CHAIN4_CAUSES)
    assert sum(CHAIN4_CAUSES.values()) == 10 ** 4
    with pytest.raises(RankBoundExceededError, match="rule \\(a\\) puts class"):
        minimal_canonical_models(kb, domain=dom)


# ------------------------------------------------ the κ fixpoint


@functools.lru_cache(maxsize=None)
def random_kbs_with_domains():
    """Seeded consistent KBs of one to four defaults over four atoms
    (`families.random_kbs`), with their domains: 250 role-free (seed 7),
    250 with one role (seed 8)."""
    kbs = random_kbs(7, 250) + random_kbs(8, 250, roles=("r",))
    return tuple((kb, domain_of(kb)) for kb in kbs)


def _fixpoint_cases():
    """The corpus, chain(1..4), diamond(1..2), the role KBs and the random
    KBs, with their domains."""
    families = [chain(n) for n in (1, 2, 3, 4)] + [diamond(n) for n in (1, 2)]
    cases = [(kb, dom) for kb, _, dom in corpus_with_domains()]
    cases += [(kb, domain_of(kb)) for kb in families + list(role_kbs().values())]
    return cases + list(random_kbs_with_domains())


def test_fixpoint_matches_sweep_frontier():
    # at the default bound and at 2, the fixpoint's model is the sweep's
    # whole frontier, and it fails where the sweep finds no model
    found = failed = 0
    for kb, dom in _fixpoint_cases():
        for bound in (default_rank_bound(kb), 0, 2):
            frontier, _ = SweepFrontier(dom, kb, bound).frontier()
            try:
                got = [m.global_ranks for m in minimal_canonical_models(kb, dom, bound)]
                found += 1
            except RankBoundExceededError:
                got = []
                failed += 1
            assert got == frontier, (kb, bound)
    assert found > 1000 and failed > 20


def _perturbed(m, rng, bound):
    """Seeded perturbations of a model, twice: its global ranks changed on
    two elements and, for an enriched model, one aspect's ranks changed on
    two elements with the global ranks kept."""
    dom = m.domain
    out = []
    for _ in range(2):
        g = list(m.global_ranks)
        for i in rng.sample(range(dom.size), min(2, dom.size)):
            g[i] = rng.randint(0, bound + 1)
        out.append(model_of(dom, g, m.per_aspect))
        if m.per_aspect:
            per_aspect = list(m.per_aspect)
            k = rng.randrange(len(per_aspect))
            aspect, ranks = per_aspect[k]
            ranks = list(ranks)
            for i in rng.sample(range(dom.size), min(2, dom.size)):
                ranks[i] = rng.randint(0, 2)
            per_aspect[k] = (aspect, tuple(ranks))
            # the global masks themselves, so the caller can tell this bump
            out.append(Model(dom, m.rank_masks,
                             tuple((a, rank_masks_by_scan(r)) for a, r in per_aspect)))
    return out


def test_coupling_matches_pairwise_reference():
    # on every minimal model, and on seeded perturbations of its global
    # ranks and of its aspect ranks, the check over signatures agrees with
    # the per-element one (which is quadratic in the domain, so the random
    # KBs with more than 128 elements are left out); a global bump is
    # checked again with the search's own aspect masks, which reads the
    # V-cells the search cut instead of cutting the domain anew
    rng = random.Random(17)
    verdicts = set()
    aspect_verdicts = set()
    cell_verdicts = set()
    for kb, dom in _fixpoint_cases():
        if dom.size > 128:
            continue
        bound = default_rank_bound(kb)
        try:
            m = minimal_canonical_models(kb, dom, bound)[0]
        except RankBoundExceededError:
            continue
        assert check_coupling(m, kb) and coupling_holds_pairwise(m, kb), kb
        for bumped in _perturbed(m, rng, bound):
            verdict = check_coupling(bumped, kb)
            assert verdict == coupling_holds_pairwise(bumped, kb), (kb, bumped.global_ranks)
            verdicts.add(verdict)
            if bumped.rank_masks is m.rank_masks:
                aspect_verdicts.add(verdict)
            elif m.aspect_masks:
                own = Model(dom, bumped.rank_masks, m.aspect_masks)
                assert check_coupling(own, kb) == verdict, (kb, bumped.global_ranks)
                cell_verdicts.add(verdict)
    assert verdicts == aspect_verdicts == cell_verdicts == {True, False}


def test_satisfies_kb_matches_rank_reference():
    # the model check, which reads each model's own rank masks, agrees with
    # the reference that scans the model's own ranks per call: on both
    # minimal models and on seeded perturbations of their global and aspect
    # ranks, so no model is judged on the constraint table's aspect masks
    # unless its aspect ranks are the table's profile
    rng = random.Random(19)
    verdicts = set()
    aspect_verdicts = set()
    models = 0
    for kb, dom in _fixpoint_cases():
        bound = default_rank_bound(kb)
        for search in (single_pref_model, minimal_canonical_models):
            try:
                m = search(kb, dom, bound)
            except RankBoundExceededError:
                continue
            m = m[0] if isinstance(m, list) else m
            models += 1
            assert satisfies_kb(m, kb) and satisfies_kb_by_ranks(m, kb), kb
            for bumped in _perturbed(m, rng, bound):
                verdict = satisfies_kb(bumped, kb)
                assert verdict == satisfies_kb_by_ranks(bumped, kb), (kb, bumped.per_aspect)
                verdicts.add(verdict)
                if bumped.rank_masks is m.rank_masks:
                    aspect_verdicts.add(verdict)
    assert models > 1000
    assert verdicts == aspect_verdicts == {True, False}
    # a model of `T(A) => C`, `T(B) => C` has elements with B and not A, so
    # it is no model of the same KB with `B => A`
    kb = parse_kb("T(A) => C\nT(B) => C\n")
    m = single_pref_model(kb, domain_of(kb))
    strict = parse_kb("B => A\nT(A) => C\nT(B) => C\n")
    assert satisfies_kb(m, kb) and not satisfies_kb(m, strict)
    assert not satisfies_kb_by_ranks(m, strict)


def test_shared_failure_gives_every_row_its_error(tmp_path, capsys):
    kb_file = tmp_path / "chain3.kb"
    kb_file.write_text(chain_text(3))
    queries = tmp_path / "queries.txt"
    queries.write_text("T(C2) => P\nT((C2 and Blond)) => P\n")
    assert main(["compare", "--json", str(kb_file), str(queries)]) == 2
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[0]["error"] == rows[1]["error"]
    assert rows[0]["error"].startswith("no admissible rank assignment: rule (a) puts class")


# ------------------------------------------------- coupling and orders


def test_order_matches_pairwise_dominance_on_graded_ranks():
    # seeded aspect ranks 0..2 over 1..4 aspects, some rank left empty: the
    # cells partition the domain, each cell holds exactly the elements of
    # its rank vector, and `above` (`below`) holds the other cells whose
    # vectors are at least (at most) its own in every aspect, ids in order
    # of vector sum, then lowest element
    rng = random.Random(29)
    graded = 0
    for _ in range(400):
        size = rng.randint(1, 40)
        full = (1 << size) - 1
        ranks = [[rng.randrange(rng.randint(1, 3)) for _ in range(size)]
                 for _ in range(rng.randint(1, 4))]
        masks = [[sum(1 << i for i, r in enumerate(column) if r == t)
                  for t in range(max(column) + 1)] for column in ranks]
        cells, above, below = _order(full, masks)
        assert sum(cell for cell, _ in cells) == full and all(cell for cell, _ in cells)
        for cell, vector in cells:
            assert {tuple(column[i] for column in ranks) for i in elements(cell)} == {vector}
        keys = [(sum(vector), elements(cell)[0]) for cell, vector in cells]
        assert keys == sorted(keys)
        vectors = [vector for _, vector in cells]
        for k, mine in enumerate(vectors):
            others = [(j, v) for j, v in enumerate(vectors) if j != k]
            assert above[k] == sum(1 << j for j, v in others
                                   if all(a >= b for a, b in zip(v, mine)))
            assert below[k] == sum(1 << j for j, v in others
                                   if all(a <= b for a, b in zip(v, mine)))
        graded += any(2 in vector for vector in vectors) and any(below)
    assert graded > 100


def test_coupling_flags_misordered_models(kb_set3):
    dom = domain_of(kb_set3)
    profile = least_profile(dom, kb_set3)
    good = minimal_canonical_models(kb_set3, domain=dom)[0]
    # raising a most-typical non-violator above a violator breaks rule (a)
    bad_ranks = list(good.global_ranks)
    full_bird = next(i for i in range(dom.size)
                     if atom_signature(dom, i) == frozenset({"Bird", "Fly", "HasNiceFeather"}))
    bad_ranks[full_bird] = 4
    bad = model_of(dom, bad_ranks, profile)
    assert not check_coupling(bad, kb_set3)


def test_coupling_flags_rule_b_alone(kb_set3):
    dom = domain_of(kb_set3)
    good = minimal_canonical_models(kb_set3, domain=dom)[0]
    # the flying penguin violates only T(Penguin) => not Fly, whose
    # antecedent has concept rank 1; the flightless, featherless penguin
    # violates two bird defaults (concept rank 0) and ranks 2, so rule (b)
    # forces the flying penguin above 2. Their violated aspects are not
    # nested, so lowering it to 2 leaves every rule (a) pair in order.
    sig = frozenset({"Bird", "Fly", "HasNiceFeather", "Penguin"})
    flying = next(i for i in range(dom.size) if atom_signature(dom, i) == sig)
    assert good.global_ranks[flying] == 3
    ranks = list(good.global_ranks)
    ranks[flying] = 2
    bad = model_of(dom, ranks, good.per_aspect)
    aspects = [[r[i] for _, r in bad.per_aspect] for i in range(dom.size)]
    for x, y in itertools.permutations(range(dom.size), 2):
        if aspects[x] != aspects[y] and all(a <= b for a, b in zip(aspects[x], aspects[y])):
            assert ranks[x] < ranks[y], (x, y)
    assert satisfies_kb(bad, kb_set3)
    assert not check_coupling(bad, kb_set3)


def test_coupling_converse_flag():
    # without defeasible axioms nothing is forced, so any ranks couple
    kb = KnowledgeBase.build([Strict(A, B)])
    dom = domain_of(kb)
    profile = least_profile(dom, kb)
    flat = model_of(dom, (0,) * dom.size, profile)
    bumpy = model_of(dom, (1,) + (0,) * (dom.size - 1), profile)
    assert check_coupling(flat, kb)
    assert check_coupling(bumpy, kb)


# ------------------------------------- exhaustive micro cross-checks


MICRO_KBS = [
    KnowledgeBase.build([Defeasible(A, B)]),
    KnowledgeBase.build([Defeasible(A, B), Defeasible(And(A, B), C)]),
    KnowledgeBase.build([Strict(B, A), Defeasible(A, C), Defeasible(B, Not(C))]),
    KnowledgeBase.build([Defeasible(A, Exists("r", B))]),
]


def test_single_pref_model_is_least_of_all_models():
    for kb in MICRO_KBS:
        dom = domain_of(kb)
        bound = 2
        valid = enumerate_single_models(dom, kb, bound)
        least = single_pref_model(kb, rank_bound=bound, domain=dom)
        assert least.global_ranks in valid
        floor = tuple(min(g[i] for g in valid) for i in range(dom.size))
        assert least.global_ranks == floor


def test_frontier_matches_enumerated_minima():
    for kb in MICRO_KBS:
        dom = domain_of(kb)
        bound = 2
        valid = enumerate_enriched_globals(dom, kb, bound)
        expected = sorted(pointwise_minima(valid))
        got = sorted(m.global_ranks for m in
                     minimal_canonical_models(kb, rank_bound=bound, domain=dom))
        assert got == expected


def test_all_model_entailment_matches_enumeration():
    rng = random.Random(41)
    for kb in MICRO_KBS:
        dom = domain_of(kb)
        bound = 2
        singles = enumerate_single_models(dom, kb, bound)
        enriched = enumerate_enriched_globals(dom, kb, bound)
        members = sorted(subconcept_closure(kb), key=concept_key)
        queries = [Defeasible(x, y)
                   for x in rng.sample(members, 4) for y in rng.sample(members, 4)]
        for q in queries:
            want_single = all(holds_in_ranks(dom, g, q) for g in singles)
            want_enr = all(holds_in_ranks(dom, g, q) for g in enriched)
            assert entails_in_all_single_models(kb, q, dom, rank_bound=bound) \
                == want_single, q
            assert entails_in_all_enriched_models(kb, q, dom, rank_bound=bound) \
                == want_enr, q


def test_minimal_entailment_agrees_with_rc_on_micro_kbs():
    for kb in MICRO_KBS:
        ranked = RankedTBox(kb)
        model = single_pref_model(kb, build_canonical_domain(ranked))
        members = sorted(subconcept_closure(kb), key=concept_key)
        for x, y in itertools.product(members, members):
            q = Defeasible(x, y)
            assert in_rational_closure(ranked, q) == placed_verdict(ranked, model, q), q


# ------------------------------------------------------------- ABox


def test_abox_mapping(kb_set3):
    m = single_pref_model(kb_set3, domain_of(kb_set3))
    kb = parse_kb(
        "Penguin => Bird\n"
        "T(Bird) => HasNiceFeather\n"
        "T(Bird) => Fly\n"
        "T(Penguin) => not Fly\n"
        "Bird(tweety)\n"
        "T(Penguin)(pingu)\n"
        "knows(tweety, pingu)\n"
    )
    mapping = find_abox_mapping(m, kb)
    assert mapping is not None
    assert mapping["tweety"] in element_set(m.domain.eval(Atom("Bird")))
    assert mapping["pingu"] in element_set(least(m.rank_masks, m.domain.eval(Atom("Penguin"))))
    # 1,500 individuals, far more than Python's recursion limit: each maps
    # to the least bird, the search's first candidate
    many = parse_kb(SET3_TEXT + "".join(f"Bird(b{i})\n" for i in range(1500)))
    first_bird = min(element_set(m.domain.eval(Atom("Bird"))))
    assert find_abox_mapping(m, many) == {f"b{i}": first_bird for i in range(1500)}


def test_abox_mapping_is_the_first_in_search_order():
    # the search takes the individuals in order of first assertion and
    # each one's candidates ascending, so the mapping it finds is the
    # lexicographically least that fits. An A's r-successors are B and a
    # non-A's are not: the first two ABoxes make it go back to `a`'s next
    # candidate, and the last two have no mapping
    tbox = "A => forall r. B\nnot A => forall r. not B\nB => exists r. A\n"
    for abox in ("r(a, b)\nnot B(b)\n", "r(a, b)\nr(b, c)\nnot B(c)\n",
                 "r(a, b)\nr(b, a)\nnot B(a)\n", "T(A)(c)\nr(a, b)\nr(b, c)\nr(c, d)\n",
                 "r(a, b)\nr(b, c)\nB(c)\nnot A(b)\n", "r(a, b)\nr(a, c)\nB(b)\nnot B(c)\n"):
        kb = parse_kb(tbox + abox)
        m = single_pref_model(kb, domain_of(kb))
        names = list(dict.fromkeys(
            name for a in kb.abox for name in ((a.individual,) if isinstance(a, ConceptAssertion)
                                               else (a.subject, a.target))))

        def fits(mapping):
            for a in kb.abox:
                if isinstance(a, ConceptAssertion):
                    ext = m.domain.eval(a.concept)
                    if a.typical:
                        ext = least(m.rank_masks, ext)
                    if not ext >> mapping[a.individual] & 1:
                        return False
                elif a.role in m.domain.successors:
                    sets, of = m.domain.successors[a.role]
                    if not sets[of[mapping[a.subject]]] >> mapping[a.target] & 1:
                        return False
            return True

        expect = next((mapping for mapping in (
            dict(zip(names, picks)) for picks in itertools.product(
                range(m.domain.size), repeat=len(names))) if fits(mapping)), None)
        assert find_abox_mapping(m, kb) == expect, abox


def test_abox_mapping_conflict(kb_set3):
    m = single_pref_model(kb_set3, domain_of(kb_set3))
    kb = parse_kb(
        "Penguin => Bird\n"
        "T(Bird) => HasNiceFeather\n"
        "T(Bird) => Fly\n"
        "T(Penguin) => not Fly\n"
        "T(Penguin)(pingu)\n"
        "Fly(pingu)\n"
    )
    # a typical penguin cannot fly in the least model
    assert find_abox_mapping(m, kb) is None


def test_abox_empty_maps_trivially(kb_set3):
    m = single_pref_model(kb_set3, domain_of(kb_set3))
    assert find_abox_mapping(m, kb_set3) == {}
