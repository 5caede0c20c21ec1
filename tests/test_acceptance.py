"""End-to-end acceptance gate: seven checks, one printed pass/fail line each.

Each check is exact (exit codes, byte equality, 100% agreement over generated
corpora); run with `-s` to see the per-criterion lines as they pass.
"""

import functools
import itertools
import json
import os
import random
import subprocess
import sys

from typika.kb import Defeasible, Strict, serialize_axiom, serialize_kb
from typika.models import (
    RankBoundExceededError,
    build_canonical_domain,
    minimal_canonical_models,
    single_pref_model,
)
from typika.parser import parse_axiom, parse_concept, parse_kb
from typika.ranking import RankedTBox, counterexamples, in_rational_closure, least
from typika.syntax import And, Atom, subconcepts
from typika.tableau import is_satisfiable

from conftest import GOLDEN, KBS, REPO, SET1_TEXT, SET3_TEXT
from corpus import corpus_kbs, defeasible_queries, strict_queries
from families import chain, chain_text, diamond, diamond_text, role_free_pools
from oracles import (
    brute_force_satisfiable,
    entails_in_all_enriched_models,
    entails_in_all_single_models,
    random_concept,
    witness_checks_out,
)
from test_tableau import UNSAT_CASES, tbox

SET3 = str(KBS / "set3.kb")
SET1 = str(KBS / "set1.kb")
SET3_QUERIES = str(KBS / "set3_queries.txt")
SET1_QUERIES = str(KBS / "set1_queries.txt")


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n} ({label}): FAIL", flush=True)
                raise
            print(f"ACCEPTANCE {n} ({label}): PASS", flush=True)
        return wrapper
    return deco


def cli(*args):
    # pyproject's `pythonpath` reaches pytest, not the processes it starts
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, "-m", "typika", *args],
                          capture_output=True, text=True, env=env)


def holds(model, query):
    dom = model.domain
    lhs = dom.eval(query.lhs)
    if isinstance(query, Defeasible):
        lhs = least(model.rank_masks, lhs)
    return not lhs & ~dom.eval(query.rhs)


def placed_verdict(ranked, model, query):
    """A model verdict as the CLI reads it: the query's two masks on the
    table it is placed on, the model's domain, meet no counterexample
    under the model's rank masks."""
    table, lhs, off, _ = ranked.place(query)
    assert table is model.domain, serialize_axiom(query)
    return not counterexamples(model.rank_masks, query, lhs, off)


def all_queries(kb):
    return itertools.chain(defeasible_queries(kb), strict_queries(kb))


def replay(kb, query):
    """A failing case as KB text and query text, to replay with the CLI."""
    return f"{serialize_kb(kb)}query: {serialize_axiom(query)}"


def with_domain(kb):
    """A KB with its stratification and its canonical domain."""
    ranked = RankedTBox(kb)
    return kb, ranked, build_canonical_domain(ranked)


@functools.lru_cache(maxsize=None)
def corpus_with_domains():
    return tuple(with_domain(kb) for kb in corpus_kbs())


@functools.lru_cache(maxsize=None)
def pools_with_domains():
    """The seeded role-free pools of `families.role_free_pools`, 400 KBs."""
    return tuple(with_domain(kb) for pool in role_free_pools().values() for kb in pool)


@functools.lru_cache(maxsize=None)
def corpus_minimal_models():
    return tuple((kb, ranked, tuple(minimal_canonical_models(kb, domain=dom)))
                 for kb, ranked, dom in corpus_with_domains())


@criterion(1, "penguin exemplar exit codes")
def test_criterion_1_penguin_exemplar():
    hnf = "T(Penguin) => HasNiceFeather"
    nofly = "T(Penguin) => not Fly"
    assert cli("query", "--semantics", "rc", SET3, hnf).returncode == 1
    assert cli("query", "--semantics", "enriched", SET3, hnf).returncode == 0
    assert cli("query", "--semantics", "rc", SET3, nofly).returncode == 0
    assert cli("query", "--semantics", "enriched", SET3, nofly).returncode == 0


@criterion(2, "irrelevant detail does not disturb rank entailment")
def test_criterion_2_irrelevance(kb_set1, tmp_path):
    out = cli("rank", SET1)
    assert out.returncode == 0
    assert out.stdout == (GOLDEN / "set1_rank.txt").read_text()
    rt = RankedTBox(kb_set1)
    for text, want in (("Student", 0),
                       ("(Worker and Student)", 1),
                       ("((Worker and Apprentice) and Student)", 2)):
        assert rt.rank(parse_concept(text)) == want, text
    assert in_rational_closure(
        rt, parse_axiom("T((Student and Blond)) => not EarnMoney"))
    # under all three semantics, through `compare`: each default T(C) => D
    # and T((C and Blond)) => D, with an atom no axiom mentions, get the
    # same verdicts
    blond = Atom("Blond")
    kbs = {"set1": SET1_TEXT, "set3": SET3_TEXT, "chain1": chain_text(1),
           "chain2": chain_text(2), "diamond1": diamond_text(1), "diamond2": diamond_text(2)}
    for name, text in kbs.items():
        kb = parse_kb(text)
        assert all(blond not in subconcepts(side)
                   for ax in kb.axioms for side in (ax.lhs, ax.rhs)), name
        queries = [q for ax in kb.defeasible
                   for q in (ax, Defeasible(And(ax.lhs, blond), ax.rhs))]
        (tmp_path / f"{name}.kb").write_text(text)
        (tmp_path / f"{name}.txt").write_text("".join(serialize_axiom(q) + "\n" for q in queries))
        out = cli("compare", "--json", str(tmp_path / f"{name}.kb"), str(tmp_path / f"{name}.txt"))
        rows = json.loads(out.stdout)["rows"]
        assert len(rows) == len(queries) and out.stderr == "", name
        verdicts = [(row["rc"], row["singlePref"], row["enriched"]) for row in rows]
        assert verdicts[::2] == verdicts[1::2], name


@criterion(3, "rank entailment matches the least single-preference model")
def test_criterion_3_rank_vs_single_pref():
    # every closure query of the corpus; every defeasible one of the pools
    cases = [(case, all_queries(case[0])) for case in corpus_with_domains()]
    cases += [(case, defeasible_queries(case[0])) for case in pools_with_domains()]
    checked = 0
    for (kb, ranked, dom), queries in cases:
        model = single_pref_model(kb, dom)
        for q in queries:
            want = in_rational_closure(ranked, q)
            got = placed_verdict(ranked, model, q)
            assert got == want, replay(kb, q)
            checked += 1
    assert checked > 260000  # 38,672 queries of the corpus, 224,564 of the pools


@criterion(4, "rank entailment is contained in enriched entailment")
def test_criterion_4_rank_within_enriched(kb_set3, kb_set1):
    pool = [(models, all_queries(models[0])) for models in corpus_minimal_models()]
    for kb in [chain(n) for n in (1, 2)] + [diamond(n) for n in (1, 2, 3, 4)] \
            + [kb_set3, kb_set1]:
        _, ranked, dom = with_domain(kb)
        pool.append(((kb, ranked, tuple(minimal_canonical_models(kb, domain=dom))),
                     all_queries(kb)))
    _, set3_ranked, set3_models = pool[-2][0]
    # the seeded pools' defeasible closure queries. Two pool KBs get no
    # enriched model at the default bound (their least ranks pass it); they
    # are counted, not dropped
    no_model = 0
    for kb, ranked, dom in pools_with_domains():
        try:
            models = tuple(minimal_canonical_models(kb, domain=dom))
        except RankBoundExceededError:
            no_model += 1
            continue
        pool.append(((kb, ranked, models), defeasible_queries(kb)))
    assert no_model == 2
    for (kb, ranked, models), queries in pool:
        for q in queries:
            if in_rational_closure(ranked, q):
                assert all(holds(m, q) for m in models), replay(kb, q)
    # and the containment is strict: an enriched-only inference exists
    hnf = parse_axiom("T(Penguin) => HasNiceFeather")
    assert not in_rational_closure(set3_ranked, hnf)
    assert all(holds(m, hnf) for m in set3_models)


@criterion(5, "all-models entailment: equal without typicality, nested with it")
def test_criterion_5_all_models_containment():
    for kb, _, dom in corpus_with_domains():
        for q in strict_queries(kb):
            assert entails_in_all_single_models(kb, q, domain=dom) \
                == entails_in_all_enriched_models(kb, q, domain=dom), (kb, q)
    rng = random.Random(55)
    positives = negatives = 0
    for kb, _, dom in corpus_with_domains():
        if len(kb.defeasible) > 2:
            continue
        queries = rng.sample(defeasible_queries(kb), 2) + [kb.defeasible[0]]
        for q in queries:
            if entails_in_all_single_models(kb, q, domain=dom):
                positives += 1
                assert entails_in_all_enriched_models(kb, q, domain=dom), (kb, q)
            else:
                negatives += 1
    assert positives and negatives


@criterion(6, "tableau agrees with small-model search and emits sound witnesses")
def test_criterion_6_tableau_oracle():
    rng = random.Random(66)
    sat_seen = unsat_seen = 0
    for _ in range(250):
        c = random_concept(rng, "ABCD", roles=(), depth=4)
        res = is_satisfiable(c, want_witness=True)
        if brute_force_satisfiable(c, max_size=3):
            assert res.satisfiable, c
        if res.satisfiable:
            sat_seen += 1
            assert witness_checks_out(res.witness, c), c
        else:
            unsat_seen += 1
    for _ in range(150):
        c = random_concept(rng, "AB", roles="r", depth=4, role_depth=2)
        res = is_satisfiable(c, want_witness=True)
        if res.satisfiable:
            sat_seen += 1
            assert witness_checks_out(res.witness, c), c
        else:
            unsat_seen += 1
            assert not brute_force_satisfiable(c, max_size=3), c
    assert sat_seen and unsat_seen
    assert len(UNSAT_CASES) == 20
    for text, pairs in UNSAT_CASES:
        tb = tbox(*((parse_concept(l), parse_concept(r)) for l, r in pairs))
        assert not is_satisfiable(parse_concept(text), tb), text


@criterion(7, "byte-identical structured compare output")
def test_criterion_7_deterministic_output():
    for kb, queries in ((SET3, SET3_QUERIES), (SET1, SET1_QUERIES)):
        first = cli("compare", "--json", kb, queries)
        second = cli("compare", "--json", kb, queries)
        assert first.returncode == second.returncode == 0
        assert first.stdout and first.stdout == second.stdout
        doc = json.loads(first.stdout)
        assert all("error" not in row for row in doc["rows"])
