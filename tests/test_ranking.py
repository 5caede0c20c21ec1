import math
import random

import pytest

import typika.ranking
import typika.tableau
from typika.cli import main
from typika.kb import Defeasible, KnowledgeBase, Strict, subconcept_closure
from typika.parser import parse_axiom, parse_concept, parse_kb
from typika.ranking import (
    CanonicalDomain,
    Extensions,
    RankedTBox,
    _TypeElimination,
    _beyond,
    bitmask,
    elements,
    highest,
    in_rational_closure,
    is_kb_consistent,
    satisfiable_wrt_kb,
    select,
)
from typika.syntax import (TOP, And, Atom, Concept, Exists, Forall, Not, Or, concept_key,
                           concept_to_text, to_nnf)
from typika.tableau import StrictTBox

from conftest import KBS
from corpus import corpus_kbs, defeasible_queries
from families import RANK_INFINITY, chain, diamond, role_free_pools, role_kbs
from oracles import (
    TableauRanks,
    levels_by_level_enumeration,
    outside_by_full_walk,
    random_concept,
    survivors_by_level_enumeration,
)
from test_cli import fresh_rows, role_fresh_rows
from test_models import random_kbs_with_domains

A, B, C = Atom("A"), Atom("B"), Atom("C")


def test_set3_levels_and_ranks(kb_set3):
    # levels shrink: all three axioms, then the penguin default, then nothing
    rt = RankedTBox(kb_set3)
    assert [len(lv) for lv in rt.levels] == [3, 1, 0]
    assert rt.levels[1] == (Defeasible(Atom("Penguin"), Not(Atom("Fly"))),)
    assert rt.rank(Atom("Bird")) == 0
    assert rt.rank(Atom("Penguin")) == 1
    assert rt.rank(parse_concept("(Penguin and Fly)")) == 2
    assert rt.rank(parse_concept("(Penguin and not Fly)")) == 1
    assert rt.rank(parse_concept("(Penguin and not Bird)")) == math.inf
    # finite ranks are plain ints
    assert type(rt.rank(Atom("Penguin"))) is int


def test_one_tableau_call_per_kb(kb_set3, monkeypatch, capsys):
    """Stratifying a KB makes exactly one tableau call, the consistency
    cross-check, on the strict axioms plus the last level's defaults as
    inclusions; ranks, fresh-atom ones included, and rational-closure
    verdicts make none, and neither does `compare`'s domain build."""
    calls = []
    original = typika.tableau.is_satisfiable

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(typika.tableau, "is_satisfiable", counting)
    # set3's last level is empty; every default of this KB stays to the last
    kb = parse_kb(RANK_INFINITY["pairs"])
    rt = RankedTBox(kb)
    assert rt.levels[-1] == kb.defeasible
    assert [args[1] for args in calls] == [StrictTBox.from_axioms(kb.defeasible)]
    calls.clear()
    rt = RankedTBox(kb_set3)
    assert [args[1] for args in calls] == [StrictTBox.from_axioms(kb_set3.strict + rt.levels[-1])]
    for text in ("Bird", "Penguin", "(Penguin and Fly)", "(Penguin and not Bird)",
                 "(Penguin and Blond)"):
        rt.rank(parse_concept(text))
    for text in ("T(Bird) => Fly", "T(Penguin) => HasNiceFeather",
                 "T((Penguin and Blond)) => not Fly", "Penguin => Bird"):
        in_rational_closure(rt, parse_axiom(text))
    assert len(calls) == 1
    calls.clear()
    assert main(["compare", "--json", str(KBS / "set3.kb"),
                 str(KBS / "set3_queries.txt")]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_cross_check_disagreement_is_an_internal_error(kb_set3, monkeypatch, capsys):
    """A tableau verdict that contradicts type elimination on the KB's
    consistency raises, and `compare` reports it as an internal error:
    exit 2, the message on stderr and nothing on stdout."""
    original = typika.ranking.entails_strict
    monkeypatch.setattr(typika.ranking, "entails_strict",
                        lambda *args: not original(*args))
    with pytest.raises(AssertionError, match="type elimination and the tableau disagree"):
        RankedTBox(kb_set3)
    code = main(["compare", "--json", str(KBS / "set3.kb"), str(KBS / "set3_queries.txt")])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == ("internal error: AssertionError: type elimination and the tableau "
                       "disagree on the consistency of the knowledge base\n")


def test_ranks_match_tableau_reference():
    """Type elimination gives the levels and ranks of the tableau-driven
    reference (`oracles.TableauRanks`) on the corpus, `chain(1..5)`,
    `diamond(1..3)` and the role KBs: 27,320 ranks of every closure member,
    every `C and not D` over closure pairs, and every member conjoined with
    a fresh atom.

    Mutation checks in a copy of the code: ranking every type at the last
    level's survivors (every finite rank 0) fails on the first corpus KB,
    and skipping `eliminate` fails on the role KB `exists-forall`, which
    then loses its middle level.
    """
    kbs = corpus_kbs() + [chain(n) for n in range(1, 6)]
    kbs += [diamond(n) for n in (1, 2, 3)] + list(role_kbs().values())
    blond = Atom("Blond")
    count = 0
    for kb in kbs:
        members = sorted(subconcept_closure(kb), key=concept_key)
        concepts = members + [And(c, Not(d)) for c in members for d in members]
        concepts += [And(c, blond) for c in members]
        reference, rt = TableauRanks(kb), RankedTBox(kb)
        assert rt.levels == reference.levels, kb
        for c in concepts:
            assert rt.rank(c) == reference.rank(c), (kb, c)
        count += len(concepts)
    assert count == 27320


def test_levels_match_one_enumeration_per_level():
    """The levels, and each level's survivors, codes and order, equal
    those of one enumeration per level, `candidates(strict + level)` (the
    references in `oracles`), on the KB's own table, which filters one
    enumeration for every level, and on the tables widened as a query
    widens them, by a fresh atom and, on a KB with roles, by a fresh
    restriction: on the corpus, `chain(1..6)`, `diamond(1..5)`, the role
    KBs, the 500 seeded random KBs of `test_models` (seeds 7 and 8), the
    larger role-free pool and the two KBs of `RANK_INFINITY`.

    Mutation check in a copy of the code: keeping a default group whose
    consequents are consistent (`_kept` without its test) fails on the
    corpus."""
    kbs = corpus_kbs() + [chain(n) for n in range(1, 7)] + [diamond(n) for n in range(1, 6)]
    kbs += list(role_kbs().values()) + [kb for kb, _ in random_kbs_with_domains()]
    kbs += role_free_pools()["larger"] + [parse_kb(text) for text in RANK_INFINITY.values()]
    blond = Atom("Blond")
    tables = 0
    for kb in kbs:
        rt = RankedTBox(kb)
        assert rt.levels == levels_by_level_enumeration(kb), kb
        widenings = [(), (blond,)]
        if any(isinstance(c, (Exists, Forall)) for c in rt.closure):
            widenings.append((Exists("r", blond),))
        for widening in widenings:
            table = rt.table(widening)
            want = survivors_by_level_enumeration(kb, subconcept_closure(kb, widening), rt.levels)
            assert [select(table.codes, alive) for alive in table.levels] == want, (kb, widening)
            tables += 1
    assert tables > 2 * len(kbs) + 100


def test_defaults_whose_consequent_folds_to_bot_prune_as_bot_does(monkeypatch):
    # a consequent that is `bot` once in NNF with its constants folded
    # (`not top`, `(bot or bot)`, `((B or D) and bot)`) keeps its default
    # in every level, as `bot` does, so the one enumeration prunes the A_i:
    # the levels of the per-level reference, and as many codes as the
    # `bot` KB lists, times the 2^2 values of B and D where the consequent
    # adds them to the closure (it listed 2^12 or 2^14 without the folding)
    sizes = []
    candidates = _TypeElimination.candidates

    def counted(self, axioms):
        codes = candidates(self, axioms)
        sizes.append(len(codes))
        return codes

    monkeypatch.setattr(_TypeElimination, "candidates", counted)
    listed = {}
    for rhs in ("bot", "not top", "(bot or bot)", "((B or D) and bot)"):
        kb = parse_kb("".join(f"T(A{i}) => {rhs}\n" for i in range(12)))
        want = levels_by_level_enumeration(kb)
        sizes.clear()
        assert RankedTBox(kb).levels == want == [kb.defeasible], rhs
        listed[rhs] = sizes[:]
    assert listed == {"bot": [1], "not top": [1], "(bot or bot)": [1],
                      "((B or D) and bot)": [4]}


def test_the_walk_outside_the_closure_stops_at_members():
    # every subconcept of a closure member is a member, so the walk that
    # `outside`, the table key and `lift` share stops at members and finds
    # what a walk into them finds: on every closure query of the corpus, the
    # families, the role KBs and the seeded pools, and on fresh-atom,
    # conjunction and restriction rows over each
    rng = random.Random(17)
    kbs = corpus_kbs() + [chain(n) for n in range(1, 5)] + [diamond(n) for n in range(1, 4)]
    kbs += list(role_kbs().values()) + [kb for pool in role_free_pools().values() for kb in pool]
    fish = Exists("eats", Atom("Fish"))
    walks = found = 0
    for kb in kbs:
        rt = RankedTBox(kb)
        queries = defeasible_queries(kb) + fresh_rows(kb, rng)
        queries += [Defeasible(And(q.lhs, fish), Or(q.rhs, Forall("r", q.lhs)))
                    for q in fresh_rows(kb, rng, 3)]
        if any(isinstance(c, (Exists, Forall)) for c in rt.closure):
            queries += role_fresh_rows(kb)
        for q in queries:
            beyond, outside = outside_by_full_walk(rt, (q.lhs, q.rhs))
            assert set(_beyond((q.lhs, q.rhs), rt.closure)) == beyond, (kb, q)
            assert rt.outside((q.lhs, q.rhs)) == outside, (kb, q)
            walks += 1
            found += bool(beyond)
    # 254,706 walks, 8,150 of them leaving the closure
    assert walks > 250000 and found > 8000


def _placed_by_the_general_path(rt, q):
    """A query's table, masks and atoms as the general path finds them,
    for any query: the table of its restrictions outside the closure, and
    its masks OR-ed over the variants that lifting its atoms gives."""
    restrictions, atoms = rt.outside((q.lhs, q.rhs))
    table = rt.table(restrictions)
    lhs = off = 0
    for left, right in table.lift((q.lhs, q.rhs), atoms):
        ext = table.eval(left)
        lhs, off = lhs | ext, off | ext & ~table.eval(right)
    return table, lhs, off, atoms


def test_a_closure_query_is_placed_without_widening_or_lifting(monkeypatch):
    # a query with nothing outside the closure takes the KB's own table
    # from one walk (`outside`), with no second walk (`table`) and its
    # masks read with no lifting (`lift`); what it is placed on and its
    # masks are those of the general path
    kbs = corpus_kbs() + [chain(n) for n in range(1, 5)] + [diamond(n) for n in range(1, 4)]
    kbs += list(role_kbs().values())
    calls = {"outside": 0, "table": 0, "lift": 0}
    for owner, name in ((RankedTBox, "outside"), (RankedTBox, "table"),
                        (CanonicalDomain, "lift")):
        def counting(self, *args, name=name, call=getattr(owner, name)):
            calls[name] += 1
            return call(self, *args)

        monkeypatch.setattr(owner, name, counting)
    placed = 0
    for kb in kbs:
        rt = RankedTBox(kb)
        for q in defeasible_queries(kb):
            before = dict(calls)
            hit = rt.place(q)
            assert calls == {**before, "outside": before["outside"] + 1}, (kb, q)
            assert hit[0] is rt.table(()) and hit[3] == frozenset()
            assert hit == _placed_by_the_general_path(rt, q), (kb, q)
            placed += 1
    # 21,992 queries
    assert placed > 20000


def test_totally_exceptional_defaults_prune_every_enumeration(monkeypatch):
    # twelve defaults T(A_i) => bot stay in every level, so every
    # enumeration, of the KB's own closure and of a widened one, prunes
    # the A_i: 2^12 codes or more would mean an enumeration without them.
    # The defaults of the `RANK_INFINITY` KBs stay in every level too, and
    # each antecedent's consequents are contradictory, so the
    # stratification's one enumeration prunes them (`ranking._kept`): it
    # lists no more codes than the reference's last-level enumeration,
    # where the strict axioms alone would give 2^12 and 2^16
    kb = parse_kb("".join(f"T(A{i}) => bot\n" for i in range(12))
                  + "T(B) => C\nT((B and D)) => not C\n")
    sizes = []
    candidates = _TypeElimination.candidates

    def counted(self, axioms):
        codes = candidates(self, axioms)
        sizes.append(len(codes))
        return codes

    monkeypatch.setattr(_TypeElimination, "candidates", counted)
    rt = RankedTBox(kb)
    assert [len(lv) for lv in rt.levels] == [14, 13, 12]
    assert rt.rank(Atom("Blond")) == 0 and rt.rank(Atom("A0")) == math.inf
    # a fresh atom is ranked on the KB's own table; a domain widened by it
    # asks for the widened table
    assert rt.table((Atom("Blond"),)).codes
    assert len(rt._tables) == 2
    assert sizes and max(sizes) <= 32
    for text in RANK_INFINITY.values():
        kb = parse_kb(text)
        levels = levels_by_level_enumeration(kb)
        last = len(_TypeElimination(subconcept_closure(kb)).candidates(kb.strict + levels[-1]))
        sizes.clear()
        rt = RankedTBox(kb)
        assert rt.levels == levels == [kb.defeasible] and rt.rank(Atom("A0")) == math.inf
        assert sizes == [last] and last <= 256


def test_bit_kernels_match_a_scan():
    # the column kernel and the mask helpers agree with scans of every
    # element, on codes of one byte and of several
    rng = random.Random(5)
    for width in (3, 17, 64, 65, 130):
        bits = {Atom(f"X{k}"): 1 << k for k in range(width)}
        codes = [rng.getrandbits(width) for _ in range(rng.randint(0, 300))]
        ext = Extensions(bits, codes)
        for b in bits.values():
            assert ext.on(b) == sum(1 << i for i, c in enumerate(codes) if c & b)
        mask = rng.getrandbits(len(codes))
        assert elements(mask) == [i for i in range(len(codes)) if mask >> i & 1]
        assert select(codes, mask) == [c for i, c in enumerate(codes) if mask >> i & 1]
        assert bitmask(c & 1 for c in codes) == sum(1 << i for i, c in enumerate(codes) if c & 1)
        masks = [rng.getrandbits(len(codes)) & rng.getrandbits(len(codes)) for _ in range(4)]
        assert highest(masks, mask) == max((r for r, m in enumerate(masks) if m & mask),
                                           default=-1)
    assert highest([1, 2], 4) == -1


def test_set1_levels_and_ranks(kb_set1):
    rt = RankedTBox(kb_set1)
    assert [len(lv) for lv in rt.levels] == [3, 2, 1, 0]
    assert rt.rank(parse_concept("Student")) == 0
    assert rt.rank(parse_concept("(Worker and Student)")) == 1
    assert rt.rank(parse_concept("((Worker and Apprentice) and Student)")) == 2


def test_no_defeasible_kb():
    kb = KnowledgeBase.build([Strict(A, B)])
    rt = RankedTBox(kb)
    assert rt.levels == [()]
    assert rt.rank(A) == 0
    assert rt.rank(And(A, Not(B))) == math.inf


def test_inconsistent_kb():
    rt = RankedTBox(parse_kb("A => bot\ntop => A\n"))
    assert not is_kb_consistent(rt)
    assert rt.rank(TOP) == math.inf


def test_totally_exceptional_antecedent():
    kb = KnowledgeBase.build([Defeasible(A, C), Defeasible(A, Not(C))])
    rt = RankedTBox(kb)
    # the level sequence stops at its nonempty fixpoint
    assert rt.levels == [tuple(kb.defeasible)]
    assert rt.rank(A) == math.inf
    assert is_kb_consistent(rt)


def test_rank_antitone_under_conjunction(kb_set3):
    rt = RankedTBox(kb_set3)
    rng = random.Random(31)
    atoms = ("Bird", "Fly", "HasNiceFeather", "Penguin")
    for _ in range(60):
        c = random_concept(rng, atoms, (), depth=3)
        d = random_concept(rng, atoms, (), depth=3)
        assert rt.rank(And(c, d)) >= rt.rank(c)


def test_satisfiable_wrt_kb(kb_set3):
    rt = RankedTBox(kb_set3)
    assert satisfiable_wrt_kb(rt, parse_concept("(Penguin and Fly)"))
    assert not satisfiable_wrt_kb(rt, parse_concept("(Penguin and not Bird)"))
    assert satisfiable_wrt_kb(rt, And(Atom("Penguin"), Not(Atom("Fly"))))


def test_rc_specificity(kb_set3):
    rt = RankedTBox(kb_set3)
    assert in_rational_closure(rt, parse_axiom("T(Bird) => Fly"))
    assert in_rational_closure(rt, parse_axiom("T(Penguin) => not Fly"))
    assert not in_rational_closure(rt, parse_axiom("T(Penguin) => Fly"))
    # the drowning effect: untouched typical-bird properties are not inherited
    assert not in_rational_closure(rt, parse_axiom("T(Penguin) => HasNiceFeather"))


def test_rc_strict_queries(kb_set3):
    rt = RankedTBox(kb_set3)
    assert in_rational_closure(rt, parse_axiom("Penguin => Bird"))
    assert not in_rational_closure(rt, parse_axiom("Bird => Penguin"))
    assert in_rational_closure(rt, parse_axiom("(Penguin and not Bird) => bot"))


def test_rc_reflexivity_property(kb_set3, kb_set1):
    rng = random.Random(32)
    for kb, atoms in ((kb_set3, ("Bird", "Fly", "Penguin")),
                      (kb_set1, ("Student", "Worker", "EarnMoney"))):
        rt = RankedTBox(kb)
        for _ in range(30):
            c = random_concept(rng, atoms, (), depth=3)
            assert in_rational_closure(rt, Defeasible(c, c))


def test_rc_vacuous_on_infinite_rank():
    kb = KnowledgeBase.build([Defeasible(A, C), Defeasible(A, Not(C))])
    assert in_rational_closure(RankedTBox(kb), Defeasible(A, B))


def test_rc_irrelevance(kb_set1):
    assert in_rational_closure(
        RankedTBox(kb_set1), parse_axiom("T((Student and Blond)) => not EarnMoney"))


def test_rc_rejects_non_axiom():
    with pytest.raises(TypeError):
        in_rational_closure(RankedTBox(KnowledgeBase.build([])), Atom("A"))
    # nor is a bare `Concept` evaluated, normalised or printed, each
    # refused where it is read, not by a `repr` building the message
    for read, where in ((Extensions({}, [0]), "__call__"), (to_nnf, "to_nnf"),
                        (concept_to_text, "_render")):
        with pytest.raises(TypeError, match="^not a concept: Concept$") as raised:
            read(Concept())
        assert raised.traceback[-1].name == where


def test_rc_over_fresh_kbs():
    for i in range(100):
        rt = RankedTBox(parse_kb(f"B{i} => A{i}\nT(A{i}) => C{i}\nT(B{i}) => not C{i}\n"))
        assert in_rational_closure(rt, parse_axiom(f"T(B{i}) => not C{i}"))
        assert not in_rational_closure(rt, parse_axiom(f"T(B{i}) => C{i}"))
