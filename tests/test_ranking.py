import random

import pytest

from typika.kb import Defeasible, KnowledgeBase, Strict
from typika.parser import parse_axiom, parse_concept, parse_kb
from typika.ranking import (
    Rank,
    concept_rank,
    in_rational_closure,
    is_kb_consistent,
    materialization,
    ranked_tbox,
    satisfiable_wrt_kb,
)
from typika.syntax import And, Atom, Not, Or, TOP
from typika.tableau import _internalized

from oracles import random_concept

A, B, C = Atom("A"), Atom("B"), Atom("C")


def test_rank_ordering():
    assert Rank(0) < Rank(1) < Rank.INFINITE
    assert Rank(2) <= Rank(2) and Rank.INFINITE <= Rank.INFINITE
    assert Rank.INFINITE.is_infinite and not Rank(5).is_infinite
    assert str(Rank(3)) == "3" and str(Rank.INFINITE) == "inf"


def test_materialization_shape(kb_set3):
    mat = materialization(kb_set3.defeasible)
    bird, fly, hnf, peng = (Atom(n) for n in
                            ("Bird", "Fly", "HasNiceFeather", "Penguin"))
    assert mat == And(Or(Not(bird), hnf),
                      And(Or(Not(bird), fly), Or(Not(peng), Not(fly))))


def test_set3_levels_and_ranks(kb_set3):
    # levels shrink: all three axioms, then the penguin default, then nothing
    rt = ranked_tbox(kb_set3)
    assert [len(lv) for lv in rt.levels] == [3, 1, 0]
    assert rt.levels[1] == (Defeasible(Atom("Penguin"), Not(Atom("Fly"))),)
    assert rt.rank(Atom("Bird")) == Rank(0)
    assert rt.rank(Atom("Penguin")) == Rank(1)
    assert rt.rank(parse_concept("(Penguin and Fly)")) == Rank(2)
    assert rt.rank(parse_concept("(Penguin and not Fly)")) == Rank(1)
    assert rt.rank(parse_concept("(Penguin and not Bird)")) == Rank.INFINITE


def test_set1_levels_and_ranks(kb_set1):
    rt = ranked_tbox(kb_set1)
    assert [len(lv) for lv in rt.levels] == [3, 2, 1, 0]
    assert rt.rank(parse_concept("Student")) == Rank(0)
    assert rt.rank(parse_concept("(Worker and Student)")) == Rank(1)
    assert rt.rank(parse_concept("((Worker and Apprentice) and Student)")) == Rank(2)


def test_no_defeasible_kb():
    kb = KnowledgeBase.build([Strict(A, B)])
    rt = ranked_tbox(kb)
    assert rt.levels == [()]
    assert rt.rank(A) == Rank(0)
    assert rt.rank(And(A, Not(B))) == Rank.INFINITE


def test_inconsistent_kb():
    kb = parse_kb("A => bot\ntop => A\n")
    assert not is_kb_consistent(kb)
    assert concept_rank(kb, TOP).is_infinite


def test_totally_exceptional_antecedent():
    kb = KnowledgeBase.build([Defeasible(A, C), Defeasible(A, Not(C))])
    rt = ranked_tbox(kb)
    # the level sequence stops at its nonempty fixpoint
    assert rt.levels == [tuple(kb.defeasible)]
    assert rt.rank(A).is_infinite
    assert is_kb_consistent(kb)


def test_rank_antitone_under_conjunction(kb_set3):
    rng = random.Random(31)
    atoms = ("Bird", "Fly", "HasNiceFeather", "Penguin")
    for _ in range(60):
        c = random_concept(rng, atoms, (), depth=3)
        d = random_concept(rng, atoms, (), depth=3)
        assert concept_rank(kb_set3, And(c, d)) >= concept_rank(kb_set3, c)


def test_satisfiable_wrt_kb(kb_set3):
    assert satisfiable_wrt_kb(kb_set3, parse_concept("(Penguin and Fly)"))
    assert not satisfiable_wrt_kb(kb_set3, parse_concept("(Penguin and not Bird)"))
    assert satisfiable_wrt_kb(kb_set3, [Atom("Penguin"), Not(Atom("Fly"))])


def test_rc_specificity(kb_set3):
    assert in_rational_closure(kb_set3, parse_axiom("T(Bird) => Fly"))
    assert in_rational_closure(kb_set3, parse_axiom("T(Penguin) => not Fly"))
    assert not in_rational_closure(kb_set3, parse_axiom("T(Penguin) => Fly"))
    # the drowning effect: untouched typical-bird properties are not inherited
    assert not in_rational_closure(kb_set3, parse_axiom("T(Penguin) => HasNiceFeather"))


def test_rc_strict_queries(kb_set3):
    assert in_rational_closure(kb_set3, parse_axiom("Penguin => Bird"))
    assert not in_rational_closure(kb_set3, parse_axiom("Bird => Penguin"))
    assert in_rational_closure(kb_set3, parse_axiom("(Penguin and not Bird) => bot"))


def test_rc_reflexivity_property(kb_set3, kb_set1):
    rng = random.Random(32)
    for kb, atoms in ((kb_set3, ("Bird", "Fly", "Penguin")),
                      (kb_set1, ("Student", "Worker", "EarnMoney"))):
        for _ in range(30):
            c = random_concept(rng, atoms, (), depth=3)
            assert in_rational_closure(kb, Defeasible(c, c))


def test_rc_vacuous_on_infinite_rank():
    kb = KnowledgeBase.build([Defeasible(A, C), Defeasible(A, Not(C))])
    assert in_rational_closure(kb, Defeasible(A, B))


def test_rc_irrelevance(kb_set1):
    assert in_rational_closure(
        kb_set1, parse_axiom("T((Student and Blond)) => not EarnMoney"))


def test_rc_rejects_non_axiom():
    with pytest.raises(TypeError):
        in_rational_closure(KnowledgeBase.build([]), Atom("A"))


def test_caches_stay_bounded_over_fresh_kbs():
    for i in range(100):
        kb = parse_kb(f"B{i} => A{i}\nT(A{i}) => C{i}\nT(B{i}) => not C{i}\n")
        assert in_rational_closure(kb, parse_axiom(f"T(B{i}) => not C{i}"))
        assert not in_rational_closure(kb, parse_axiom(f"T(B{i}) => C{i}"))
        assert ranked_tbox(kb) is ranked_tbox(kb)
    assert ranked_tbox.cache_info().currsize <= 32
    assert _internalized.cache_info().currsize <= 32
