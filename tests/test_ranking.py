import math
import random

import pytest

import typika.ranking
from typika.kb import Defeasible, KnowledgeBase, Strict
from typika.parser import parse_axiom, parse_concept, parse_kb
from typika.ranking import (
    RankedTBox,
    in_rational_closure,
    is_kb_consistent,
    level_tbox,
    materialization,
    satisfiable_wrt_kb,
)
from typika.syntax import And, Atom, Not, Or, TOP

from oracles import random_concept

A, B, C = Atom("A"), Atom("B"), Atom("C")


def test_materialization_shape(kb_set3):
    mat = materialization(kb_set3.defeasible)
    bird, fly, hnf, peng = (Atom(n) for n in
                            ("Bird", "Fly", "HasNiceFeather", "Penguin"))
    assert mat == And(Or(Not(bird), hnf),
                      And(Or(Not(bird), fly), Or(Not(peng), Not(fly))))


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


def test_each_level_tbox_is_built_once(kb_set3, monkeypatch):
    built = []

    def counting(strict_core, level):
        built.append(level_tbox(strict_core, level))
        return built[-1]

    monkeypatch.setattr(typika.ranking, "level_tbox", counting)
    rt = RankedTBox(kb_set3)
    for text in ("Bird", "Penguin", "(Penguin and Fly)", "(Penguin and not Bird)"):
        rt.rank(parse_concept(text))
    assert len(built) == len(rt.levels) == 3
    # ranks are read off the same TBoxes, each internalised once
    assert all(a is b for a, b in zip(built, rt._level_tboxes))
    assert all("internalized" in vars(tbox) for tbox in built)


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
    assert satisfiable_wrt_kb(rt, [Atom("Penguin"), Not(Atom("Fly"))])


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


def test_rc_over_fresh_kbs():
    for i in range(100):
        rt = RankedTBox(parse_kb(f"B{i} => A{i}\nT(A{i}) => C{i}\nT(B{i}) => not C{i}\n"))
        assert in_rational_closure(rt, parse_axiom(f"T(B{i}) => not C{i}"))
        assert not in_rational_closure(rt, parse_axiom(f"T(B{i}) => C{i}"))
