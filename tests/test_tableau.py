import random

from typika.kb import Strict
from typika.parser import parse_concept, parse_kb
from typika.ranking import RankedTBox
from typika.syntax import And, Atom, Exists, Forall, Not, Or, TOP, BOT
from typika.tableau import StrictTBox, entails_strict, is_satisfiable

from conftest import GOLDEN
from oracles import brute_force_satisfiable, random_concept, witness_checks_out

A, B, C = Atom("A"), Atom("B"), Atom("C")


def tbox(*pairs):
    return StrictTBox.from_axioms([Strict(l, r) for l, r in pairs])


# 15 closed concepts plus 5 TBox-forced cases; all unsatisfiable by hand.
UNSAT_CASES = [
    ("(A and not A)", ()),
    ("((A or B) and (not A and not B))", ()),
    ("bot", ()),
    ("(A and bot)", ()),
    ("not top", ()),
    ("((A and B) and not A)", ()),
    ("((A or bot) and not A)", ()),
    ("exists r. bot", ()),
    ("exists r. (A and not A)", ()),
    ("(exists r. A and forall r. not A)", ()),
    ("(exists r. (A and B) and forall r. not A)", ()),
    ("(exists r. A and forall r. bot)", ()),
    ("(exists r. exists s. A and forall r. forall s. not A)", ()),
    ("(exists r. A and (forall r. B and forall r. (not A or not B)))", ()),
    ("not (A or not A)", ()),
    ("(A and not B)", (("A", "B"),)),
    ("A", (("A", "bot"),)),
    ("not A", (("top", "A"),)),
    ("(A and not C)", (("A", "B"), ("B", "C"))),
    ("A", (("A", "exists r. B"), ("B", "bot"))),
]


def test_hand_built_unsatisfiable():
    for text, pairs in UNSAT_CASES:
        tb = tbox(*((parse_concept(l), parse_concept(r)) for l, r in pairs))
        assert not is_satisfiable(parse_concept(text), tb), text


def test_role_free_matches_brute_force():
    # propositional fragment: satisfiability is decided by one-element models
    rng = random.Random(21)
    for _ in range(120):
        c = random_concept(rng, "ABCD", roles=(), depth=4)
        got = bool(is_satisfiable(c))
        assert got == brute_force_satisfiable(c, max_size=1), c


def test_role_concepts_sound_and_witnessed():
    rng = random.Random(22)
    for _ in range(80):
        c = random_concept(rng, "AB", roles="r", depth=4, role_depth=2)
        res = is_satisfiable(c, want_witness=True)
        if res.satisfiable:
            assert witness_checks_out(res.witness, c)
        else:
            assert not brute_force_satisfiable(c, max_size=3), c


def test_witness_respects_tbox():
    rng = random.Random(23)
    tb = tbox((A, Exists("r", B)), (B, Or(A, C)))
    for _ in range(40):
        c = random_concept(rng, "ABC", roles="r", depth=3, role_depth=1)
        res = is_satisfiable(c, tb, want_witness=True)
        if res.satisfiable:
            assert witness_checks_out(res.witness, c, tb.axioms)


def test_blocking_terminates_on_cyclic_tbox():
    tb = tbox((A, Exists("r", A)))
    res = is_satisfiable(A, tb, want_witness=True)
    assert res.satisfiable
    assert witness_checks_out(res.witness, A, tb.axioms)


def test_forall_only_needs_no_witness():
    assert is_satisfiable(Forall("r", BOT))
    assert is_satisfiable(And(Forall("r", B), Not(Exists("r", TOP))))


def test_entailment_basics():
    tb = tbox((Atom("Penguin"), Atom("Bird")))
    assert entails_strict(tb, Atom("Penguin"), Atom("Bird"))
    assert not entails_strict(tb, Atom("Bird"), Atom("Penguin"))
    assert entails_strict(tb, BOT, Atom("Bird"))
    assert entails_strict(tb, Atom("Bird"), TOP)


def test_entailment_reflexive_and_monotone():
    rng = random.Random(24)
    tb = tbox((A, B))
    for _ in range(60):
        c = random_concept(rng, "ABC", roles="r", depth=3)
        assert entails_strict(tb, c, c)
        # strengthening the left side keeps entailment
        assert entails_strict(tb, And(A, c), B)


def test_entailment_transitive_chain():
    tb = tbox((A, B), (B, C))
    assert entails_strict(tb, A, C)
    assert entails_strict(tb, Exists("r", A), Exists("r", C))
    assert entails_strict(tb, Forall("r", A), Forall("r", C))


def test_defaults_enter_as_material_counterparts(kb_set3):
    # each default `T(C) => D` is the inclusion `C => D`, in KB order
    bird, fly, hnf, peng = (Atom(n) for n in
                            ("Bird", "Fly", "HasNiceFeather", "Penguin"))
    assert StrictTBox.from_axioms(kb_set3.defeasible).internalized == And(
        Or(Not(bird), hnf), And(Or(Not(bird), fly), Or(Not(peng), Not(fly))))


# ------------------------------------------------------------------ golden

# A KB whose consistency cross-check branches and adds successors deeper
# than Python's recursion limit.
DEEP_KB = ("T((not D or forall r. A)) => (D and bot)\n"
           "T(forall r. (D or A)) => not (C or bot)\n"
           "T((forall r. B or forall r. C)) => bot\n"
           "T(forall r. (bot and C)) => top\n")


def _result_text(res) -> str:
    """A satisfiability result as one line: `unsat`, or the witness."""
    if not res.satisfiable:
        return "unsat"
    w = res.witness
    atoms = " ".join(f"{a}={','.join(map(str, sorted(s)))}" for a, s in w.atom_ext)
    roles = " ".join(f"{r}={','.join(f'{i}>{j}' for i, j in sorted(s))}" for r, s in w.role_ext)
    return f"sat size={w.size} root={w.root} atoms {atoms} roles {roles}"


def tableau_golden(seed: int = 26, cases: int = 1500) -> str:
    """The text of `golden/tableau.txt` for the current tableau: per
    seeded case of the gate-6 generators over roles `r` and `s`, a concept
    and a TBox of up to two axioms, the result with its witness; then that
    of `DEEP_KB`'s consistency cross-check, `top` against the strict
    axioms plus the last level's defaults, each a TBox inclusion. The
    witnesses pin the order in which the search branches. The file was
    recorded with the tableau that saturated every label by full passes
    before each step, its deep line with the level as the one axiom
    `top => M`, so it pins that applying the rules as concepts enter a
    label, and handing the level as inclusions, change no result and no
    witness."""
    rng = random.Random(seed)
    out = []
    for k in range(cases):
        atoms = "ABCD" if k % 2 else "AB"
        c = random_concept(rng, atoms, roles="rs", depth=4, role_depth=2)
        tb = StrictTBox(tuple((random_concept(rng, atoms, "rs", 2, 1),
                               random_concept(rng, atoms, "rs", 2, 1))
                              for _ in range(rng.randrange(3))))
        out.append(f"{k}: {_result_text(is_satisfiable(c, tb, want_witness=True))}")
    kb = parse_kb(DEEP_KB)
    tb = StrictTBox.from_axioms(kb.strict + RankedTBox(kb).levels[-1])
    out.append(f"deep: {_result_text(is_satisfiable(And(TOP, Not(BOT)), tb, want_witness=True))}")
    return "".join(line + "\n" for line in out)


def test_tableau_golden():
    assert tableau_golden() == (GOLDEN / "tableau.txt").read_text(encoding="utf-8")
