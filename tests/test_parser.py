import pytest

from typika.kb import (
    ConceptAssertion,
    Defeasible,
    KnowledgeBase,
    RoleAssertion,
    Strict,
    serialize_axiom,
    serialize_kb,
)
from typika.kb import subconcept_closure
from typika import parser
from typika.parser import KBSyntaxError, intern, parse_axiom, parse_concept, parse_kb
from typika.syntax import (
    TOP,
    And,
    Atom,
    Exists,
    Forall,
    Not,
    Or,
    _render,
    concept_to_text,
    subconcepts,
)

from conftest import GOLDEN
from corpus import corpus_kbs
from families import ROLE_KBS


def test_parse_set3(kb_set3):
    assert kb_set3.strict == (Strict(Atom("Penguin"), Atom("Bird")),)
    assert kb_set3.defeasible == (
        Defeasible(Atom("Bird"), Atom("HasNiceFeather")),
        Defeasible(Atom("Bird"), Atom("Fly")),
        Defeasible(Atom("Penguin"), Not(Atom("Fly"))),
    )
    assert kb_set3.abox == ()


def test_round_trip(kb_set3, kb_set1):
    for kb in (kb_set3, kb_set1):
        assert parse_kb(serialize_kb(kb)) == kb


def test_comments_and_blanks():
    kb = parse_kb("# header\n\nA => B   # trailing\n")
    assert kb == KnowledgeBase.build([Strict(Atom("A"), Atom("B"))])


def test_duplicates_dropped():
    kb = parse_kb("A => B\nA => B\nT(A) => B\nT(A) => B\n")
    assert len(kb.strict) == 1 and len(kb.defeasible) == 1


def test_quantifiers_and_nesting():
    c = parse_concept("(exists r. (A and forall s. not B) or top)")
    expected = Or(Exists("r", And(Atom("A"), Forall("s", Not(Atom("B"))))), TOP)
    assert c == expected


def test_nested_typicality_rejected():
    with pytest.raises(KBSyntaxError) as err:
        parse_axiom("T(T(Bird)) => Fly")
    assert "typicality" in str(err.value)
    assert err.value.line == 1 and err.value.col == 3


def test_typicality_not_a_concept():
    for bad in ("Bird => T(Fly)", "(T(Bird) and A) => Fly", "not T(Bird) => Fly"):
        with pytest.raises(KBSyntaxError):
            parse_axiom(bad)


def test_reserved_words_not_names():
    with pytest.raises(KBSyntaxError):
        parse_concept("and")
    with pytest.raises(KBSyntaxError):
        parse_kb("exists => A")
    with pytest.raises(KBSyntaxError):
        parse_kb("exists T. A => B")


def test_bad_character_position():
    with pytest.raises(KBSyntaxError) as err:
        parse_kb("A & B => C")
    assert err.value.line == 1 and err.value.col == 3


def test_error_carries_line_number():
    with pytest.raises(KBSyntaxError) as err:
        parse_kb("A => B\nC => (D and)\n")
    assert err.value.line == 2


def test_missing_arrow_in_query():
    with pytest.raises(KBSyntaxError):
        parse_axiom("Bird")
    with pytest.raises(KBSyntaxError):
        parse_axiom("A => B\nC => D")


def test_trailing_junk():
    with pytest.raises(KBSyntaxError):
        parse_kb("A => B C")


def test_unbalanced_parens():
    with pytest.raises(KBSyntaxError):
        parse_concept("(A and B")
    with pytest.raises(KBSyntaxError):
        parse_concept("A and B")  # binary ops require parentheses


def test_abox_assertions():
    kb = parse_kb(
        "Bird(tweety)\n"
        "T(Penguin)(pingu)\n"
        "hasFriend(tweety, pingu)\n"
        "(Bird and not Fly)(pingu)\n"
    )
    assert kb.abox == (
        ConceptAssertion(Atom("Bird"), "tweety"),
        ConceptAssertion(Atom("Penguin"), "pingu", typical=True),
        RoleAssertion("hasFriend", "tweety", "pingu"),
        ConceptAssertion(And(Atom("Bird"), Not(Atom("Fly"))), "pingu"),
    )


def test_axioms_and_assertions_mix(kb_set3):
    text = serialize_kb(kb_set3) + "\nBird(tweety)\n"
    kb = parse_kb(text)
    assert kb.strict == kb_set3.strict
    assert kb.abox == (ConceptAssertion(Atom("Bird"), "tweety"),)


# ------------------------------------------------------------- node tables

INTERNED_KB = """
T((Bird and not Fly)) => exists likes. (Bird and not Fly)
(Bird and not Fly) => Penguin
T(Penguin) => not Fly
(Penguin and not Fly)(pingu)
"""


def test_equal_subconcepts_of_a_kb_are_one_object():
    kb = parse_kb(INTERNED_KB)
    (d1, d2), (s1,) = kb.defeasible, kb.strict
    assert d1.lhs is d1.rhs.sub is s1.lhs
    assert s1.rhs is d2.lhs is kb.abox[0].concept.left
    assert d2.rhs is d1.lhs.right
    flies = {id(c) for ax in kb.axioms for side in (ax.lhs, ax.rhs)
             for c in subconcepts(side) if c == Atom("Fly")}
    assert len(flies) == 1


def test_a_query_parsed_with_the_kbs_table_shares_its_nodes():
    nodes = {}
    kb = parse_kb(INTERNED_KB, nodes)
    query = parse_axiom("T((Bird and not Fly)) => (Penguin and exists likes. Fly)", nodes)
    assert query.lhs is kb.defeasible[0].lhs
    assert query.rhs.left is kb.strict[0].rhs
    assert query.rhs.right.sub is kb.defeasible[1].rhs.sub
    # a table holds each distinct node once, under its canonical text,
    # which the node caches as its rendering
    assert all(key == _render(value) == value._key for key, value in nodes.items())
    assert nodes[concept_to_text(query.rhs)] is query.rhs
    assert len({id(value) for value in nodes.values()}) == len(nodes)


def test_table_keys_are_the_canonical_text():
    # every key equals a fresh rendering of its node, over every corpus KB
    # and its closure interned as `compare` interns it; a text with
    # non-canonical spacing finds the nodes of the canonical one
    for kb in corpus_kbs():
        nodes = {}
        parsed = parse_kb(serialize_kb(kb), nodes)
        intern(nodes, subconcept_closure(parsed))
        assert all(key == _render(value) for key, value in nodes.items()), kb
    nodes = {}
    canonical = parse_axiom("T((A and B)) => not C", nodes)
    spaced = parse_axiom("T( (A  and B) ) =>  not C", nodes)
    assert spaced.lhs is canonical.lhs and spaced.rhs is canonical.rhs
    assert spaced.lhs.left is canonical.lhs.left
    assert spaced == canonical and serialize_axiom(spaced) == "T((A and B)) => not C"
    # interning keeps a node the table already holds under the same text
    intern(nodes, [Not(Atom("C")), Not(Atom("D"))])
    assert nodes["not C"] is canonical.rhs and nodes["not D"] == Not(Atom("D"))
    assert parse_axiom("D => not D", nodes).rhs is nodes["not D"]


def test_parsing_without_a_table_gives_equal_nodes():
    nodes = {}
    kb = parse_kb(INTERNED_KB, nodes)
    text = "T((Bird and not Fly)) => (Penguin and exists likes. Fly)"
    shared, alone = parse_axiom(text, nodes), parse_axiom(text)
    assert parse_kb(INTERNED_KB) == kb
    assert alone == shared and hash(alone) == hash(shared)
    assert alone.lhs is not shared.lhs and alone.lhs == kb.defeasible[0].lhs
    assert hash(alone.lhs) == hash(kb.defeasible[0].lhs)
    assert serialize_axiom(alone) == serialize_axiom(shared) == text


def _closure_lines() -> list[tuple[dict, list[str]]]:
    """Per corpus KB and role KB, its node table as `compare` fills it (the
    KB's parse, then its closure interned) and the canonical text of each
    query, strict and defeasible, between two closure members."""
    out = []
    for text in [serialize_kb(kb) for kb in corpus_kbs()] + list(ROLE_KBS.values()):
        nodes = {}
        kb = parse_kb(text, nodes)
        intern(nodes, subconcept_closure(kb))
        members = sorted(subconcept_closure(kb), key=concept_to_text)
        out.append((nodes, [serialize_axiom(kind(x, y)) for x in members for y in members
                            for kind in (Strict, Defeasible)]))
    return out


def test_a_canonical_closure_query_is_read_by_lookup(monkeypatch):
    # both sides of a canonical closure query are keys of the table, so
    # `parse_axiom` looks them up and builds no line parser; it gives the
    # very nodes a token parse of the line with that table gives
    cases = _closure_lines()
    built = []

    class Counting(parser._LineParser):
        __slots__ = ()

        def __init__(self, raw, line_no, nodes):
            built.append(raw)
            super().__init__(raw, line_no, nodes)

    monkeypatch.setattr(parser, "_LineParser", Counting)
    read = [[parse_axiom(text, nodes) for text in texts] for nodes, texts in cases]
    assert built == []
    # a spelling off the canonical form is tokenized, as before
    nodes, texts = cases[0]
    parse_axiom(texts[0] + "  # note", nodes)
    assert built == [texts[0] + "  # note"]
    monkeypatch.undo()
    lines = 0
    for (nodes, texts), axioms in zip(cases, read):
        for text, axiom in zip(texts, axioms):
            lp = parser._LineParser(text, 1, nodes)
            parsed = lp.read(lp.query)
            assert type(axiom) is type(parsed), text
            assert axiom.lhs is parsed.lhs and axiom.rhs is parsed.rhs, text
            lines += 1
    # 41,664 lines
    assert lines > 40000


# spellings off the canonical form of closure queries over INTERNED_KB:
# each misses the node table and is parsed as with no table
OFF_CANONICAL = [
    "T(Penguin)  => not Fly", "T(Penguin) =>  not Fly", "T(Penguin) => not  Fly",
    "Penguin  =>  (Bird and not Fly)", " T(Penguin) => not Fly", "T(Penguin) => not Fly ",
    "T( Penguin ) => not Fly", "T(( Bird and not Fly)) => Penguin",
    "T((Bird and not Fly) ) => Penguin", "( Bird and not Fly) => Penguin",
    "T(Penguin) => not Fly  # a comment", "T(Penguin) => not Fly#c", "Penguin => Bird # c",
    "T(Penguin) => top", "T(top) => not Fly", "bot => Penguin", "Penguin => bot",
    "Penguin => not Fly => Penguin", "T(Penguin) => not Fly => Bird",
    "T(Penguin)) => not Fly", "T(Penguin => not Fly", "T(Penguin) => not Fly)",
    "and => Penguin", "T(Penguin) => or", "T => not Fly", "T(not) => Fly", "Penguin => exists",
    "T(Penguin) => not Fly\nPenguin => Bird", "Penguin => Bird\n", "\nPenguin => Bird",
    "T(Penguin) => not Fly\r\nBird => Fly", "Penguin\t=> Bird", "Penguin =>",
    "T(Penguin) not Fly", "T() => Penguin", "T(Penguin)",
]


def _outcome(text, nodes):
    """The axiom a line gives, serialized, or its error's text and column."""
    try:
        return serialize_axiom(parse_axiom(text, nodes))
    except KBSyntaxError as exc:
        return str(exc), exc.col


def test_off_canonical_spellings_parse_as_with_no_table():
    nodes = {}
    kb = parse_kb(INTERNED_KB, nodes)
    intern(nodes, subconcept_closure(kb))
    assert {"Penguin", "Bird", "not Fly", "(Bird and not Fly)"} <= set(nodes)
    for text in OFF_CANONICAL:
        assert _outcome(text, nodes) == _outcome(text, {}), text
    # the canonical lines these respell give one axiom by lookup and by parse
    for text in ("T(Penguin) => not Fly", "Penguin => (Bird and not Fly)",
                 "T((Bird and not Fly)) => Penguin", "Penguin => Bird"):
        assert _outcome(text, nodes) == _outcome(text, {}) == text


# ------------------------------------------------------------------ golden

# Each input goes through `parse_kb`, `parse_axiom` and `parse_concept`;
# `golden/parser.txt` records what each gives: the serialized KB, axiom or
# concept, or the error as `line L, column C: message`. The inputs cover
# every statement form and every message the parser raises.
GOLDEN_INPUTS = [
    # well-formed lines, comments, blanks, nesting and multi-line text
    "A => B",
    "T(Penguin) => not Fly",
    "Bird(tweety)",
    "T(Penguin)(pingu)",
    "hasFriend(tweety, pingu)",
    "(Bird and not Fly)(pingu)",
    "exists r. A(x)",
    "A",
    "top",
    "bot",
    "not not A",
    "(exists r. (A and forall s. not B) or top)",
    "((A or bot) and forall r. exists s. not top) => top",
    "T((A and (B or not C))) => exists r. forall s. D",
    "",
    "# only a comment",
    "\n\n  \n",
    "A => B   # trailing comment",
    "# header\n\nA => B\n\nT(A) => C  # note\nB(x)\nr(x, y)\n",
    "A => B\nT(A) => not B\nA => B\n",
    "_x1 => Y_2",
    "A\t=>\tB\r\nC(x)\r\n",
    # unexpected character
    "A & B => C",
    "A => B\nC $ D",
    "T(A) => B]",
    # a digit that starts a token, an `=` or `>` outside `=>`, and
    # characters outside ASCII: the lines a stray character can hide in
    "A1 => B_2\n2A => B",
    "A = B",
    "A > B",
    "A ==> B",
    "A =>> B",
    "A => B ≠ C",
    "A\u00a0=>\u2003B",
    # a non-ASCII letter passes the tokenizer and fails at the name check
    "é => C",
    "B é",
    # expected 'x', found end of line / found 'y'
    "T(A",
    "T(A) =>   # comment",
    "exists r",
    "exists r A",
    "T(A B) => C",
    "T(A) B",
    "T(A)(x",
    "r(x, y",
    "r(x, y z",
    "r(x y) => A",
    "A(x",
    "A(x y)",
    "B => A\n(C and D",
    # unexpected end of line
    "(A",
    "(A and B",
    # role, concept and individual names
    "exists",
    "exists and. A",
    "forall (. A",
    "exists r. A => forall => B",
    ")",
    "=> A",
    "A => )",
    "Bird(",
    "Bird(and)",
    "T(Bird)(not)",
    "r(a, )",
    "r(a,",
    "r(top, a)",
    # expected a concept, found end of line
    "A =>",
    "not",
    "exists r.",
    "(A and",
    # the typicality marker inside a concept
    "T(T(Bird)) => Fly",
    "Bird => T(Fly)",
    "(T(Bird) and A) => Fly",
    "not T(Bird) => Fly",
    # expected 'and' or 'or'
    "(A B)",
    "(A => B)",
    "(A not B)",
    # reserved words as concept names
    "and => A",
    "T => A",
    "A => or",
    "exists T. A => B",
    # after a complete statement
    "A => B C",
    "Bird(tweety) x",
    "A B",
    "T(A) => B => C",
    "A => B\nC => D E",
    # a query must be one axiom line; a concept one concept
    "A => B\nC => D",
    "Bird",
    "(A and B)(x)",
    "A\nB",
    "\n\nA => B\n\n",
]


def parser_golden() -> str:
    """The text of `golden/parser.txt` for the current parser."""
    out = []
    for text in GOLDEN_INPUTS:
        out.append(f"input {text!r}")
        for name, parse, show in (("kb", parse_kb, serialize_kb),
                                  ("axiom", parse_axiom, serialize_axiom),
                                  ("concept", parse_concept, concept_to_text)):
            try:
                result = show(parse(text))
            except KBSyntaxError as exc:
                result = f"error {exc}"
            out.append(f"  {name}: {result!r}")
    return "".join(line + "\n" for line in out)


def test_parser_golden():
    assert parser_golden() == (GOLDEN / "parser.txt").read_text(encoding="utf-8")
