"""Line-oriented reader for the KB surface syntax.

One statement per line; `#` starts a comment; blank lines are ignored.

    concept  :=  IDENT | "top" | "bot" | "not" concept
               | "(" concept "and" concept ")" | "(" concept "or" concept ")"
               | "exists" IDENT "." concept | "forall" IDENT "." concept
    axiom    :=  concept "=>" concept | "T(" concept ")" "=>" concept
    fact     :=  concept "(" IDENT ")" | "T(" concept ")" "(" IDENT ")"
               | IDENT "(" IDENT "," IDENT ")"

Binary connectives are always parenthesised, so there is no precedence.
The typicality marker T may wrap a whole axiom left-hand side or a concept
assertion head and nothing else; in particular it cannot be nested.

A parse interns its concept nodes in a table (`nodes`, a dict from each
node to itself): its own, or the caller's when given. Texts parsed with
one table share every equal subconcept as one object, so the memos keyed
on concept nodes hit on identity before comparing structure. The table
belongs to the caller and dies with it; no module keeps one.
"""

from __future__ import annotations

import re
from typing import Optional

from .kb import (
    Assertion,
    Axiom,
    ConceptAssertion,
    Defeasible,
    KnowledgeBase,
    RoleAssertion,
    Strict,
)
from .syntax import BOT, TOP, Atom, Concept, Exists, Forall, And, Not, Or

RESERVED = {"top", "bot", "not", "and", "or", "exists", "forall", "T"}

_TOKEN_RE = re.compile(r"=>|[(),.]|[A-Za-z_][A-Za-z0-9_]*|\S")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class KBSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class _Token:
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int):
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str, line_no: int) -> list[_Token]:
    code = text.split("#", 1)[0]
    tokens = []
    for m in _TOKEN_RE.finditer(code):
        tok = m.group(0)
        if tok not in "().," and tok != "=>" and not tok[0].isalpha() and tok[0] != "_":
            raise KBSyntaxError(f"unexpected character {tok!r}", line_no, m.start() + 1)
        tokens.append(_Token(tok, line_no, m.start() + 1))
    return tokens


class _LineParser:
    """Parses one line's tokens, interning every concept node in `nodes`."""

    def __init__(self, tokens: list[_Token], line_no: int, line_len: int,
                 nodes: dict[Concept, Concept]):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.line_len = line_len
        self.nodes = nodes

    def peek(self, ahead: int = 0) -> _Token | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def fail(self, message: str) -> KBSyntaxError:
        tok = self.peek()
        col = tok.col if tok is not None else self.line_len + 1
        return KBSyntaxError(message, self.line_no, col)

    def take(self, expected: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None:
            raise self.fail(f"expected {expected!r}, found end of line" if expected
                            else "unexpected end of line")
        if expected is not None and tok.text != expected:
            raise self.fail(f"expected {expected!r}, found {tok.text!r}")
        self.pos += 1
        return tok

    def take_ident(self, what: str) -> str:
        tok = self.peek()
        if tok is None:
            raise self.fail(f"expected {what}, found end of line")
        if tok.text in RESERVED or not _IDENT_RE.fullmatch(tok.text):
            raise self.fail(f"expected {what}, found {tok.text!r}")
        self.pos += 1
        return tok.text

    def at_typicality(self) -> bool:
        tok, nxt = self.peek(), self.peek(1)
        return tok is not None and tok.text == "T" and nxt is not None and nxt.text == "("

    def concept(self) -> Concept:
        c = self._concept()
        return self.nodes.setdefault(c, c)

    def _concept(self) -> Concept:
        tok = self.peek()
        if tok is None:
            raise self.fail("expected a concept, found end of line")
        text = tok.text
        if text == "T" and self.at_typicality():
            raise self.fail("the typicality marker cannot occur inside a concept")
        if text == "top":
            self.pos += 1
            return TOP
        if text == "bot":
            self.pos += 1
            return BOT
        if text == "not":
            self.pos += 1
            return Not(self.concept())
        if text in ("exists", "forall"):
            self.pos += 1
            role = self.take_ident("a role name")
            self.take(".")
            sub = self.concept()
            return Exists(role, sub) if text == "exists" else Forall(role, sub)
        if text == "(":
            self.pos += 1
            left = self.concept()
            op = self.take()
            if op.text not in ("and", "or"):
                raise KBSyntaxError(f"expected 'and' or 'or', found {op.text!r}",
                                    op.line, op.col)
            right = self.concept()
            self.take(")")
            return And(left, right) if op.text == "and" else Or(left, right)
        if text in RESERVED:
            raise self.fail(f"{text!r} cannot be used as a concept name")
        name = self.take_ident("a concept name")
        return Atom(name)

    def typicality_head(self) -> Concept:
        self.take("T")
        self.take("(")
        inner = self.concept()
        self.take(")")
        return inner

    def axiom(self) -> Axiom:
        if self.at_typicality():
            lhs = self.typicality_head()
            self.take("=>")
            rhs = self.concept()
            self.end()
            return Defeasible(lhs, rhs)
        lhs = self.concept()
        self.take("=>")
        rhs = self.concept()
        self.end()
        return Strict(lhs, rhs)

    def assertion(self) -> Assertion:
        if self.at_typicality():
            c = self.typicality_head()
            self.take("(")
            ind = self.take_ident("an individual name")
            self.take(")")
            self.end()
            return ConceptAssertion(c, ind, typical=True)
        # role assertion: IDENT ( IDENT , IDENT )
        t0, t1, t2, t3 = self.peek(0), self.peek(1), self.peek(2), self.peek(3)
        if (t0 is not None and t0.text not in RESERVED and t0.text.isidentifier()
                and t1 is not None and t1.text == "("
                and t2 is not None and t3 is not None and t3.text == ","):
            role = self.take_ident("a role name")
            self.take("(")
            subj = self.take_ident("an individual name")
            self.take(",")
            tgt = self.take_ident("an individual name")
            self.take(")")
            self.end()
            return RoleAssertion(role, subj, tgt)
        c = self.concept()
        self.take("(")
        ind = self.take_ident("an individual name")
        self.take(")")
        self.end()
        return ConceptAssertion(c, ind)

    def statement(self) -> Axiom | Assertion:
        if any(t.text == "=>" for t in self.tokens):
            return self.axiom()
        return self.assertion()

    def end(self) -> None:
        if self.peek() is not None:
            raise self.fail(f"unexpected {self.peek().text!r} after a complete statement")


def _line_parsers(text: str, nodes: Optional[dict[Concept, Concept]]):
    nodes = {} if nodes is None else nodes
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, line_no)
        if tokens:
            yield _LineParser(tokens, line_no, len(raw), nodes)


def parse_kb(text: str, nodes: Optional[dict[Concept, Concept]] = None) -> KnowledgeBase:
    """Parses KB source text, interning its concepts in `nodes` when
    given. Raises KBSyntaxError with line and column on errors."""
    axioms: list[Axiom] = []
    abox: list[Assertion] = []
    for lp in _line_parsers(text, nodes):
        stmt = lp.statement()
        if isinstance(stmt, (Strict, Defeasible)):
            axioms.append(stmt)
        else:
            abox.append(stmt)
    return KnowledgeBase.build(axioms, abox)


def parse_axiom(text: str, nodes: Optional[dict[Concept, Concept]] = None) -> Axiom:
    """Parses a single axiom line (the query format), interning its
    concepts in `nodes` when given."""
    parsers = list(_line_parsers(text, nodes))
    if not parsers:
        raise KBSyntaxError("expected an axiom", 1, 1)
    if len(parsers) > 1:
        raise KBSyntaxError("expected a single axiom line", parsers[1].line_no, 1)
    lp = parsers[0]
    if not any(t.text == "=>" for t in lp.tokens):
        raise lp.fail("a query must be an axiom (missing '=>')")
    return lp.axiom()


def parse_concept(text: str) -> Concept:
    """Parses a single concept; used by tests and interactive callers."""
    parsers = list(_line_parsers(text, None))
    if len(parsers) != 1:
        raise KBSyntaxError("expected a single concept", 1, 1)
    c = parsers[0].concept()
    parsers[0].end()
    return c
