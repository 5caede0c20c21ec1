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

Each line is read as a list of its token texts, ending in one end-of-line
sentinel, `None`. The parser reads the token at its position by index; an
error finds the tokens' columns, the sentinel's one past the line.

A parse interns its concept nodes in a table (`nodes`, a dict from each
concept's canonical text to its node): its own, or the caller's. The text
is built from the parts' cached texts, and a node only when the table
lacks it, caching the text as its rendering, so no parsed node is
rendered, hashed or compared to find its twin; `intern` adds a KB's
closure by the same key. Texts parsed with one table share every equal
subconcept as one object, whatever their spacing, so the memos keyed on
concept nodes hit on identity. The table dies with its caller.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .kb import (
    Assertion,
    Axiom,
    ConceptAssertion,
    Defeasible,
    KnowledgeBase,
    RoleAssertion,
    Strict,
)
from .syntax import BOT, TOP, Atom, Concept, Exists, Forall, And, Not, Or, concept_to_text

RESERVED = {"top", "bot", "not", "and", "or", "exists", "forall", "T"}

_TOKEN_RE = re.compile(r"=>|[(),.]|[A-Za-z_][A-Za-z0-9_]*|\S")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class KBSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class _LineParser:
    """Parses one line's token list, interning every concept node in `nodes`."""

    def __init__(self, raw: str, line_no: int, nodes: dict[str, Concept]):
        self.code = raw.split("#", 1)[0]
        self.end_col = len(raw) + 1
        self.texts: list[Optional[str]] = _TOKEN_RE.findall(self.code)
        self.pos = 0
        self.line_no = line_no
        odd = [tok for tok in set(self.texts)  # characters no token starts with
               if tok not in ("(", ")", ",", ".", "=>") and not tok[0].isalpha() and tok[0] != "_"]
        if odd:
            self.pos = min(map(self.texts.index, odd))
            raise self.fail(f"unexpected character {self.texts[self.pos]!r}")
        self.texts.append(None)
        self.nodes = nodes

    def fail(self, message: str) -> KBSyntaxError:
        """The error at the current token; only an error needs columns, so
        they come from tokenizing the line again."""
        cols = [m.start() + 1 for m in _TOKEN_RE.finditer(self.code)] + [self.end_col]
        return KBSyntaxError(message, self.line_no, cols[self.pos])

    def found(self) -> str:
        tok = self.texts[self.pos]
        return "end of line" if tok is None else repr(tok)

    def take(self, expected: str) -> None:
        if self.texts[self.pos] != expected:
            raise self.fail(f"expected {expected!r}, found {self.found()}")
        self.pos += 1

    def take_ident(self, what: str) -> str:
        tok = self.texts[self.pos]
        if tok is None or tok in RESERVED or not _IDENT_RE.fullmatch(tok):
            raise self.fail(f"expected {what}, found {self.found()}")
        self.pos += 1
        return tok

    def at_typicality(self) -> bool:
        return self.texts[self.pos] == "T" and self.texts[self.pos + 1] == "("

    def concept(self) -> Concept:
        """The next concept's node, found in the table by its canonical
        text, which is built from its parts' cached texts."""
        text = self.texts[self.pos]
        if text is None:
            raise self.fail("expected a concept, found end of line")
        if text == "T" and self.at_typicality():
            raise self.fail("the typicality marker cannot occur inside a concept")
        if text in ("top", "bot"):
            self.pos += 1
            return TOP if text == "top" else BOT
        if text == "not":
            self.pos += 1
            sub = self.concept()
            return self.node(f"not {concept_to_text(sub)}", Not, sub)
        if text in ("exists", "forall"):
            self.pos += 1
            role = self.take_ident("a role name")
            self.take(".")
            sub = self.concept()
            return self.node(f"{text} {role}. {concept_to_text(sub)}",
                             Exists if text == "exists" else Forall, role, sub)
        if text == "(":
            self.pos += 1
            left = self.concept()
            op = self.texts[self.pos]
            if op not in ("and", "or"):
                raise self.fail("unexpected end of line" if op is None
                                else f"expected 'and' or 'or', found {op!r}")
            self.pos += 1
            right = self.concept()
            self.take(")")
            return self.node(f"({concept_to_text(left)} {op} {concept_to_text(right)})",
                             And if op == "and" else Or, left, right)
        if text in RESERVED:
            raise self.fail(f"{text!r} cannot be used as a concept name")
        name = self.take_ident("a concept name")
        return self.node(name, Atom, name)

    def node(self, key: str, kind: type, *parts) -> Concept:
        """The table's node for the canonical text `key`, built on a miss."""
        c = self.nodes.get(key)
        if c is None:
            c = self.nodes[key] = kind(*parts)
            object.__setattr__(c, "_key", key)
        return c

    def typicality_head(self) -> Concept:
        self.take("T")
        self.take("(")
        inner = self.concept()
        self.take(")")
        return inner

    def axiom(self) -> Axiom:
        typical = self.at_typicality()
        lhs = self.typicality_head() if typical else self.concept()
        self.take("=>")
        rhs = self.concept()
        self.end()
        return Defeasible(lhs, rhs) if typical else Strict(lhs, rhs)

    def individual(self) -> str:
        """The `(individual)` tail that ends a concept assertion."""
        self.take("(")
        ind = self.take_ident("an individual name")
        self.take(")")
        self.end()
        return ind

    def assertion(self) -> Assertion:
        if self.at_typicality():
            c = self.typicality_head()
            return ConceptAssertion(c, self.individual(), typical=True)
        # role assertion: IDENT ( IDENT , IDENT )
        t = self.texts
        if (len(t) > 4 and t[0] not in RESERVED and t[0].isidentifier()
                and t[1] == "(" and t[3] == ","):
            role = self.take_ident("a role name")
            self.take("(")
            subj = self.take_ident("an individual name")
            self.take(",")
            tgt = self.take_ident("an individual name")
            self.take(")")
            self.end()
            return RoleAssertion(role, subj, tgt)
        c = self.concept()
        return ConceptAssertion(c, self.individual())

    def statement(self) -> Axiom | Assertion:
        return self.axiom() if "=>" in self.texts else self.assertion()

    def end(self) -> None:
        tok = self.texts[self.pos]
        if tok is not None:
            raise self.fail(f"unexpected {tok!r} after a complete statement")


def _line_parsers(text: str, nodes: Optional[dict[str, Concept]]):
    nodes = {} if nodes is None else nodes
    for line_no, raw in enumerate(text.splitlines(), start=1):
        lp = _LineParser(raw, line_no, nodes)
        if len(lp.texts) > 1:
            yield lp


def parse_kb(text: str, nodes: Optional[dict[str, Concept]] = None) -> KnowledgeBase:
    """Parses KB source text, interning its concepts in `nodes` when
    given. Raises KBSyntaxError with line and column on errors."""
    stmts = [lp.statement() for lp in _line_parsers(text, nodes)]
    return KnowledgeBase.build([s for s in stmts if isinstance(s, (Strict, Defeasible))],
                               [s for s in stmts if not isinstance(s, (Strict, Defeasible))])


def parse_axiom(text: str, nodes: Optional[dict[str, Concept]] = None) -> Axiom:
    """Parses a single axiom line (the query format), interning its
    concepts in `nodes` when given."""
    parsers = list(_line_parsers(text, nodes))
    if not parsers:
        raise KBSyntaxError("expected an axiom", 1, 1)
    if len(parsers) > 1:
        raise KBSyntaxError("expected a single axiom line", parsers[1].line_no, 1)
    lp = parsers[0]
    if "=>" not in lp.texts:
        raise lp.fail("a query must be an axiom (missing '=>')")
    return lp.axiom()


def intern(nodes: dict[str, Concept], concepts: Iterable[Concept]) -> None:
    """Adds each concept to a node table under its canonical text, the key
    a parse looks up, unless the table holds that text already."""
    for c in concepts:
        nodes.setdefault(concept_to_text(c), c)


def parse_concept(text: str) -> Concept:
    """Parses a single concept; used by tests and interactive callers."""
    parsers = list(_line_parsers(text, None))
    if len(parsers) != 1:
        raise KBSyntaxError("expected a single concept", 1, 1)
    c = parsers[0].concept()
    parsers[0].end()
    return c
