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
error finds the tokens' columns, the sentinel's one past the line. A
stray character, a token that no name or mark starts with, is reported
before any other error of its line; no parse accepts one, so it is looked
for only in a line that fails to parse.

A parse interns its concept nodes in a table (`nodes`, a dict from each
concept's canonical text to its node): its own, or the caller's. The text
is built from the parts' cached texts, and a node only when the table
lacks it, caching the text as its rendering, so no parsed node is
rendered, hashed or compared to find its twin; `intern` adds a KB's
closure by the same key. Texts parsed with one table share every equal
subconcept as one object, whatever their spacing, so the memos keyed on
concept nodes hit on identity. The table dies with its caller.

A query line whose sides are both keys of the table, as the canonical
text of a query over the KB's closure is once `intern` has added it, is
read by looking its sides up (`parse_axiom`); no line is tokenized for it.
"""

from __future__ import annotations

import re
from itertools import count, repeat
from typing import Callable, Iterable, Iterator, Optional, TypeVar

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

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[(),.]|=>|\S")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_set = object.__setattr__
_T = TypeVar("_T")


class KBSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class _LineParser:
    """Parses one line's token list, interning every concept node in `nodes`."""

    __slots__ = ("code", "end_col", "texts", "pos", "line_no", "nodes")

    def __init__(self, raw: str, line_no: int, nodes: dict[str, Concept]):
        self.code = raw.partition("#")[0]
        self.end_col = len(raw) + 1
        self.texts: list[Optional[str]] = _TOKEN_RE.findall(self.code)
        self.texts.append(None)
        self.pos = 0
        self.line_no = line_no
        self.nodes = nodes

    def read(self, parse: Callable[[], _T]) -> _T:
        """What `parse` reads off the line. Its error gives way to that of
        the line's first stray character: a token that no name or mark
        starts with, which no parse accepts, so the characters are checked
        only when the line fails to parse."""
        try:
            return parse()
        except KBSyntaxError:
            self.check_characters()
            raise

    def check_characters(self) -> None:
        """Raises the error of the line's first stray character, if any."""
        odd = [tok for tok in set(self.texts) if tok is not None
               and tok not in ("(", ")", ",", ".", "=>") and not tok[0].isalpha()
               and tok[0] != "_"]
        if odd:
            self.pos = min(map(self.texts.index, odd))
            raise self.fail(f"unexpected character {self.texts[self.pos]!r}")

    def fail(self, message: str) -> KBSyntaxError:
        """The error at the current token; only an error needs columns, so
        they come from tokenizing the line again."""
        cols = [m.start() + 1 for m in _TOKEN_RE.finditer(self.code)] + [self.end_col]
        return KBSyntaxError(message, self.line_no, cols[self.pos])

    def found(self) -> str:
        tok = self.texts[self.pos]
        return "end of line" if tok is None else repr(tok)

    def expected(self, mark: str) -> KBSyntaxError:
        """The error of a token other than `mark` at the current one."""
        return self.fail(f"expected {mark!r}, found {self.found()}")

    def take(self, expected: str) -> None:
        if self.texts[self.pos] != expected:
            raise self.expected(expected)
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
        """The next concept's node. A name is one lookup in the table; a
        compound's key, its canonical text, is built from its parts' cached
        texts (`concept_to_text` renders only `top` and `bot`), and its
        node is built only when the table lacks the key."""
        texts, nodes = self.texts, self.nodes
        pos = self.pos
        text = texts[pos]
        c = nodes.get(text)
        if c is not None:  # a name the table holds
            self.pos = pos + 1
            return c
        if text == "(":
            self.pos = pos + 1
            left = self.concept()
            op = texts[self.pos]
            if op != "and" and op != "or":
                raise self.fail("unexpected end of line" if op is None
                                else f"expected 'and' or 'or', found {op!r}")
            self.pos += 1
            right = self.concept()
            if texts[self.pos] != ")":
                raise self.expected(")")
            self.pos += 1
            key = (f"({left._key or concept_to_text(left)} {op}"
                   f" {right._key or concept_to_text(right)})")
            kind, parts = And if op == "and" else Or, (left, right)
        elif text == "not":
            self.pos = pos + 1
            sub = self.concept()
            key, kind, parts = f"not {sub._key or concept_to_text(sub)}", Not, (sub,)
        elif text == "exists" or text == "forall":
            self.pos = pos + 1  # at the role name, then at the dot, for an error
            role = texts[pos + 1]
            if role is None or role in RESERVED or not _IDENT_RE.fullmatch(role):
                raise self.fail(f"expected a role name, found {self.found()}")
            self.pos = pos + 2
            if texts[pos + 2] != ".":
                raise self.expected(".")
            self.pos = pos + 3
            sub = self.concept()
            key = f"{text} {role}. {sub._key or concept_to_text(sub)}"
            kind, parts = Exists if text == "exists" else Forall, (role, sub)
        elif text is not None and text not in RESERVED and _IDENT_RE.fullmatch(text):
            self.pos = pos + 1
            key, kind, parts = text, Atom, (text,)
        elif text == "top" or text == "bot":
            self.pos = pos + 1
            return TOP if text == "top" else BOT
        elif text is None:
            raise self.fail("expected a concept, found end of line")
        elif text == "T" and texts[pos + 1] == "(":
            raise self.fail("the typicality marker cannot occur inside a concept")
        elif text in RESERVED:
            raise self.fail(f"{text!r} cannot be used as a concept name")
        else:
            raise self.fail(f"expected a concept name, found {text!r}")
        c = nodes.get(key)
        if c is None:
            c = nodes[key] = kind(*parts)
            _set(c, "_key", key)
        return c

    def typicality_head(self) -> Concept:
        self.take("T")
        self.take("(")
        inner = self.concept()
        self.take(")")
        return inner

    def axiom(self) -> Axiom:
        texts = self.texts
        typical = self.at_typicality()
        if typical:
            self.pos += 2
        lhs = self.concept()
        if typical:
            if texts[self.pos] != ")":
                raise self.expected(")")
            self.pos += 1
        if texts[self.pos] != "=>":
            raise self.expected("=>")
        self.pos += 1
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

    def query(self) -> Axiom:
        if "=>" not in self.texts:
            raise self.fail("a query must be an axiom (missing '=>')")
        return self.axiom()

    def lone_concept(self) -> Concept:
        c = self.concept()
        self.end()
        return c

    def end(self) -> None:
        tok = self.texts[self.pos]
        if tok is not None:
            raise self.fail(f"unexpected {tok!r} after a complete statement")


def _lines(text: str, nodes: Optional[dict[str, Concept]]) -> Iterator[_LineParser]:
    """A parser per line of `text`, each made as it is reached, so a line's
    characters are checked only once the lines above it are parsed."""
    return map(_LineParser, text.splitlines(), count(1), repeat({} if nodes is None else nodes))


def parse_kb(text: str, nodes: Optional[dict[str, Concept]] = None) -> KnowledgeBase:
    """Parses KB source text, interning its concepts in `nodes` when
    given. Raises KBSyntaxError with line and column on errors."""
    stmts = [lp.read(lp.statement) for lp in _lines(text, nodes) if len(lp.texts) > 1]
    return KnowledgeBase.build([s for s in stmts if isinstance(s, (Strict, Defeasible))],
                               [s for s in stmts if not isinstance(s, (Strict, Defeasible))])


def parse_axiom(text: str, nodes: Optional[dict[str, Concept]] = None) -> Axiom:
    """Parses a single axiom line (the query format), interning its
    concepts in `nodes` when given.

    A line in canonical form, `L => R` or `T(L) => R` with L and R keys
    of the table, is read by two lookups: a key is the text whose parse
    gives its node, so the line's parse gives those nodes. Every other
    spelling misses the table (its sides, split at the first `" => "`,
    are no keys) and is parsed, with its errors and their columns."""
    if nodes:
        lhs, _, rhs = text.partition(" => ")
        typical = lhs[:2] == "T(" and lhs[-1:] == ")"
        left, right = nodes.get(lhs[2:-1] if typical else lhs), nodes.get(rhs)
        if left is not None and right is not None:
            return Defeasible(left, right) if typical else Strict(left, right)
    parsers = [lp for lp in _lines(text, nodes) if len(lp.texts) > 1]
    if not parsers:
        raise KBSyntaxError("expected an axiom", 1, 1)
    if len(parsers) > 1:
        for lp in parsers:
            lp.check_characters()
        raise KBSyntaxError("expected a single axiom line", parsers[1].line_no, 1)
    return parsers[0].read(parsers[0].query)


def intern(nodes: dict[str, Concept], concepts: Iterable[Concept]) -> None:
    """Adds each concept to a node table under its canonical text, the key
    a parse looks up, unless the table holds that text already."""
    for c in concepts:
        nodes.setdefault(concept_to_text(c), c)


def parse_concept(text: str) -> Concept:
    """Parses a single concept; used by tests and interactive callers."""
    parsers = [lp for lp in _lines(text, None) if len(lp.texts) > 1]
    if len(parsers) != 1:
        for lp in parsers:
            lp.check_characters()
        raise KBSyntaxError("expected a single concept", 1, 1)
    return parsers[0].read(parsers[0].lone_concept)
