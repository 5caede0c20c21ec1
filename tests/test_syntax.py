import random

import pytest

from typika.syntax import (
    And,
    Atom,
    BOT,
    Bottom,
    Exists,
    Forall,
    Not,
    Or,
    TOP,
    Top,
    complement,
    concept_key,
    concept_to_text,
    conjoin,
    subconcepts,
    to_nnf,
)
from typika.kb import subconcept_closure
from typika.parser import parse_axiom, parse_concept, parse_kb

from conftest import KBS
from corpus import corpus_kbs
from oracles import atom_names, random_concept, random_interp, role_names

A, B = Atom("A"), Atom("B")


def nnf_shape_ok(c):
    # negation may only sit directly on an atom
    if isinstance(c, Not):
        return isinstance(c.sub, Atom)
    if isinstance(c, (And, Or)):
        return nnf_shape_ok(c.left) and nnf_shape_ok(c.right)
    if isinstance(c, (Exists, Forall)):
        return nnf_shape_ok(c.sub)
    return True


def test_nnf_shape():
    rng = random.Random(7)
    for _ in range(300):
        c = random_concept(rng, "ABCD", "rs", depth=4)
        assert nnf_shape_ok(to_nnf(c))


def test_nnf_preserves_meaning():
    rng = random.Random(8)
    for _ in range(200):
        c = random_concept(rng, "ABC", "r", depth=4)
        n = to_nnf(c)
        for size in (1, 2, 3):
            interp = random_interp(rng, "ABC", "r", size)
            assert interp.eval(c) == interp.eval(n)


def test_nnf_fixpoint():
    rng = random.Random(9)
    for _ in range(100):
        n = to_nnf(random_concept(rng, "AB", "r", depth=4))
        assert to_nnf(n) == n


def test_nnf_keeps_the_nodes_it_does_not_change():
    # a subtree already in NNF comes back as the same object, as
    # `substitute` keeps the nodes it replaces nothing under
    rng = random.Random(10)
    for _ in range(200):
        n = to_nnf(random_concept(rng, "ABC", "rs", depth=4))
        assert to_nnf(n) is n
        c = And(n, Not(Or(A, n)))
        out = to_nnf(c)
        assert out.left is n and out.right.left.sub is A
        assert out.right.right == to_nnf(Not(n))


def test_complement_pairs():
    assert complement(A) == Not(A)
    assert complement(Not(A)) == A
    # complement is purely syntactic; constants normalise under NNF instead
    assert to_nnf(complement(TOP)) == BOT
    assert to_nnf(complement(BOT)) == TOP
    compound = And(A, Not(B))
    assert complement(complement(compound)) == compound


def test_conjoin():
    assert conjoin([]) == TOP
    assert conjoin([A]) == A
    assert conjoin([A, B, TOP]) == And(A, And(B, TOP))


def test_subconcepts_cover_leaves():
    c = And(Exists("r", Not(A)), Or(B, TOP))
    subs = list(subconcepts(c))
    assert subs[0] == c
    for part in (Exists("r", Not(A)), Not(A), A, Or(B, TOP), B, TOP):
        assert part in subs


def test_name_collectors():
    c = Forall("r", And(A, Exists("s", B)))
    assert atom_names(c) == frozenset({"A", "B"})
    assert role_names(c) == frozenset({"r", "s"})


def test_text_round_trip():
    rng = random.Random(10)
    for _ in range(300):
        c = random_concept(rng, "ABCD", "rs", depth=4)
        assert parse_concept(concept_to_text(c)) == c


def test_concept_key_total_order():
    rng = random.Random(11)
    seen = {}
    for _ in range(200):
        c = random_concept(rng, "AB", "", depth=3)
        key = concept_key(c)
        # equal keys must mean equal concepts
        assert seen.setdefault(key, c) == c


def test_singletons():
    assert Top() == TOP
    assert Bottom() == BOT


# ------------------------------------------------------ node identity


def identity_pool():
    """Every corpus closure member and every concept of the `kbs/` files."""
    found = set()
    for kb in corpus_kbs():
        found |= subconcept_closure(kb)
    for path in sorted(KBS.glob("*.kb")):
        found |= subconcept_closure(parse_kb(path.read_text(encoding="utf-8")))
    for path in sorted(KBS.glob("*_queries.txt")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.startswith("#"):
                q = parse_axiom(line)
                found |= subconcept_closure(parse_kb(""), (q.lhs, q.rhs))
    return sorted(found, key=concept_to_text)


def rebuild(c):
    """A structurally equal copy sharing no node with `c`."""
    if isinstance(c, Atom):
        return Atom(c.name)
    if isinstance(c, (Top, Bottom)):
        return type(c)()
    if isinstance(c, Not):
        return Not(rebuild(c.sub))
    if isinstance(c, (And, Or)):
        return type(c)(rebuild(c.left), rebuild(c.right))
    return type(c)(c.role, rebuild(c.sub))


def same_tree(x, y):
    """Structural equality that reads no cache and calls no `__eq__`."""
    if type(x) is not type(y):
        return False
    if isinstance(x, Atom):
        return x.name == y.name
    if isinstance(x, (Top, Bottom)):
        return True
    if isinstance(x, Not):
        return same_tree(x.sub, y.sub)
    if isinstance(x, (And, Or)):
        return same_tree(x.left, y.left) and same_tree(x.right, y.right)
    return x.role == y.role and same_tree(x.sub, y.sub)


def test_concept_key_is_the_rendered_text():
    pool = identity_pool()
    assert len(pool) > 30
    for c in pool:
        fresh = rebuild(c)
        assert concept_key(fresh) == concept_to_text(fresh) == concept_to_text(c)
        assert concept_key(fresh) == concept_key(c)


def test_equal_nodes_share_key_hash_and_equality():
    for c in identity_pool():
        x, y = rebuild(c), rebuild(c)
        assert x is not y
        assert x == y and y == x and not x != y
        assert hash(x) == hash(y) == hash(c)
        assert concept_key(x) == concept_key(y)
        assert len({x, y, c}) == 1


def test_caching_never_changes_equality():
    pool = identity_pool()
    for c in pool:
        for d in pool:
            x, y = rebuild(c), rebuild(d)
            expect = same_tree(x, y)
            assert (x == y) is expect
            concept_key(x)
            hash(y)
            assert (x == y) is expect and (y == x) is expect
            # a node with filled caches against one without
            assert (rebuild(c) == y) is expect and (x == rebuild(d)) is expect


def test_deep_nodes_hash_without_recursion():
    # each node's hash is stored as it is built, bottom-up, so hashing a
    # node 100,000 deep reads one slot and walks nothing
    deep_not, deep_and = A, B
    for _ in range(100_000):
        deep_not, deep_and = Not(deep_not), And(A, deep_and)
    for c in (deep_not, deep_and):
        assert hash(c) == hash(c._parts())
        assert c in {c, A}
    assert len({deep_not, deep_and, deep_not.sub, deep_and.right}) == 4


def test_nodes_are_immutable():
    c = And(A, Not(B))
    key, h = concept_key(c), hash(c)
    for field in ("left", "_key", "_hash"):
        with pytest.raises(AttributeError):
            setattr(c, field, B)
        with pytest.raises(AttributeError):
            delattr(c, field)
    assert (concept_key(c), hash(c), c.left) == (key, h, A)
