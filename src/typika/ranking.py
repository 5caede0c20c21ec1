"""Rank-based entailment over defeasible knowledge bases.

The defeasible axioms are stratified by repeated exceptionality checks: a
concept is exceptional at a level when the strict axioms and the level's
material counterparts classically force it empty. The stratification and
the ranks come from type elimination (Pratt 1979) over a subconcept
closure: level i keeps the types that some model of the strict axioms and
the material counterparts of `levels[i]` realises, an antecedent is
exceptional at level i when it holds in none of them, and a concept's
rank is the least level at which a type holding it survives (Giordano et
al., "Semantic characterization of rational closure", AIJ 2015). Each
table enumerates its candidate types once, pruned as they are built by
axioms every level holds, and filters that list for each level: the
stratification by the antecedents every level empties (`_kept`), a table over
a widened closure, whose levels are known, by the last level.
One rule picks the table a concept is answered on, for ranks and models
alike: the KB's closure widened by the concept's restrictions outside it
(`RankedTBox.outside`, a walk that stops at closure members). No axiom
reads the concept's atoms that table has no bit for, so they are lifted
(`CanonicalDomain.lift`, handed them by that walk): the concept is read
once per assignment of `top` or `bot` to them. A query `C => D` or
`T(C) => D` is placed once (`RankedTBox.place`): one walk gives its
table, and the table gives two masks, the extension of C and that of
`C and not D`, each OR-ed over the lifted variants; a query with
nothing outside the closure reads them off the KB's own table as they
are. Ranks are plain ints (`math.inf` for a concept exceptional at
every level), read in one place, `level`, `highest`, `least` and
`counterexamples`, over a table's level survivors and a model's rank
masks alike, so rank entailment and both model semantics ask one
question: do a query's counterexamples meet its antecedent's
least-ranked instances? The tableau makes one call per
KB, a cross-check of the KB's consistency against the engine: it is
handed the strict axioms and the last level's defaults as one list of
inclusions, each default read as its material counterpart, as the
levels read it.

Concepts are evaluated structurally in one place, `Extensions`: a
concept's extension is an int bitmask over an ordered list of type codes,
its atoms and restrictions read off the codes' bits as columns by one
kernel in C (`_column`, which `bitmask` shares) and its connectives taken
as mask arithmetic. A table's enumeration, when every code it lists
survives, is its canonical domain's (`CanonicalDomain`) evaluator, so the
columns the levels read serve the ranks and the models too.

The caller owns the stratification: it builds one `RankedTBox` per KB and
passes it on; the model searches of `models` take the domain the caller
built from it. The `RankedTBox` keeps its tables and placed queries, so
they live as long as the caller keeps it; this module keeps no state.
"""

from __future__ import annotations

import math
import operator
from itertools import compress, count, product, repeat
from typing import Collection, Iterable, Optional, Sequence, Union

from .kb import Defeasible, KnowledgeBase, Strict, cached, subconcept_closure
from .syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Bottom,
    Concept,
    Exists,
    Forall,
    Not,
    Or,
    Top,
    complement,
    concept_key,
    substitute,
    to_nnf,
)
from .tableau import StrictTBox, entails_strict


# per bit k of a byte, each byte value's digit: "1" when bit k is set
_DIGITS = tuple(bytes(48 + (v >> k & 1) for v in range(256)) for k in range(8))
# the digits back to the bytes 0 and 1
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _column(data: bytes, k: int) -> int:
    """The column kernel: the int whose bit i is bit k of `data[i]`, read
    in C, with no Python step per byte."""
    return int(data.translate(_DIGITS[k])[::-1] or b"0", 2)


def bitmask(flags: Iterable[object]) -> int:
    """The int whose bit j is set when the j-th flag is truthy."""
    return _column(bytes(map(bool, flags)), 0)


def _flags(mask: int) -> bytes:
    """Byte j is 1 when bit j of the mask is set, else 0, up to its
    highest set bit."""
    return bin(mask)[:1:-1].encode().translate(_FROM_DIGITS)


def elements(mask: int) -> list[int]:
    """The positions of the set bits of a mask, ascending."""
    return list(compress(count(), _flags(mask)))


def select(items: Sequence[int], mask: int) -> list[int]:
    """The items at the set bits of the mask, in order."""
    return list(compress(items, _flags(mask)))


def _pack(codes: Sequence[int], width: int) -> tuple[bytes, int]:
    """The codes of `width` bits as little-endian bytes, the same number
    per code (the stride, returned too)."""
    stride = (width + 7) // 8
    return b"".join(map(int.to_bytes, codes, repeat(stride), repeat("little"))), stride


def level(masks: Sequence[int], mask: int) -> float:
    """The index of the first of the masks that meets `mask`, or
    `math.inf`: over a table's levels, the rank of that extension."""
    for i, m in enumerate(masks):
        if m & mask:
            return i
    return math.inf


def highest(masks: Sequence[int], mask: int) -> int:
    """The index of the last of the masks that meets `mask`, or -1: over a
    model's rank masks, the greatest rank in that mask."""
    for r in range(len(masks) - 1, -1, -1):
        if masks[r] & mask:
            return r
    return -1


def least(masks: Sequence[int], ext: int) -> int:
    """The least-ranked members of `ext`: those in the first of the masks
    that meets it (0 when none does)."""
    for m in masks:
        if m & ext:
            return m & ext
    return 0


def counterexamples(masks: Sequence[int], query: Union[Strict, Defeasible],
                    lhs: int, off: int) -> int:
    """The elements a query fails on under the masks, from its two masks
    (`RankedTBox.place`): all of `off` (`lhs and not rhs`) for a strict
    query, those among the least-ranked members of `lhs` otherwise."""
    return off if isinstance(query, Strict) else off & least(masks, lhs)


def _beyond(concepts: Iterable[Concept], closure: Collection[Concept]) -> list[Concept]:
    """The subconcepts of `concepts` outside `closure`, a set closed under
    subconcepts: every subconcept of a member is a member, so the walk
    stops at members."""
    out = []
    todo = [c for c in concepts if c not in closure]
    while todo:
        c = todo.pop()
        out.append(c)
        if isinstance(c, (Not, Exists, Forall)):
            parts: tuple[Concept, ...] = (c.sub,)
        elif isinstance(c, (And, Or)):
            parts = (c.left, c.right)
        else:
            continue
        todo.extend(s for s in parts if s not in closure)
    return out


class Extensions:
    """Concept extensions as int bitmasks over an ordered list of type codes:
    bit j of a concept's mask is set when the concept holds in `codes[j]`.

    An atom or restriction holds where its bit (`bit`) is set in the code.
    Its mask is a column of the codes, read by the column kernel off the
    codes packed as bytes once (on the first column asked for) and
    memoised per bit; `not`, `and` and `or` are mask arithmetic. Every atom
    and restriction of an evaluated concept needs a bit.
    """

    def __init__(self, bit: dict[Concept, int], codes: Sequence[int]):
        self.bit = bit
        self.codes = codes
        self.full = (1 << len(codes)) - 1
        self._on: dict[int, int] = {}
        self._packed: Optional[tuple[bytes, int]] = None

    def on(self, bit: int) -> int:
        """The codes with the bit set."""
        mask = self._on.get(bit)
        if mask is None:
            if self._packed is None:
                self._packed = _pack(self.codes, max(self.bit.values()).bit_length())
            data, stride = self._packed
            j = bit.bit_length() - 1
            mask = self._on[bit] = _column(data[j // 8::stride], j % 8)
        return mask

    def matching(self, need: int, forbid: int) -> int:
        """The codes with every bit of `need` set and every bit of `forbid`
        clear."""
        mask = self.full
        while need:
            b = need & -need
            mask &= self.on(b)
            need ^= b
        while forbid:
            b = forbid & -forbid
            mask &= ~self.on(b)
            forbid ^= b
        return mask

    def __call__(self, c: Concept) -> int:
        kind = c.__class__  # no concept class is subclassed
        if kind is Atom or kind is Exists or kind is Forall:
            return self.on(self.bit[c])
        if kind is Not:
            return self.full ^ self(c.sub)
        if kind is And:
            return self(c.left) & self(c.right)
        if kind is Or:
            return self(c.left) | self(c.right)
        if kind is Top:
            return self.full
        if kind is Bottom:
            return 0
        raise TypeError(f"not a concept: {c.__class__.__name__}")


class _TypeElimination:
    """Type elimination (Pratt 1979) over the positive (non-negated) members
    of a closure. The closure is closed under subconcepts and single
    negation and holds both sides of every inclusion, so a type survives
    exactly when some model of the inclusions realises it.

    A type is coded as an int with one bit per positive, set when the
    positive holds; the first positive in `concept_key` order gets the
    highest bit, so descending codes are the order of the literal tree
    (positive literal first, members in `concept_key` order). Atoms and
    restrictions are free bits; a boolean positive's bit is derived from
    them by `Extensions`.
    """

    def __init__(self, closure: Iterable[Concept]):
        self.closure = tuple(sorted(closure, key=concept_key))
        self.positives = [c for c in self.closure if not isinstance(c, Not)]
        width = len(self.positives)
        self.bits = [1 << (width - 1 - k) for k in range(width)]
        self.bit = dict(zip(self.positives, self.bits))
        self.roles = sorted({p.role for p in self.positives if isinstance(p, (Exists, Forall))})
        # per role: the bit of each restriction and the masks of its filler
        self.exists: dict[str, list[tuple[int, int, int]]] = {r: [] for r in self.roles}
        self.foralls: dict[str, list[tuple[int, int, int]]] = {r: [] for r in self.roles}
        # per role, the bits of its restrictions, all a type's successor
        # test and demands read
        self.role_bits = dict.fromkeys(self.roles, 0)
        for p in self.positives:
            if isinstance(p, (Exists, Forall)):
                table = self.exists if isinstance(p, Exists) else self.foralls
                table[p.role].append((self.bit[p], *self._masks(p.sub)))
                self.role_bits[p.role] |= self.bit[p]

    def _masks(self, c: Concept) -> tuple[int, int]:
        """The bits set and the bits clear in every type c holds in; swapped,
        the same for `not c`."""
        holds = True
        while isinstance(c, Not):
            c, holds = c.sub, not holds
        bit = self.bit[c]
        return (bit, 0) if holds else (0, bit)

    def _free_bits(self, c: Concept) -> int:
        """The bits of the atoms and restrictions c's truth depends on."""
        if isinstance(c, (Atom, Exists, Forall)):
            return self.bit[c]
        if isinstance(c, Not):
            return self._free_bits(c.sub)
        if isinstance(c, (And, Or)):
            return self._free_bits(c.left) | self._free_bits(c.right)
        return 0

    def candidates(self, axioms: Sequence[Union[Strict, Defeasible]]) -> list[int]:
        """Every code that agrees with structural evaluation on its boolean
        members and satisfies each axiom as a classical inclusion, in
        literal-tree order."""
        free = [b for p, b in zip(self.positives, self.bits)
                if isinstance(p, (Atom, Exists, Forall))]
        # an inclusion is checked as soon as every bit it reads is assigned
        checks: list[list[Union[Strict, Defeasible]]] = [[] for _ in range(len(free) + 1)]
        for ax in axioms:
            read = self._free_bits(ax.lhs) | self._free_bits(ax.rhs)
            last = max((n for n, b in enumerate(free, 1) if read & b), default=0)
            checks[last].append(ax)
        codes = [0]
        for n in range(len(free) + 1):
            if n:
                # each code with the next free bit set, then clear
                doubled = codes * 2
                doubled[::2] = map(free[n - 1].__or__, codes)
                doubled[1::2] = codes
                codes = doubled
            if checks[n]:
                codes = select(codes, self.holding(Extensions(self.bit, codes), checks[n]))
        ext = Extensions(self.bit, codes)
        for p, b in zip(self.positives, self.bits):
            if not isinstance(p, (Atom, Exists, Forall)):
                for j in elements(ext(p)):
                    codes[j] |= b
        codes.sort(reverse=True)
        return codes

    @staticmethod
    def holding(ext: Extensions, axioms: Iterable[Union[Strict, Defeasible]]) -> int:
        """The codes of `ext` that satisfy each axiom as a classical inclusion."""
        bad = 0
        for ax in axioms:
            bad |= ext(ax.lhs) & ~ext(ax.rhs)
        return ext.full ^ bad

    def surviving(self, ext: Extensions, level: Iterable[Defeasible]) -> int:
        """The codes of `ext` that survive a level, `holding` it then `eliminate`:
        over `candidates(strict + base)`, its survivors if it holds `base`."""
        return self.eliminate(ext, self.holding(ext, level))

    def successor_masks(self, code: int, role: str) -> tuple[int, int]:
        """The bits a role successor of the type must have set and clear: it
        holds E for each `forall role. E` and not F for each `not exists
        role. F` of the type."""
        need = forbid = 0
        for b, on, off in self.foralls[role]:
            if code & b:
                need, forbid = need | on, forbid | off
        for b, on, off in self.exists[role]:
            if not code & b:
                need, forbid = need | off, forbid | on
        return need, forbid

    def _demands(self, code: int) -> list[tuple[int, int]]:
        """Per `exists r. C` and `not forall r. D` of the type, the masks of
        the successor it needs: an r-successor that holds C, or not D."""
        out = []
        for role in self.roles:
            need, forbid = self.successor_masks(code, role)
            for b, on, off in self.exists[role]:
                if code & b:
                    out.append((need | on, forbid | off))
            for b, on, off in self.foralls[role]:
                if not code & b:
                    out.append((need | off, forbid | on))
        return out

    def eliminate(self, ext: Extensions, alive: int) -> int:
        """Drops from `alive`, a bitmask over `ext.codes`, every code with a
        demand no code left in it meets, until none is dropped. A code's
        demands read only its restriction bits, so they are taken once per
        distinct restriction bits; without restrictions there are none."""
        if not self.roles:
            return alive
        positions = elements(alive)
        keys = list(map(sum(self.role_bits.values()).__and__,
                        map(ext.codes.__getitem__, positions)))
        demands = {k: self._demands(k) for k in set(keys)}
        while True:
            met = {d: ext.matching(*d) & alive for d in {d for ds in demands.values() for d in ds}}
            ok = {k: all([met[d] for d in ds]) for k, ds in demands.items()}
            kept = list(map(ok.__getitem__, keys))
            if all(kept):
                return alive
            for j in compress(positions, map(operator.not_, kept)):
                alive ^= 1 << j
            positions = list(compress(positions, kept))
            keys = list(compress(keys, kept))
            demands = {k: demands[k] for k in set(keys)}

    def successors(self, ext: Extensions) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
        """Per role, the successor sets over `ext.codes`, each a bitmask of
        the types that pass the successor test, one per distinct bits of the
        role's restrictions in order of first use, and each type's index
        into them."""
        out = {}
        for role, bits in self.role_bits.items():
            keys = list(map(bits.__and__, ext.codes))
            index = {k: n for n, k in enumerate(dict.fromkeys(keys))}
            out[role] = (tuple(ext.matching(*self.successor_masks(k, role)) for k in index),
                         tuple(map(index.__getitem__, keys)))
        return out


class CanonicalDomain:
    """The types over one closure, each with the first level it survives,
    which is the closure's canonical domain: one element per maximal
    KB-satisfiable type.

    Element i is the type code `codes[i]`, one per type surviving the last
    level, in descending code order: the literal tree's order over
    `closure` (sorted). `eval` gives concept extensions as int bitmasks
    over the elements, for ranks and models alike. The levels only
    shrink, so their survivors (`levels`) only grow, and a concept's rank
    is the least level at which a type holding it survives (`level` of
    its extension); its restrictions must be members of the closure, and
    its atoms that are not are lifted first (`lift`, and `masks` for both
    sides of a query). `successors[role]` is `(sets, of)`: the distinct
    successor sets, as bitmasks of the elements role edges reach, and
    each element's index into them. The literal sets (`types`), built only
    to print a model, read each positive's bit: the positive or its one
    shared `not` node. `_memo` holds one `models._Constraints` table per KB.
    Instances compare by identity.
    """

    def __init__(self, engine: _TypeElimination, ext: Extensions, alive: Sequence[int]):
        self.engine = engine
        self.closure = engine.closure
        last = alive[-1]  # when every code survives, the enumeration's own evaluator
        self.eval = ext if last == ext.full else Extensions(engine.bit, select(ext.codes, last))
        self.codes = self.eval.codes
        self.levels = [bitmask(compress(_flags(a), _flags(last))) for a in alive]
        self._memo: dict[KnowledgeBase, object] = {}

    @property
    def size(self) -> int:
        return len(self.codes)

    def masks(self, lhs: Concept, rhs: Concept, atoms: Collection[Concept]) -> tuple[int, int]:
        """The extension of `lhs` and that of `lhs and not rhs` (the
        counterexamples of `lhs => rhs`), each OR-ed over the variants
        `lift` gives, `atoms` passed on to it; with no atoms, read off
        `eval` as they are."""
        if not atoms:
            ext = self.eval(lhs)
            return ext, ext & ~self.eval(rhs)
        ext = off = 0
        for left, right in self.lift((lhs, rhs), atoms):
            mask = self.eval(left)
            ext |= mask
            off |= mask & ~self.eval(right)
        return ext, off

    def lifted(self, atoms: Iterable[Concept]) -> frozenset[Concept]:
        """The atoms among `atoms` (`RankedTBox.outside`) the table has no
        bit for: no axiom reads them, so each type stands for one per assignment."""
        return frozenset(a for a in atoms if a not in self.eval.bit)

    def lift(self, concepts: Sequence[Concept],
             atoms: Iterable[Concept]) -> list[tuple[Concept, ...]]:
        """The concepts once per assignment of `top` or `bot` to the atoms
        `lifted` finds among `atoms`: 2^k tuples for k of them."""
        fresh = tuple(self.lifted(atoms))
        if not fresh:
            return [tuple(concepts)]
        return [tuple(substitute(c, dict(zip(fresh, values))) for c in concepts)
                for values in product((TOP, BOT), repeat=len(fresh))]

    @cached
    def successors(self) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
        return self.engine.successors(self.eval)

    @cached
    def types(self) -> tuple[frozenset[Concept], ...]:
        literals = [(b, p, complement(p)) for p, b in zip(self.engine.positives, self.engine.bits)]
        return tuple(frozenset(p if code & b else neg for b, p, neg in literals)
                     for code in self.codes)


def _folds_to_bot(c: Concept) -> bool:
    """Whether a concept in NNF is `bot` once its constants are folded:
    `bot`, a conjunction with such a part, a disjunction of two, or an
    `exists` with such a filler."""
    kind = c.__class__
    if kind is And:
        return _folds_to_bot(c.left) or _folds_to_bot(c.right)
    if kind is Or:
        return _folds_to_bot(c.left) and _folds_to_bot(c.right)
    if kind is Exists:
        return _folds_to_bot(c.sub)
    return kind is Bottom


def _kept(defaults: Sequence[Defeasible]) -> tuple[Strict, ...]:
    """`C => bot` for each antecedent C whose defaults every level keeps:
    C cannot hold with all of its consequents, one of them `bot` in NNF
    with its constants folded (`not top`, `(X and bot)`, say) or a concept
    and its complement. A level holding the defaults forces C empty, so
    from the first level, which holds every default, each level keeps
    them, and a type survives a level only without C. As an inclusion,
    `C => bot` reads C's bits alone, so the enumeration drops those types
    as soon as C's bits are set."""
    groups: dict[Concept, set[Concept]] = {}
    for ax in defaults:
        groups.setdefault(ax.lhs, {ax.lhs}).add(ax.rhs)
    return tuple(Strict(c, BOT) for c, group in groups.items()
                 if any(_folds_to_bot(to_nnf(d)) or isinstance(d, Not) and d.sub in group
                        for d in group))


# a placed query: its table, its two masks and its atoms outside the closure
_Placed = tuple[CanonicalDomain, int, int, frozenset[Atom]]
# what `outside` finds for concepts in the closure: no restriction, no atom
_INSIDE: tuple[frozenset, frozenset] = (frozenset(), frozenset())


class RankedTBox:
    """The stratification of a knowledge base by exceptionality.

    `levels[i]` holds the defeasible axioms still exceptional after i
    rounds, to a fixpoint, so the last level repeats under one more round.
    The candidates of the KB's own closure (`closure`) are enumerated once,
    for the strict axioms and the antecedents the defaults every level
    keeps make empty (`_kept`),
    and each round filters them by the level's material counterparts
    (`surviving`): an axiom stays when no type surviving the level holds
    its antecedent. The last level's survivors make the KB's table, its
    `CanonicalDomain`. A concept is ranked on `table(R)`, R its
    restrictions outside the closure (`outside`; the KB's own table for
    none), its atoms that table has no bit for lifted. A widened table has
    the same levels, each a filter of the last level's candidates;
    `table` builds it once and keeps it, the domain
    `models.build_canonical_domain` returns for that widening. A query's
    table and two masks (`place`) are memoised per query, and a concept is
    ranked as the query `C => bot`. The constructor makes exactly one
    tableau call: the consistency of the strict axioms plus the last
    level's defaults, each `T(C) => D` read as `C => D`
    (`StrictTBox.from_axioms`), which must agree with whether any type
    survives the last level.
    """

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.closure = subconcept_closure(kb)
        engine = _TypeElimination(self.closure)
        base = Extensions(engine.bit, engine.candidates(kb.strict + _kept(kb.defeasible)))
        level = tuple(kb.defeasible)
        self.levels: list[tuple[Defeasible, ...]] = [level]
        alive = []
        while True:
            alive.append(engine.surviving(base, level))
            # an axiom stays when the level forces its antecedent empty
            nxt = tuple(ax for ax in level if not base(ax.lhs) & alive[-1])
            if nxt == level:
                break
            level = nxt
            self.levels.append(level)
        self._tables = {frozenset(): CanonicalDomain(engine, base, alive)}
        self._placed: dict[Union[Strict, Defeasible], _Placed] = {}
        if entails_strict(StrictTBox.from_axioms(kb.strict + level), TOP, BOT) == bool(alive[-1]):
            raise AssertionError("type elimination and the tableau disagree on "
                                 "the consistency of the knowledge base")

    def outside(self, concepts: Iterable[Concept]) -> tuple[frozenset[Concept], frozenset[Atom]]:
        """The restrictions and the atoms of `concepts` outside the KB's
        closure: the concepts are answered on `table` of the restrictions,
        with the atoms it has no bit for lifted. Concepts with no atom or
        restriction outside the closure all get one shared pair of empty
        sets."""
        found = [s for s in _beyond(concepts, self.closure)
                 if isinstance(s, (Atom, Exists, Forall))]
        if not found:
            return _INSIDE
        atoms = frozenset(s for s in found if isinstance(s, Atom))
        return frozenset(found) - atoms, atoms

    def table(self, concepts: Collection[Concept]) -> CanonicalDomain:
        """The table over the KB's closure widened by `concepts` (the KB's
        own when they add nothing), memoised per widening: the positive
        members, booleans included, that `concepts` add, found without
        building the widened closure, so a closure and the concepts it
        widens the KB's by give one table."""
        key = frozenset(s for s in _beyond(concepts, self.closure) if not isinstance(s, Not))
        table = self._tables.get(key)
        if table is None:
            engine = _TypeElimination(subconcept_closure(self.kb, concepts))
            last = Extensions(engine.bit, engine.candidates(self.kb.strict + self.levels[-1]))
            table = self._tables[key] = CanonicalDomain(
                engine, last, [engine.surviving(last, level) for level in self.levels])
        return table

    def rank(self, concept: Concept) -> float:
        """Least level at which the concept is not exceptional: an int, or
        `math.inf` when there is none."""
        table, ext, _, _ = self.place(Strict(concept, BOT))
        return level(table.levels, ext)

    def place(self, query: Union[Strict, Defeasible]) -> _Placed:
        """The table a query is answered on, ranks and models alike, its
        `lhs` extension and counterexamples `lhs and not rhs` over it
        (`CanonicalDomain.masks`) and its atoms outside the KB's closure,
        from one walk of the query (`outside`). A query with no
        restriction outside the closure takes the KB's own table, with no
        second walk (`table`), and one with nothing outside it has its
        masks read with no lifting. Memoised per query, so its rank
        entailment, model verdicts and printed model share it."""
        hit = self._placed.get(query)
        if hit is None:
            restrictions, atoms = self.outside((query.lhs, query.rhs))
            table = self.table(restrictions) if restrictions else self._tables[frozenset()]
            hit = self._placed[query] = (table, *table.masks(query.lhs, query.rhs, atoms), atoms)
        return hit


def satisfiable_wrt_kb(ranked: RankedTBox, concept: Concept) -> bool:
    """Whether a concept has finite rank, i.e. is realisable under the KB."""
    return ranked.rank(concept) < math.inf


def is_kb_consistent(ranked: RankedTBox) -> bool:
    return satisfiable_wrt_kb(ranked, TOP)


def in_rational_closure(ranked: RankedTBox, query) -> bool:
    """Rank-based entailment of a strict or defeasible inclusion: the
    query's two masks (`RankedTBox.place`) leave no counterexamples under
    its table's levels. A strict query holds when its counterexamples have
    no rank, a defeasible one when they rank above its `lhs` (or its `lhs`
    has no rank)."""
    if not isinstance(query, (Strict, Defeasible)):
        raise TypeError(f"not an inclusion query: {query!r}")
    table, lhs, off, _ = ranked.place(query)
    return not counterexamples(table.levels, query, lhs, off)
