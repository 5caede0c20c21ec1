"""Knowledge bases beyond the corpus: exception chains, Nixon diamonds and
small role-bearing KBs, as KB text.

`chain(n)` has n levels: C_i => C_{i-1}, T(C_i) => P for even i and
not P for odd i, and T(C_i) => Q_i. `diamond(n)` has n Nixon diamonds:
T(Q_i) => P_i and T(R_i) => not P_i. `ROLE_KBS` holds ten `exists`/`forall`
KBs with at most three defaults, several cyclic and so needing blocking.
`RANK_INFINITY` holds two KBs whose defaults are all exceptional at
every level.

`random_kbs` draws seeded KBs, and `role_free_pools` holds the role-free
pools the acceptance gates read.

Run as a script, it prints the wide-domain record: one Markdown table row
per family KB, with the domain's types, the codes its stratification
enumerated (`_TypeElimination.candidates`), the milliseconds each layer takes
in turn (stratify, domain, constraint table, single-pref, enriched), then
those of three `compare` rows answered after the KB's own, for the first
default `T(X) => Y` and the second antecedent Z: a fresh-atom row
`T((X and Blond)) => Y`, a conjunction row `T((X and Z)) => Y` and a
fresh-atom-and-restriction row `T(((X and Blond) and exists eats. Fish))
=> Y`, the process's peak RSS (`ru_maxrss`), and the time and peak RSS of
`query --semantics enriched --emit-model --json` on that last row, in a
fresh process of its own writing to the null device. Each size runs in a
fresh process of its own, so each row's RSS is its own, with the cycle
collector off, so that no layer's cell is charged a collection another
layer's garbage triggered:

    PYTHONPATH=src python tests/families.py diamond 4 5

prints the rows of `diamond(4)` and `diamond(5)` under the header

    | KB | types | enumerated | stratify | domain | constraint table | single-pref | enriched | fresh rows | peak RSS | emit-model |

An enriched search that finds no model is timed too, and marked, as is
an `--emit-model` call that exits with an error.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Sequence

from typika.cli import _compare_row
from typika.kb import Defeasible, KnowledgeBase, Strict, serialize_axiom
from typika.models import (
    RankBoundExceededError,
    _constraints,
    build_canonical_domain,
    minimal_canonical_models,
    single_pref_model,
)
from typika.parser import parse_kb
from typika.ranking import RankedTBox, _TypeElimination, is_kb_consistent
from typika.syntax import And, Atom, Exists

from oracles import random_concept


def chain_text(n: int) -> str:
    lines = [f"C{i} => C{i - 1}" for i in range(1, n)]
    for i in range(n):
        lines.append(f"T(C{i}) => {'P' if i % 2 == 0 else 'not P'}")
        lines.append(f"T(C{i}) => Q{i}")
    return "".join(line + "\n" for line in lines)


def diamond_text(n: int) -> str:
    lines = []
    for i in range(1, n + 1):
        lines += [f"T(Q{i}) => P{i}", f"T(R{i}) => not P{i}"]
    return "".join(line + "\n" for line in lines)


def chain(n: int) -> KnowledgeBase:
    return parse_kb(chain_text(n))


def diamond(n: int) -> KnowledgeBase:
    return parse_kb(diamond_text(n))


ROLE_KBS = {
    "self-loop": "B => exists r. B\nT(B) => C\nT((B and D)) => not C\n",
    "loop-forall": "A => exists r. A\nT(A) => forall r. B\nT(B) => exists s. C\n",
    "loop-exception": "A => exists h. A\nT(A) => forall h. B\nT((A and C)) => not B\n",
    "exists-forall": "T(A) => exists r. B\nT((A and C)) => forall r. not B\n",
    "forall-exists": "A => forall r. B\nT(A) => exists r. top\nT(B) => C\n",
    "two-roles": ("A => exists r. (B and C)\nB => forall s. not C\n"
                  "T(A) => D\nT((A and E)) => not D\n"),
    "disjunction": "(A or B) => exists r. A\nT(A) => not B\nT(B) => C\n",
    "mutual-loop": "A => exists r. B\nB => exists r. A\nT(A) => C\nT(B) => not C\n",
    "forall-disjunction": ("A => forall r. (B or C)\nT(A) => exists r. not B\n"
                           "T(B) => D\n"),
    "successor-exception": "A => exists r. B\nB => forall r. A\nT(A) => C\nT(B) => not C\n",
}


# defaults exceptional at every level, each antecedent's consequents
# contradictory: twelve `T(A_i) => bot`, and eight pairs `T(A_i) => B_i`,
# `T(A_i) => not B_i`
RANK_INFINITY = {
    "bot": "".join(f"T(A{i}) => bot\n" for i in range(12)),
    "pairs": "".join(f"T(A{i}) => B{i}\nT(A{i}) => not B{i}\n" for i in range(8)),
}


def role_kbs() -> dict[str, KnowledgeBase]:
    return {name: parse_kb(text) for name, text in ROLE_KBS.items()}


def random_kbs(seed: int, count: int, roles: Sequence[str] = (), atoms: str = "ABCD",
               defaults: tuple[int, int] = (1, 4),
               stricts: tuple[int, int] = (0, 0)) -> list[KnowledgeBase]:
    """The first `count` consistent KBs drawn from `random.Random(seed)`:
    each has a seeded number of defaults in the range `defaults`, then of
    strict axioms in the range `stricts`, with both sides from
    `random_concept` (depth 2, at most one quantifier on `roles`). With no
    strict axioms asked for, none is drawn, so a pool's KBs depend only on
    its seed and its other arguments."""
    rng = random.Random(seed)
    out: list[KnowledgeBase] = []

    def side():
        return random_concept(rng, atoms, roles, depth=2, role_depth=1)

    while len(out) < count:
        axioms = [Defeasible(side(), side()) for _ in range(rng.randint(*defaults))]
        if stricts[1]:
            axioms += [Strict(side(), side()) for _ in range(rng.randint(*stricts))]
        kb = KnowledgeBase.build(axioms)
        if is_kb_consistent(RankedTBox(kb)):
            out.append(kb)
    return out


def role_free_pools() -> dict[str, list[KnowledgeBase]]:
    """The seeded role-free pools: the 250 KBs of one to four defaults over
    four atoms (seed 7), and 150 larger ones of three to six defaults and
    up to two strict axioms over five atoms (seed 107)."""
    return {"seed7": random_kbs(7, 250),
            "larger": random_kbs(107, 150, atoms="ABCDE", defaults=(3, 6), stricts=(0, 2))}


def record_row(family: str, n: int) -> str:
    """The wide-domain record's row for `chain(n)` or `diamond(n)`, each
    layer timed in turn in this process, the `--emit-model` call in a
    fresh one."""
    nodes: dict = {}
    text = {"chain": chain_text, "diamond": diamond_text}[family](n)
    kb = parse_kb(text, nodes)
    cells = []

    def timed(step):
        start = perf_counter()
        out, note = None, " (no model)"
        try:
            out, note = step(), ""
        except RankBoundExceededError:
            pass
        cells.append(f"{(perf_counter() - start) * 1e3:.2f} ms{note}")
        return out

    listed = []  # the length of each candidate list the stratification enumerates
    candidates = _TypeElimination.candidates

    def counted(engine, axioms):
        codes = candidates(engine, axioms)
        listed.append(len(codes))
        return codes

    _TypeElimination.candidates = counted
    try:
        ranked = timed(lambda: RankedTBox(kb))
    finally:
        _TypeElimination.candidates = candidates
    domain = timed(lambda: build_canonical_domain(ranked))
    timed(lambda: _constraints(domain, kb))
    timed(lambda: single_pref_model(kb, domain))
    timed(lambda: minimal_canonical_models(kb, domain))
    first = kb.defeasible[0]
    antes = list(dict.fromkeys(ax.lhs for ax in kb.defeasible))
    blond = And(first.lhs, Atom("Blond"))
    rows = [Defeasible(blond, first.rhs),
            Defeasible(And(first.lhs, antes[min(1, len(antes) - 1)]), first.rhs),
            Defeasible(And(blond, Exists("eats", Atom("Fish"))), first.rhs)]
    ranks: dict = {}  # per table, both minimal models' rank masks, as `compare` keeps them
    row_ms = []
    for row in rows:
        start = perf_counter()
        _compare_row(ranked, serialize_axiom(row), None, nodes, ranks)
        row_ms.append(f"{(perf_counter() - start) * 1e3:.2f}")
    cells.append(" / ".join(row_ms) + " ms")
    cells.append(f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "kb.kb")
        path.write_text(text)
        start = perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "typika", "query", "--semantics",
                                  "enriched", "--emit-model", "--json", str(path),
                                  serialize_axiom(rows[-1])], stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    cells.append(f"{(perf_counter() - start) * 1e3:.0f} ms, {usage.ru_maxrss / 1024:.0f} MB"
                 + (f" (exit {code})" if code else ""))
    return f"| `{family}({n})` | {domain.size:,} | {sum(listed):,} | {' | '.join(cells)} |"


def main(argv: list[str]) -> int:
    family, sizes = argv[0], argv[1:]
    if len(sizes) == 1:
        gc.disable()
        print(record_row(family, int(sizes[0])))
        return 0
    for n in sizes:
        done = subprocess.run([sys.executable, __file__, family, n])
        if done.returncode:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
