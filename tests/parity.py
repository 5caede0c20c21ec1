"""CLI parity records: what a fixed list of `typika` calls prints.

    python tests/parity.py SRC OUT

Imports `typika` from the directory SRC (this checkout's `src`, or that
of another checkout, such as the parent commit's), makes every call in
process through `typika.cli.main`, and writes OUT, one JSON record per
call: its arguments, exit code, stdout and stderr, with `timingMs` values
masked to 0. It prints the call count and the sha256 of OUT. Two source
trees that answer alike write the same bytes, so a `diff` of their OUT
files shows every change of verdict, exit code or message.

The calls are `check` and `rank` (text and `--json`), `compare` (text,
and `--json` at the default rank bound, 1 and 3), `query` under all
three semantics at those bounds, and `query --emit-model --json` under
both model semantics. They run over set1, set3 (also with an ABox),
`chain(1..4)`, `diamond(1..3)`, the role KBs, the two KBs of
`RANK_INFINITY`, 65 corpus KBs, 30 role-free pool KBs and 40 seed-8 role
KBs. The queries per KB are its closure rows (each default's antecedent
against each right-hand side), the first of them with extra spaces, a
`not not` row, a fresh-atom row, a strict row and a fresh-restriction
row. Each KB also gets a second query file, `compare`d (text and
`--json`) and `query`d line by line under all three semantics, with
two lines the node-table lookup of `parse_axiom` misses, so they take
the token parse: the first closure row with a trailing comment, and the
first antecedent against `top` (a key only where `top` is in the KB's
closure). Usage errors and help requests on the first KB follow: no
arguments, `--help`, an unknown subcommand or option, a subcommand's
`--help`, a missing or an extra argument, and bad `--semantics` and
`--rank-bound` values; each records the code of its `SystemExit` as the
exit code, and the child runs with `COLUMNS=80`, so help text wraps
alike everywhere.
Last come the spellings only argparse reads, or at the edge of the
cli's own reader: `--rank-bound=1`, `--semantics=rc`, `--js` for
`--json`, an option after the positionals, a repeated `--rank-bound`,
`-h` after the positionals and a KB path of `-1`, then `compare` (text
and `--json`) of the first KB over a query file whose second line is
malformed, and `query` of that line. Then `query --emit-model`, text
and `--json`, under all three semantics, on the
fresh-atom and fresh-restriction rows of set3, `chain(2)`, `diamond(2)`
and the role KBs: witnesses with lifted atoms and with role successor
sets, and under rc the verdict alone.

This checkout's test helpers build the KBs and write them as text files
to a temporary directory; a child process that imports only SRC's
`typika` makes the calls there, with relative paths, so no temporary
path is printed. Not a test: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
BOUNDS = ([], ["--rank-bound", "1"], ["--rank-bound", "3"])
SEMANTICS = ("rc", "single-pref", "enriched")
# stdout past this many characters is recorded as its sha256
LONG = 1 << 16
# a malformed query line: its typicality marker is not closed
BAD = "T(Bird => Fly"


def _cases() -> list[tuple[str, list[str], list[str], bool]]:
    """Per KB, its text, its query rows, its rows spelled off the
    canonical form and whether its fresh rows print witnesses."""
    sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]
    from typika.kb import Defeasible, Strict, serialize_axiom, serialize_kb
    from typika.parser import parse_kb
    from typika.syntax import TOP, And, Atom, Exists, Not

    from corpus import corpus_kbs
    from families import (RANK_INFINITY, ROLE_KBS, chain_text, diamond_text, random_kbs,
                          role_free_pools)

    set3 = (TESTS.parent / "kbs" / "set3.kb").read_text(encoding="utf-8")
    texts = [(TESTS.parent / "kbs" / "set1.kb").read_text(encoding="utf-8"), set3,
             set3 + "T(Penguin)(pingu)\nBird(tweety)\nknows(tweety, pingu)\n"]
    texts += [chain_text(n) for n in range(1, 5)] + [diamond_text(n) for n in range(1, 4)]
    texts += list(ROLE_KBS.values()) + list(RANK_INFINITY.values())
    pool = role_free_pools()["larger"]
    kbs = corpus_kbs()[::4] + pool[::5][:28] + [pool[38], pool[49]]
    kbs += random_kbs(8, 250, roles=("r",))[::6][:40]
    texts += [serialize_kb(kb) for kb in kbs]
    fresh, fish = Atom("Blond"), Exists("eats", Atom("Fish"))
    witnessed = {set3, chain_text(2), diamond_text(2), *ROLE_KBS.values()}
    cases = []
    for text in texts:
        kb = parse_kb(text)
        antes = list(dict.fromkeys(ax.lhs for ax in kb.defeasible))
        rhss = list(dict.fromkeys(ax.rhs for ax in kb.defeasible))
        rows = [serialize_axiom(Defeasible(a, r)) for a in antes for r in rhss]
        rows.append(rows[0].replace(" ", "  ").replace("(", "( "))
        rows += [serialize_axiom(q) for q in (
            Defeasible(Not(Not(antes[0])), Not(Not(rhss[-1]))),
            Defeasible(And(antes[0], fresh), rhss[-1]), Strict(antes[0], rhss[-1]),
            Defeasible(And(antes[-1], fish), rhss[0]))]
        odd = [rows[0] + "  # a comment", serialize_axiom(Defeasible(antes[0], TOP))]
        cases.append((text, rows, odd, text in witnessed))
    return cases


def _calls(cases: list[tuple[str, list[str], list[str], bool]]) -> list[list[str]]:
    """The argument lists, over the files `k.kb`, `k.txt` and `k.odd.txt`
    of case k, and `bad.txt`."""
    calls = []
    for k, (_, rows, odd, _) in enumerate(cases):
        kb, queries = f"{k}.kb", f"{k}.txt"
        calls += [["check", kb], ["check", "--json", kb], ["rank", kb], ["rank", "--json", kb],
                  ["compare", kb, queries]]
        calls += [["compare", "--json", *bound, kb, queries] for bound in BOUNDS]
        # the first closure row, spaced and as it is, and the last four:
        # `not not`, fresh atom, strict, restriction
        for row in [rows[0], rows[-5]] + rows[-4:]:
            calls += [["query", "--semantics", sem, *bound, kb, row]
                      for sem in SEMANTICS for bound in BOUNDS]
        calls += [["query", "--semantics", sem, "--emit-model", "--json", kb, rows[0]]
                  for sem in SEMANTICS[1:]]
        calls += [["compare", *form, kb, f"{k}.odd.txt"] for form in ([], ["--json"])]
        calls += [["query", "--semantics", sem, kb, row] for row in odd for sem in SEMANTICS]
    row = cases[0][1][0]
    calls += [[], ["--help"], ["-h"], ["bogus"], ["bogus", "0.kb"], ["--json", "check", "0.kb"],
              ["check"], ["check", "--", "0.kb"], ["check", "0.kb", "--json"],
              ["check", "--help"], ["rank", "-h"], ["compare", "--help"], ["query", "--help"],
              ["check", "0.kb", "extra"], ["check", "--bogus", "0.kb"],
              ["compare", "0.kb"], ["compare", "--json", "0.kb", "0.txt", "extra"],
              ["query", "0.kb", row], ["query", "--semantics", "rc", "0.kb"],
              ["query", "--semantics", "bogus", "0.kb", row],
              ["query", "--sem", "rc", "0.kb", row],
              ["query", "--semantics", "rc", "--rank-bound", "-1", "0.kb", row],
              ["compare", "--rank-bound", "-1", "0.kb", "0.txt"],
              ["compare", "--rank-bound", "x", "0.kb", "0.txt"],
              ["compare", "--rank-bound", "0.kb", "0.txt"]]
    # spellings only argparse reads, and those at the edge of `cli`'s own reader
    calls += [["compare", "--rank-bound=1", "0.kb", "0.txt"],
              ["query", "--semantics=rc", "0.kb", row], ["compare", "--js", "0.kb", "0.txt"],
              ["compare", "0.kb", "0.txt", "--json"],
              ["query", "0.kb", row, "--semantics", "enriched"],
              ["compare", "--json", "--rank-bound", "1", "--rank-bound", "3", "0.kb", "0.txt"],
              ["query", "--semantics", "rc", "0.kb", row, "-h"],
              ["check", "-1"], ["compare", "-1", "0.txt"]]
    # a malformed query line, in a file and as the argument
    calls += [["compare", "0.kb", "bad.txt"], ["compare", "--json", "0.kb", "bad.txt"],
              ["query", "--semantics", "rc", "0.kb", BAD]]
    # witnesses of the fresh-atom and fresh-restriction rows
    for k, (_, rows, _, witnessed) in enumerate(cases):
        if witnessed:
            calls += [["query", "--semantics", sem, "--emit-model", *form, f"{k}.kb", row]
                      for row in (rows[-3], rows[-1]) for sem in SEMANTICS
                      for form in ([], ["--json"])]
    return calls


def _run(src: str, calls_file: str, out: str) -> None:
    """In the child: every call of `calls_file`, one record each to `out`."""
    import contextlib
    import io

    sys.dont_write_bytecode = True
    sys.path.insert(0, src)
    from typika.cli import main

    timing = re.compile(r'"timingMs": [-+.0-9eE]+')
    with open(calls_file, encoding="utf-8") as fh:
        calls = json.load(fh)
    with open(out, "w", encoding="utf-8") as records:
        for argv in calls:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            text = timing.sub('"timingMs": 0', stdout.getvalue())
            if len(text) > LONG:
                text = f"sha256 {hashlib.sha256(text.encode()).hexdigest()}, {len(text)} chars"
            records.write(json.dumps({"argv": argv, "code": code, "stdout": text,
                                      "stderr": stderr.getvalue()}) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--child":
        _run(*argv[1:])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src, out = (os.path.abspath(a) for a in argv)
    cases = _cases()
    calls = _calls(cases)
    with tempfile.TemporaryDirectory() as tmp:
        for k, (text, rows, odd, _) in enumerate(cases):
            Path(tmp, f"{k}.kb").write_text(text, encoding="utf-8")
            Path(tmp, f"{k}.txt").write_text("".join(r + "\n" for r in rows), encoding="utf-8")
            Path(tmp, f"{k}.odd.txt").write_text("".join(r + "\n" for r in odd),
                                                 encoding="utf-8")
        Path(tmp, "bad.txt").write_text(f"{cases[0][1][0]}\n{BAD}\n", encoding="utf-8")
        Path(tmp, "calls.json").write_text(json.dumps(calls), encoding="utf-8")
        subprocess.run([sys.executable, __file__, "--child", src, "calls.json", out],
                       cwd=tmp, check=True,
                       env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "COLUMNS": "80"})
    digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
    print(f"{len(calls)} calls, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
