import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import typika.cli
import typika.models
from typika.cli import main
from typika.kb import (Defeasible, KnowledgeBase, Strict, serialize_axiom, serialize_kb,
                       subconcept_closure)
from typika.models import (CanonicalDomain, RankBoundExceededError, build_canonical_domain,
                           minimal_canonical_models, single_pref_model)
from typika.parser import KBSyntaxError, intern, parse_axiom, parse_kb
from typika.ranking import RankedTBox, elements, in_rational_closure, level
from typika.syntax import (BOT, TOP, And, Atom, Exists, Forall, Not, Or, complement, concept_key,
                           concept_to_text, subconcepts)

from conftest import GOLDEN, KBS, REPO, SET1_TEXT, SET3_TEXT
from corpus import corpus_kbs
from families import ROLE_KBS, chain_text, diamond_text, random_kbs, role_free_pools
from oracles import holds_in_by_variants, model_of, rc_by_and_node, widened_compare_row
from test_models import random_kbs_with_domains
from test_tableau import DEEP_KB

SET3 = str(KBS / "set3.kb")
SET1 = str(KBS / "set1.kb")
SET3_QUERIES = str(KBS / "set3_queries.txt")
SET1_QUERIES = str(KBS / "set1_queries.txt")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


# ------------------------------------------------------------- check


def test_check_consistent(capsys):
    code, out, err = run(capsys, ["check", SET3])
    assert (code, out, err) == (0, "consistent\n", "")


def test_check_inconsistent(capsys, tmp_path):
    bad = tmp_path / "bad.kb"
    bad.write_text("A => bot\ntop => A\n")
    code, out, _ = run(capsys, ["check", str(bad)])
    assert (code, out) == (1, "inconsistent\n")


def test_deep_tableau_search_needs_no_recursion(capsys, tmp_path):
    # the tableau's consistency cross-check on this KB branches and adds
    # successors deeper than Python's recursion limit
    kb = tmp_path / "deep.kb"
    kb.write_text(DEEP_KB)
    code, out, err = run(capsys, ["check", str(kb)])
    assert (code, out, err) == (0, "consistent\n", "")


# An inconsistent role KB on which the tableau's consistency cross-check
# does not finish (type elimination decides it in milliseconds).
HANGING_KB = ("exists r. (D and top) => (exists r. bot or D)\n"
              "A => bot\n"
              "T(forall r. not A) => E\n"
              "T(forall r. (bot and top)) => not (bot and C)\n"
              "T(not C) => ((C and E) and not A)\n"
              "T(forall r. (B or top)) => exists r. (top and B)\n"
              "T((C or (C and bot))) => exists r. not C\n"
              "T(exists r. A) => exists r. (E and D)\n")


@pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired,
                   reason="the tableau does not terminate on this KB")
def test_check_answers_the_hanging_kb_fast(tmp_path):
    kb = tmp_path / "hanging.kb"
    kb.write_text(HANGING_KB)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    # run() kills the child when the timeout expires
    proc = subprocess.run([sys.executable, "-m", "typika", "check", str(kb)],
                          capture_output=True, text=True, env=env, timeout=5)
    assert (proc.returncode, proc.stdout) == (1, "inconsistent\n")


def test_check_json_keys(capsys):
    code, doc, _ = run_json(capsys, ["check", "--json", SET3])
    assert code == 0
    assert set(doc) == {"command", "kb", "consistent", "timingMs"}
    assert doc["command"] == "check" and doc["kb"] == SET3
    assert doc["consistent"] is True
    assert isinstance(doc["timingMs"], (int, float))


def test_check_abox(capsys, tmp_path):
    ok = tmp_path / "ok.kb"
    ok.write_text(SET3_TEXT + "T(Penguin)(pingu)\n")
    assert run(capsys, ["check", str(ok)])[0] == 0
    clash = tmp_path / "clash.kb"
    clash.write_text(SET3_TEXT + "T(Penguin)(pingu)\nFly(pingu)\n")
    code, out, _ = run(capsys, ["check", str(clash)])
    assert (code, out) == (1, "inconsistent\n")
    # a role assertion alone gives an empty closure and a one-element domain
    roles_only = tmp_path / "roles_only.kb"
    roles_only.write_text("r(a, b)\n")
    assert run(capsys, ["check", str(roles_only)])[:2] == (0, "consistent\n")
    # a role the closure restricts maps a pair onto an element's successor
    # set: a B element has no r-successor
    edges = tmp_path / "edges.kb"
    for pair, verdict in (("r(a, b)", "consistent\n"), ("r(b, a)", "inconsistent\n")):
        edges.write_text(f"A => exists r. B\nB => forall r. bot\nA(a)\nB(b)\n{pair}\n")
        assert run(capsys, ["check", str(edges)])[1] == verdict, pair


# -------------------------------------------------------------- rank


def test_rank_golden_bytes(capsys):
    code, out, err = run(capsys, ["rank", SET1])
    assert code == 0 and err == ""
    assert out == (GOLDEN / "set1_rank.txt").read_text()


def test_rank_json(capsys):
    code, doc, _ = run_json(capsys, ["rank", "--json", SET3])
    assert code == 0
    assert set(doc) == {"command", "kb", "ranks", "timingMs"}
    assert doc["ranks"]["levels"] == [
        ["T(Bird) => HasNiceFeather", "T(Bird) => Fly", "T(Penguin) => not Fly"],
        ["T(Penguin) => not Fly"],
        [],
    ]
    assert doc["ranks"]["values"] == {"Bird": 0, "Penguin": 1}


def test_rank_infinite_value(capsys, tmp_path):
    kb = tmp_path / "odd.kb"
    kb.write_text("T(A) => C\nT(A) => not C\n")
    code, doc, _ = run_json(capsys, ["rank", "--json", str(kb)])
    assert code == 0
    assert doc["ranks"]["values"] == {"A": "inf"}
    assert doc["ranks"]["levels"] == [["T(A) => C", "T(A) => not C"]]


# ------------------------------------------------------------- query


def test_query_exit_codes(capsys):
    for sem, expect in (("rc", 1), ("single-pref", 1), ("enriched", 0)):
        code, out, _ = run(
            capsys,
            ["query", "--semantics", sem, SET3, "T(Penguin) => HasNiceFeather"])
        assert code == expect, sem
        assert out == ("entailed\n" if expect == 0 else "not entailed\n")


def test_query_json_keys(capsys):
    code, doc, _ = run_json(
        capsys,
        ["query", "--json", "--semantics", "rc", SET3, "T(Bird) => Fly"])
    assert code == 0
    assert set(doc) == {"command", "kb", "query", "semantics", "entailed", "timingMs"}
    assert doc["query"] == "T(Bird) => Fly"
    assert doc["entailed"] is True and doc["semantics"] == "rc"


def test_query_emit_model_witness(capsys):
    code, doc, _ = run_json(
        capsys,
        ["query", "--json", "--semantics", "enriched", "--emit-model",
         SET3, "T(Penguin) => HasNiceFeather"])
    assert code == 0
    w = doc["witness"]
    assert set(w) == {"domain", "roleEdges", "aspectRanks", "globalRanks"}
    assert w["roleEdges"] == {}
    assert len(w["domain"]) == 12
    # re-derive the verdict from the emitted document alone
    concepts = {e["id"]: set(e["concepts"]) for e in w["domain"]}
    penguins = [i for i in concepts if "Penguin" in concepts[i]]
    lo = min(w["globalRanks"][i] for i in penguins)
    best = [i for i in penguins if w["globalRanks"][i] == lo]
    assert best and all("HasNiceFeather" in concepts[i] for i in best)
    assert set(w["aspectRanks"]) == {"Bird", "Fly", "HasNiceFeather", "Penguin", "not Fly"}


def test_query_emit_countermodel(capsys):
    code, doc, _ = run_json(
        capsys,
        ["query", "--json", "--semantics", "single-pref", "--emit-model",
         SET3, "T(Penguin) => HasNiceFeather"])
    assert code == 1
    w = doc["witness"]
    assert "aspectRanks" in w and w["aspectRanks"] == {}
    concepts = {e["id"]: set(e["concepts"]) for e in w["domain"]}
    penguins = [i for i in concepts if "Penguin" in concepts[i]]
    lo = min(w["globalRanks"][i] for i in penguins)
    offenders = [i for i in penguins
                 if w["globalRanks"][i] == lo and "HasNiceFeather" not in concepts[i]]
    assert offenders


def test_query_rc_emit_model_prints_the_verdict_alone(capsys):
    # rank entailment is read off no model, so under rc `--emit-model`
    # prints no witness, in text or `--json`, and the exit code follows the
    # verdict
    for query, code in (("T(Penguin) => not Fly", 0), ("T(Penguin) => HasNiceFeather", 1)):
        argv = ["query", "--semantics", "rc", "--emit-model", SET3, query]
        assert run(capsys, argv) == (code, ("entailed\n", "not entailed\n")[code], "")
        got, doc, err = run_json(capsys, ["query", "--json", *argv[1:]])
        assert (got, doc["entailed"], err) == (code, not code, "") and "witness" not in doc


def test_query_human_never_prints_timing(capsys):
    _, out, _ = run(capsys, ["query", "--semantics", "enriched", "--emit-model",
                             SET3, "T(Penguin) => not Fly"])
    assert "timing" not in out.lower()
    assert out.startswith("entailed\nwitness model:\n")


def test_query_role_kb(capsys, tmp_path):
    kb = tmp_path / "role.kb"
    kb.write_text("T(A) => exists r. B\n")
    code, doc, _ = run_json(
        capsys,
        ["query", "--json", "--semantics", "enriched", "--emit-model",
         str(kb), "T(A) => exists r. B"])
    assert code == 0
    assert doc["witness"]["roleEdges"].keys() == {"r"}
    edges = doc["witness"]["roleEdges"]["r"]
    assert edges["of"].keys() == {t["id"] for t in doc["witness"]["domain"]}
    assert any(edges["sets"][k] for k in edges["of"].values()), "at least one r edge"


# (golden name, KB file name, KB text, semantics, query, exit code); each
# prints the model of the table its query is placed on: the chain(2)
# conjunction is read on the KB's own table, and the diamond(2) row on
# the table widened by its restriction, with `Blond` lifted
EMIT_MODEL_CASES = [
    ("set3_enriched", "set3.kb", SET3_TEXT, "enriched", "T(Penguin) => HasNiceFeather", 0),
    ("set3_single_pref", "set3.kb", SET3_TEXT, "single-pref",
     "T(Penguin) => HasNiceFeather", 1),
    ("exists_forall", "exists-forall.kb", ROLE_KBS["exists-forall"], "enriched",
     "T(A) => exists r. B", 0),
    ("chain2_conjunction", "chain2.kb", chain_text(2), "enriched",
     "T((C1 and Q1)) => P", 1),
    ("diamond2_restriction", "diamond2.kb", diamond_text(2), "enriched",
     "T(((Q1 and Blond) and exists eats. Fish)) => P1", 0),
]


@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", EMIT_MODEL_CASES, ids=[c[0] for c in EMIT_MODEL_CASES])
def test_emit_model_golden_bytes(capsys, monkeypatch, tmp_path, case, json_flag):
    name, kb_name, text, semantics, query, exit_code = case
    (tmp_path / kb_name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = ["query", "--semantics", semantics, "--emit-model", kb_name, query]
    code, out, err = run(capsys, argv[:1] + ["--json"] * json_flag + argv[1:])
    assert (code, err) == (exit_code, "")
    # the one field that varies between runs
    out = "".join(line for line in out.splitlines(keepends=True)
                  if not line.startswith('  "timingMs": '))
    golden = GOLDEN / "emit_model" / f"{name}.{'json' if json_flag else 'txt'}"
    assert out == golden.read_text(encoding="utf-8")


# ------------------------------------------------------ error handling


def test_missing_file_is_an_error(capsys):
    code, out, err = run(capsys, ["check", "no_such.kb"])
    assert code == 2 and out == "" and "cannot read input" in err


@pytest.mark.parametrize("argv, message", [
    (["check", SET3], "cannot write output: [Errno 32] Broken pipe"),
    (["compare", "--json", SET3, SET3_QUERIES], "cannot write output: [Errno 32] Broken pipe"),
    (["query", "--semantics", "enriched", "--emit-model", "--json", SET3,
      "T(Penguin) => not Fly"], "cannot write output: [Errno 32] Broken pipe"),
    (["check", "no_such.kb"],
     "cannot read input: [Errno 2] No such file or directory: 'no_such.kb'"),
], ids=["check", "compare", "query-emit-model", "missing-file"])
def test_closed_stdout_is_an_output_error(argv, message):
    # with stdout's read end closed, the flush in `main` fails and is
    # reported as one line, exit 2, and the flush at exit adds nothing; a
    # file that cannot be read is still an input error. Stdout is buffered,
    # as it is by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(REPO / "src")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "typika", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, message + "\n")


def test_compare_flags_rc_differing_from_single_pref(capsys, tmp_path):
    # rank entailment is the least single-preference model's (gate 3), so a
    # row where the two differ is a failure, also when only single-pref
    # entails it: on this role KB, `T(B) => D`
    kb = tmp_path / "kb.kb"
    kb.write_text(serialize_kb(random_kbs(8, 250, roles=("r",))[29]))
    queries = tmp_path / "queries.txt"
    queries.write_text("T(B) => D\n")
    code, out, _ = run(capsys, ["compare", str(kb), str(queries)])
    assert (code, out.splitlines()[0]) == (
        1, "[FAILURE] T(B) => D | rc=no single-pref=yes enriched=yes")
    code, doc, _ = run_json(capsys, ["compare", "--json", str(kb), str(queries)])
    assert code == 1 and doc["rows"] == [{"query": "T(B) => D", "rc": False, "singlePref": True,
                                          "enriched": True, "violation": True}]


def test_file_not_in_utf8_is_an_input_error(capsys, tmp_path):
    # a KB or query file that does not decode as UTF-8 is bad input, reported
    # as a file that cannot be read, never as an internal error, with the
    # bad byte's offset in the file, also past the first 8 KiB
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("T(Café) => Open\n".encode("latin-1"))
    late = tmp_path / "late.txt"
    late.write_bytes(b"# " + b"x" * 9992 + b"\nT(Caf\xe9) => Open\n")  # 0xe9 at 10000
    message = ("cannot read input: 'utf-8' codec can't decode byte 0xe9 in position {}:"
               " invalid continuation byte\n")
    for argv, offset in [(["check", str(latin1)], 5),
                         (["query", "--semantics", "rc", str(latin1), "A => B"], 5),
                         (["compare", "--json", SET3, str(latin1)], 5),
                         (["compare", "--json", SET3, str(late)], 10000)]:
        assert run(capsys, argv) == (2, "", message.format(offset)), argv


# Query and KB files with the line breaks text mode reads and those it
# leaves inside a line, a byte order mark, and blank and comment lines
READER_CASES = {
    "crlf": b"T(Penguin) => not Fly\r\nT(Bird) => Fly\r\n",
    "lone-cr": b"T(Penguin) => not Fly\rT(Bird) => Fly\r\rT(Bird) => Fly",
    "bom": "\ufeffT(Penguin) => not Fly\nT(Bird) => Fly\n".encode("utf-8"),
    "form-feed": b"T(Penguin) =>\x0cnot Fly\nT(Bird) => Fly\x0c\n",
    "nel": "T(Penguin)\x85=> not Fly\nT(Bird) => Fly\n".encode("utf-8"),
    "line-separator": "T(Penguin) => not Fly\u2028T(Bird) => Fly\n".encode("utf-8"),
    "blank-and-comment": b"\n  \n# a comment\n  # indented\r\n\tT(Bird) => Fly  \n\n",
}


def text_mode_rows(path: Path) -> list[str]:
    """The query rows as a file opened in text mode and iterated gives them."""
    with open(path, encoding="utf-8") as fh:
        return [r for r in (line.strip() for line in fh) if r and not r.startswith("#")]


def parsed_or_error(parse, *args):
    try:
        return parse(*args)
    except KBSyntaxError as exc:
        return str(exc)


@pytest.mark.parametrize("name", READER_CASES)
def test_inputs_read_as_bytes_give_what_text_mode_gives(capsys, tmp_path, name):
    # the files are read as bytes and decoded once; the query lines end at
    # `\n`, `\r\n` and `\r` only, so each file gives the KB and the rows
    # that reading it in text mode gives, a syntax error included
    queries, plain, kb = tmp_path / "queries.txt", tmp_path / "plain.txt", tmp_path / "kb.kb"
    queries.write_bytes(READER_CASES[name])
    rows = text_mode_rows(queries)
    assert typika.cli._query_lines(str(queries)) == rows
    plain.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    assert (run(capsys, ["compare", "--json", SET3, str(queries)])
            == run(capsys, ["compare", "--json", SET3, str(plain)]))
    kb.write_bytes(READER_CASES[name] + SET3_TEXT.replace("\n", "\r\n").encode("utf-8"))
    with open(kb, encoding="utf-8") as fh:
        want = parsed_or_error(parse_kb, fh.read())
    assert parsed_or_error(typika.cli._load_kb, str(kb)) == want


def test_value_error_of_the_program_is_an_internal_error(capsys, monkeypatch, tmp_path):
    # a ValueError the program raises is a fault of the program, not a user
    # error: `internal error` on stderr and exit 2, on the `compare` path too
    def place(ranked, query):
        raise ValueError("max() arg is an empty sequence")

    monkeypatch.setattr(typika.cli.RankedTBox, "place", place)
    message = "internal error: ValueError: max() arg is an empty sequence\n"
    queries = tmp_path / "queries.txt"
    queries.write_text("T(Penguin) => not Fly\n")
    for argv in (["compare", SET3, str(queries)], ["compare", "--json", SET3, str(queries)],
                 ["query", "--semantics", "enriched", SET3, "T(Bird) => Fly"]):
        assert run(capsys, argv) == (2, "", message), argv


def test_syntax_error_in_query(capsys):
    code, _, err = run(
        capsys, ["query", "--semantics", "rc", SET3, "T(T(Bird)) => Fly"])
    assert code == 2 and "syntax error" in err


def test_syntax_error_reports_position(capsys, tmp_path):
    kb = tmp_path / "bad.kb"
    kb.write_text("Bird => Fly\nFly => ?\n")
    code, _, err = run(capsys, ["check", str(kb)])
    assert code == 2
    assert "line 2" in err and "column 8" in err


def test_rank_bound_zero_overflows(capsys):
    code, _, err = run(
        capsys,
        ["query", "--semantics", "single-pref", "--rank-bound", "0",
         SET3, "T(Bird) => Fly"])
    assert code == 2 and "rank" in err


def test_chain3_error_names_the_failed_guesses(capsys, tmp_path):
    kb = tmp_path / "chain3.kb"
    kb.write_text(chain_text(3))
    queries = tmp_path / "queries.txt"
    queries.write_text("T(C0) => P\nT(C2) => Q2\n")
    # the two classes the coupling rules order both ways, with no bound blamed
    message = ("no admissible rank assignment: rule (a) puts class {P} (m = 1)"
               " below class {P, Q0} (m = 0) and rule (b) puts it above (a class"
               " is an element's violated aspects, m the highest concept rank of"
               " the antecedents it violates)")
    code, doc, _ = run_json(capsys, ["compare", "--json", str(kb), str(queries)])
    # an error row makes compare exit 2
    assert code == 2
    assert doc["rows"] == [{"query": "T(C0) => P", "error": message},
                           {"query": "T(C2) => Q2", "error": message}]
    code, out, err = run(capsys, ["query", "--semantics", "enriched", str(kb), "T(C0) => P"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_inconsistent_kb_by_semantics(capsys, tmp_path):
    kb = tmp_path / "bad.kb"
    kb.write_text("A => bot\ntop => A\nT(A) => B\n")
    # rank-based entailment answers vacuously; model semantics refuse
    code, out, _ = run(capsys, ["query", "--semantics", "rc", str(kb), "T(A) => B"])
    assert (code, out) == (0, "entailed\n")
    for sem in ("single-pref", "enriched"):
        code, _, err = run(capsys, ["query", "--semantics", sem, str(kb), "T(A) => B"])
        assert code == 2 and "consistent" in err


def test_internal_error_exits_2(capsys, monkeypatch, tmp_path):
    # a minimal model that fails validation is a fault of the program, not
    # a verdict: exit 2 with the error on stderr, never 1 ("not entailed")
    monkeypatch.setattr(typika.models, "check_coupling", lambda m, kb: False)
    message = "internal error: AssertionError: the minimal enriched model failed validation\n"
    code, out, err = run(capsys, ["query", "--semantics", "enriched", SET3, "T(Bird) => Fly"])
    assert (code, out, err) == (2, "", message)
    queries = tmp_path / "queries.txt"
    queries.write_text("T(Penguin) => not Fly\n")
    code, out, err = run(capsys, ["compare", SET3, str(queries)])
    assert (code, out, err) == (2, "", message)


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", SET3])
    assert exc.value.code == 2


def test_extra_argument_is_reported_by_the_top_level_parser(capsys):
    # the subcommand's own parser takes the arguments, and what it leaves
    # is reported as the top-level parse of the whole line reports it
    with pytest.raises(SystemExit) as exc:
        main(["check", SET3, "extra"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: typika [-h] {check,rank,query,compare} ...\n")
    assert err.endswith("typika: error: unrecognized arguments: extra\n")


def _argparse_args(commands, argv):
    """`vars()` of the namespace `main` gets from argparse for `argv`, or
    None where argparse prints help or a usage error."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            args, extra = commands[argv[0]].parse_known_args(argv[1:])
    except SystemExit:
        return None
    return None if extra else vars(args)


# every option in full, abbreviated and with `=`, the values of `--semantics`
# and `--rank-bound` good and bad, and words argparse reads apart
_TOKENS = ["--json", "--semantics", "--rank-bound", "--emit-model",
           "--js", "--sem", "--rank", "--e",
           "--json=1", "--semantics=rc", "--rank-bound=3", "--emit-model=x",
           "rc", "single-pref", "enriched", "bogus", "0", "3", " 3", "-1", "x",
           "a.kb", "q.txt", "", "-", "-1.5", "-x", "a b", "--", "-h", "--help"]


def test_argv_reader_agrees_with_argparse():
    # wherever the reader takes an argv, argparse reads the same arguments;
    # the reader leaves everything else to argparse, help and errors too
    _, commands = typika.cli.build_parser()
    rng = random.Random(31)
    taken = 0
    for _ in range(20000):
        argv = [rng.choice(list(commands))]
        argv += rng.choices(_TOKENS, k=rng.randint(0, 6))
        args = typika.cli._read_args(argv)
        if args is not None:
            taken += 1
            assert vars(args) == _argparse_args(commands, argv), argv
    assert taken > 200
    # the benchmark's call, the README's examples and every option of `query`
    for argv in [["compare", "--json", SET3, SET3_QUERIES],
                 ["check", SET3], ["rank", SET1], ["compare", SET3, SET3_QUERIES],
                 ["query", "--semantics", "rc", SET3, "T(Penguin) => HasNiceFeather"],
                 ["query", "--semantics", "enriched", SET3, "T(Penguin) => HasNiceFeather"],
                 ["query", "--json", "--semantics", "single-pref", "--rank-bound", "3",
                  "--emit-model", SET3, "T(Bird) => Fly"]]:
        args = typika.cli._read_args(argv)
        assert args is not None and vars(args) == _argparse_args(commands, argv), argv


# a string of every escape class: non-ASCII, controls, quotes, backslashes
_ESCAPES = 'é ☃ \U0001f427 "q" \\ / \x00\x1f\x7f\n\t\r\u2028'


@pytest.mark.parametrize("value", [
    {}, [], "", _ESCAPES, 0, -7, 10 ** 30, 1.5, 1e-300, float("nan"), float("-inf"), True,
    False, None,
    {"a": {}, "b": [], "c": [[], {}, [[]]], _ESCAPES: _ESCAPES},
    {"n": None, "t": True, "f": False, "i": 3, "x": -0.0, "s": ["é", 2.5, None]},
    list(range(257)),
    {"wide": [{str(k): [k, "é"] * 150 for k in range(300)}, [[]] * 257, {}],
     "deep": {"w": {f"k{k}": {"v": [k] * 258} for k in range(260)}}},
], ids=lambda value: type(value).__name__)
def test_emit_writes_what_json_dumps_writes(capsys, value):
    doc = {"command": "check", "value": value}  # every document is a dict with a command
    typika.cli._emit(argparse.Namespace(json=True), doc, [])
    assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_emit_writes_a_large_container_one_member_at_a_time():
    # a witness-sized document under small containers is never one string
    doc = {"command": "query", "witness": {"domain": [{"id": f"t{i}", "concepts": ["A", "B"]}
                                                      for i in range(5000)]}}
    pieces = list(typika.cli._pieces(doc, "\n"))
    assert "".join(pieces) == json.dumps(doc, indent=2, sort_keys=True)
    assert len(pieces) > 5000 and max(map(len, pieces)) < 200


@pytest.mark.parametrize("argv", [
    ["compare", "--json", SET3, SET3_QUERIES],
    ["query", "--json", "--emit-model", "--semantics", "enriched", SET3, "T(Penguin) => not Fly"],
], ids=["compare", "query-emit-model"])
def test_json_call_leaves_no_reference_cycle(capsys, argv):
    # the dispatch and the emitter make no closures, so reference counting
    # alone frees everything a call makes
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
        found = gc.collect()
    finally:
        gc.enable()
    assert code == 0 and capsys.readouterr().out.startswith("{\n")
    assert found == 0


# ----------------------------------------------------------- compare


def test_compare_set3_rows(capsys):
    code, doc, _ = run_json(capsys, ["compare", "--json", SET3, SET3_QUERIES])
    assert code == 0
    assert set(doc) == {"command", "kb", "rows", "timingMs"}
    assert doc["timingMs"] == 0
    assert doc["rows"] == [
        {"query": "T(Penguin) => not Fly", "rc": True, "singlePref": True,
         "enriched": True, "violation": False},
        {"query": "T(Penguin) => HasNiceFeather", "rc": False, "singlePref": False,
         "enriched": True, "violation": False},
        {"query": "T(Bird) => Fly", "rc": True, "singlePref": True,
         "enriched": True, "violation": False},
    ]


def test_compare_human_output(capsys):
    code, out, _ = run(capsys, ["compare", SET3, SET3_QUERIES])
    assert code == 0
    assert out.splitlines() == [
        "[ok] T(Penguin) => not Fly | rc=yes single-pref=yes enriched=yes",
        "[ok] T(Penguin) => HasNiceFeather | rc=no single-pref=no enriched=yes",
        "[ok] T(Bird) => Fly | rc=yes single-pref=yes enriched=yes",
        "queries=3 rc=2 single-pref=2 enriched=3 violations=0 errors=0",
    ]


def test_compare_set1_all_entailed(capsys):
    code, doc, _ = run_json(capsys, ["compare", "--json", SET1, SET1_QUERIES])
    assert code == 0
    assert len(doc["rows"]) == 4
    for row in doc["rows"]:
        assert row["rc"] and row["singlePref"] and row["enriched"]
        assert not row["violation"]


def test_compare_byte_identical(capsys):
    _, first, _ = run(capsys, ["compare", "--json", SET3, SET3_QUERIES])
    _, second, _ = run(capsys, ["compare", "--json", SET3, SET3_QUERIES])
    assert first == second
    _, third, _ = run(capsys, ["compare", "--json", SET1, SET1_QUERIES])
    _, fourth, _ = run(capsys, ["compare", "--json", SET1, SET1_QUERIES])
    assert third == fourth


@pytest.mark.parametrize("name", ["set1", "set3"])
def test_compare_json_golden_bytes(capsys, monkeypatch, name):
    # run from the checkout root so the document's `kb` path is the golden's
    monkeypatch.chdir(REPO)
    code, out, err = run(
        capsys, ["compare", "--json", f"kbs/{name}.kb", f"kbs/{name}_queries.txt"])
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"{name}_compare.json").read_text(encoding="utf-8")


FAMILY_KBS = {**{f"chain{n}": chain_text(n) for n in (1, 2, 3)},
              **{f"diamond{n}": diamond_text(n) for n in (1, 2)},
              **ROLE_KBS}


def family_queries(kb: KnowledgeBase) -> list[str]:
    """Every default's antecedent against every right-hand side (closure
    rows), then a fresh atom conjoined and alone, a strict row, and the
    conjunction of two antecedents and of an antecedent with a negation."""
    antes = list(dict.fromkeys(ax.lhs for ax in kb.defeasible))
    rhss = list(dict.fromkeys(ax.rhs for ax in kb.defeasible))
    fresh = Atom("Blond")
    rows = [Defeasible(a, r) for a in antes for r in rhss]
    rows += [Defeasible(And(antes[0], fresh), rhss[-1]), Defeasible(fresh, rhss[-1]),
             Strict(antes[0], rhss[-1]), Defeasible(And(antes[0], antes[-1]), rhss[0]),
             Defeasible(And(antes[-1], complement(rhss[0])), rhss[-1])]
    return [serialize_axiom(q) for q in rows]


@pytest.mark.parametrize("bound", [None, 1], ids=["default", "bound1"])
@pytest.mark.parametrize("name", list(FAMILY_KBS))
def test_family_compare_golden_bytes(capsys, monkeypatch, tmp_path, name, bound):
    # closure, fresh-atom, strict and conjunction rows over the exception
    # chains, the Nixon diamonds and the role KBs, errors included
    text = FAMILY_KBS[name]
    (tmp_path / "kb.kb").write_text(text, encoding="utf-8")
    (tmp_path / "queries.txt").write_text(
        "".join(q + "\n" for q in family_queries(parse_kb(text))), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    flags = [] if bound is None else ["--rank-bound", str(bound)]
    code, out, err = run(capsys, ["compare", "--json", *flags, "kb.kb", "queries.txt"])
    rows = json.loads(out)["rows"]
    assert err == ""
    assert code == (2 if any("error" in r for r in rows)
                    else 1 if any(r["violation"] for r in rows) else 0)
    golden = GOLDEN / "families" / f"{name}_{'default' if bound is None else bound}.json"
    assert out == golden.read_text(encoding="utf-8")


def test_compare_reads_no_element_rank(capsys, monkeypatch, tmp_path):
    # every row is read off the minimal models' rank masks: with the
    # per-element rank reading made to raise, `compare --json` still
    # prints its golden bytes on set3, the chains, the diamonds and the
    # role KBs
    def no_ranks(masks, size):
        raise AssertionError("a compare row read an element's rank")

    monkeypatch.setattr(typika.models, "_element_ranks", no_ranks)
    monkeypatch.chdir(REPO)
    _, out, _ = run(capsys, ["compare", "--json", "kbs/set3.kb", "kbs/set3_queries.txt"])
    assert out == (GOLDEN / "set3_compare.json").read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for name, text in FAMILY_KBS.items():
        (tmp_path / "kb.kb").write_text(text, encoding="utf-8")
        (tmp_path / "queries.txt").write_text(
            "".join(q + "\n" for q in family_queries(parse_kb(text))), encoding="utf-8")
        _, out, _ = run(capsys, ["compare", "--json", "kb.kb", "queries.txt"])
        assert out == (GOLDEN / "families" / f"{name}_default.json").read_text(
            encoding="utf-8"), name
    # the reading is patched where `Model` looks it up
    kb = parse_kb(SET3_TEXT)
    model = single_pref_model(kb, build_canonical_domain(RankedTBox(kb)))
    with pytest.raises(AssertionError, match="read an element's rank"):
        model.global_ranks


BLOND, TALL = Atom("Blond"), Atom("Tall")

# rows over two closure members x and y with the fresh atoms BLOND and
# TALL conjoined, disjoined and negated on either side, one on both sides,
# and a conjunction of members
FRESH_SHAPES = (
    lambda x, y: Defeasible(And(x, BLOND), y),
    lambda x, y: Defeasible(Or(x, BLOND), y),
    lambda x, y: Defeasible(x, Or(y, BLOND)),
    lambda x, y: Defeasible(And(x, Not(BLOND)), And(y, TALL)),
    lambda x, y: Strict(And(x, BLOND), Or(y, TALL)),
    lambda x, y: Defeasible(Not(BLOND), y),
    lambda x, y: Defeasible(And(x, BLOND), And(y, BLOND)),
    lambda x, y: Defeasible(Or(And(x, BLOND), And(y, Not(BLOND))), x),
    lambda x, y: Defeasible(And(x, y), Or(x, TALL)),
)


def fresh_rows(kb: KnowledgeBase, rng: random.Random,
               k: int = len(FRESH_SHAPES)) -> list[Strict | Defeasible]:
    """k seeded shapes (all by default), each over a seeded pair of the
    KB's closure members."""
    members = sorted(subconcept_closure(kb), key=concept_key)
    return [shape(rng.choice(members), rng.choice(members))
            for shape in rng.sample(FRESH_SHAPES, k)]


def role_fresh_rows(kb: KnowledgeBase) -> list[Strict | Defeasible]:
    """Fresh atoms under booleans, then fresh restrictions on a role of the
    KB: an `exists` over a fresh atom with another fresh atom beside it,
    which is lifted on the table the restriction widens, and one whose
    fresh atom also stands outside it, which is not."""
    antes = list(dict.fromkeys(ax.lhs for ax in kb.defeasible))
    rhss = list(dict.fromkeys(ax.rhs for ax in kb.defeasible))
    role = min(s.role for ax in kb.axioms for side in (ax.lhs, ax.rhs)
               for s in subconcepts(side) if isinstance(s, (Exists, Forall)))
    return [Defeasible(And(antes[-1], BLOND), rhss[0]),
            Defeasible(Or(antes[0], Not(BLOND)), Or(rhss[-1], TALL)),
            Strict(And(antes[0], BLOND), And(rhss[0], BLOND)),
            Defeasible(And(And(antes[0], BLOND), Exists(role, TALL)), rhss[-1]),
            Defeasible(And(antes[-1], Exists(role, BLOND)), Or(rhss[0], BLOND))]


def differential_cases():
    """(KB text, query texts, bounds) over the corpus, `chain(1..4)`,
    `diamond(1..3)` and the role KBs at the default bound and at 1 and 2,
    and over the 500 seeded random KBs, three shapes and one bound each in
    turn, to keep the test short."""
    rng = random.Random(29)
    bounds = (None, 1, 2)
    cases = [(serialize_kb(kb), fresh_rows(kb, rng), bounds) for kb in corpus_kbs()]
    for text in [chain_text(n) for n in range(1, 5)] + [diamond_text(n) for n in range(1, 4)]:
        kb = parse_kb(text)
        queries = [parse_axiom(q) for q in family_queries(kb)] + fresh_rows(kb, rng)
        cases.append((text, queries, bounds))
    for text in ROLE_KBS.values():
        kb = parse_kb(text)
        cases.append((text, role_fresh_rows(kb) + fresh_rows(kb, rng), bounds))
    cases += [(serialize_kb(kb), fresh_rows(kb, rng, 3), bounds[k % 3:k % 3 + 1])
              for k, (kb, _) in enumerate(random_kbs_with_domains())]
    return [(text, [serialize_axiom(q) for q in queries], bounds)
            for text, queries, bounds in cases]


def test_compare_rows_match_the_widened_reference(capsys, monkeypatch, tmp_path):
    # every row, fresh atoms lifted on the KB's own domain, equals the row
    # answered on the domain widened by the query (`oracles`), error texts
    # included: the coupling cycle an error names is read off element
    # classes, whose ids follow element order, and the lifted and widened
    # domains order their elements differently. Mutation check in a copy
    # of the code: reading only the first lifted variant in
    # `CanonicalDomain.masks` fails it, and so does lifting `Blond` where a
    # restriction's filler gives it a bit.
    monkeypatch.chdir(tmp_path)
    rows = lifted = errors = cycles = 0
    for text, queries, bounds in differential_cases():
        Path("kb.kb").write_text(text, encoding="utf-8")
        Path("queries.txt").write_text("".join(q + "\n" for q in queries), encoding="utf-8")
        nodes: dict = {}
        ranked = RankedTBox(parse_kb(text, nodes))
        parsed = [parse_axiom(q, nodes) for q in queries]
        domains: dict = {}
        for bound in bounds:
            flags = [] if bound is None else ["--rank-bound", str(bound)]
            _, out, _ = run(capsys, ["compare", "--json", *flags, "kb.kb", "queries.txt"])
            want = [widened_compare_row(ranked, q, bound, domains) for q in parsed]
            assert json.loads(out)["rows"] == want, (text, bound)
            rows += len(want)
            errors += sum("error" in row for row in want)
            cycles += sum("rule (a)" in row.get("error", "") for row in want)
            lifted += sum(any(isinstance(s, Atom) and s not in ranked.closure
                              for side in (q.lhs, q.rhs) for s in subconcepts(side))
                          for q in parsed)
    # 9,495 rows, 9,117 with a fresh atom, 2,285 errors, 67 of them cycles
    assert rows > 9000 and lifted > 8000 and errors > 2000 and cycles > 50


def test_two_mask_verdicts_match_the_references():
    # every row is read off two masks on one table; here rc is checked
    # against the ranks of the antecedent and of a built `lhs and not rhs`
    # node, and both model verdicts of the `compare` row against each
    # lifted variant of the query's sides read on its own (`oracles`):
    # closure, fresh-atom, conjunction and restriction rows, over the
    # corpus, `chain(1..3)`, `diamond(1..3)`, the role KBs and the seeded
    # role-free pools
    rng = random.Random(41)
    fish = Exists("eats", Atom("Fish"))
    texts = [serialize_kb(kb) for kb in corpus_kbs()]
    texts += [chain_text(n) for n in (1, 2, 3)] + [diamond_text(n) for n in (1, 2, 3)]
    texts += list(ROLE_KBS.values())
    texts += [serialize_kb(kb) for pool in role_free_pools().values() for kb in pool]
    rows = lifted = widened = errors = 0
    for text in texts:
        nodes: dict = {}
        kb = parse_kb(text, nodes)
        ranked = RankedTBox(kb)
        intern(nodes, ranked.closure)
        members = sorted(ranked.closure, key=concept_key)
        queries = [rng.choice((Defeasible, Strict))(rng.choice(members), rng.choice(members))
                   for _ in range(6)]
        queries += fresh_rows(kb, rng, 3)
        queries.append(Defeasible(And(rng.choice(members), fish), rng.choice(members)))
        if any(isinstance(c, (Exists, Forall)) for c in members):
            queries += role_fresh_rows(kb)
        ranks: dict = {}
        for q in [parse_axiom(serialize_axiom(q), nodes) for q in queries]:
            row = typika.cli._compare_row(ranked, serialize_axiom(q), None, nodes, ranks)
            rc = rc_by_and_node(ranked, q)
            assert in_rational_closure(ranked, q) == rc, (text, q)
            restrictions, atoms = ranked.outside((q.lhs, q.rhs))
            domain = build_canonical_domain(ranked, restrictions)
            want: dict = {"query": serialize_axiom(q), "rc": rc}
            try:
                for field, model in (
                        ("singlePref", lambda: single_pref_model(kb, domain)),
                        ("enriched", lambda: minimal_canonical_models(kb, domain)[0])):
                    want[field] = holds_in_by_variants(model(), q)[0]
            except RankBoundExceededError as exc:
                want = {"query": want["query"], "error": str(exc)}
                errors += 1
            else:
                want["violation"] = rc != want["singlePref"] or (rc and not want["enriched"])
            assert row == want, (text, q)
            rows += 1
            lifted += bool(atoms)
            widened += bool(restrictions)
    # 6,790 rows: 2,746 lifted, 694 widened, 30 errors
    assert rows > 6500 and lifted > 2500 and widened > 600 and errors > 20


def _count_domain_builds(monkeypatch):
    builds = []

    def counting(ranked, query=None):
        builds.append(query)
        return build_canonical_domain(ranked, query)

    monkeypatch.setattr(typika.cli, "build_canonical_domain", counting)
    return builds


def _keep_domains(monkeypatch):
    """Every domain `cli` builds from here on."""
    domains = []

    def keeping(ranked, closure=None):
        domains.append(build_canonical_domain(ranked, closure))
        return domains[-1]

    monkeypatch.setattr(typika.cli, "build_canonical_domain", keeping)
    return domains


def _keep_stratifications(monkeypatch):
    """Every `RankedTBox` made from here on."""
    stratified = []
    init = RankedTBox.__init__

    def keeping(self, kb):
        init(self, kb)
        stratified.append(self)

    monkeypatch.setattr(RankedTBox, "__init__", keeping)
    return stratified


def test_compare_shares_one_domain_per_closure(capsys, monkeypatch):
    builds = _count_domain_builds(monkeypatch)
    code, doc, _ = run_json(capsys, ["compare", "--json", SET3, SET3_QUERIES])
    assert code == 0 and len(doc["rows"]) == 3
    assert len(builds) == 1


def test_compare_fresh_atom_query_shares_the_kb_domain(capsys, monkeypatch, tmp_path):
    # no axiom reads `Blond`, so the row is answered on the KB's own table
    # and domain, with no widened table built for it
    qf = tmp_path / "queries.txt"
    qf.write_text((KBS / "set3_queries.txt").read_text()
                  + "T((Penguin and Blond)) => not Fly\n")
    domains = _keep_domains(monkeypatch)
    stratified = _keep_stratifications(monkeypatch)
    code, doc, _ = run_json(capsys, ["compare", "--json", SET3, str(qf)])
    assert code == 0
    [domain] = domains
    assert domain is stratified[0].table(())
    assert list(stratified[0]._tables) == [frozenset()]
    assert doc["rows"][-1] == {"query": "T((Penguin and Blond)) => not Fly", "rc": True,
                               "singlePref": True, "enriched": True, "violation": False}


def test_compare_keys_domains_by_fresh_restrictions(capsys, monkeypatch, tmp_path):
    # fresh atoms and booleans over the closure share the KB's domain; a
    # restriction outside the closure widens it, once per distinct set of
    # such restrictions (`exists eats. Fish` in two rows, negated in one)
    queries = ["T(Blond) => Fly", "T(not Blond) => Fly", "T(Penguin) => not Fly",
               "T((Penguin and Bird)) => HasNiceFeather",
               "T((Bird and exists eats. Fish)) => Fly",
               "T((Penguin and not exists eats. Fish)) => (not Fly or Blond)"]
    qf = tmp_path / "queries.txt"
    qf.write_text("".join(q + "\n" for q in queries))
    builds = _count_domain_builds(monkeypatch)
    code, doc, _ = run_json(capsys, ["compare", "--json", SET3, str(qf)])
    assert code == 0
    assert len(builds) == 2
    assert Exists("eats", Atom("Fish")) not in builds[0]
    assert Exists("eats", Atom("Fish")) in builds[1] and Atom("Blond") not in builds[1]
    # each row as its own call, with a domain of its own, gives the same row
    for q, row in zip(queries, doc["rows"]):
        qf.write_text(q + "\n")
        assert run_json(capsys, ["compare", "--json", SET3, str(qf)])[1]["rows"] == [row]


def test_the_domain_is_the_stratifications_table(capsys, monkeypatch, tmp_path):
    # the KB's domain is its table: the stratification, ranks and models
    # read one column memo, which the stratification's enumeration filled
    # when every code it listed survives the last level
    rt = RankedTBox(parse_kb(SET3_TEXT))
    dom = build_canonical_domain(rt)
    assert dom is rt.table(()) and list(rt._tables) == [frozenset()]
    bit = dom.engine.bit[Atom("Penguin")]
    assert bit in dom.eval._on
    dom.eval._on.clear()
    rt.rank(Atom("Penguin"))
    assert bit in dom.eval._on
    # a row whose only concept outside the closure is a fresh restriction
    # adds one table, which its masks and its domain share; a row that adds
    # a fresh atom to the same restriction adds none: its masks read that
    # table, the fresh atom lifted
    fish_rows = ["T((Penguin and exists eats. Fish)) => not Fly",
                 "T(((Penguin and Blond) and exists eats. Fish)) => not Fly"]
    qf = tmp_path / "queries.txt"
    qf.write_text((KBS / "set3_queries.txt").read_text() + "".join(q + "\n" for q in fish_rows))
    stratified = _keep_stratifications(monkeypatch)
    domains = _keep_domains(monkeypatch)
    read = []
    masks = CanonicalDomain.masks

    def recording(self, lhs, rhs, atoms):
        read.append((self, lhs, len(self.lift((lhs, rhs), atoms))))
        return masks(self, lhs, rhs, atoms)

    monkeypatch.setattr(CanonicalDomain, "masks", recording)
    code, doc, _ = run_json(capsys, ["compare", "--json", SET3, str(qf)])
    assert code == 0 and not any("error" in row for row in doc["rows"][-2:])
    fish = Exists("eats", Atom("Fish"))
    ranked = stratified[0]
    tables = ranked._tables
    assert list(tables) == [frozenset(), frozenset({fish, Atom("Fish")})]
    assert domains == list(tables.values())
    widened = tables[frozenset({fish, Atom("Fish")})]
    for q in map(parse_axiom, fish_rows):
        table, lhs, _, _ = ranked.place(q)
        assert table is widened and level(table.levels, lhs) == 1
    # each row's masks are read once, the fish rows' on the widened table,
    # the last with `Blond` lifted in two variants
    rows = [(table, n) for table, lhs, n in read if lhs != TOP]
    assert len(rows) == len(doc["rows"])
    assert [(table, n) for table, n in rows if table is widened] == [(widened, 1), (widened, 2)]


def test_compare_walks_each_row_once_and_searches_once_per_domain(capsys, monkeypatch,
                                                                  tmp_path):
    # one walk of each row's query (`RankedTBox.outside`) places it, and
    # each domain gets both minimal models from one search each, whatever
    # its rows: the fresh restriction adds a domain, the fresh atom none
    queries = ["T(Penguin) => not Fly", "T(Penguin) => HasNiceFeather", "T(Bird) => Fly",
               "T((Penguin and Blond)) => not Fly", "T((Bird and exists eats. Fish)) => Fly",
               "T((Penguin and exists eats. Fish)) => not Fly"]
    qf = tmp_path / "queries.txt"
    qf.write_text("".join(q + "\n" for q in queries))
    walked = []
    outside = RankedTBox.outside

    def walking(self, concepts):
        walked.append(tuple(concepts))
        return outside(self, walked[-1])

    monkeypatch.setattr(RankedTBox, "outside", walking)
    searches = []
    for name in ("single_pref_model", "minimal_canonical_models"):
        def searching(kb, domain, bound=None, name=name, search=getattr(typika.cli, name)):
            searches.append((name, domain))
            return search(kb, domain, bound)

        monkeypatch.setattr(typika.cli, name, searching)
    domains = _keep_domains(monkeypatch)
    code, doc, _ = run_json(capsys, ["compare", "--json", SET3, str(qf)])
    assert code == 0 and len(doc["rows"]) == len(queries) == 6
    # besides the walk of `top => bot`, the consistency check's, once
    assert [w for w in walked if w != (TOP, BOT)] == [
        (q.lhs, q.rhs) for q in map(parse_axiom, queries)]
    assert len(domains) == 2
    assert searches == [(name, d) for d in domains
                        for name in ("single_pref_model", "minimal_canonical_models")]


def test_query_agrees_with_compare_row_by_row(capsys, monkeypatch, tmp_path):
    # `query` reads its verdict off the placed query's two masks, as a
    # `compare` row does: per semantics, its exit code and text are the
    # row's flag, and on an error row the first model semantics to fail
    # exits 2 with the row's error (chain(3)'s coupling cycles among them).
    # `--emit-model --json` prints the model of the placed table, which the
    # verdict is read off, and its verdict is that model's own reading of
    # the query (`holds_in_by_variants`). Closure, fresh-atom, conjunction and
    # fresh-restriction rows, at the default bound and at 1; a fresh-atom
    # query widens no table
    texts = {"set1": SET1_TEXT, "set3": SET3_TEXT, **FAMILY_KBS}
    kb_file, query_file = tmp_path / "kb.kb", tmp_path / "queries.txt"
    fields = {"single-pref": "singlePref", "enriched": "enriched"}
    verdicts = errors = cycles = witnesses = 0
    for name, text in texts.items():
        nodes: dict = {}
        kb = parse_kb(text, nodes)
        ranked = RankedTBox(kb)
        antes = list(dict.fromkeys(ax.lhs for ax in kb.defeasible))
        rhss = list(dict.fromkeys(ax.rhs for ax in kb.defeasible))
        queries = list(dict.fromkeys(family_queries(kb) + [
            serialize_axiom(Defeasible(And(antes[0], side), rhss[0]))
            for side in (Atom("Blond"), Exists("eats", Atom("Fish")))]))
        kb_file.write_text(text)
        query_file.write_text("".join(q + "\n" for q in queries))
        for bound in ([], ["--rank-bound", "1"]):
            _, doc, _ = run_json(capsys, ["compare", "--json", *bound, str(kb_file),
                                          str(query_file)])
            assert [row["query"] for row in doc["rows"]] == queries, name
            for raw, row in zip(queries, doc["rows"]):
                q = parse_axiom(raw, nodes)
                rc = in_rational_closure(ranked, q)
                assert rc == row.get("rc", rc), (name, raw)
                outcomes = {sem: run(capsys, ["query", "--semantics", sem, *bound,
                                              str(kb_file), raw])
                            for sem in ("rc", *fields)}
                assert outcomes["rc"] == (0 if rc else 1, "entailed\n" if rc
                                          else "not entailed\n", ""), (name, raw)
                if "error" in row:
                    failed = [sem for sem in fields if outcomes[sem][0] == 2]
                    assert failed and outcomes[failed[0]] == (
                        2, "", f"error: {row['error']}\n"), (name, raw)
                    errors += 1
                    cycles += "rule (a)" in row["error"]
                    continue
                for sem, field in fields.items():
                    flag = row[field]
                    assert outcomes[sem] == (0 if flag else 1, "entailed\n" if flag
                                             else "not entailed\n", ""), (name, raw, sem)
                    code, shown, _ = run_json(capsys, ["query", "--json", "--emit-model",
                                                       "--semantics", sem, *bound,
                                                       str(kb_file), raw])
                    table, _, _, _ = ranked.place(q)
                    witness = shown["witness"]
                    assert [t["concepts"] for t in witness["domain"]] == [
                        sorted(map(concept_to_text, t)) for t in table.types], (name, raw)
                    model = model_of(table, [witness["globalRanks"][f"t{i}"]
                                             for i in range(table.size)])
                    assert (code, shown["entailed"]) == (
                        0 if flag else 1, flag), (name, raw, sem)
                    assert holds_in_by_variants(model, q)[0] == flag, (name, raw, sem)
                    witnesses += 1
                verdicts += 1
    # 432 rows: 227 verdicts with 454 witnesses, and 205 errors, most of
    # them at bound 1, 22 of them cycles
    assert verdicts > 200 and witnesses > 400 and errors > 150 and cycles > 15
    stratified = _keep_stratifications(monkeypatch)
    for sem in ("single-pref", "enriched"):
        code, _, _ = run(capsys, ["query", "--semantics", sem, SET3,
                                  "T((Penguin and Blond)) => not Fly"])
        assert code == 0
    assert [list(rt._tables) for rt in stratified] == [[frozenset()]] * 2


def test_printed_model_expands_to_the_widened_model(capsys, tmp_path):
    # `query --emit-model` prints the model of the placed table, with the
    # query's atoms that table lifts under `lifted`. Each printed element,
    # once per assignment of those atoms, is an element of the minimal
    # model on the domain widened by both sides of the query, with the
    # same global and aspect ranks and the same successors; no other
    # element is. Closure, fresh-atom and fresh-restriction rows
    texts = {"set1": SET1_TEXT, "set3": SET3_TEXT, **FAMILY_KBS}
    kb_file = tmp_path / "kb.kb"
    searches = {"single-pref": single_pref_model,
                "enriched": lambda kb, domain: minimal_canonical_models(kb, domain)[0]}
    pairs = lifted = widened = errors = 0
    for name, text in texts.items():
        kb_file.write_text(text)
        nodes: dict = {}
        kb = parse_kb(text, nodes)
        ranked = RankedTBox(kb)
        antes = list(dict.fromkeys(ax.lhs for ax in kb.defeasible))
        rhss = list(dict.fromkeys(ax.rhs for ax in kb.defeasible))
        fish = Exists("eats", Atom("Fish"))
        queries = family_queries(kb) + [serialize_axiom(Defeasible(lhs, rhss[0])) for lhs in (
            And(antes[-1], fish), And(And(antes[0], Atom("Blond")), fish))]
        for raw in queries:
            q = parse_axiom(raw, nodes)
            wide = build_canonical_domain(ranked, (q.lhs, q.rhs))
            for sem, search in searches.items():
                code, out, err = run(capsys, ["query", "--json", "--emit-model",
                                              "--semantics", sem, str(kb_file), raw])
                try:
                    model = search(kb, wide)
                except RankBoundExceededError as exc:
                    assert (code, out, err) == (2, "", f"error: {exc}\n"), (name, raw, sem)
                    errors += 1
                    continue
                witness = json.loads(out)["witness"]
                assert witness.get("lifted") != [], (name, raw)  # left out when none is
                atoms = witness.get("lifted", [])
                ids = [t["id"] for t in witness["domain"]]
                position = dict(zip(ids, range(len(ids))))
                literals = [frozenset(t["concepts"]) for t in witness["domain"]]
                vocabulary = frozenset().union(*literals)
                printed = dict(zip(literals, range(len(ids))))
                # per widened element, the printed element and the lifted atoms' values
                copies = []
                for t in wide.types:
                    held = frozenset(map(concept_to_text, t))
                    copies.append((printed[held & vocabulary], tuple(a in held for a in atoms)))
                values = list(itertools.product((True, False), repeat=len(atoms)))
                assert sorted(copies) == sorted((k, v) for k in range(len(ids)) for v in values)
                assert [witness["globalRanks"][ids[k]] for k, _ in copies] == list(
                    model.global_ranks), (name, raw, sem)
                assert {concept_to_text(a): list(ranks) for a, ranks in model.per_aspect} == {
                    a: [ranks[ids[k]] for k, _ in copies]
                    for a, ranks in witness["aspectRanks"].items()}, (name, raw, sem)
                assert wide.successors.keys() == witness["roleEdges"].keys(), (name, raw)
                for role, (sets, of) in wide.successors.items():
                    shown = witness["roleEdges"][role]
                    reached = [{copies[j] for j in elements(t)} for t in sets]
                    want = [{(position[t], v) for t in members for v in values}
                            for members in shown["sets"]]
                    assert [reached[n] for n in of] == [
                        want[shown["of"][ids[k]]] for k, _ in copies], (name, raw, role)
                pairs += 1
                lifted += bool(atoms)
                widened += ranked.place(q)[0] is not ranked.table(())
    # 410 (query, semantics) pairs with a model, 99 of them with lifted
    # atoms and 66 on widened tables, and 22 without one
    assert pairs > 400 and lifted > 90 and widened > 60 and errors > 20


def test_compare_builds_no_literal_types(capsys, monkeypatch, tmp_path):
    # a domain's literal sets are for printing a model; compare never reads
    # them. One domain per KB, plus one for the fresh restriction
    # `exists s. C`; the fresh atom `Fresh` needs none.
    kb = tmp_path / "role.kb"
    kb.write_text(ROLE_KBS["exists-forall"])
    qf = tmp_path / "queries.txt"
    qf.write_text("T(A) => exists r. B\nT((A and C)) => forall r. not B\nT(A) => Fresh\n"
                  "T((A and exists s. C)) => exists r. B\n")
    domains = _keep_domains(monkeypatch)
    for argv in (["compare", "--json", SET3, SET3_QUERIES],
                 ["compare", "--json", str(kb), str(qf)]):
        code, _, _ = run(capsys, argv)
        assert code == 0
    assert len(domains) == 3
    assert not any("types" in vars(d) for d in domains)


@pytest.mark.parametrize("argv", [
    ["query", "--semantics", "enriched", "--rank-bound", "-5", SET3, "T(Bird) => Fly"],
    ["compare", "--rank-bound", "-1", SET3, SET3_QUERIES],
], ids=["query", "compare"])
def test_negative_rank_bound_is_a_usage_error(capsys, argv):
    # a bound below 0 admits no rank at all: refused before any reasoning
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith(f"error: argument --rank-bound: must be 0 or more, "
                            f"not {argv[argv.index('--rank-bound') + 1]}\n")


def test_compare_bad_line_is_isolated(capsys, tmp_path):
    qf = tmp_path / "queries.txt"
    qf.write_text("T(Bird) => Fly\nBird and Fly\n# comment\n\nT(Penguin) => not Fly\n")
    code, doc, _ = run_json(capsys, ["compare", "--json", SET3, str(qf)])
    assert code == 2
    assert len(doc["rows"]) == 3
    assert doc["rows"][0]["rc"] is True
    assert set(doc["rows"][1]) == {"query", "error"}
    assert doc["rows"][2]["rc"] is True
    code, out, _ = run(capsys, ["compare", SET3, str(qf)])
    assert code == 2
    assert "[error] Bird and Fly:" in out
    assert out.splitlines()[-1].endswith("violations=0 errors=1")


# -------------------------------------------------------- entry points


def test_module_entry_point():
    # pyproject's `pythonpath` reaches pytest, not the processes it starts
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "typika", "check", SET3],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout == "consistent\n"


def test_console_script(tmp_path):
    # Run the wrapper an installer writes for `[project.scripts] typika`,
    # built from this checkout's pyproject and src/, not a `typika` that an
    # install may have left on PATH.
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["typika"]
    module, attr = target.split(":")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    script = bindir / "typika"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n")
    script.chmod(0o755)
    env = dict(os.environ,
               PATH=os.pathsep.join([str(bindir), os.environ.get("PATH", "")]),
               PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        ["typika", "query", "--semantics", "enriched", SET3,
         "T(Penguin) => HasNiceFeather"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout == "entailed\n"


# ------------------------------------------------------- per-KB state


def _record_instances(monkeypatch, cls):
    """Weak references to every instance of `cls` made from here on."""
    made = []
    init = cls.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(cls, "__init__", recording)
    return made


def test_compare_leaves_no_per_kb_state_alive(capsys, monkeypatch, tmp_path):
    kb = tmp_path / "chain3.kb"
    kb.write_text(chain_text(3))
    queries = tmp_path / "queries.txt"
    queries.write_text("T(C0) => P\n")
    stratified = _record_instances(monkeypatch, RankedTBox)
    domains = _record_instances(monkeypatch, CanonicalDomain)
    # one call with rows, one with an error row
    assert run(capsys, ["compare", "--json", SET3, SET3_QUERIES])[0] == 0
    assert run(capsys, ["compare", "--json", str(kb), str(queries)])[0] == 2
    assert len(stratified) == len(domains) == 2
    gc.collect()
    assert [ref() for ref in stratified + domains] == [None] * 4


def test_per_kb_state_needs_no_cycle_collection(capsys, monkeypatch, tmp_path):
    # reference counting alone frees every stratification and domain (a
    # fresh-restriction row gives a second domain, a fresh-atom row none)
    abox = tmp_path / "abox.kb"
    abox.write_text(SET3_TEXT + "T(Penguin)(pingu)\nBird(tweety)\nknows(tweety, pingu)\n")
    widened = tmp_path / "widened.txt"
    widened.write_text("T(Penguin) => not Fly\nT((Penguin and Blond)) => not Fly\n"
                       "T((Penguin and exists eats. Fish)) => not Fly\n")
    stratified = _record_instances(monkeypatch, RankedTBox)
    domains = _record_instances(monkeypatch, CanonicalDomain)
    gc.disable()
    try:
        codes = [run(capsys, argv)[0] for argv in (
            ["check", str(abox)],
            ["query", "--semantics", "single-pref", SET3, "T(Penguin) => not Fly"],
            ["query", "--semantics", "enriched", SET3, "T(Penguin) => HasNiceFeather"],
            ["compare", "--json", SET3, SET3_QUERIES],
            ["compare", "--json", SET3, str(widened)],
        )]
        alive = [ref() is not None for ref in stratified + domains]
    finally:
        gc.enable()
    assert codes == [0, 0, 0, 0, 0]
    assert len(stratified) == 5
    assert len(domains) == 6
    assert alive == [False] * 11


@pytest.mark.parametrize("argv", [
    ["check", "ABOX"],
    ["rank", SET1],
    ["query", "--semantics", "rc", SET3, "T(Penguin) => not Fly"],
    ["query", "--semantics", "single-pref", SET3, "T(Penguin) => not Fly"],
    ["query", "--semantics", "enriched", SET3, "T(Penguin) => HasNiceFeather"],
    ["compare", "--json", SET1, SET1_QUERIES],
], ids=["check", "rank", "query-rc", "query-single-pref", "query-enriched", "compare"])
def test_each_command_stratifies_its_kb_once(capsys, monkeypatch, tmp_path, argv):
    abox = tmp_path / "abox.kb"
    abox.write_text(SET3_TEXT + "T(Penguin)(pingu)\nBird(tweety)\n")
    argv = [str(abox) if arg == "ABOX" else arg for arg in argv]
    stratified = _record_instances(monkeypatch, RankedTBox)
    assert run(capsys, argv)[0] == 0
    assert len(stratified) == 1
