"""Command line surface.

Four subcommands: `check` (KB consistency), `rank` (exceptionality levels
and antecedent ranks), `query` (entailment under one of three semantics),
and `compare` (all semantics side by side over a query file, flagging rows
where rank-based entailment differs from single-preference entailment
or is not contained in enriched entailment).

Exit codes: 0 entailed / consistent / no flagged rows, 1 negative verdict
or flagged row, 2 any error (I/O or a file not in UTF-8, syntax,
inconsistent KB under model semantics, rank bound overflow; in `compare`,
any error row; an internal error, any other exception, reported as
`internal error: ...` on stderr). A subcommand reads its input and
returns its exit code, document and text lines; `main` writes them and
flushes stdout, so a write it refuses is reported as `cannot write
output: ...` with exit 2. `--json`
switches to a single structured document on stdout, the bytes of
`json.dumps(doc, indent=2, sort_keys=True)`, joined per container with
C-encoded strings, a container of over `_WIDE` members one member at a
time; `timingMs` is measured per invocation except for `compare`, where
it is pinned to 0 so repeated runs are byte-identical. The arguments
spelled as `--help` prints them are read without argparse, over the one
declaration of each subcommand's options (`_read_args`); argparse, built
from that declaration only then, reads every other argv and prints all
help and usage errors (`build_parser`). The KB and query files are
read as bytes and decoded once, so a byte that is not UTF-8 is reported at
its offset in the file; query lines end at `\n`, `\r\n` and `\r`, as in
a file read in text mode.

A query is answered on the table `RankedTBox.place` picks, the domain
widened by its restrictions outside the KB's closure: `query` and each
`compare` row read the verdict off the query's two masks there, placed
once, its antecedent's extension and its counterexamples. All three
semantics ask one question of them, `ranking.counterexamples`: do the
counterexamples meet the antecedent's least-ranked instances, under the
table's levels (`in_rational_closure`) or under the rank masks of the
table's minimal model (`_minimal_models`). `compare` searches each
table's two minimal models once and keeps their rank masks, or the error
every row on the table reports, so a row builds no `Model` and reads no
element's rank. `query --emit-model` prints the model its verdict is
read off, with the query's atoms that table lifts.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from itertools import islice
from json.encoder import encode_basestring_ascii as _string
from types import SimpleNamespace
from typing import TYPE_CHECKING, Collection, Iterator, Optional, Sequence, Union

from .kb import KnowledgeBase, serialize_axiom
from .models import (
    CanonicalDomain,
    InconsistentKBError,
    Model,
    RankBoundExceededError,
    build_canonical_domain,
    find_abox_mapping,
    minimal_canonical_models,
    single_pref_model,
)
from .parser import KBSyntaxError, intern, parse_axiom, parse_kb
from .ranking import RankedTBox, counterexamples, elements, in_rational_closure, is_kb_consistent
from .syntax import Concept, concept_to_text

if TYPE_CHECKING:
    import argparse


def _read(path: str) -> str:
    """A file's text: its bytes, read in one call, decoded once. A byte
    that is not UTF-8 is reported at its offset in the file."""
    with open(path, "rb", buffering=0) as fh:
        return fh.read().decode("utf-8")


def _load_kb(path: str, nodes: Optional[dict[str, Concept]] = None) -> KnowledgeBase:
    return parse_kb(_read(path), nodes)


def _query_lines(path: str) -> list[str]:
    """The stripped lines of a query file that are neither blank nor a
    comment. Lines end at `\n`, `\r\n` and `\r`, as when a file opened in
    text mode is iterated; any other line break stays inside its line."""
    lines = _read(path).replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [r for r in map(str.strip, lines) if r and r[0] != "#"]


_WIDE = 256  # a container of more members is written one member at a time


class _Large(Exception):
    """A container of more than `_WIDE` members."""


def _json(value: object, pad: str) -> str:
    """`value` as `json.dumps(value, indent=2, sort_keys=True)` writes it,
    nested at `pad` (a newline and the indent), as one string; raises
    `_Large` on a container of more than `_WIDE` members."""
    if value is True or value is False or value is None:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, (dict, list, tuple)):
        if len(value) > _WIDE:
            raise _Large
        inner = pad + "  "
        if isinstance(value, dict):
            ends, out = "{}", [f"{_string(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
        else:
            ends, out = "[]", [_json(v, inner) for v in value]
        return ends[0] + inner + f",{inner}".join(out) + pad + ends[1] if out else ends
    return repr(value) if type(value) is int else json.dumps(value)


def _pieces(value: Union[dict, list], pad: str) -> Iterator[str]:
    """The text of `_json` for a non-empty dict or list, a piece per
    member; a member of more than `_WIDE` members, or holding one, is
    written in pieces too."""
    inner = pad + "  "
    if isinstance(value, dict):
        ends, items = "{}", ((f"{_string(k)}: ", v) for k, v in sorted(value.items()))
    else:
        ends, items = "[]", (("", v) for v in value)
    sep = ends[0] + inner
    for key, member in items:
        try:
            yield sep + key + _json(member, inner)
        except _Large:
            yield sep + key
            yield from _pieces(member, inner)
        sep = "," + inner
    yield pad + ends[1]


def _emit(args: SimpleNamespace, doc: dict, lines: list[str]) -> None:
    """The document as indented, key-sorted JSON, written in pieces so a
    large witness is never one string; or the lines."""
    if args.json:
        pieces = _pieces(doc, "\n")
        while batch := "".join(islice(pieces, 1 << 12)):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
    else:
        for line in lines:
            print(line)


def _serialize_model(model: Model, lifted: Collection[Concept]) -> dict:
    """A model as `--json` prints it, per role its distinct successor sets
    and each element's index into them; `lifted`, the atoms its table has
    no bit for, is listed when there are any."""
    dom = model.domain
    ids = [f"t{i}" for i in range(dom.size)]
    witness = {
        "domain": [
            {"id": ids[i], "concepts": sorted(concept_to_text(c) for c in t)}
            for i, t in enumerate(dom.types)
        ],
        "roleEdges": {
            role: {"of": dict(zip(ids, of)), "sets": [[ids[j] for j in elements(t)] for t in sets]}
            for role, (sets, of) in dom.successors.items()
        },
        "aspectRanks": {
            concept_to_text(a): {ids[i]: r for i, r in enumerate(ranks)}
            for a, ranks in model.per_aspect
        },
        "globalRanks": {ids[i]: r for i, r in enumerate(model.global_ranks)},
    }
    if lifted:
        witness["lifted"] = sorted(map(concept_to_text, lifted))
    return witness


def _model_lines(witness: dict) -> list[str]:
    """The text form of a `_serialize_model` document."""
    lines = ["witness model:"]
    if "lifted" in witness:
        lines.append(f"  lifted: {', '.join(witness['lifted'])}")
    ranks = witness["globalRanks"]
    for t in witness["domain"]:
        lines.append(f"  {t['id']} [global {ranks[t['id']]}]: {', '.join(t['concepts'])}")
    for a, ranks in witness["aspectRanks"].items():
        cells = " ".join(f"{i}={r}" for i, r in ranks.items())
        lines.append(f"  aspect {a}: {cells}")
    for role, edges in witness["roleEdges"].items():
        lines.extend(f"  role {role} s{k}:" + "".join(f" {i}" for i in members)
                     for k, members in enumerate(edges["sets"]))
        lines.append(f"  role {role}: " + " ".join(f"{i}->s{k}" for i, k in edges["of"].items()))
    return lines


def cmd_check(args: SimpleNamespace) -> tuple[int, dict, list[str]]:
    kb = _load_kb(args.kb)
    start = time.perf_counter()
    ranked = RankedTBox(kb)
    consistent = is_kb_consistent(ranked)
    if consistent and kb.abox:
        m = single_pref_model(kb, build_canonical_domain(ranked))
        consistent = find_abox_mapping(m, kb) is not None
    ms = (time.perf_counter() - start) * 1000.0
    doc = {"command": "check", "kb": args.kb, "consistent": consistent,
           "timingMs": round(ms, 3)}
    return (0 if consistent else 1), doc, ["consistent" if consistent else "inconsistent"]


def cmd_rank(args: SimpleNamespace) -> tuple[int, dict, list[str]]:
    kb = _load_kb(args.kb)
    start = time.perf_counter()
    rt = RankedTBox(kb)
    antecedents = dict.fromkeys(ax.lhs for ax in kb.defeasible)
    values = {concept_to_text(c): rt.rank(c) for c in antecedents}
    ms = (time.perf_counter() - start) * 1000.0
    doc = {
        "command": "rank",
        "kb": args.kb,
        "ranks": {
            "levels": [[serialize_axiom(ax) for ax in lv] for lv in rt.levels],
            "values": {text: ("inf" if r == math.inf else r)
                       for text, r in values.items()},
        },
        "timingMs": round(ms, 3),
    }
    lines = []
    for i, lv in enumerate(rt.levels):
        lines.append(f"level E{i}:")
        if lv:
            lines.extend(f"  {serialize_axiom(ax)}" for ax in lv)
        else:
            lines.append("  (empty)")
    ordered = sorted((r, text) for text, r in values.items())
    lines.extend(f"rank {r}: {text}" for r, text in ordered)
    return 0, doc, lines


def _minimal_models(ranked: RankedTBox, closure: Collection[Concept], semantics: Sequence[str],
                    bound: Optional[int]) -> list[Model]:
    """The minimal model of each model semantics named, on one domain: the
    KB's closure widened by `closure`."""
    kb = ranked.kb
    domain = build_canonical_domain(ranked, closure)
    return [single_pref_model(kb, domain, bound) if name == "single-pref"
            else minimal_canonical_models(kb, domain, bound)[0] for name in semantics]


def cmd_query(args: SimpleNamespace) -> tuple[int, dict, list[str]]:
    nodes: dict[str, Concept] = {}  # one node table for the KB and the query
    kb = _load_kb(args.kb, nodes)
    query = parse_axiom(args.query, nodes)
    start = time.perf_counter()
    ranked = RankedTBox(kb)
    model = None
    if args.semantics == "rc":
        entailed = in_rational_closure(ranked, query)
    else:  # read off the placed query's masks, as a `compare` row is
        table, lhs, off, atoms = ranked.place(query)
        [model] = _minimal_models(ranked, table.closure, [args.semantics], args.rank_bound)
        entailed = not counterexamples(model.rank_masks, query, lhs, off)
    ms = (time.perf_counter() - start) * 1000.0
    doc = {
        "command": "query",
        "kb": args.kb,
        "query": serialize_axiom(query),
        "semantics": args.semantics,
        "entailed": entailed,
        "timingMs": round(ms, 3),
    }
    if args.emit_model and model is not None:  # the model the verdict is read off
        doc["witness"] = _serialize_model(model, table.lifted(atoms))
    lines = []  # the text form, built only when it is printed
    if not args.json:
        lines.append("entailed" if entailed else "not entailed")
        if "witness" in doc:
            lines.extend(_model_lines(doc["witness"]))
    return (0 if entailed else 1), doc, lines


# per table, the global rank masks of the single-preference and the
# enriched minimal model, or the error every row on the table reports
_ModelMasks = Union[tuple[tuple[int, ...], tuple[int, ...]], str]


def _minimal_ranks(ranked: RankedTBox, table: CanonicalDomain,
                   bound: Optional[int]) -> _ModelMasks:
    """Both minimal models' rank masks on a table, or the error of the
    first that has none, or of an inconsistent KB."""
    try:
        single, enriched = _minimal_models(ranked, table.closure, ["single-pref", "enriched"],
                                           bound)
        return single.rank_masks, enriched.rank_masks
    except (RankBoundExceededError, InconsistentKBError) as exc:
        return str(exc)


def _compare_row(ranked: RankedTBox, raw: str, bound: Optional[int],
                 nodes: dict[str, Concept], ranks: dict[CanonicalDomain, _ModelMasks]) -> dict:
    """One row of `compare`, all three semantics read off the query's two
    masks on the table `RankedTBox.place` picks: its rank entailment
    (`in_rational_closure`), and its counterexamples in each minimal model
    (`counterexamples`), whose rank masks `ranks` keeps per table. Every
    row shares the KB's stratification and its node table `nodes`; most
    rows share the KB's own table."""
    try:
        query = parse_axiom(raw, nodes)
    except KBSyntaxError as exc:
        return {"query": raw, "error": str(exc)}
    text = serialize_axiom(query)
    rc = in_rational_closure(ranked, query)
    table, lhs, off, _ = ranked.place(query)
    found = ranks.get(table)
    if found is None:
        found = ranks[table] = _minimal_ranks(ranked, table, bound)
    if isinstance(found, str):
        return {"query": text, "error": found}
    single, enriched = (not counterexamples(masks, query, lhs, off) for masks in found)
    return {"query": text, "rc": rc, "singlePref": single, "enriched": enriched,
            "violation": rc != single or (rc and not enriched)}


def _flag(value: bool) -> str:
    return "yes" if value else "no"


def cmd_compare(args: SimpleNamespace) -> tuple[int, dict, list[str]]:
    nodes: dict[str, Concept] = {}  # one node table for the KB and every query
    kb = _load_kb(args.kb, nodes)
    raws = _query_lines(args.queries)
    ranked = RankedTBox(kb)
    intern(nodes, ranked.closure)  # so a query's `not X` is the closure's own node
    ranks: dict[CanonicalDomain, _ModelMasks] = {}
    rows = [_compare_row(ranked, raw, args.rank_bound, nodes, ranks) for raw in raws]
    doc = {"command": "compare", "kb": args.kb, "rows": rows, "timingMs": 0}
    violations = sum(1 for r in rows if r.get("violation"))
    errors = sum(1 for r in rows if "error" in r)
    lines = []  # the text form, built only when it is printed
    if not args.json:
        for row in rows:
            if "error" in row:
                lines.append(f"[error] {row['query']}: {row['error']}")
            else:
                mark = "[FAILURE]" if row["violation"] else "[ok]"
                lines.append(
                    f"{mark} {row['query']} | rc={_flag(row['rc'])}"
                    f" single-pref={_flag(row['singlePref'])}"
                    f" enriched={_flag(row['enriched'])}"
                )
        lines.append(
            f"queries={len(rows)}"
            f" rc={sum(1 for r in rows if r.get('rc'))}"
            f" single-pref={sum(1 for r in rows if r.get('singlePref'))}"
            f" enriched={sum(1 for r in rows if r.get('enriched'))}"
            f" violations={violations} errors={errors}"
        )
    return (2 if errors else 1 if violations else 0), doc, lines


def _rank_bound(text: str) -> int:
    """A `--rank-bound` value: an int of 0 or more; otherwise ValueError
    with the message argparse prints."""
    try:
        bound = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if bound < 0:
        raise ValueError(f"must be 0 or more, not {bound}")
    return bound


# Each subcommand's handler, help, options and positionals, read by
# `_read_args` and declared to argparse by `build_parser`. An option is its
# full spelling and its `add_argument` keywords: a flag stores True, any
# other option takes the next word, one of its `choices` or read by its
# `type`, which raises ValueError with the message argparse prints.
_JSON = ("--json", {"action": "store_true", "help": "emit one structured JSON document"})
_RANK_BOUND = ("--rank-bound", {"type": _rank_bound,
                                "help": "cap on rank values (default: defeasible axioms + 1)"})
_KB = ("kb", "knowledge base file")
_SUBCOMMANDS = {
    "check": (cmd_check, "report KB consistency", (_JSON,), (_KB,)),
    "rank": (cmd_rank, "print exceptionality levels and antecedent ranks", (_JSON,), (_KB,)),
    "query": (cmd_query, "answer one inclusion query",
              (_JSON,
               ("--semantics", {"required": True, "choices": ("rc", "single-pref", "enriched")}),
               _RANK_BOUND,
               ("--emit-model", {"action": "store_true",
                                 "help": "include the witness or counterexample model"})),
              (_KB, ("query", "inclusion, e.g. 'T(Bird) => Fly'"))),
    "compare": (cmd_compare, "run all semantics over a query file", (_JSON, _RANK_BOUND),
                (_KB, ("queries", "file with one query per line"))),
}


def _read_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """`argv` as `--help` spells it, read without argparse: a subcommand,
    then its options in full, each value the next word, and exactly its
    positionals; no other word starts with `-`, every value meets its
    `choices` or `type` and every required option is given. Any other
    argv gives None, for `build_parser`'s parsers; this prints nothing."""
    declared = _SUBCOMMANDS.get(argv[0]) if argv else None
    if declared is None:
        return None
    handler, _, options, positionals = declared
    keywords = dict(options)
    args = {name[2:].replace("-", "_"): False if "action" in kw else None for name, kw in options}
    missing = {name for name, kw in options if kw.get("required")}
    words = []
    rest = iter(argv[1:])
    for word in rest:
        kw = keywords.get(word)
        if kw is None:
            if word[:1] == "-":
                return None
            words.append(word)
            continue
        value = True
        if "action" not in kw:
            value = next(rest, "-")
            if value[:1] == "-" or value not in kw.get("choices", (value,)):
                return None
            if "type" in kw:
                try:
                    value = kw["type"](value)
                except ValueError:
                    return None
        args[word[2:].replace("-", "_")] = value
        missing.discard(word)
    if missing or len(words) != len(positionals):
        return None
    args.update(zip([name for name, _ in positionals], words), func=handler)
    return SimpleNamespace(**args)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's own parser by name,
    declared from `_SUBCOMMANDS`. They read every argv `_read_args` leaves:
    they print help and usage errors, and read the other spellings, such
    as `--sem`, `--rank-bound=1`, `--` and a path starting with `-`."""
    import argparse

    def typed(read):  # argparse prints an ArgumentTypeError's message as it is
        def value(text: str):
            try:
                return read(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parser = argparse.ArgumentParser(
        prog="typika",
        description="Defeasible description-logic reasoner with typicality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, summary, options, positionals) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, kw in options:
            p.add_argument(name, **({**kw, "type": typed(kw["type"])} if "type" in kw else kw))
        for name, text in positionals:
            p.add_argument(name, help=text)
        p.set_defaults(func=handler)
    return parser, sub.choices


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv)
    if args is None:  # help, a usage error or a spelling only argparse reads
        parser, commands = build_parser()
        command = commands.get(argv[0]) if argv else None
        if command is None:  # no command, an unknown one or a top-level option
            args = parser.parse_args(argv)
        else:  # the top-level parser would hand these on, and report any left over
            args, extra = command.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        code, doc, lines = args.func(args)
        try:  # flushed here, so a write stdout refuses fails here and not at exit
            _emit(args, doc, lines)
            sys.stdout.flush()
        except OSError as exc:  # a closed stdout, say
            print(f"cannot write output: {exc}", file=sys.stderr)
            null = os.open(os.devnull, os.O_WRONLY)  # where the flush at exit writes what is left
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            return 2
        return code
    except KBSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:  # a missing file, or one not in UTF-8
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    except InconsistentKBError as exc:
        print(f"error: {exc} (model-based semantics need a consistent KB)",
              file=sys.stderr)
        return 2
    except RankBoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not a verdict: never exit 0 or 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
