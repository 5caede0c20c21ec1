"""Self-tests of the benchmark: its inputs, its tracer and its failure modes.

Run from the root of a checkout with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = run.ROOT
BENCH = Path(__file__).resolve().parent
run.import_program()

from typika.kb import serialize_kb, subconcept_closure  # noqa: E402
from typika.parser import parse_axiom, parse_kb  # noqa: E402
from typika.syntax import concept_to_text, subconcepts  # noqa: E402


@contextmanager
def temp_dir():
    path = Path(tempfile.mkdtemp(prefix=".perfbench-test-", dir=ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def round_bytes(workload: str, seed: int, rounds: int = 2) -> list[bytes]:
    plan = workloads.Plan(workload, seed)
    out = []
    with temp_dir() as d:
        for _ in range(rounds):
            for i, job in enumerate(plan.next_round()):
                kb, queries = run.write_job(job, d, i)
                out.append(Path(kb).read_bytes())
                out.append(Path(queries).read_bytes())
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_kbs_pairwise_distinct(workload):
    plan = workloads.Plan(workload, 7)
    kbs = [parse_kb(job.kb_text) for _ in range(3) for job in plan.next_round()]
    assert len(set(kbs)) == len(kbs)
    stricts = [kb.strict for kb in kbs if kb.strict]
    assert len(set(stricts)) == len(stricts)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_inputs(workload):
    assert round_bytes(workload, 3) == round_bytes(workload, 3)
    assert round_bytes(workload, 3) != round_bytes(workload, 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_closure_matches_the_program(workload):
    for job in workloads.Plan(workload, 5).next_round():
        kb = parse_kb(job.kb_text)
        members = subconcept_closure(kb)
        ours = {workloads.render(c, job.prefix) for c in workloads.closure(job.template.axioms)}
        assert ours == {concept_to_text(c) for c in members}
        for q, line in zip(job.template.queries, job.query_lines):
            ax = parse_axiom(line)
            inside = all(s in members for side in (ax.lhs, ax.rhs) for s in subconcepts(side))
            assert workloads.outside_closure(job.template, q) == (not inside), line


def test_corpus_is_the_test_corpus():
    tests_dir = ROOT / "tests"
    if not (tests_dir / "corpus.py").is_file():
        pytest.skip("no tests/corpus.py in this checkout")
    sys.path.insert(0, str(tests_dir))
    try:
        import corpus
    finally:
        sys.path.remove(str(tests_dir))
    theirs = sorted(serialize_kb(kb) for kb in corpus.corpus_kbs())
    ours = sorted(serialize_kb(parse_kb("".join(workloads.render_axiom(ax) + "\n"
                                                for ax in axs)))
                  for axs in workloads.corpus_axiom_sets())
    assert ours == theirs


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    import typika.tableau

    original = typika.tableau.is_satisfiable
    monkeypatch.setattr(tracing, "SPANNED",
                        tracing.SPANNED + (("typika.tableau", "no_such_function", "x"),))
    with pytest.raises(tracing.TraceError):
        tracing.Tracer().install()
    assert typika.tableau.is_satisfiable is original


@pytest.mark.parametrize("count_keys", [False, True])
def test_tracer_reports_names_never_called(count_keys):
    tracer = tracing.Tracer(count_keys)
    tracer.install()
    tracer.uninstall()
    wrapped = tracing.SPANNED + (tracing.COUNTED if count_keys else ())
    assert set(tracer.never_called()) == {n for _, _, n in wrapped}


def test_a_call_without_output_fails_its_rows_without_a_verdict():
    job = workloads.Plan("chains", 1).next_round()[0]
    tally = run.Tally()
    tally.check(job, 2, [], "Traceback ...\nsyntax error: bad line\n")
    assert tally.failed == tally.attempted == len(job.template.queries)
    assert not tally.wrong
    assert tally.errors == [f"{job.template.name}: exit 2: syntax error: bad line"]


def row(query: str, rc: bool, single: bool, enriched: bool) -> dict:
    return {"query": query, "rc": rc, "singlePref": single, "enriched": enriched,
            "violation": rc and not enriched}


@pytest.mark.parametrize("workload", ["roles", "corpus"])
def test_only_the_known_defect_is_a_failed_row(workload):
    job = workloads.Plan(workload, 1).next_round()[0]
    lines = job.query_lines
    rest = [row(q, False, False, False) for q in lines[1:]]
    tally = run.Tally()
    tally.check(job, 0, [row(lines[0], True, False, False)] + rest)
    if workload == "roles":  # rc over-strong on a KB with roles: a failed row
        assert not tally.wrong and len(tally.known) == tally.failed == 1
    else:
        assert len(tally.wrong) == 1 and not tally.known and tally.failed == 0
    tally = run.Tally()
    tally.check(job, 0, [row(lines[0], False, True, True)] + rest)
    assert len(tally.wrong) == 1 and not tally.known


def test_reference_times_a_call_and_exits():
    job = workloads.Plan("chains", 1).next_round()[0]
    with temp_dir() as d:
        kb, queries = run.write_job(job, d, 0)
        reference = run.Reference()
        try:
            seconds = reference.time(kb, queries)
        finally:
            reference.close()
    assert seconds > 0
    assert reference.child.returncode == 0


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload):
    args = ("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1")
    first, second = bench(*args), bench(*args)
    results = []
    for done in (first, second):
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.splitlines()[-1]))
    a, b = (r["metrics"] for r in results)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(a) == {m["name"] for m in spec["per_layer"]}
    counts = {name: m["value"] for name, m in a.items() if m["unit"] == "count"}
    assert counts == {name: b[name]["value"] for name in counts}
    assert counts["tableau.calls"] > 0 and counts["models.kappa_guesses"] > 0


def test_refuses_to_run_without_the_program():
    with temp_dir() as d:
        shutil.copy(ROOT / "BENCHMARK.json", d)
        shutil.copytree(BENCH, d / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        done = bench("--workload", "corpus", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=d)
    assert done.returncode != 0
    assert "{" not in done.stdout
