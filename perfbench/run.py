"""Benchmark of `typika compare`: one fresh KB file plus its query file,
answered under all three semantics, per call.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

The program is called in-process through `typika.cli.main(["compare",
"--json", kb, queries])` with its output captured; one client, one call at a
time. Calls run in rounds over the workload's KB list; `--seconds` fixes
the number of rounds. With `--trace 0` each call is followed by a call of the
reference, a frozen copy of typika in another process (`reference.py`), on
the same files, and the end-to-end times are the program's relative to the
reference's, so that the machine's changes of speed cancel. Every row of
every call is checked. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced round with `--trace 1`. The exit code is 1 on a
wrong verdict (after the result line), except the known defect of
`_known_defect`, which counts as a failed row; it is non-zero without a result
line on a missing program, a broken trace or a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FROZEN = Path(__file__).resolve().parent / "frozen"  # the reference's sources
SETUP_SAMPLES = 11
# Seconds one untraced round took at the commit that defined the benchmark
# (2 vCPUs), the reference's calls included. They turn `--seconds` into a
# fixed number of rounds, so a faster program gets no more samples than a
# slower one.
ROUND_SECONDS = {"corpus": 24.0, "chains": 5.0, "roles": 11.0}
# What the reference took on that machine: seconds for one round, its median
# call in ms, and seconds for one set-up. The end-to-end times are the
# program's times relative to the reference's, in these units.
REF_ROUND_SECONDS = {"corpus": 11.0, "chains": 3.4, "roles": 4.6}
REF_KB_P50_MS = {"corpus": 36.0, "chains": 260.0, "roles": 230.0}
REF_SETUP_SECONDS = 0.13


def import_program(src: Path = SRC):
    """Imports typika from `src`, by default the checkout's own source tree,
    never from elsewhere."""
    if not (src / "typika" / "__init__.py").is_file():
        raise SystemExit(f"error: no typika sources under {src}")
    sys.path.insert(0, str(src))
    import typika.cli

    if not Path(typika.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: typika was imported from {typika.cli.__file__}")
    return typika.cli


# -- one round ------------------------------------------------------------------


class Tally:
    """Rows attempted and failed, wrong verdicts, and per-call times."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.wrong: list[str] = []
        self.known: list[str] = []
        self.rounds: list[list[float]] = []
        self.ref_rounds: list[list[float]] = []

    def check(self, job: workloads.Job, code: int, rows: list, stderr: str = "") -> None:
        queries = job.template.queries
        self.attempted += len(queries)
        if code != 0 and not rows:  # no result at all: every row failed
            self.failed += len(queries)
            why = stderr.strip().splitlines()[-1:] or [f"exit {code}"]
            self.errors.append(f"{job.template.name}: exit {code}: {why[0]}")
            return
        if len(rows) != len(queries):
            self.failed += len(queries)
            self.wrong.append(f"{job.template.name}: {len(rows)} rows for "
                              f"{len(queries)} queries")
            return
        bad = [r for r in rows if "error" in r]
        self.errors.extend(f"{job.template.name}: {r['query']}: {r['error']}" for r in bad)
        known = 0
        for q, line, row in zip(queries, job.query_lines, rows):
            why = _wrong_verdict(q, row, rows)
            if why and _known_defect(job.template, row):
                known += 1
                self.known.append(f"{job.template.name}: {line}: {why}")
            elif why:
                self.wrong.append(f"{job.template.name}: {line}: {why}")
        self.failed += len(queries) if code != 0 else len(bad) + known


def _verdicts(row: dict):
    return None if "error" in row else (row["rc"], row["singlePref"], row["enriched"])


def _known_defect(template: workloads.Template, row: dict) -> bool:
    """The wrong verdict the program is known to give: on a KB with roles,
    `rc` entails the query while `single-pref` and `enriched` do not (`rc`
    asserts the defaults on role successors too; the canonical model lets a
    successor be atypical). Such a row counts as failed, so it lowers
    `ok_share`, and is printed; any other wrong verdict fails the run."""
    return (workloads.uses_roles(template)
            and _verdicts(row) == (True, False, False))


def _wrong_verdict(q: workloads.Query, row: dict, rows: list) -> str:
    v = _verdicts(row)
    if v is None:
        return ""
    rc, single, enriched = v
    if rc != single:
        return f"rc={rc} but singlePref={single}"
    if row["violation"] or (rc and not enriched):
        return "rc-entailed but not enriched-entailed"
    if q.expect_rc is not None and rc != q.expect_rc:
        return f"rc={rc}, expected {q.expect_rc} by construction"
    if q.same_as is not None:
        base = _verdicts(rows[q.same_as])
        if base is not None and base != v:
            return f"verdicts {v} differ from the base query's {base}"
    return ""


def write_job(job: workloads.Job, workdir: Path, i: int) -> tuple[str, str]:
    """Writes a job's KB and query file; returns their paths."""
    kb, queries = workdir / f"{i}.kb", workdir / f"{i}.q"
    kb.write_text(job.kb_text, encoding="utf-8")
    queries.write_text("".join(line + "\n" for line in job.query_lines), encoding="utf-8")
    return str(kb), str(queries)


class Reference:
    """The reference program (`reference.py`) in a child process, pinned with
    this process to one CPU until `close`, so both run on the same core."""

    def __init__(self) -> None:
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.cpus)})
        self.child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "reference.py")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def time(self, kb: str, queries: str) -> float:
        """Seconds the reference's compare call took on these files."""
        self.child.stdin.write(json.dumps([kb, queries]) + "\n")
        self.child.stdin.flush()
        reply = self.child.stdout.readline()
        if not reply:
            raise SystemExit(f"error: the reference exited with {self.child.wait()}")
        return float(reply)

    def close(self) -> None:
        self.child.stdin.close()
        try:
            self.child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.child.kill()
            self.child.wait()
        os.sched_setaffinity(0, self.cpus)


def run_round(cli, jobs: list[workloads.Job], workdir: Path, tally: Tally,
              reference: Reference | None = None) -> None:
    """Calls compare once per KB, each right after writing its files, and adds
    the seconds each call took to the tally as one round; with a reference,
    also the seconds the reference took on the same files right after."""
    times, ref_times = [], []
    for i, job in enumerate(jobs):
        kb, queries = write_job(job, workdir, i)
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["compare", "--json", kb, queries])
            dt = perf_counter() - start
            rows = json.loads(out.getvalue())["rows"] if out.getvalue() else []
        except Exception as exc:  # the run goes on; the call counts as failed
            dt = perf_counter() - start
            code, rows = 2, []
            err.write(f"compare raised {exc!r}\n")
        times.append(dt)
        tally.check(job, code, rows, err.getvalue())
        if reference:
            ref_times.append(reference.time(kb, queries))
    tally.rounds.append(times)
    if reference:
        tally.ref_rounds.append(ref_times)


# -- set-up -------------------------------------------------------------------------


def setup_probe(workload: str, seed: int, src: Path) -> None:
    """What a run does before its first call: import typika from `src`,
    generate round one and write the first call's files. The other files are
    written between calls, untimed: on the disk the benchmark was built on,
    writing a `corpus` round's 516 files took 0.17 to 0.38 s, noise that would
    swamp the interpreter and import time this metric is for."""
    import_program(src)
    plan = workloads.Plan(workload, seed)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        write_job(plan.next_round()[0], workdir, 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def probe_seconds(cmd: list[str]) -> float:
    """Wall time of a fresh interpreter that sets up and exits. The wait
    blocks on the child; `Popen.wait` with a timeout would poll it every 50 ms
    and round each sample up to that step, so a timer kills a hung child."""
    start = perf_counter()
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    killer = threading.Timer(60, child.kill)
    killer.start()
    code = child.wait()
    seconds = perf_counter() - start
    killer.cancel()
    if code != 0:
        raise SystemExit(f"error: the set-up probe exited with {code}")
    return seconds


def measure_setup(workload: str, seed: int) -> float:
    """Set-up time relative to the reference: the median, over pairs of
    probes run back to back, of the program's set-up over the reference's,
    times `REF_SETUP_SECONDS`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    ratios = [probe_seconds(cmd + ["program"]) / probe_seconds(cmd + ["reference"])
              for _ in range(SETUP_SAMPLES)]
    return statistics.median(ratios) * REF_SETUP_SECONDS


# -- runs ------------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def best_times(rounds: list[list[float]]) -> list[float]:
    """Each KB's fastest call across the rounds given. Every round calls the
    same KB shapes, and interference from other work on the machine only
    adds time, so the fastest of several calls is the steadiest estimate."""
    return [min(per_kb) for per_kb in zip(*rounds)]


def queries_per_s(plan: workloads.Plan, rounds: list[list[float]]) -> float:
    """Rows of one round over the sum of its KBs' best call times: the traced
    run's raw throughput, untraced and traced."""
    return sum(len(t.queries) for t in plan.templates) / sum(best_times(rounds))


def round_count(workload: str, seconds: int) -> int:
    """The rounds a run makes: as many as fit in `seconds` at the speed in
    `ROUND_SECONDS`, and at least one."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def speed_scale(workload: str, tally: Tally) -> float:
    """Factor that turns the program's seconds in this run into seconds at the
    reference speed: `REF_ROUND_SECONDS` over the reference's mean round."""
    ref_round = sum(map(sum, tally.ref_rounds)) / len(tally.ref_rounds)
    return REF_ROUND_SECONDS[workload] / ref_round


def end_to_end(cli, args, plan, workdir, tally, setup_s: float) -> dict:
    """A fixed number of whole rounds, set by `--seconds`, each call followed
    by the reference's call on the same files."""
    rss_mb = 0.0
    reference = Reference()
    try:
        for _ in range(round_count(args.workload, args.seconds)):
            run_round(cli, plan.next_round(), workdir, tally, reference)
            if len(tally.rounds) == 1:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        reference.close()
    scale = speed_scale(args.workload, tally)
    calls_s = [s for times in tally.rounds for s in times]
    ref_s = [s for times in tally.ref_rounds for s in times]
    calls_ms = [s * 1000.0 for s in calls_s]
    n = len(calls_ms)
    beyond = n - int(0.9 * n)
    p90 = (f"kb_p90_ms={percentile(calls_ms, 0.9) * scale:.3f} ({beyond} of {n} calls beyond)"
           if beyond >= 10 else f"kb_p90_ms not reported ({n} calls)")
    print(f"rounds={len(tally.rounds)} "
          f"round_s={','.join(f'{sum(times):.2f}' for times in tally.rounds)} "
          f"reference_round_s={','.join(f'{sum(times):.2f}' for times in tally.ref_rounds)} "
          f"speed_scale={scale:.4f} raw_queries_per_s={tally.attempted / sum(calls_s):.3f} "
          f"calls={n} rows={tally.attempted} known_wrong_rows={len(tally.known)} {p90} "
          f"fresh_concept_share={workloads.fresh_share(plan.templates):.4f}")
    return {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (tally.attempted / (sum(calls_s) * scale), "1/s"),
        "kb_p50_ms": (statistics.median(p / r for p, r in zip(calls_s, ref_s))
                      * REF_KB_P50_MS[args.workload], "ms"),
        "ok_share": (1.0 - tally.failed / tally.attempted, "share"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(cli, args, plan, workdir, tally) -> dict:
    """Five rounds of the same shapes: untraced and traced alternating, two
    each, then one traced round that also counts `concept_key` calls. The
    layer times come from the first traced round, which that counting does
    not slow; the overhead compares best-of-rounds throughput of the first
    four. Every traced round must make the same span counts."""
    from tracing import TraceError, Tracer

    tracers = []
    for traced, count_keys in ((False, False), (True, False), (False, False),
                               (True, False), (True, True)):
        tracer = Tracer(count_keys) if traced else None
        if tracer:
            tracers.append(tracer)
            tracer.install()
        try:
            run_round(cli, plan.next_round(), workdir, tally)
        finally:
            if tracer:
                tracer.uninstall()
    first, keys = tracers[0], tracers[-1]
    missing = first.never_called() + keys.never_called()
    if missing:
        raise TraceError(f"never called on {args.workload}: {', '.join(missing)}")
    for other in tracers[1:]:
        if other.span_counts() != first.span_counts():
            raise TraceError(f"span counts differ between traced rounds on {args.workload}")
    untraced = queries_per_s(plan, tally.rounds[0:4:2])
    traced = queries_per_s(plan, tally.rounds[1:4:2])
    metrics = first.layer_metrics()
    metrics["syntax.concept_key_calls"] = (keys.counts["syntax.concept_key"], "count")
    metrics["failed_share"] = (tally.failed / tally.attempted, "share")
    metrics["trace.queries_per_s"] = (traced, "1/s")
    metrics["trace.overhead_share"] = (1.0 - traced / untraced, "share")
    print(f"untraced_queries_per_s={untraced:.3f} traced_queries_per_s={traced:.3f} "
          f"spans={len(first.span_start)} known_wrong_rows={len(tally.known)} "
          f"fresh_concept_share={workloads.fresh_share(plan.templates):.4f}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", choices=("program", "reference"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.setup_probe:
        setup_probe(args.workload, args.seed,
                    SRC if args.setup_probe == "program" else FROZEN)
        return 0

    cli = import_program()
    setup_s = 0.0 if args.trace else measure_setup(args.workload, args.seed)
    plan = workloads.Plan(args.workload, args.seed)
    tally = Tally()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            metrics = per_layer(cli, args, plan, workdir, tally)
        else:
            metrics = end_to_end(cli, args, plan, workdir, tally, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in tally.errors[:5]:
        print(f"error row: {line}", file=sys.stderr)
    if len(tally.errors) > 5:
        print(f"... {len(tally.errors) - 5} more error rows", file=sys.stderr)
    for line in tally.known:
        print(f"KNOWN WRONG VERDICT (a failed row): {line}", file=sys.stderr)
    for line in tally.wrong:
        print(f"WRONG VERDICT: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if tally.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
