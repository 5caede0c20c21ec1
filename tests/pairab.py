"""Paired per-call timing of two source trees on one benchmark workload.

    python tests/pairab.py SRC_A SRC_B WORKLOAD [ROUNDS [SEED]]

Imports `typika` from the directories SRC_A and SRC_B under two package
names, `typika_a` and `typika_b`, in one process, and calls each tree's
`cli.main(["compare", "--json", KB, QUERIES])` on the same files, written
from the benchmark's generator (`perfbench/workloads.py`). The two calls
on a file alternate which goes first, and each follows a call of the
benchmark's reference program (`perfbench/run.py`'s `Reference`, pinned
with this process to one CPU), as every timed call of the benchmark does.
ROUNDS (default 1) repeats the workload's KB list with fresh names. SEED
(default 1) seeds the generator, so a claim can be checked again on a
seed that was not used while the change was written.

It prints the median over the calls of B's time over A's, how many calls
B took less time on, and whether the two trees printed the same bytes and
exit codes on every call; it exits 1 when they did not, so a script
that reads only the exit code sees a change of verdict. A ratio per pair
of calls on one file, taken seconds apart, cancels the changes of machine
speed that spread one benchmark run by about 10%, so it resolves
per-call changes near 1%. Nothing under `perfbench/` is changed. Not a
test: pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(src: str, name: str):
    """The `cli` module of the `typika` package under `src`, imported as
    the package `name`."""
    init = Path(src, "typika", "__init__.py").resolve()
    if not init.is_file():
        raise SystemExit(f"error: no typika sources under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def _call(cli, kb: str, queries: str) -> tuple[float, int, str]:
    """Seconds one `compare --json` call took, its exit code and stdout."""
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["compare", "--json", kb, queries])
    return perf_counter() - start, code, out.getvalue()


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4, 5) or argv[2:3] == ["--help"]:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    import workloads
    from run import Reference, write_job

    clis = _load(argv[0], "typika_a"), _load(argv[1], "typika_b")
    rounds, seed = (list(map(int, argv[3:])) + [1, 1])[:2]
    plan = workloads.Plan(argv[2], seed)
    ratios, same = [], True
    reference = Reference()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for _ in range(rounds):
                for i, job in enumerate(plan.next_round()):
                    kb, queries = write_job(job, Path(tmp), i)
                    runs = {}
                    for side in ((0, 1) if len(ratios) % 2 == 0 else (1, 0)):
                        reference.time(kb, queries)
                        runs[side] = _call(clis[side], kb, queries)
                    same &= runs[0][1:] == runs[1][1:]
                    ratios.append(runs[1][0] / runs[0][0])
    finally:
        reference.close()
    wins = sum(r < 1 for r in ratios)
    print(f"calls={len(ratios)} median_b_over_a={statistics.median(ratios):.4f} "
          f"b_faster={wins}/{len(ratios)} identical_output={same}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
