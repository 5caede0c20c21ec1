"""The reference program: a frozen copy of typika (`frozen/typika`, the
sources of the commit that defined the benchmark), run in its own process.

`run.py` starts it once per run and, right after each timed call of the
program under test, asks it to answer the same two files. It reads one JSON
list `[kb_path, queries_path]` per line on standard input and writes the
seconds its `compare --json` call took, one JSON number per line. Because
the reference never changes, its times measure how fast the machine runs
at that moment; `run.py` scales the program's times by them.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter

from run import FROZEN, import_program


def main() -> int:
    cli = import_program(FROZEN)
    for line in sys.stdin:
        kb, queries = json.loads(line)
        sink = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                cli.main(["compare", "--json", kb, queries])
            except Exception:  # its verdicts are not checked; only its time counts
                pass
        print(json.dumps(perf_counter() - start), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
