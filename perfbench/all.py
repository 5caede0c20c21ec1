"""Runs every workload of the benchmark, untraced and traced, one fresh
interpreter per run, and prints every metric by name with its unit.

    python3 perfbench/all.py --seed 1

Exits non-zero if any run does: a wrong verdict, a broken trace or a
missing program.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    worst = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            print(f"== {workload} trace={trace} exit={done.returncode}")
            print(done.stdout, end="", flush=True)
            sys.stderr.write(done.stderr)
            worst = max(worst, done.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
