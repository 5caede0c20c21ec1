"""Statements of `src/typika` that no tier-1 test executes.

    python tests/linecov.py

Runs tier-1 (`pytest -q` over this directory) in this process under a
`sys.settrace` line tracer that traces only frames of code in
`src/typika`, then prints each statement that no traced frame executed,
as `file:line: text`, and their count. A statement is a line that the
compiled module's code objects map an instruction to, outside an
`if TYPE_CHECKING:` block. The exit code is pytest's.

Only this process is traced. A statement that only the tests' `python
-m typika` subprocesses run is listed although those tests pass: for
example `__main__` and the branch of `cli.main` that reports a closed
stdout. Tracing makes the run several times slower than tier-1's. Not a
test: pytest does not collect it (`coverage` would do the same, and is
not a dependency).
"""

from __future__ import annotations

import ast
import os
import sys
import types
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "typika"


def statements(path: Path) -> set[int]:
    """The lines of `path` some instruction of its compiled code maps to,
    but those of an `if TYPE_CHECKING:` block, which only a type checker
    reads."""
    source = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: the module's start
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            lines.difference_update(*(range(s.lineno, s.end_lineno + 1) for s in node.body))
    return lines


def main() -> int:
    sys.path[:0] = [str(PACKAGE.parent), str(TESTS)]
    import pytest

    prefix = str(PACKAGE) + os.sep
    executed: dict[str, set[int]] = {}

    def local(frame: types.FrameType, event: str, arg: object):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame: types.FrameType, event: str, arg: object):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set())
        return local

    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS)])
    finally:
        sys.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(statements(path) - executed.get(str(path), set())):
            print(f"{path.relative_to(TESTS.parent)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} statements not executed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
