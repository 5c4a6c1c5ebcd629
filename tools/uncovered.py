#!/usr/bin/env python3
"""Print the lines of ``src/wildskel`` that no test runs.

Usage: ``python tools/uncovered.py``.  Runs the suite under ``tests/``
in-process with a line tracer (``sys.settrace``), then prints, per module,
the executable lines that no test ran, as ranges.  A line is executable
when it starts a statement and the compiler emits code for it, so
function docstrings, ``else:`` and blank lines never show.

Tracing makes the suite several times slower, so the acceptance criteria
with wall-clock gates (01 and 06) can fail under it; the tool reports the
suite's outcome as it is and deselects nothing.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wildskel"


def executable_lines(path: Path) -> set:
    source = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    emitted, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        emitted.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return starts & emitted


def ranges(lines) -> str:
    out, run = [], []
    for line in sorted(lines):
        if run and line != run[-1] + 1:
            out.append(run)
            run = []
        run.append(line)
    if run:
        out.append(run)
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in out)


def main() -> int:
    files = {str(p): set() for p in sorted(PACKAGE.glob("*.py"))}

    def trace(frame, event, arg):
        ran = files.get(frame.f_code.co_filename)
        if ran is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local

        ran.add(frame.f_lineno)
        return local

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    print()
    for name, ran in files.items():
        missed = executable_lines(Path(name)) - ran
        if missed:
            print(f"{Path(name).relative_to(ROOT)}: {ranges(missed)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
