#!/usr/bin/env python3
"""Print the lines of ``src/wildskel`` that no test runs.

Usage: ``python tools/uncovered.py``.  Runs the suite under ``tests/``
twice.  The first run, in a subprocess without tracing, gives the verdict:
the tool exits with its status, 0 when every test passed.  The second run,
in-process with a line tracer (``sys.settrace``), only records lines; the
tool then prints, per module, the executable lines that no test ran, as
ranges.  A line is executable when it starts a statement and the compiler
emits code for it, so function docstrings, ``else:`` and blank lines never
show.

Tracing makes the suite several times slower, so an acceptance criterion
with a wall-clock gate (06, ``runtime ... exceeds 30s``) can fail in the
traced run alone.  Such a failure is printed as a note beside the untraced
outcome and does not change the exit status; every gate still decides the
untraced run, and neither run deselects anything.
"""

import ast
import os
import subprocess
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


class _Failures:
    """pytest plugin: ``node id: first line of the error`` per failed report."""

    def __init__(self):
        self.lines = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            crash = getattr(report.longrepr, "reprcrash", None)
            message = crash.message if crash else str(report.longrepr)
            self.lines.append(f"{report.nodeid}: {message.splitlines()[0] if message else ''}")


def main() -> int:
    args = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
    paths = [str(ROOT / "src"), str(ROOT)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]))
    print("untraced run (decides the exit status):", flush=True)
    verdict = subprocess.run([sys.executable, "-m", "pytest", *args], cwd=ROOT, env=env).returncode
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

    print("\ntraced run (records lines only):", flush=True)
    sys.path[:0] = paths
    failures = _Failures()
    sys.settrace(trace)
    try:
        traced = pytest.main([*args, "--tb=no"], plugins=[failures])
    finally:
        sys.settrace(None)
    print()
    for name, ran in files.items():
        missed = executable_lines(Path(name)) - ran
        if missed:
            print(f"{Path(name).relative_to(ROOT)}: {ranges(missed)}")
    print(f"\nuntraced run: exit {verdict}; traced run: exit {int(traced)}")
    for line in failures.lines:
        print(f"note: failed under tracing: {line}")
    return verdict


if __name__ == "__main__":
    sys.exit(main())
