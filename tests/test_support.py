"""``tests/support.py`` is the one module that the tests and the tools share."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Run in a fresh interpreter where pytest and hypothesis cannot be imported.
BLOCKED = """
import io, random, sys
from importlib.util import module_from_spec, spec_from_file_location
from itertools import islice
from pathlib import Path

sys.modules["pytest"] = sys.modules["hypothesis"] = None
from tests import support

assert len(list(islice(support.stabilize_corpus(), 3))) == 3
support.random_metric_delta_morphism(random.Random(1), support.WILD2)
assert len(list(support.load_mutations(1, 3))) == 3
tools = {}
for name in ("record_goldens", "same_outputs"):
    spec = spec_from_file_location(name, Path("tools", name + ".py"))
    tools[name] = module_from_spec(spec)
    spec.loader.exec_module(tools[name])
assert tools["record_goldens"].value_json()
out = io.StringIO()
tools["same_outputs"].record(out, Path(sys.argv[1]), 400)
print(len(out.getvalue().splitlines()))
"""


def test_no_file_under_tests_or_tools_imports_a_test_module():
    imports = [
        (path.name, node.lineno, "tests." * bool(getattr(node, "level", 0))
         + (f"{node.module}." if getattr(node, "module", None) else "") + alias.name)
        for path in sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("tools/*.py")])
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert [i for i in imports if i[2].startswith("tests.test_")] == []


def test_support_and_both_tools_run_without_pytest_or_hypothesis(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", BLOCKED, str(tmp_path)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 1000
