"""Self-tests of ``tools/same_outputs.py``: a revision against itself, an
older revision, tiny synthetic trees, and the arguments it refuses."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"
COUNTS = re.compile(
    r"(\d+) differing, (\d+) older-only, (\d+) newer-only and (\d+) seed-dependent "
    r"records; (\d+) in .+, (\d+) in .+"
)

needs_git = pytest.mark.skipif(
    not (shutil.which("git") and (ROOT / ".git").exists()), reason="needs a git checkout"
)


def _status(root: Path = ROOT) -> str:
    return subprocess.run(
        ["git", "-C", str(root), "status", "--porcelain", "--untracked-files=all"],
        check=True, capture_output=True, text=True,
    ).stdout


def _run(tool: Path, *argv, root: Path = ROOT):
    """The exit code, the four counts (None without them) and the output of
    a run; ``git status`` must read the same before and after it."""
    before = _status(root)
    done = subprocess.run(
        [sys.executable, str(tool), *argv], capture_output=True, text=True, timeout=60,
    )
    assert _status(root) == before
    assert "Traceback" not in done.stdout + done.stderr, done.stdout + done.stderr
    match = COUNTS.fullmatch(done.stdout.split("\n", 1)[0])
    counts = match and tuple(map(int, match.groups()[:4]))
    return done.returncode, counts, done


@needs_git
def test_head_against_head_reports_no_difference():
    code, counts, done = _run(TOOL, "HEAD", "HEAD", "--quick")
    assert (code, counts) == (0, (0, 0, 0, 0)), done.stdout + done.stderr
    records = COUNTS.fullmatch(done.stdout.splitlines()[0]).groups()[4:]
    assert records[0] == records[1] and int(records[0]) > 1000


@needs_git
def test_an_older_revision_records_itself():
    # 91bb3e4's own walk runs on its own tree: the working tree's walk and
    # tests/support.py against its src crashed with a traceback and exit 1
    if subprocess.run(["git", "-C", str(ROOT), "cat-file", "-e", "91bb3e4^{commit}"],
                      capture_output=True).returncode:
        pytest.skip("commit 91bb3e4 is not in this checkout")
    code, counts, done = _run(TOOL, "91bb3e4", "--quick")
    assert counts is not None, done.stdout + done.stderr
    differing, older_only, newer_only, seeded = counts
    assert (differing, seeded) == (0, 0) and newer_only > 1000
    # what the older side alone records is what was deleted since, LogAbs.parse,
    # shown first, then CLI inputs that its quick walk sampled by position
    shown = done.stdout.split("only in 91bb3e4:\n", 1)[1].split("\nonly in ", 1)[0]
    shown = shown.splitlines()
    vanished = [line for line in shown if not line.startswith("- cli ")]
    assert shown[:len(vanished)] == vanished and 0 < len(vanished) < len(shown) <= older_only
    assert all(line.startswith("- infinity entry LogAbs.parse on ") for line in vanished)
    assert code == 1


#: The records each synthetic tree's walk prints; {seed} is its PYTHONHASHSEED.
WALKS = {
    "base": ["a\t1", "b\t2", "gone\t3"],
    "changed": ["a\t1", "b\t20", "new\t4", "new\t5", "seed\t{seed}"],
    "grown": ["a\t1", "b\t2", "gone\t3", "extra\t9"],
    "cligrown": ["a\t1", "b\t2", "gone\t3", "cli x exit\t0"],
    "broken": None,  # a walk that raises
}
FAKE = """import os, sys
assert sys.argv[1] == "--record" and os.path.isdir(sys.argv[2])
if {records!r} is None:
    raise RuntimeError("the walk broke")
for line in {records!r}:
    print(line.format(seed=os.environ["PYTHONHASHSEED"]))
"""
#: The CLI inputs of walks that sample them as the tool's own walk does; the
#: second has one more input, ahead of the others.
INPUTS = [["x", str(i)] for i in range(200)]
SAMPLED = {"inputs": INPUTS, "inserted": [["new"], *INPUTS]}
SAMPLING = """import sys
from pathlib import Path
sys.path.insert(0, {tools!r})
from same_outputs import _Recorder
rec = _Recorder(sys.stdout, int(sys.argv[3]), Path(sys.argv[2]))
for argv in rec.sample({inputs!r}):
    rec.write("cli " + " ".join(argv) + " exit", "0")
"""


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    """A repository with one commit per walk of ``WALKS``, each tagged by its
    name, and one tagged ``nowalk`` without a walk; its working tree holds
    this tool."""
    if not shutil.which("git"):
        pytest.skip("needs git")
    repo = tmp_path_factory.mktemp("synthetic")

    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "tools").mkdir()
    (repo / "src").mkdir()
    (repo / "src" / "keep.txt").write_text("a tree\n")
    walks = {name: FAKE.format(records=records) for name, records in WALKS.items()}
    walks.update((name, SAMPLING.format(tools=str(TOOL.parent), inputs=inputs))
                 for name, inputs in SAMPLED.items())
    for name, walk in walks.items():
        (repo / "tools" / "same_outputs.py").write_text(walk)
        git("add", "-A")
        git("commit", "-q", "-m", name)
        git("tag", name)
    git("rm", "-q", "tools/same_outputs.py")
    git("commit", "-q", "-m", "no walk")
    git("tag", "nowalk")
    (repo / "tools").mkdir()
    for name in ("same_outputs.py", "export_tree.py"):
        shutil.copy(ROOT / "tools" / name, repo / "tools" / name)
    return repo


@pytest.mark.parametrize("argv, code, counts", [
    (["base", "base"], 0, (0, 0, 0, 0)),
    (["base", "grown"], 0, (0, 0, 1, 0)),  # a new record alone is no difference
    (["grown", "base"], 1, (0, 1, 0, 0)),  # a record that vanished is
    (["grown", "base", "--quick"], 1, (0, 1, 0, 0)),
    (["cligrown", "base"], 1, (0, 1, 0, 0)),
    # a quick walk may sample CLI inputs that the other skips
    (["cligrown", "base", "--quick"], 0, (0, 1, 0, 0)),
    (["base", "changed"], 1, (1, 1, 3, 1)),
    (["changed", "changed"], 1, (0, 0, 0, 1)),  # the seed alone
])
def test_synthetic_trees_give_each_count(synthetic, argv, code, counts):
    tool = synthetic / "tools" / "same_outputs.py"
    got = _run(tool, *argv, root=synthetic)
    assert got[:2] == (code, counts), got[2].stdout + got[2].stderr


def test_an_input_added_ahead_moves_no_sampled_input(synthetic):
    # the walk keeps a quick CLI input by a hash of its label, not by its place
    # in the list: kept by place, x 0, x 20, ... would give way to new, x 19, ...
    tool = synthetic / "tools" / "same_outputs.py"
    code, counts, done = _run(tool, "inputs", "inserted", "--quick", root=synthetic)
    total, _ = map(int, COUNTS.fullmatch(done.stdout.splitlines()[0]).groups()[4:])
    assert (code, counts[:2], counts[3]) == (0, (0, 0), 0), done.stdout + done.stderr
    assert 0 < total < len(INPUTS) // 2 and counts[2] <= 1


def test_synthetic_counts_name_their_records(synthetic):
    _, _, done = _run(synthetic / "tools" / "same_outputs.py", "base", "changed",
                      root=synthetic)
    assert done.stdout.splitlines()[1:] == [
        "differing:", "- b\t2", "+ b\t20",
        "only in base:", "- gone\t3",
        "only in changed:", "+ new\t4", "+ new\t5", "+ seed\t0",
        "under PYTHONHASHSEED=0 and 1 in changed:", "0 seed\t0", "1 seed\t1",
    ]


@pytest.mark.parametrize("older, newer, message", [
    ("base", "nowalk", "nowalk has no recording walk (tools/same_outputs.py)\n"),
    ("nowalk", "base", "nowalk has no recording walk (tools/same_outputs.py)\n"),
    ("base", "broken", "the walk of broken failed under PYTHONHASHSEED=0: "
                       "RuntimeError: the walk broke\n"),
])
def test_a_tree_without_a_working_walk_exits_2(synthetic, older, newer, message):
    code, counts, done = _run(synthetic / "tools" / "same_outputs.py", older, newer,
                              root=synthetic)
    assert (code, counts, done.stdout, done.stderr) == (2, None, "", message)


@needs_git
@pytest.mark.parametrize(
    "argv", [["--help"], ["-h"], ["-x"], ["HEAD", "--bogus"], ["no-such-revision"],
             ["HEAD", "no-such-revision", "--quick"]],
)
def test_bad_arguments_print_the_usage_and_exit_2(argv):
    code, _, done = _run(TOOL, *argv)
    assert code == 2, done.stdout + done.stderr
    assert done.stderr.startswith("Usage::")
    assert done.stdout == ""
