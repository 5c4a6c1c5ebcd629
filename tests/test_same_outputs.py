"""Self-tests of ``tools/same_outputs.py``: a revision against itself, and
the arguments it refuses."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"


def _status() -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=all"],
        check=True, capture_output=True, text=True,
    ).stdout


@pytest.mark.skipif(
    not (shutil.which("git") and (ROOT / ".git").exists()), reason="needs a git checkout"
)
def test_head_against_head_reports_no_difference():
    before = _status()
    done = subprocess.run(
        [sys.executable, str(TOOL), "HEAD", "HEAD", "--quick"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    first = done.stdout.splitlines()[0]
    assert first.startswith("0 differing records of ") and int(first.split()[-1]) > 1000
    assert _status() == before


@pytest.mark.skipif(
    not (shutil.which("git") and (ROOT / ".git").exists()), reason="needs a git checkout"
)
@pytest.mark.parametrize(
    "argv", [["--help"], ["-h"], ["-x"], ["HEAD", "--bogus"], ["no-such-revision"],
             ["HEAD", "no-such-revision", "--quick"]],
)
def test_bad_arguments_print_the_usage_and_exit_2(argv):
    before = _status()
    done = subprocess.run(
        [sys.executable, str(TOOL), *argv], capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2, done.stdout + done.stderr
    assert "Traceback" not in done.stderr and done.stderr.startswith("Usage::")
    assert done.stdout == ""
    assert _status() == before
