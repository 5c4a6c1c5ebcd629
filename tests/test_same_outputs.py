"""Self-test of ``tools/same_outputs.py``: a revision against itself."""

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

