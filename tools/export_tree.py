"""Write the files of a committed revision into a directory, leaving the
checkout as it was.

Interface (stdlib only; import it with ``tools/`` on ``sys.path``)::

    from export_tree import TREE, export_tree, resolves

    if resolves("HEAD~1"):
        tree = export_tree("HEAD~1", Path(tmp) / "older")

``resolves(rev)`` tells whether ``rev`` names a commit of this repository;
an option such as ``-h`` names none.  ``export_tree(rev, into)`` extracts
the top-level directories ``TREE`` of the commit ``rev`` (``src``,
``tests``, ``tools`` and ``fixtures``; one that ``rev`` lacks is skipped)
into the directory ``into``, which it creates, and returns ``into``.  It only reads the repository, with ``git ls-tree`` and
``git archive``: no index, ref or file of the checkout changes, so
``git status --porcelain`` reads the same before and after.  A ``rev`` that
names no commit raises ``subprocess.CalledProcessError``.

An exported tree runs its own code: put ``into/src`` and ``into`` on
``PYTHONPATH`` and start it from ``into``.
"""

from __future__ import annotations

import io
import subprocess
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREE = ("src", "tests", "tools", "fixtures")


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True)


def resolves(rev: str) -> bool:
    """Whether ``rev`` names a commit; an option (``-h``, ``--help``) names none."""
    if rev.startswith("-"):
        return False
    return _git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}").returncode == 0


def export_tree(rev: str, into: Path) -> Path:
    """The directories ``TREE`` of the commit ``rev``, extracted into ``into``."""
    listed = _git("ls-tree", "--name-only", f"{rev}^{{commit}}")
    listed.check_returncode()
    present = set(listed.stdout.decode().splitlines())
    into = Path(into)
    into.mkdir(parents=True, exist_ok=True)
    kept = [p for p in TREE if p in present]
    if kept:
        tar = _git("archive", "--format=tar", f"{rev}^{{commit}}", "--", *kept)
        tar.check_returncode()
        with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
            archive.extractall(into, filter="data")
    return into
