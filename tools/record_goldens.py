#!/usr/bin/env python3
"""Re-record the contraction and properness goldens under tests/golden/.

Usage: ``PYTHONPATH=src python tools/record_goldens.py [OUTDIR]``; OUTDIR
defaults to the repository's ``tests/golden/``.  Writes:

- ``stabilize.json``: per group of ``tests.support.stabilize_corpus``,
  the sha256 of the sorted JSON of ``stabilize(m)`` for each morphism;
- ``proper_errors.json``: for each of the 2,000 seeded mutations of
  ``tests.support.proper_mutations``, the ``[exception type, message]``
  the ``DeltaMorphism`` constructor raises, or ``null`` if it accepts.

Both files pin behaviour, so re-record them only on purpose.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from wildskel import DeltaMorphism, morphism_to_json_dict, stabilize  # noqa: E402

from tests.support import proper_mutations, stabilize_corpus  # noqa: E402

PROPER_SEED, PROPER_COUNT = 71, 2000


def sorted_json_sha256(m) -> str:
    text = json.dumps(morphism_to_json_dict(m), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def stabilize_hashes() -> dict:
    groups: dict = {}
    for group, m in stabilize_corpus():
        groups.setdefault(group, []).append(sorted_json_sha256(stabilize(m)))
    return groups


def constructor_outcome(args):
    """``[exception type, message]`` of ``DeltaMorphism(*args)``, or None."""
    try:
        DeltaMorphism(*args)
    except Exception as exc:  # the golden pins the type, whatever it is
        return [type(exc).__name__, str(exc)]
    return None


def proper_errors() -> list:
    return [constructor_outcome(a) for a in proper_mutations(PROPER_SEED, PROPER_COUNT)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", default=str(ROOT / "tests" / "golden"))
    outdir = Path(parser.parse_args(argv).outdir)
    for name, payload in (
        ("stabilize.json", stabilize_hashes()),
        ("proper_errors.json", proper_errors()),
    ):
        (outdir / name).write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
