#!/usr/bin/env python3
"""Re-record the contraction, properness, loader, admissibility, value, text and usage CLI goldens.

Usage: ``PYTHONPATH=src python tools/record_goldens.py [OUTDIR]``; OUTDIR
defaults to the repository's ``tests/golden/``.  Writes:

- ``stabilize.json``: per group of ``tests.support.stabilize_corpus``,
  the sha256 of the sorted JSON of ``stabilize(m)`` for each morphism;
- ``proper_errors.json``: for each of the 2,000 seeded mutations of
  ``tests.support.proper_mutations``, the ``[exception type, message]``
  the ``DeltaMorphism`` constructor raises, or ``null`` if it accepts;
- ``load_errors.json``: for each of the 2,000 seeded mutations of the
  morphism fixtures by ``tests.support.load_mutations``, the
  ``[exception type, message]`` ``morphism_from_json_dict`` raises, or
  ``null`` if it accepts;
- ``admissibility.json``: per residue setting, one ``[m, s, delta, ok,
  reason]`` row per line for every verdict of ``check_restriction`` on
  m in 1..8, s in -5..5 and the delta values ``-inf``, 0, -1/3, -1, -2,
  ``|m|`` and ``|m+s|``, then the ``[exception type, message]`` of its
  invalid arguments;
- ``value_json.json``: for the instance of every value class that
  ``tests.test_values.BUILDERS`` makes, ``bool`` of it and, where the
  class has one, its ``to_json_dict()``;
- ``text_cli.json``: the argv, exit code, stdout and stderr of
  ``cli.run`` for ``annulus`` on both series fixtures in the five
  settings of ``TEXT_ANNULUS_SETTINGS``, in text and JSON mode, with and
  without ``--domain``; ``elliptic`` in text mode across its case split;
  and ``classify-special`` in text mode on the metric fixtures.  A
  ``{fixtures}`` in an argv stands for the fixture directory;
- ``usage_cli.json``: the same for the help and usage-error argvs of
  ``usage_cli_argvs``, with ``COLUMNS=80`` pinned for argparse's line
  width and the exit code of a ``SystemExit`` as the call's.

The files pin behaviour, so re-record them only on purpose.
"""

import argparse
import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from wildskel import (  # noqa: E402
    DeltaMorphism,
    morphism_from_json_dict,
    morphism_to_json_dict,
    stabilize,
)
from wildskel.annulus import check_restriction  # noqa: E402
from wildskel.cli import run  # noqa: E402
from wildskel.valuation import NEG_INF, LogAbs, ResidueSetting  # noqa: E402

from tests.support import load_mutations, proper_mutations, stabilize_corpus  # noqa: E402
from tests.test_values import BUILDERS  # noqa: E402

PROPER_SEED, PROPER_COUNT = 71, 2000
LOAD_SEED, LOAD_COUNT = 83, 2000
ADMISSIBILITY_SETTINGS = (
    "equichar0", "equicharP:2", "equicharP:3",
    "mixed:2:-1", "mixed:2:-2/3", "mixed:3:-1",
)
FIXED_DELTAS = (NEG_INF, LogAbs(0), LogAbs(Fraction(-1, 3)), LogAbs(-1), LogAbs(-2))
TEXT_ANNULUS_SETTINGS = ("equichar0", "equicharP:2", "equicharP:3", "mixed:2:-1", "mixed:3:-1/2")
ELLIPTIC_SETTINGS = (
    ["--char", "0"], ["--char", "3"], ["--char", "2"],
    ["--char", "0", "--res-char", "2", "--log-p=-1"],
    ["--char", "0", "--res-char", "2", "--log-p=-2/3"],
)
ELLIPTIC_J = (["--j-zero"], ["--log-j=6"], ["--log-j=0"], ["--log-j=-4"], ["--log-j=-9"],
              ["--log-j=-13"])


def sorted_json_sha256(m) -> str:
    text = json.dumps(morphism_to_json_dict(m), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def stabilize_hashes() -> dict:
    groups: dict = {}
    for group, m in stabilize_corpus():
        groups.setdefault(group, []).append(sorted_json_sha256(stabilize(m)))
    return groups


def outcome(build, *args):
    """``[exception type, message]`` of ``build(*args)``, or None."""
    try:
        build(*args)
    except Exception as exc:  # the golden pins the type, whatever it is
        return [type(exc).__name__, str(exc)]
    return None


def proper_errors() -> list:
    mutations = proper_mutations(PROPER_SEED, PROPER_COUNT)
    return [outcome(DeltaMorphism, *args) for args in mutations]


def load_errors() -> list:
    mutations = load_mutations(LOAD_SEED, LOAD_COUNT)
    return [outcome(morphism_from_json_dict, data) for data in mutations]


def value_json() -> dict:
    """Truth and JSON form of each value class's ``BUILDERS`` instance."""
    values = {}
    for name in sorted(BUILDERS):
        value = BUILDERS[name]()
        entry = {"bool": bool(value)}
        if hasattr(value, "to_json_dict"):
            entry["json"] = value.to_json_dict()
        values[name] = entry
    return values


def admissibility_text() -> str:
    """The admissibility golden, one JSON row per line."""
    lines = []
    for text in ADMISSIBILITY_SETTINGS:
        setting = ResidueSetting.parse(text)
        lines.append(json.dumps(text) + ": [")
        rows = []
        for m in range(1, 9):
            for s in range(-5, 6):
                extra = (setting.int_abs(m), setting.int_abs(m + s))
                for d in sorted(set(FIXED_DELTAS + extra)):
                    verdict = check_restriction(m, s, d, setting)
                    rows.append(json.dumps([m, s, str(d), verdict.ok, verdict.reason]))
        lines.append(",\n".join(rows))
        lines.append("],")
    errors, equichar0 = [], ResidueSetting.parse("equichar0")
    for m, s, d in ((0, 0, "0"), (-2, 1, "1/2"), (2, 0, "1/2"), (1, 3, "1")):
        try:
            check_restriction(m, s, LogAbs(Fraction(d)), equichar0)
        except ValueError as exc:
            errors.append(json.dumps([m, s, d, type(exc).__name__, str(exc)]))
    lines.append('"errors": [\n' + ",\n".join(errors) + "\n]")
    return "{\n" + "\n".join(lines) + "\n}\n"


def text_cli_argvs() -> list:
    """The argvs of ``text_cli.json``, with ``{fixtures}`` for the fixture directory."""
    argvs = []
    for series in ("kummer_p2", "binomial_p2"):
        for setting in TEXT_ANNULUS_SETTINGS:
            base = ["annulus", "--series", f"{{fixtures}}/{series}.series", "--setting", setting]
            for extra in ([], ["--domain=-2:1"], ["--json"], ["--json", "--domain=-2:1"]):
                argvs.append(base + extra)
    for setting in ELLIPTIC_SETTINGS:
        argvs += [["elliptic", *setting, *j] for j in ELLIPTIC_J]
    for name in ("wb_metric", "ms_metric", "kummer_p2_metric"):
        argvs.append(["classify-special", f"{{fixtures}}/{name}.morphism.json"])
    return argvs


def usage_cli_argvs() -> list:
    """The argvs of ``usage_cli.json``: help, and what argparse refuses."""
    morphism, series = "{fixtures}/wb.morphism.json", "{fixtures}/binomial_p2.series"
    argvs = [["-h"], [], ["nope"], ["--json", "rh-check", morphism]]
    argvs += [[name, "-h"] for name in (
        "rh-check", "stabilize", "classify-special", "enumerate-special", "metric-lift",
        "elliptic", "annulus", "radial", "export-dot")]
    return argvs + [
        ["rh-check"],  # a missing required argument, each kind
        ["metric-lift", "--setting", "equichar0"],
        ["annulus", "--series", series],
        ["elliptic", "--char", "0"],
        ["rh-check", morphism, "extra"],  # a surplus positional
        ["enumerate-special", "extra"],
        ["export-dot", "-h", "extra"],
        ["rh-check", morphism, "--bogus"],  # an unknown option
        ["annulus", "--ser", series, "--setting", "mixed:2:-1"],  # abbreviated
        ["metric-lift", "--type", "WB", "--setting", "equichar0", "--l", "1"],  # ambiguous
        ["annulus", "--series", series, "--setting", "mixed:2:-1", "--domain", "-1:0"],
        ["annulus", "--series", series, "--setting", "mixed:2:-1", "--domain"],
        ["elliptic", "--char", "0", "--log-j", "0", "--j-zero"],
        ["elliptic", "--char", "x", "--j-zero"],
        ["radial", "{fixtures}/ms_metric.morphism.json", "--p", "x"],
    ]


def cli_outcome(argv) -> dict:
    """Exit code, stdout and stderr of ``cli.run(argv)`` in process; the
    code of a ``SystemExit`` (argparse's help and errors) is the exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    fixtures = str(ROOT / "fixtures")
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = run([a.replace("{fixtures}", fixtures) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def text_cli() -> list:
    return [cli_outcome(argv) for argv in text_cli_argvs()]


def usage_cli() -> list:
    with patch.dict(os.environ, {"COLUMNS": "80"}):
        return [cli_outcome(argv) for argv in usage_cli_argvs()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", default=str(ROOT / "tests" / "golden"))
    outdir = Path(parser.parse_args(argv).outdir)
    for name, payload in (
        ("stabilize.json", stabilize_hashes()),
        ("proper_errors.json", proper_errors()),
        ("load_errors.json", load_errors()),
        ("value_json.json", value_json()),
        ("text_cli.json", text_cli()),
        ("usage_cli.json", usage_cli()),
    ):
        (outdir / name).write_text(json.dumps(payload, indent=1) + "\n")
    (outdir / "admissibility.json").write_text(admissibility_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
