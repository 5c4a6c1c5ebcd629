#!/usr/bin/env python3
"""Regenerate the bundled fixtures/ directory.

Usage: ``python tools/gen_fixtures.py [OUTDIR]``; OUTDIR defaults to the
repository's ``fixtures/``.
"""

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from wildskel import (  # noqa: E402
    DeltaMorphism,
    GenusGraph,
    Lengths,
    ResidueSetting,
    metric_lift,
    morphism_to_json_dict,
)
from wildskel.cli import run  # noqa: E402

from tests.support import kummer_segment  # noqa: E402


def dump(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def wb_subdivided() -> DeltaMorphism:
    """WB with the target loop edge subdivided once (both edges upstairs)."""
    source = GenusGraph(
        {"t": 0, "s": 0, "m1": 0, "m2": 0, "lt": 0, "ls": 0},
        {
            "a1": ("t", "m1"),
            "a2": ("m1", "s"),
            "b1": ("t", "m2"),
            "b2": ("m2", "s"),
            "e3": ("t", "lt"),
            "e4": ("s", "ls"),
        },
    )
    target = GenusGraph(
        {"t'": 0, "s'": 0, "m'": 0, "lt'": 0, "ls'": 0},
        {
            "a1'": ("t'", "m'"),
            "a2'": ("m'", "s'"),
            "e3'": ("t'", "lt'"),
            "e4'": ("s'", "ls'"),
        },
    )
    return DeltaMorphism(
        source,
        target,
        {"t": "t'", "s": "s'", "m1": "m'", "m2": "m'", "lt": "lt'", "ls": "ls'"},
        {
            "a1": "a1'",
            "a2": "a2'",
            "b1": "a1'",
            "b2": "a2'",
            "e3": "e3'",
            "e4": "e4'",
        },
        {"a1": 1, "a2": 1, "b1": 1, "b2": 1, "e3": 2, "e4": 2},
        {"a1": 0, "a2": 0, "b1": 0, "b2": 0, "e3": -1, "e4": -1},
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "outdir",
        nargs="?",
        type=Path,
        default=ROOT / "fixtures",
        help="directory to write the fixtures to (default: fixtures/)",
    )
    outdir = parser.parse_args(argv).outdir
    outdir.mkdir(parents=True, exist_ok=True)

    # the twelve special shapes and the root-subtree inventory
    code = run(["enumerate-special", "--fixtures", str(outdir)])
    if code != 0:
        sys.exit(code)

    (outdir / "kummer_p2.series").write_text(
        "# Kummer degree-2 series: t^2\n2 0\n"
    )
    (outdir / "binomial_p2.series").write_text(
        "# t^2 + a t^3 with log|a| = -1/2\n2 0\n3 -1/2\n"
    )

    dump(outdir / "wb_subdivided.morphism.json", morphism_to_json_dict(wb_subdivided()))

    wild = ResidueSetting.equichar(2)
    mixed = ResidueSetting.mixed(2, Fraction(-1))
    dump(
        outdir / "wb_metric.morphism.json",
        morphism_to_json_dict(metric_lift("WB", Lengths(l0=Fraction(1)), wild)),
    )
    dump(
        outdir / "ms_metric.morphism.json",
        morphism_to_json_dict(
            metric_lift("MS", Lengths(l1=Fraction(1, 2), l3=Fraction(1, 6)), mixed)
        ),
    )
    dump(
        outdir / "kummer_p2_metric.morphism.json",
        morphism_to_json_dict(kummer_segment(2, Fraction(-1), Fraction(1))),
    )
    print(f"fixtures written to {outdir}")


if __name__ == "__main__":
    main()
