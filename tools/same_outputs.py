#!/usr/bin/env python3
"""Compare what two versions of ``src/wildskel`` output on the same inputs.

Usage::

    python tools/same_outputs.py REV            # REV against the working tree
    python tools/same_outputs.py REV OTHER      # REV against OTHER
    python tools/same_outputs.py REV --quick    # about one input in 20

Each revision records itself.  ``export_tree`` (``tools/export_tree.py``)
writes ``src/``, ``tests/``, ``tools/`` and ``fixtures/`` of REV, and of
OTHER, into a temporary directory, so ``git status`` stays as it was; the
working tree is used in place.  Each tree then runs its own copy of this
file, ``python tools/same_outputs.py --record WORK EVERY``, from its own
root, with its ``src/`` and its root on ``PYTHONPATH`` and with
``PYTHONHASHSEED=0``; the newer tree (OTHER, or the working tree) runs a
second time with ``PYTHONHASHSEED=1``.  A tree that has no such file has
no walk.

The walk (``record`` below) writes one record per call: a label, then the
JSON or ``repr`` of the result (a built morphism as its
``morphism_to_json_dict``), or the exception type and message.  Its
inputs: every fixture through every CLI subcommand, in text and with
``--json`` (the exit code, then stdout and stderr one line per record),
and mutated series files; the seeded corpora of ``tests/support.py``
(``stabilize_corpus``, random morphisms, random metric draws, metric
lifts and their subdivisions, ``load_mutations``, ``random_valued_series``
in five settings and under a stand-in setting) through every public
function that applies, each morphism also through its branches, every
contraction move, its JSON round trip and ``Divisor`` arithmetic with key
orders, and each series through its profile and envelopes; every public
integer, rational and infinity entry on values it must refuse or read;
the refusal tables of ``tests/support.py``, which the tests read too
(``GRAPH_CASES``, ``MORPHISM_CASES``, ``PMFUNCTION_REFUSALS``,
``PMFUNCTION_JSON_REFUSALS``, ``INTEGER_ENTRIES``,
``MAX_LEAVES_REFUSALS``, ``LEAF_REFUSALS``, ``LONG_ID_MESSAGES`` and
``DISCONNECTED_TARGET_CASES``); and single calls at known edge cases.  A
memory address (the ``repr`` of a memoryview in a label) is masked.

The records of two walks are matched by label (the ``k``-th record of a
label with the ``k``-th of the same label), so a line that one walk
writes and the other does not shifts no other record.  The first line of
the output gives four counts, and up to twenty examples of each count that
is not zero follow:

- differing: records of REV and of the newer tree whose text differs;
- older-only: records that only REV writes, a call that vanished;
- newer-only: records that only the newer tree writes, a new input;
- seed-dependent: records of the newer tree that differ between its two
  hash seeds, or that only one of its walks writes.

``--quick`` walks the first twentieth of each seeded corpus and the CLI
inputs whose label (with paths masked) has a CRC-32 divisible by 20, so
an input added ahead of others moves none of them.  Older walks sampled
the CLI inputs by position, so the older side of a quick run may have
sampled a CLI input that the newer side skips: in a quick run an
older-only ``cli`` record is counted and shown, after the others, but is
not taken for a vanished call.

Exit codes: 0 when no record differs, vanished or depends on the seed
(newer-only records are what added inputs write); 1 when one does; 2 for
a usage error (an argument other than a revision and ``--quick``, a wrong
number of revisions, or a revision that ``git rev-parse --verify`` cannot
resolve, refused before anything is exported) and for a revision with no
walk or whose walk fails, which the message on stderr names.

It needs only the standard library, ``tests/support.py`` and, to compare,
``tools/export_tree.py``.
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import tempfile
import zlib
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETTINGS = ("equichar0", "equicharP:2", "equicharP:3", "mixed:2:-1", "mixed:3:-1/2")


# -- the recording walk, which each tree runs on itself ---------------------------


def _render(value) -> str:
    import wildskel  # the tree under test

    if isinstance(value, wildskel.DeltaMorphism):
        value = wildskel.morphism_to_json_dict(value)
    if hasattr(value, "to_json_dict"):
        return json.dumps(value.to_json_dict(), sort_keys=True, default=str)
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, default=str)
    return repr(value)


class _Recorder:
    def __init__(self, out, every: int, work: Path):
        self.out, self.every, self.work = out, every, str(work)

    def sample(self, argvs):
        """Every argument list, or in quick mode about one in ``every``, kept by
        a hash of its label: an input added ahead of others moves none of them."""
        return (argv for argv in argvs
                if zlib.crc32(self.mask(" ".join(argv)).encode()) % self.every == 0)

    def call(self, label: str, fn, *args):
        """Record ``fn(*args)``; the result is returned, or None on an error,
        also on one that rendering the result raises."""
        try:
            result = fn(*args)
            text = _render(result)
        except Exception as exc:  # every exception is an outcome to compare
            self.write(label, f"!{type(exc).__name__}: {exc}")
            return None
        self.write(label, text)
        return result

    def mask(self, text: str) -> str:
        """``text`` without the paths and addresses that change between runs."""
        text = text.replace(self.work, "$WORK").replace(str(ROOT), ".")
        return re.sub(r" at 0x[0-9a-f]+", " at 0x...", text)

    def write(self, label: str, text: str) -> None:
        self.out.write(self.mask(f"{label}\t{text}").replace("\n", "\\n") + "\n")


def _cli(rec: _Recorder, argv) -> None:
    from wildskel import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    label = "cli " + " ".join(argv)
    rec.write(f"{label} exit", str(code))
    for name, stream in ("stdout", stdout), ("stderr", stderr):
        for k, line in enumerate(stream.getvalue().splitlines(keepends=True), 1):
            rec.write(f"{label} {name} {k}", json.dumps(line))


def _cli_inputs(work: Path):
    fixtures = ROOT / "fixtures"
    for path in sorted(fixtures.glob("*.json")):
        for command in ("rh-check", "stabilize", "classify-special", "radial", "export-dot"):
            yield [command, str(path)]
    series = sorted(fixtures.glob("*.series"))
    for path in list(series):  # mutations of each series fixture
        lines = path.read_text().splitlines()
        body = [k for k, line in enumerate(lines) if line.split("#")[0].strip()]
        first = body[0]
        edits = {
            "bad_exponent": lines[:first] + ["x " + lines[first].split()[1]] + lines[first + 1:],
            "bad_value": lines[:first] + [lines[first].split()[0] + " 1x"] + lines[first + 1:],
            "repeated": lines + [lines[first]],
            "dropped": lines[:first] + lines[first + 1:],
        }
        for name, text in edits.items():
            mutated = work / f"{path.stem}.{name}.series"
            mutated.write_text("\n".join(text) + "\n")
            series.append(mutated)
    for path in series:
        for setting in SETTINGS:
            yield ["annulus", "--series", str(path), "--setting", setting]
            yield ["annulus", "--series", str(path), "--setting", setting, "--domain=-2:3"]
            yield ["annulus", "--series", str(path), "--setting", setting, "--domain=-2:inf"]
            yield ["annulus", "--series", str(path), "--setting", setting, "--domain="]
    import wildskel
    from tests import support

    identity = work / "identity.morphism.json"  # degree 1, in mixed:2:-1
    identity.write_text(json.dumps(wildskel.morphism_to_json_dict(support.one_edge_identity())))
    for p in ("0", "1", "2"):
        yield ["radial", str(identity), "--p", p]
    for tag in wildskel.SPECIAL_TAGS:
        for setting in ("equichar0", "equicharP:2", "mixed:2:-1"):
            for lengths in ([], ["--l0", "1"], ["--l1", "1"], ["--l1", "1/2", "--l3", "1/6"]):
                yield ["metric-lift", "--type", tag, "--setting", setting, *lengths]
    for args in (
        ["--char", "0", "--res-char", "3", "--log-j", "-2"],
        ["--char", "2", "--log-j", "-5"],
        ["--char", "2", "--log-j", "1"],
        ["--char", "2", "--j-zero"],
        ["--char", "0", "--res-char", "2", "--log-p", "-1", "--log-j", "-12"],
        ["--char", "0", "--res-char", "2", "--log-p", "-1", "--log-j", "-9"],
        ["--char", "0", "--res-char", "2", "--log-p", "-1/2", "--j-zero"],
        ["--char", "4", "--log-j", "-1"],
        ["--char", "3", "--log-j=-inf"],
        ["--char", "2", "--log-j= -inf "],
        ["--char", "0", "--res-char", "2", "--log-p", "-1", "--log-j=-inf"],
    ):
        yield ["elliptic", *args]
    yield ["enumerate-special"]


def _key_order(d) -> list:
    """The key order of a divisor's JSON form and of its ``coefficients``."""
    return [list(d.to_json_dict()), list(d.coefficients)]


def _report_key_order(report) -> list:
    """The key orders of the four divisors of an RH divisor report."""
    return [_key_order(getattr(report, name)) for name in (
        "canonical", "pullback_canonical", "ramification", "delta")]


def built(rec: _Recorder, label: str, *args) -> None:
    """Record the public ``DeltaMorphism(*args)``, then the JSON of its
    ``stabilize``, its RH divisor report and that report's key orders, or
    "not built" for each."""
    import wildskel as ws

    m = rec.call(f"{label} constructor", ws.DeltaMorphism, *args)
    for name, fn in (("stabilize", lambda: ws.morphism_to_json_dict(ws.stabilize(m))),
                     ("rh divisor", lambda: m.rh_divisor_identity()),
                     ("rh divisor key order", lambda: _report_key_order(m.rh_divisor_identity()))):
        if m is None:
            rec.write(f"{label} {name}", "not built")
        else:
            rec.call(f"{label} {name}", fn)


def record(out, work: Path, every: int) -> None:
    """Write the records of every call, in a fixed order, to ``out``."""
    import copy
    import random
    from decimal import Decimal
    from fractions import Fraction

    import wildskel as ws
    from tests import support

    rec = _Recorder(out, every, work)

    for argv in rec.sample(_cli_inputs(work)):
        for extra in ([], ["--json"]):
            _cli(rec, argv + extra)

    # edge cases of the public constructors and the loaders
    rec.call("series {1: 0, '1': -1}", ws.ValuedSeries, {1: 0, "1": -1})
    rec.call("tropical_eval {1: 0, '1': -1}", ws.tropical_eval, {1: 0, "1": -1}, (0, 1))
    for p in (0, 1, True):
        rec.call(f"degree_p_locus of a degree-1 identity at p = {p!r}", ws.degree_p_locus,
                 support.one_edge_identity(), p)
    for p in (2.0, True):
        rec.call(f"degree_p_locus of a degree-2 segment at p = {p!r}", ws.degree_p_locus,
                 support.kummer_segment(2, Fraction(-1)), p)
    for v in (1, "1", 1.0, True, None):
        rec.call(f"Divisor({{1: 3}}).coefficient({v!r})", ws.Divisor({1: 3}).coefficient, v)
    setting = ws.ResidueSetting.parse("equicharP:2")
    rec.call("realize_triple 2 3 -inf equicharP:2", ws.realize_triple, 2, 3, ws.NEG_INF, setting)
    doc = json.loads((ROOT / "fixtures" / "wb_metric.morphism.json").read_text())
    del doc["delta"], doc["setting"]
    doc["source"]["edges"][0]["length"] = "7"
    rec.call("load wb_metric, no delta, a length of 7", ws.morphism_from_json_dict, doc)
    graphs = [ws.GenusGraph.from_json_dict(doc[side], f"{side} graph")
              for side in ("source", "target")]
    built(rec, "wb_metric, no delta, a length of 7", *graphs,
          *(doc[key] for key in ("vertex_map", "edge_map", "n", "sdelta")))
    graph, two = ws.GenusGraph, {"a": 0, "b": 0}
    for ends in (("a", "b"), (True, 1.5), ("a", None)):
        rec.call(f"graph with ends {ends}", graph, two, {"e": ends})
    for length in (1, "1/2", ws.INF, 0.1, 1.0, True):
        rec.call(f"graph with length {length!r}", graph, two, {"e": ("a", "b")}, {"e": length})
    rec.call("graph with leaf ['b']", graph, two, {"e": ("a", "b")}, {"e": ws.INF}, [["b"]])
    for leaves, *_ in support.LEAF_REFUSALS:
        rec.call(f"graph with leaves {leaves!r}", graph, *support.LEAF_GRAPH, leaves)
        rec.call(f"load graph with leaves {leaves!r}", ws.GenusGraph.from_json_dict,
                 support.leaf_document(leaves), "source graph")
    for name, (metric, edits, _) in support.GRAPH_CASES.items():
        rec.call(f"graph case {name}", ws.GenusGraph.from_json_dict,
                 support._edited(support._graph(metric), edits))
    for name, (metric, edits, _) in support.MORPHISM_CASES.items():
        rec.call(f"morphism case {name}", ws.morphism_from_json_dict,
                 support._edited(support._morphism(metric), edits))
    line = graph(two, {"e": ("a", "b")}, {"e": 1})
    identity = ws.DeltaMorphism(line, line, {"a": "a", "b": "b"}, {"e": "e"}, {"e": 1}, {"e": 0})
    maps = {"a": "a", "b": "b"}, {"e": "e"}
    for value in (None, [1], {}, "1.5", "2", 2, Fraction(3, 2), Fraction(2), Decimal("1.9"),
                  Decimal("2")):
        rec.call(f"graph with genus {value!r}", graph, {"a": value}, {})
        rec.call(f"identity with n {value!r}", ws.DeltaMorphism, line, line, *maps,
                 {"e": value}, {"e": 0})
        rec.call(f"identity with sdelta {value!r}", ws.DeltaMorphism, line, line, *maps,
                 {"e": 1}, {"e": value})
    for value in (ws.LogAbs(0), 0, "0", 0.0, -0.5, False):
        rec.call(f"metric identity with delta {value!r}", ws.MetricDeltaMorphism,
                 identity, {"a": ws.LogAbs(0), "b": value}, setting)

    line = ws.PMFunction.line((0, 2), 0, 1)
    for value in (Fraction(1, 10), "1/10", "1/0", 0.1, 1.0, True, ws.LogAbs(-1), None):
        rec.call(f"series with value {value!r}", ws.ValuedSeries, {1: value, 2: -1})
        rec.call(f"PMFunction with left value {value!r}", ws.PMFunction, [0, 1], [value], [1])
        rec.call(f"PMFunction with breakpoint {value!r}", ws.PMFunction, [0, value, 2],
                 [0, 0], [0, 0])
        rec.call(f"LogAbs of {value!r}", ws.LogAbs, value)
        rec.call(f"Lengths with l1 {value!r}", lambda: ws.Lengths(l1=value))
        rec.call(f"value_at {value!r}", line.value_at, value)
    for char in (3, "3", 3.0, 3.5, True):
        rec.call(f"setting with characteristic {char!r}", lambda: ws.ResidueSetting(char, char))
    for log_p in (-1, Fraction(-1, 2), "-1/2", -0.5, True, ws.NEG_INF, 0, "1"):
        rec.call(f"mixed setting with log_p {log_p!r}", lambda: ws.ResidueSetting(0, 2, log_p))
    for value in (0, Fraction(1, 2), -3):
        x = ws.LogAbs(value)
        rec.call(f"set of LogAbs({value}) and {value!r}", lambda: len({x, value}))
        rec.call(f"dict keyed by LogAbs({value}) at {value!r}", lambda: {x: 1}.get(value))
        rec.call(f"dict keyed by {value!r} at LogAbs({value})", lambda: {value: 1}.get(x))
    rec.call("set of NEG_INF twice", lambda: len({ws.NEG_INF, ws.LogAbs("-inf")}))
    entries = {  # every public rational entry, graph lengths and delta included
        **{name: call for name, (call, *_) in support._entries().items()},
        "graph length": lambda x: graph(two, {"e": ("a", "b")}, {"e": x}),
        "metric delta": lambda x: ws.MetricDeltaMorphism(
            identity, {"a": ws.LogAbs(0), "b": x}, setting),
    }
    for value in (None, [1], {}, ws.LogAbs(1), ws.NEG_INF, "-inf", "1/0", "x"):
        for name, call in sorted(entries.items()):
            rec.call(f"rational entry {name} on {value!r}", call, value)
    series, mixed = ws.ValuedSeries({1: 0, 2: -1}), ws.ResidueSetting.mixed(2, -1)
    tail = graph({"a": 0, "l": 0}, {"e": ("a", "l")}, {"e": ws.INF}, ["l"])
    descending = ws.DeltaMorphism(
        tail, graph({"x": 0, "y": 0}, {"f": ("x", "y")}, {"f": ws.INF}, ["y"]),
        {"a": "x", "l": "y"}, {"e": "f"}, {"e": 2}, {"e": -1})
    two_segments = [{"left_value": "0", "slope": 0}] * 2
    entries.update({  # the entries that read an infinity, and log_delta
        "last breakpoint": lambda x: ws.PMFunction([0, x], [0], [1]),
        "JSON inner breakpoint": lambda x: ws.PMFunction.from_json_dict(
            {"breakpoints": ["0", x, "2"], "segments": two_segments}),
        "tropical domain": lambda x: ws.tropical_eval(series, (0, x)),
        "tail length": lambda x: graph({"a": 0, "l": 0}, {"e": ("a", "l")}, {"e": x}, ["l"]),
        "delta at a leaf": lambda x: ws.MetricDeltaMorphism(
            descending, {"a": ws.LogAbs(0), "l": x}, setting),
        "check_restriction": lambda x: ws.check_restriction(2, 0, x, mixed),
        "realize_triple": lambda x: ws.realize_triple(2, -1, x, mixed),
        "DifferentReport": lambda x: repr(ws.DifferentReport(2, 3, x, -1)),
    })
    spellings = ("inf", " inf ", "-inf", " -inf ", ws.INF, ws.NEG_INF, copy.deepcopy(ws.NEG_INF))
    for value in spellings:
        for name, call in sorted(entries.items()):
            rec.call(f"infinity entry {name} on {value!r}", call, value)
    for value in (-1, Fraction(-1, 2), "-1/2", None, [1]):
        for name in ("check_restriction", "realize_triple", "DifferentReport"):
            rec.call(f"log_delta entry {name} on {value!r}", entries[name], value)
    for value in (1.5, 2.0, 1.0, True, "x", "1"):
        for entry, (call, _) in support.INTEGER_ENTRIES.items():
            rec.call(f"integer entry {' '.join(entry)} on {value!r}", call, value)
    for args, _ in support.PMFUNCTION_REFUSALS:
        rec.call(f"PMFunction of {args!r}", ws.PMFunction, *args)
    for text in ("mixed:2:-inf", "equicharP:x", "mixed:x:-1"):
        rec.call(f"setting {text}", ws.ResidueSetting.parse, text)
    for infinity, degree in (([(0, 0)], 1), ([(1, 0)], 1.5)):
        rec.call(f"wide open {infinity!r} of degree {degree!r}", ws.wide_open_genus_check,
                 infinity, degree, 0, 0)

    def contracted(m, move):
        return ws.morphism_to_json_dict(ws.contract_morphism(m, move))

    def morphism(label, m, stable=True):
        rec.call(f"{label} json", ws.morphism_to_json_dict, m)
        report = rec.call(f"{label} rh divisor", m.rh_divisor_identity)
        if report is not None:
            rec.call(f"{label} rh divisor key order", _report_key_order, report)
        rec.call(f"{label} rh degree", m.rh_degree_identity)
        rec.call(f"{label} moves", ws.applicable_moves, m)
        rec.call(f"{label} stable", ws.is_stable, m)
        for side, g in (("source", m.source), ("target", m.target)):
            for v in g.vertices:  # the public branch API, whatever a graph stores
                for b in rec.call(f"{label} {side} branches {v}", g.branches, v) or ():
                    at = f"{label} {side} branch {b[0]} {b[1]}"
                    rec.call(f"{at} head", g.head, b)
                    if g is m.source:
                        rec.call(f"{at} sdelta", m.sdelta, b)
                        rec.call(f"{at} slope index", m.slope_index, b)
        for v2 in m.target.vertices:  # every legal move and every illegal one's reason
            for kind in ("leaf", "smooth"):
                rec.call(f"{label} contract {kind} {v2}", contracted, m, (kind, v2))
                rec.call(f"{label} contract target {kind} {v2}", ws.contract_graph,
                         m.target, (kind, v2))
        rec.call(f"{label} special", ws.is_special, m)
        if stable:
            s = rec.call(f"{label} stabilize", ws.stabilize, m)
            if s is not None:
                rec.call(f"{label} stabilized json", ws.morphism_to_json_dict, s)

    corpus = support.stabilize_corpus()  # quick: the first random draws only
    for i, (group, m) in enumerate(islice(corpus, 3300 // every)):
        morphism(f"stabilize_corpus {group} {i}", m)
    def divisors(label, m, rng):
        k, r = m.source.canonical_divisor(), m.ramification_divisor()
        given = {v: rng.randint(-3, 3) for v in m.target.vertices}
        d = rec.call(f"{label} divisor", ws.Divisor, given)
        if d is not None:
            pulled = rec.call(f"{label} pullback", m.pullback, d)
            if pulled is not None:
                rec.call(f"{label} pullback key order", _key_order, pulled)
        off = rec.call(f"{label} divisor off target", ws.Divisor, {**given, "nope": 5})
        if off is not None:
            rec.call(f"{label} pullback off target", m.pullback, off)
        for name, fn in (("K+R", k.__add__), ("K-R", k.__sub__), ("R-R", r.__sub__)):
            total = rec.call(f"{label} {name}", fn, r)
            if total is not None:
                rec.call(f"{label} {name} degree", total.degree)
                rec.call(f"{label} {name} key order", _key_order, total)
        rec.call(f"{label} K+R-R == K", lambda: k + r - r == k)
        rec.call(f"{label} K hash", lambda: hash(k) == hash(ws.Divisor(k.to_json_dict())))

    rng = random.Random(23)
    for i in range(300 // every):
        m = support.random_proper_delta_morphism(rng)
        label = f"random_proper {i}"
        morphism(label, m, False)
        loaded = rec.call(f"{label} load", ws.morphism_from_json_dict, ws.morphism_to_json_dict(m))
        if loaded is not None:
            rec.call(f"{label} loaded json", ws.morphism_to_json_dict, loaded)
            morphism(f"{label} loaded", loaded, False)
        divisors(label, m, rng)
        boundary = {v: [(rng.randint(0, 3), rng.randint(-2, 2))] for v in m.source.vertices[:3]}
        annotation = rec.call(f"{label} boundary", ws.BoundaryAnnotation, boundary)
        if annotation is not None:
            for ram in (True, False):
                rec.call(f"{label} certify {ram}", ws.certify_skeleton, m, annotation, ram)
        pairs = [(rng.randint(1, 4), rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))]
        rec.call(f"{label} wide open {pairs}", ws.wide_open_genus_check, pairs, m.degree,
                 m.source.genus(), m.target.genus(), m.unbalanced_vertices() and [1, 2])
    annotation = ws.BoundaryAnnotation({"zz": [(1, 0)]})
    rec.call("certify an unknown vertex", ws.certify_skeleton, m, annotation, True)
    rec.call("wide open annotation", ws.wide_open_genus_check, annotation, 1, 0, 0)
    for pairs in ([(1.9, 0.5)], [(None, 0)], [(2, True)], [(Fraction(2), "1")]):
        rec.call(f"boundary {pairs!r}", ws.BoundaryAnnotation, {"a": pairs})
        rec.call(f"wide open {pairs!r}", ws.wide_open_genus_check, pairs, 2, 1, 0)
    for ram in ([1.5], [None], [Fraction(2)]):
        rec.call(f"wide open ram {ram!r}", ws.wide_open_genus_check, [(2, 1)], 2, 1, 0, ram)
    for k in (*range(-1, 6), "3", *support.MAX_LEAVES_REFUSALS):
        rec.call(f"root subtrees {k!r}", ws.enumerate_root_subtrees, k)
    for tag in ws.SPECIAL_TAGS:
        rec.call(f"build_special {tag}", ws.build_special, tag)
    plain = ws.build_special("WB")  # no lengths, no delta values
    rec.call("degree_p_locus of plain WB", ws.degree_p_locus, plain, 2)
    rec.call("delta_profile of plain WB", plain.delta_profile, plain.source.edge_ids[0])
    rec.call("metric_lengths of plain WB", ws.metric_lengths, plain)
    doc = json.loads((ROOT / "fixtures" / "wb_metric.morphism.json").read_text())
    del doc["delta"], doc["setting"]
    bare = ws.morphism_from_json_dict(doc)  # lengths, no delta values
    rec.call("degree_p_locus of wb_metric without delta", ws.degree_p_locus, bare, 2)
    rec.call("delta_profile of wb_metric without delta", bare.delta_profile,
             bare.source.edge_ids[0])
    rec.call("metric_lengths of wb_metric without delta", ws.metric_lengths, bare)
    one_segment = {"breakpoints": ["0", "1"], "segments": [{"left_value": "0", "slope": 1}]}
    for doc in (one_segment, *(doc for doc, _ in support.PMFUNCTION_JSON_REFUSALS)):
        rec.call(f"PMFunction JSON {doc!r}", ws.PMFunction.from_json_dict, doc)
    for name, (call, _) in support.LONG_ID_MESSAGES.items():
        rec.call(f"long id {name}", call)
    for name, edits in support.DISCONNECTED_TARGET_CASES.items():
        doc = support._edited(support._morphism(), edits)
        rec.call(f"disconnected target load {name}", ws.morphism_from_json_dict, doc)
        rec.call(f"disconnected target constructor {name}", support._constructed, doc)
    for given in ({}, {"a": 0}, {"a": 2, "b": -2}, {1: 1, "1": 2}, {"a": 1.5},
                  {"a": True}, {"a": "1"}, {"a": None}, {2: 3}):
        rec.call(f"divisor {given!r}", ws.Divisor, given)
    one = ws.Divisor({"a": 1})
    for other in (3, None):
        rec.call(f"divisor + {other!r}", lambda: one + other)
        rec.call(f"divisor - {other!r}", lambda: one - other)
    import wildskel.pmfunc as pm

    line = ws.PMFunction.line((0, 1), 0, 1)
    for bad in (3, True, 1.5, "x", None):
        rec.call(f"pow {bad!r}", line.pow, bad)
        rec.call(f"mul {bad!r}", line.mul, bad)
        rec.call(f"product exponent {bad!r}", pm.monomial_product, [(line, 1), (line, bad)])
        rec.call(f"product r_exponent {bad!r}", pm.monomial_product, [(line, 1)], bad)
    rec.call("product of no factor", pm.monomial_product, [])
    for name, factors in (
        ("a bare factor", [line]), ("a lone function", line), ("an iterator", iter([(line, 1)])),
        ("a 1-tuple", [(line,)]), ("a 3-tuple", [(line, 1, 2)]),
    ):
        rec.call(f"product of {name}", pm.monomial_product, factors)

    for tag in ws.LIFTABLE_TAGS:
        setting = support.setting_for(tag)
        lengths = support.canonical_lengths(tag, setting)
        mm = rec.call(f"lift {tag}", ws.metric_lift, tag, lengths, setting)
        if mm is None:
            continue
        rec.call(f"lift {tag} lengths", ws.metric_lengths, mm)
        rec.call(f"lift {tag} class", ws.classify_special, mm)
        locus = rec.call(f"lift {tag} locus", ws.degree_p_locus, mm, 2)
        if locus is not None:
            rec.call(f"lift {tag} strict", ws.radial_vs_ball, locus)
        for seed in range(3):
            sub = support.subdivide_metric(random.Random(seed), mm)
            morphism(f"lift {tag} subdivided {seed}", sub)

    for name in SETTINGS[1:]:
        setting, rng = ws.ResidueSetting.parse(name), random.Random(f"draw-{name}")
        for i in range(200 // every):
            drawn = support._metric_draw(rng, setting)
            if drawn is None:
                continue
            m, delta = drawn
            label = f"metric draw {name} {i}"
            mm = rec.call(label, ws.MetricDeltaMorphism, m, delta, setting)
            doc = ws.morphism_to_json_dict(m)
            rec.call(f"{label} load without delta", ws.morphism_from_json_dict, doc)
            doc["delta"] = {v: str(d) for v, d in delta.items()}
            doc["setting"] = name
            loaded = rec.call(f"{label} load", ws.morphism_from_json_dict, doc)
            if mm is not None and loaded is not None:
                morphism(label, loaded)
            side = ("source", "target")[i % 2]  # one finite length of it doubled
            g = getattr(m, side)
            finite = [e for e in g.edge_ids if g.length(e) is not ws.INF]
            if finite:
                e = finite[i % len(finite)]
                lengths = {x: g.length(x) * 2 if x == e else g.length(x) for x in g.edge_ids}
                doubled = ws.GenusGraph({v: g.genus_of(v) for v in g.vertices},
                                       {x: g.endpoints(x) for x in g.edge_ids},
                                       lengths, g.infinite_leaves)
                pair = (doubled, m.target) if side == "source" else (m.source, doubled)
                sdelta = {x: m.sdelta((x, True)) for x in m.source.edge_ids}
                built(rec, f"{label} {side} {e} doubled", *pair, m.vertex_map, m.edge_map,
                      m.mult, sdelta)

    for i, doc in enumerate(support.load_mutations(5, 2000 // every)):
        m = rec.call(f"load_mutation {i}", ws.morphism_from_json_dict, doc)
        if m is not None:
            rec.call(f"load_mutation {i} json", ws.morphism_to_json_dict, m)
        for side in ("source", "target"):
            rec.call(f"load_mutation {i} {side}", ws.GenusGraph.from_json_dict, doc.get(side),
                     f"{side} graph")

    half = Fraction(1, 2)
    skewed = support.StandInSetting(lambda i: Fraction(i % 3 - 1, 2))  # some |i| > 1
    grid = [Fraction(k, 2) for k in range(-5, 8)]  # -5/2 to 7/2: both ends and beyond

    def profile_methods(label, series, prof):
        """Values, slopes, tie sets, sup and products of the profile and of
        the envelope of ``series`` on (-2, 3) and on a one-point domain."""
        envelope = ws.tropical_eval(series, (-2, 3))
        point = ws.tropical_eval(series, (half, half))
        for name, f in (("profile", prof), ("envelope", envelope), ("point", point)):
            if f is None:
                continue
            for x in grid + [x for x in f.breakpoints if x is not ws.INF]:
                rec.call(f"{label} {name} value {x}", f.value_at, x)
                rec.call(f"{label} {name} slope left {x}", f.slope_at, x, "left")
                rec.call(f"{label} {name} slope right {x}", f.slope_at, x, "right")
                if f is not prof:
                    rec.call(f"{label} {name} achievers {x}", f.achievers_at, x)
            rec.call(f"{label} {name} sup", f.sup)
            if f is not prof:
                rec.call(f"{label} {name} segment achievers", lambda: f.segment_achievers)
        for domain in ((-2, 3), (-2, ws.INF), (-1, 3), (-2, 2), (half, half), (half, ws.INF)):
            other = ws.tropical_eval(series, domain)
            rec.call(f"{label} {domain} sup", other.sup)
            for name, f in (("profile", prof), ("envelope", envelope), ("point", point)):
                if f is not None:
                    rec.call(f"{label} {name} mul {domain}", f.mul, other)

    for name in SETTINGS:
        setting, rng = ws.ResidueSetting.parse(name), random.Random(f"series-{name}")
        for i in range(300 // every):
            s = support.random_valued_series(rng)
            label = f"series {name} {i}"
            rec.call(f"{label} text", s.to_text)
            rec.call(f"{label} normalized", ws.is_normalized, s)
            n = rec.call(f"{label} normalize", ws.normalize, s)
            rec.call(f"{label} derivative", ws.derivative, s, setting)
            rec.call(f"{label} tropical", ws.tropical_eval, s, (-2, 3))
            if n is not None:
                rec.call(f"{label} report", ws.different_report, n, setting)
                prof = rec.call(f"{label} profile", ws.different_profile, n, setting, (-2, 3))
                rec.call(f"{label} image law", ws.skeleton_image_law, n, 1)
                profile_methods(label, n, prof)
                for domain in ((-2, 3), (-2, ws.INF), (half, half)):
                    rec.call(f"{label} skewed profile {domain}", ws.different_profile, n,
                             skewed, domain)
                rec.call(f"{label} skewed report", ws.different_report, n, skewed)
            m, s_, k = rng.randint(-4, 6), rng.randint(-4, 4), rng.randint(-8, 1)
            delta = ws.NEG_INF if k == 1 else ws.LogAbs(f"{k}/2")
            rec.call(f"{label} realize {m} {s_} {delta}", ws.realize_triple, m, s_, delta, setting)


# -- the comparison ------------------------------------------------------------------


SEEDS = ("0", "1")  # PYTHONHASHSEED of every walk; the newer tree also walks under the second
SHOWN = 20  # examples printed per count
WALK = Path("tools", "same_outputs.py")  # the recording walk, in each tree


def _walk(tree: Path, tmp: Path, every: int, seed: str):
    """Start ``tree``'s own walk under ``PYTHONHASHSEED=seed``; return the
    process and the file it writes its records to."""
    work = Path(tempfile.mkdtemp(dir=tmp))
    (work / "in").mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree)]),
               PYTHONHASHSEED=seed)
    with open(work / "records", "w") as out:
        process = subprocess.Popen(
            [sys.executable, str(tree / WALK), "--record", str(work / "in"), str(every)],
            env=env, cwd=tree, stdout=out, stderr=subprocess.PIPE, text=True)
    return process, work / "records"


def _keyed(path: Path):
    """``((label, k), line)`` for each record of the file ``path``, ``k``
    counting the earlier records of the same label."""
    seen = {}
    with open(path) as records:
        for line in records:
            line = line.rstrip("\n")
            label = line.split("\t", 1)[0]
            k = seen[label] = seen.get(label, -1) + 1
            yield (label, k), line


def _against(base: dict, path: Path):
    """The records of ``path`` matched by label with ``base``: the pairs that
    differ, the lines only in ``path`` and the lines only in ``base``."""
    differ, only, keys = [], [], set()
    for key, line in _keyed(path):
        keys.add(key)
        old = base.get(key)
        if old is None:
            only.append(line)
        elif old != line:
            differ.append((line, old))
    return differ, only, [line for key, line in base.items() if key not in keys]


def compare(rev: str, other, every: int) -> int:
    """Record ``rev`` (older) and ``other`` (newer; None for the working
    tree), each with its own walk, print the four counts and their first
    examples, and return the exit code."""
    from export_tree import export_tree  # beside this file

    names = rev, "the working tree" if other is None else other
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        older = export_tree(rev, tmp / "older")
        newer = ROOT if other is None else export_tree(other, tmp / "newer")
        for tree, name in (older, names[0]), (newer, names[1]):
            if not (tree / WALK).is_file():
                print(f"{name} has no recording walk ({WALK.as_posix()})", file=sys.stderr)
                return 2
        runs = [(older, names[0], SEEDS[0]), (newer, names[1], SEEDS[0]),
                (newer, names[1], SEEDS[1])]
        started = [_walk(tree, tmp, every, seed) for tree, _, seed in runs]
        errors = [process.communicate()[1] for process, _ in started]
        for (process, _), (_, name, seed), err in zip(started, runs, errors):
            if process.returncode:
                last = (err.strip().splitlines() or ["no message"])[-1]
                print(f"the walk of {name} failed under PYTHONHASHSEED={seed}: {last}",
                      file=sys.stderr)
                return 2
        base = dict(_keyed(started[1][1]))
        differ, older_only, newer_only = _against(base, started[0][1])
        reseeded = _against(base, started[2][1])
    # a quick walk samples its CLI inputs by a rule of its own revision (some
    # revisions by position in the list): an older-only cli record of a quick
    # run may be an input the newer sample skips, so it is shown last and sets
    # no exit code
    sampled = [line for line in older_only if every > 1 and line.startswith("cli ")]
    vanished = [line for line in older_only if not (every > 1 and line.startswith("cli "))]
    older_only = vanished + sampled
    total = len(base) - len(newer_only) + len(older_only)
    seeded = [f"{SEEDS[0]} {b}\n{SEEDS[1]} {a}" for a, b in reseeded[0]] + [
        f"{SEEDS[1]} {a}" for a in reseeded[1]] + [f"{SEEDS[0]} {b}" for b in reseeded[2]]
    print(f"{len(differ)} differing, {len(older_only)} older-only, {len(newer_only)} "
          f"newer-only and {len(seeded)} seed-dependent records; {total} in {names[0]}, "
          f"{len(base)} in {names[1]}")
    for title, shown in (
        ("differing", [f"- {a}\n+ {b}" for a, b in differ[:SHOWN]]),
        (f"only in {names[0]}", [f"- {a}" for a in older_only[:SHOWN]]),
        (f"only in {names[1]}", [f"+ {b}" for b in newer_only[:SHOWN]]),
        (f"under PYTHONHASHSEED={SEEDS[0]} and {SEEDS[1]} in {names[1]}", seeded[:SHOWN]),
    ):
        if shown:
            print(f"{title}:", *shown, sep="\n")
    return 1 if differ or vanished or seeded else 0


def main(argv) -> int:
    if argv[:1] == ["--record"]:
        sys.setrecursionlimit(10000)
        record(sys.stdout, Path(argv[1]), int(argv[2]))
        return 0
    quick = "--quick" in argv
    revs = [a for a in argv if a != "--quick"]
    from export_tree import resolves  # beside this file

    if len(revs) not in (1, 2) or not all(map(resolves, revs)):
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    return compare(revs[0], revs[1] if len(revs) == 2 else None, 20 if quick else 1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
