"""Outside-in tracer for the traced benchmark run.

It wraps the public functions of each wildskel layer from the outside:
every binding site of a wrapped object -- module globals of wildskel
and of the benchmark modules, and the dicts of classes defined there --
is replaced, because a module such as ``delta_morphism`` holds its own
``check_restriction`` from ``from .annulus import ...`` and patching only
``annulus.check_restriction`` would miss those calls.  ``Fraction``
constructions are counted by wrapping ``Fraction.__new__`` and charged
to the innermost open span.

Spans (name, parent span, item, start, end, Fractions made while
innermost) stay in memory and are written out once, at the end of the
run.  Only the traced run imports this module.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from gen import CLI_COMMANDS

#: (layer module, qualified name, whether Fraction constructions are reported)
TARGETS: Tuple[Tuple[str, str, bool], ...] = (
    ("valuation", "ResidueSetting.int_abs", True),
    ("pmfunc", "tropical_eval", True),
    ("pmfunc", "PMFunction.__init__", True),
    ("pmfunc", "PMFunction.mul", True),
    ("pmfunc", "PMFunction.pow", True),
    ("pmfunc", "PMFunction.sup", True),
    ("pmfunc", "PMFunction.value_at", True),
    ("pmfunc", "PMFunction.slope_at", True),
    ("pmfunc", "NewtonProfile.achievers_at", True),
    ("annulus", "different_profile", True),
    ("annulus", "derivative", True),
    ("annulus", "different_report", True),
    ("annulus", "check_restriction", True),
    ("annulus", "realize_triple", True),
    ("annulus", "normalize", True),
    ("genus_graph", "GenusGraph.__init__", False),
    ("genus_graph", "MetricGenusGraph.__init__", True),
    ("genus_graph", "GenusGraph.branches", False),
    ("genus_graph", "GenusGraph.is_connected", False),
    ("genus_graph", "GenusGraph.canonical_divisor", False),
    ("genus_graph", "GenusGraph.genus", False),
    ("delta_morphism", "DeltaMorphism.__init__", False),
    ("delta_morphism", "MetricDeltaMorphism.__init__", True),
    ("delta_morphism", "DeltaMorphism.rh_divisor_identity", False),
    ("delta_morphism", "DeltaMorphism.rh_degree_identity", False),
    ("delta_morphism", "stabilize", False),
    ("delta_morphism", "applicable_moves", False),
    ("delta_morphism", "contract_morphism", False),
    ("delta_morphism", "contract_graph", False),
    ("delta_morphism", "morphism_from_json_dict", True),
    ("delta_morphism", "morphism_to_json_dict", False),
    ("special", "metric_lift", True),
    ("special", "classify_special", False),
    ("special", "is_special", False),
    ("special", "metric_lengths", True),
    ("elliptic", "classify_elliptic", True),
    ("radial", "degree_p_locus", True),
    ("radial", "radial_vs_ball", False),
)

#: Domain counters read off a target's result: (span name, metric, function).
OBSERVERS: Dict[str, Tuple[str, Callable]] = {
    # envelope segments on the domain = upper-hull points that are active there
    "pmfunc.tropical_eval": ("hull_points", lambda r: len(r.segment_achievers)),
    "annulus.different_profile": ("breakpoints", lambda r: len(r.breakpoints)),
}

#: The CLI subcommands, for the cli.run.<name>.self_us metrics.
CLI_SUBCOMMANDS = tuple(dict.fromkeys(argv[0] for argv in CLI_COMMANDS))


def metric_specs() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    specs = []
    for layer, qual, fractions in TARGETS:
        name = f"{layer}.{qual}"
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_us", "us", "lower"))
        if fractions:
            specs.append((f"{name}.fraction_new", "count", "lower"))
        if name in OBSERVERS:
            specs.append((f"{name}.{OBSERVERS[name][0]}", "count", "lower"))
    specs.append(("cli.interpreter_ms", "ms", "lower"))
    specs.append(("cli.import_ms", "ms", "lower"))
    specs.extend((f"cli.run.{c}.self_us", "us", "lower") for c in CLI_SUBCOMMANDS)
    specs.append(("trace.overhead", "ratio", "lower"))
    return specs


def self_times(spans: Sequence[Tuple[int, float, float]]) -> List[float]:
    """Self time of each span: its duration minus what its children cover.

    ``spans[i] = (parent index or -1, start, end)``.  Child intervals are
    clipped to the parent and merged before they are subtracted, so
    overlapping or out-of-range children are not counted twice.
    """
    kids: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for parent, start, end in spans:
        if parent >= 0:
            kids[parent].append((start, end))
    out = []
    for i, (_, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for cs, ce in sorted(kids.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span recorder with patch-and-restore of every binding site."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # one list per span: [name id, parent, item, start ns, end ns, fractions]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.item = -1
        self.observed: Dict[str, int] = defaultdict(int)
        self.missing: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        observer = OBSERVERS.get(name)
        observed = self.observed
        tracer = self

        def traced(*args, **kwargs):
            rec = [nid, stack[-1] if stack else -1, tracer.item, 0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if observer is not None:
                observed[f"{name}.{observer[0]}"] += observer[1](result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, extra_modules: Iterable = ()) -> None:
        """Wrap every target and Fraction construction."""
        wrappers = {}
        for layer, qual, _ in TARGETS:
            mod = sys.modules.get(f"wildskel.{layer}")
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{layer}.{qual}")
                continue
            wrappers[id(original)] = self.wrap(f"{layer}.{qual}", original)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "wildskel"]
        modules.extend(extra_modules)
        namespaces = {}
        for mod in modules:
            namespaces[id(mod)] = mod
            for v in vars(mod).values():
                if isinstance(v, type) and v.__module__ == mod.__name__:
                    namespaces[id(v)] = v
        for ns in namespaces.values():
            for key, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    self._patch(ns, key, wrappers[id(value)])

        stack, spans = self.stack, self.spans
        original_new = Fraction.__new__

        def counted_new(cls, *args, **kwargs):
            if stack:
                spans[stack[-1]][5] += 1
            return original_new(cls, *args, **kwargs)

        self._patch(Fraction, "__new__", staticmethod(counted_new))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self time in microseconds, Fractions made."""
        selfs = self_times([(s[1], s[3], s[4]) for s in self.spans])
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_us": 0.0, "fraction_new": 0}
        )
        for rec, own in zip(self.spans, selfs):
            row = out[self.names[rec[0]]]
            row["calls"] += 1
            row["self_us"] += own / 1000.0
            row["fraction_new"] += rec[5]
        return out

    def dump(self, path) -> None:
        """Write every span, gzip-compressed JSON."""
        payload = {
            "columns": ["name", "parent", "item", "start_ns", "end_ns", "fraction_new"],
            "names": self.names,
            "spans": self.spans,
            "missing_targets": self.missing,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))

