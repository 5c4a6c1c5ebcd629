"""The four workloads: what one timed item does, and how it is checked.

A workload supplies a seeded input stream (built by :mod:`gen` with the
standard library only), ``run`` -- the timed calls into wildskel for one
item, returning plain values -- and ``check`` -- the untimed oracle from
:mod:`oracles`.  wildskel is reached through module attributes, so the
tracer's patches are seen here too.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import wildskel.annulus as an
import wildskel.cli as cli
import wildskel.delta_morphism as dm
import wildskel.elliptic as el
import wildskel.genus_graph as gg
import wildskel.pmfunc as pm
import wildskel.radial as ra
import wildskel.special as sp
import wildskel.valuation as va

import gen
import oracles

HERE = Path(__file__).resolve().parent


def _slice() -> None:
    table = {}
    acc = 0
    for i in range(300):
        acc += i * i % 7
        table[i & 31] = [acc, i]


class Workload:
    name = ""
    #: Item clock.  In-process items are timed in CPU time of this thread:
    #: on a shared 2-vCPU Xeon VM wall time also counts the moments other
    #: tenants hold the core, which made wall-clock tails swing twofold
    #: between runs.
    clock = staticmethod(time.thread_time_ns)
    #: a probe is timed after this much item time (see worker.measure) ...
    probe_every_ns = 1_000_000
    #: ... and takes this long at reference speed (its typical time on
    #: that VM with Python 3.11.7)
    probe_ref_ns = 65_000
    #: fewest items a measured run must complete (p99 needs >= 10 beyond it)
    min_items = 1000
    #: percentile reported as item_tail_ms
    tail = 99
    #: warm-up items, from a stream of their own; set-up time includes them
    warmup_items = 30
    #: items replayed untraced and then traced in a --trace 1 run
    trace_items = 200

    def __init__(self, root: Path, env=None):
        self.root = root
        self.env = env

    def inputs(self, seed):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> None:
        raise NotImplementedError

    def probe(self) -> int:
        """Time, on ``clock``, a fixed slice of interpreter work that never
        touches wildskel: small-int, dict and list operations.

        The slice runs straight after an item, with the caches as the item
        left them; that tracked item speed better than a slice timed warm
        (run-to-run spread of the scaled p50 2 % against 4 %).  The price:
        a change to the program's memory footprint moves the probe a
        little too.
        """
        gc.disable()  # a collection inside the slice would time the heap
        t0 = self.clock()
        _slice()
        spent = self.clock() - t0
        gc.enable()
        return spent


class RHCorpus(Workload):
    """Read path of genus_graph / delta_morphism on random morphisms."""

    name = "rh_corpus"
    warmup_items = 100
    trace_items = 2000

    def inputs(self, seed):
        return gen.rh_inputs(seed)

    def run(self, inp):
        data, divisor = inp
        m = dm.morphism_from_json_dict(data)
        div = m.rh_divisor_identity()
        deg = m.rh_degree_identity()
        return {
            "divisor": div.to_json_dict(),
            "degree": deg.to_json_dict(),
            "delta_degree": m.delta_divisor().degree(),
            "pullback_degree": m.pullback(gg.Divisor(divisor)).degree(),
        }

    def check(self, inp, out):
        oracles.check_rh(inp, out)


class AnnulusOracle(Workload):
    """Fraction kernel of valuation / pmfunc / annulus; no graph code."""

    name = "annulus_oracle"
    trace_items = 600

    def __init__(self, root, env=None):
        super().__init__(root, env)
        self.settings = {s: va.ResidueSetting.parse(s) for s in gen.ANNULUS_SETTINGS}

    def inputs(self, seed):
        return gen.annulus_inputs(seed)

    def run(self, inp):
        raw, name = inp
        setting = self.settings[name]
        series = an.normalize(an.ValuedSeries(raw))
        prof = an.different_profile(series, setting, oracles.DOMAIN)
        grid = [prof.value_at(Fraction(k, oracles.GRID_DEN)) for k in oracles.GRID_NUMS]
        envelope = pm.tropical_eval(series, oracles.DOMAIN)
        a, b = prof.domain
        triples = []
        for x0 in prof.breakpoints:
            value = prof.value_at(x0)
            sides = []
            if x0 > a:
                sides.append((min(envelope.achievers_at(x0)), -prof.slope_at(x0, "left")))
            if x0 < b:
                sides.append((max(envelope.achievers_at(x0)), prof.slope_at(x0, "right")))
            for achiever, s in sides:
                m = abs(achiever)
                ok = an.check_restriction(m, s, va.LogAbs(value), setting).ok
                triples.append((m, s, value, ok))
        rep = an.different_report(series, setting)
        roundtrip = None
        if rep.m > 0:
            back = an.different_report(
                an.realize_triple(rep.m, rep.slope_s, rep.log_delta, setting), setting
            )
            roundtrip = (back.m, back.n, back.log_delta.value, back.slope_s)
        return {
            "series": dict(series.coefficients),
            "grid": grid,
            "breakpoints": list(prof.breakpoints),
            "triples": triples,
            "report": (rep.m, rep.n, rep.log_delta.value, rep.slope_s),
            "roundtrip": roundtrip,
        }

    def check(self, inp, out):
        oracles.check_annulus(inp, out)


class SkeletonTypes(Workload):
    """Write path of the graph layers: lift, revalidate, stabilize."""

    name = "skeleton_types"
    trace_items = 400

    def __init__(self, root, env=None):
        super().__init__(root, env)
        self.settings = {s: va.ResidueSetting.parse(s) for s in gen.SKELETON_SETTINGS}
        self.shapes = gen.load_special_fixtures(root / "fixtures")

    def inputs(self, seed):
        return gen.skeleton_inputs(seed, self.root / "fixtures")

    def run(self, inp):
        name, log_j, _, subdivided = inp
        setting = self.settings[name]
        if log_j is None:
            query = el.EllipticInput.j_zero(setting)
        else:
            query = el.EllipticInput.of(setting, log_j)
        rep = el.classify_elliptic(query)
        mm = sp.metric_lift(rep.type, rep.lengths, setting)
        lifted = dm.morphism_to_json_dict(mm)
        mm2 = dm.morphism_from_json_dict(json.loads(json.dumps(lifted)))
        strict = ra.radial_vs_ball(ra.degree_p_locus(mm2, 2)).strict
        lengths = sp.metric_lengths(mm2)
        classified = sp.classify_special(mm2.morphism).tag
        stable = dm.stabilize(dm.morphism_from_json_dict(subdivided))
        return {
            "type": rep.type.tag,
            "lengths": (rep.lengths.l0, rep.lengths.l1, rep.lengths.l3),
            "lifted": lifted,
            "roundtrip": dm.morphism_to_json_dict(mm2),
            "strict": strict,
            "metric_lengths": (lengths.l0, lengths.l1, lengths.l3),
            "classified": classified,
            "stabilized": dm.morphism_to_json_dict(stable),
        }

    def check(self, inp, out):
        oracles.check_skeleton(inp, out, self.shapes)


def load_golden():
    data = json.loads((HERE / "golden" / "cli.json").read_text(encoding="utf-8"))
    expect = [list(c) for c in gen.CLI_COMMANDS]
    if [g["argv"] for g in data] != expect:
        raise ValueError("golden/cli.json does not match gen.CLI_COMMANDS")
    return data


class CLI(Workload):
    """Interpreter start, import, argparse and render: one subprocess per call."""

    name = "cli"
    #: a call is what the caller waits for: process start to exit
    clock = staticmethod(time.perf_counter_ns)
    # An in-process slice does not track process start-up, so the probe
    # is a bare interpreter (``python -c pass``), every few calls.
    probe_every_ns = 300_000_000
    probe_ref_ns = 65_000_000
    min_items = 100
    tail = 90
    warmup_items = 10  # one round of the commands

    def __init__(self, root, env=None):
        super().__init__(root, env)
        self.golden = load_golden()

    def inputs(self, seed):
        return gen.cli_inputs(seed)

    def run(self, i):
        proc = subprocess.run(
            [sys.executable, "-m", "wildskel.cli", *gen.CLI_COMMANDS[i]],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=60,
        )
        return proc.returncode, proc.stdout

    def probe(self) -> int:
        t0 = self.clock()
        subprocess.run([sys.executable, "-c", "pass"], cwd=self.root, env=self.env, check=True)
        return self.clock() - t0

    def run_in_process(self, i):
        """``cli.run(argv)`` in this interpreter, stdout captured."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(list(gen.CLI_COMMANDS[i]))
        return code, buf.getvalue().encode("utf-8")

    def check(self, i, out):
        oracles.check_cli(self.golden[i], out)


WORKLOADS = {w.name: w for w in (RHCorpus, AnnulusOracle, SkeletonTypes, CLI)}
