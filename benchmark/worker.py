"""One benchmark process: set a workload up and, in run mode, measure it.

Started by ``run.py`` in a fresh interpreter with a pinned environment;
prints one JSON object as its last stdout line.  ``import wildskel`` is
the first thing it does, so that import is timed cold.
"""

import sys
import time

_t0 = time.thread_time_ns()
import wildskel  # noqa: E402

IMPORT_NS = time.thread_time_ns() - _t0

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: a measured run stops here even if it has not reached min_items
HARD_CAP_S = 120.0
#: scaling to reference speed: probes per block, and probes after set-up
PROBE_BLOCK = 4
SETUP_PROBES = 4
#: repetitions of the interpreter and import probes in the cli trace
PROBE_REPS = 11


class Counter:
    """Attempted and failed items; logs the first few failures to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, w, inp, out, err) -> None:
        self.attempted += 1
        if err is None:
            try:
                w.check(inp, out)
                return
            except Exception as exc:  # a crashing oracle is a failed item too
                err = exc
        self.failed += 1
        if self.failed <= 3:
            print(f"[{w.name}] item {self.attempted - 1} failed: {err!r}", file=sys.stderr)
            if not isinstance(err, AssertionError):
                traceback.print_exception(err, file=sys.stderr)


def timed(run, inp, clock):
    t0 = clock()
    try:
        out, err = run(inp), None
    except Exception as exc:  # the program failed on this item
        out, err = None, exc
    return clock() - t0, out, err


def setup(w, seed, counter: Counter) -> float:
    """CPU time of ``import wildskel`` plus the warm-up pass, in seconds.

    The warm-up runs on a stream of its own; the sum is scaled to
    reference speed by probes timed right after it.
    """
    busy = IMPORT_NS
    stream = w.inputs(f"warmup-{seed}")
    for _ in range(w.warmup_items):
        inp = next(stream)
        dt, out, err = timed(w.run, inp, w.clock)
        busy += dt
        counter.record(w, inp, out, err)
    busy *= w.probe_ref_ns / statistics.mean(w.probe() for _ in range(SETUP_PROBES))
    return busy / 1e9


def measure(w, seed, seconds, counter: Counter):
    """Closed loop: one item at a time until time and item count are met.

    Returns the raw item times and the item times at reference speed.
    After every ``w.probe_every_ns`` of item time a probe of fixed work
    that never touches wildskel is timed (see ``Workload.probe``), and
    each item is scaled by ``w.probe_ref_ns`` over the mean of the
    PROBE_BLOCK probes timed around it.  The shared host runs a core at
    speeds up to a third apart for seconds at a time; the probes see the
    speed the items around them saw, so scaled times keep the program's
    cost and drop most of the host's.
    """
    latencies, probes = [], []
    pending = 0
    stream = w.inputs(seed)
    gc.collect()
    start = time.perf_counter()
    while True:
        inp = next(stream)
        dt, out, err = timed(w.run, inp, w.clock)
        latencies.append(dt)
        counter.record(w, inp, out, err)
        pending += dt
        if pending >= w.probe_every_ns:
            probes.append((len(latencies), w.probe()))
            pending = 0
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= w.min_items) or elapsed > HARD_CAP_S:
            break
    if not probes:
        probes.append((len(latencies), w.probe()))
    scaled = []
    for i in range(0, len(probes), PROBE_BLOCK):
        block = probes[i:i + PROBE_BLOCK]
        factor = w.probe_ref_ns / statistics.mean(p for _, p in block)
        end = len(latencies) if i + PROBE_BLOCK >= len(probes) else block[-1][0]
        scaled.extend(t * factor for t in latencies[len(scaled):end])
    return latencies, scaled


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail(latencies, w) -> float:
    """Median over consecutive blocks of ``min_items`` items of each block's
    tail percentile, so a short stall of the machine moves one block only."""
    k = max(1, len(latencies) // w.min_items)
    size = len(latencies) / k
    blocks = [latencies[round(i * size):round((i + 1) * size)] for i in range(k)]
    return statistics.median(percentile(b, w.tail) for b in blocks)


def peak_rss_mb(w) -> float:
    # a cli item runs in a child process, so its peak is the children's
    who = resource.RUSAGE_CHILDREN if w.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def import_ms(env) -> float:
    """Median wall time of a fresh ``python -c "import wildskel.cli"``."""
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "import wildskel.cli"], env=env, cwd=ROOT, check=True)
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


def traced_run(w, seed, counter: Counter, env) -> dict:
    """Untraced pass, then the same items traced; per-layer metrics."""
    import tracer as tr

    run = w.run_in_process if w.name == "cli" else w.run
    stream = w.inputs(seed)
    items = [next(stream) for _ in range(w.trace_items)]
    gc.collect()
    plain = 0
    for inp in items:
        dt, out, err = timed(run, inp, w.clock)
        plain += dt
        counter.record(w, inp, out, err)

    t = tr.Tracer()
    t.install(extra_modules=[workloads])
    for name in t.missing:
        print(f"[trace] target not found, reported as 0: {name}", file=sys.stderr)
    gc.collect()
    traced = 0
    try:
        for i, inp in enumerate(items):
            t.item = i
            call = run
            if w.name == "cli":  # a harness span around each cli.run(argv)
                call = t.wrap(f"cli.run.{w.golden[inp]['argv'][0]}", run)
            dt, out, err = timed(call, inp, w.clock)
            traced += dt
            counter.record(w, inp, out, err)
    finally:
        t.uninstall()

    n = len(items)
    totals = t.totals()
    metrics = {}
    for name, unit, _ in tr.metric_specs():
        stem, _, kind = name.rpartition(".")
        if name in t.observed:
            value = t.observed[name] / n
        elif kind in ("calls", "self_us", "fraction_new") and stem in totals:
            if stem.startswith("cli.run."):
                value = totals[stem][kind] / totals[stem]["calls"]
            else:
                value = totals[stem][kind] / n
        else:
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    if w.name == "cli":
        bare = statistics.median(w.probe() for _ in range(PROBE_REPS)) / 1e6
        metrics["cli.interpreter_ms"]["value"] = bare
        metrics["cli.import_ms"]["value"] = import_ms(env) - bare
    metrics["trace.overhead"]["value"] = traced / plain

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    t.dump(out_dir / f"trace-{w.name}-seed{seed}.json.gz")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if Path(wildskel.__file__).resolve().parent.parent != src:
        print(f"wildskel imported from {wildskel.__file__}, not {src}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    w = workloads.WORKLOADS[args.workload](ROOT, env)
    counter = Counter()
    setup_s = setup(w, args.seed, counter)
    result = {"setup_s": setup_s}
    if args.mode == "run":
        if args.trace:
            result["metrics"] = traced_run(w, args.seed, counter, env)
        else:
            raw, lat = measure(w, args.seed, args.seconds, counter)
            result["metrics"] = {
                "items_per_s": {"value": len(lat) / (sum(lat) / 1e9), "unit": "1/s"},
                "item_p50_ms": {"value": statistics.median(lat) / 1e6, "unit": "ms"},
                "item_tail_ms": {"value": tail(lat, w) / 1e6, "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb(w), "unit": "MB"},
            }
            result["items"] = len(lat)
            result["tail_percentile"] = w.tail
            result["raw_p50_ms"] = statistics.median(raw) / 1e6
            result["speed_factor"] = sum(lat) / sum(raw)
    result["attempted"] = counter.attempted
    result["failed"] = counter.failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
