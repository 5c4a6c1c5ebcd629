#!/usr/bin/env python3
"""wildskel benchmark entry point.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is this file's parent directory.
The program is imported from ``src/`` of that root, never from an
installed copy.  Every measurement happens in a child interpreter
started with a pinned environment (see :func:`pinned_env`), one child at
a time.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run.  Standard library only.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rh_corpus", "annulus_oracle", "skeleton_types", "cli")
#: set-up-only children per untraced run; the measuring child adds one more
SETUP_REPS = 4
CHILD_TIMEOUT_S = 170


def pinned_env(pycache: str) -> dict:
    """The whole environment of every child interpreter.

    Bytecode goes to a cache directory owned by this run and warmed
    before anything is timed, so no ``__pycache__`` lands in ``src/`` and
    every run starts from the same bytecode state.  Hash randomisation
    is fixed so set iteration, and with it every call count, repeats.
    """
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONPYCACHEPREFIX": pycache,
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "PYTHONUTF8": "1",
    }


def child(env: dict, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    needed = [ROOT / "src" / "wildskel" / "__init__.py", ROOT / "fixtures"]
    absent = [str(p) for p in needed if not p.exists()]
    if absent:
        print(f"error: not a wildskel checkout, missing {absent}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        env = pinned_env(tmp)
        warm = "import sys; sys.path.insert(0, 'benchmark'); import workloads"
        subprocess.run([sys.executable, "-c", warm], cwd=ROOT, env=env, check=True)
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPS):
                setups.append(child(env, "--mode", "setup", *common)["setup_s"])
        res = child(env, "--mode", "run", *common)

    metrics = res["metrics"]
    if not args.trace:
        setups.append(res["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"# {args.workload}: {res['items']} items, tail = p{res['tail_percentile']}, "
              f"raw p50 {res['raw_p50_ms']:.4f} ms, speed factor {res['speed_factor']:.4f}, "
              f"setup samples {[round(s, 4) for s in setups]}")
    print(f"# python {platform.python_version()} ({sys.executable}), nproc {os.cpu_count()}, "
          f"env {sorted(k for k in env if k.startswith('PYTHON'))}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
