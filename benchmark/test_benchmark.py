"""Self-tests of the benchmark harness (standard library unittest).

    python3 -m unittest discover -s benchmark -v

They check that inputs are a pure function of the seed, that the
tracer's self-time arithmetic and binding-site patching are right, that
every oracle flags an injected wrong result, that BENCHMARK.json names
exactly the metrics the harness prints, and that a run leaves the
checkout as it found it.
"""

from __future__ import annotations

import copy
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(ROOT / "src"), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import gen  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

FIXTURES = ROOT / "fixtures"


def first(stream, k):
    return list(itertools.islice(stream, k))


def encode(items) -> bytes:
    return json.dumps(items, sort_keys=True, default=repr).encode("utf-8")


STREAMS = {
    "rh_corpus": gen.rh_inputs,
    "annulus_oracle": gen.annulus_inputs,
    "skeleton_types": lambda seed: gen.skeleton_inputs(seed, FIXTURES),
    "cli": gen.cli_inputs,
}


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_differs(self):
        for name, stream in STREAMS.items():
            with self.subTest(workload=name):
                a = encode(first(stream(7), 40))
                self.assertEqual(a, encode(first(stream(7), 40)))
                self.assertNotEqual(a, encode(first(stream(8), 40)))

    def test_large_tier_present(self):
        sizes = [len(m["target"]["vertices"]) for m, _ in first(gen.rh_inputs(3), 300)]
        self.assertTrue(any(s > gen.SMALL_TIER[0] for s in sizes))
        self.assertTrue(all(s <= gen.LARGE_TIER[0] for s in sizes))

    def test_workload_names_agree(self):
        import run

        self.assertEqual(set(run.WORKLOADS), set(workloads.WORKLOADS))
        self.assertEqual(set(STREAMS), set(workloads.WORKLOADS))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            (-1, 0, 100),  # 0: root
            (0, 10, 30),   # 1: child
            (0, 40, 90),   # 2: child
            (2, 50, 60),   # 3: grandchild
            (2, 70, 75),   # 4: grandchild
            (-1, 200, 210),  # 5: second root
        ]
        self.assertEqual(tracer.self_times(spans), [30, 20, 35, 10, 5, 10])

    def test_children_are_clipped_and_merged(self):
        spans = [(-1, 0, 10), (0, -5, 4), (0, 2, 6), (0, 8, 20)]
        self.assertEqual(tracer.self_times(spans)[0], 10 - 6 - 2)

    def test_wrapped_calls_and_fractions(self):
        t = tracer.Tracer()

        def inner(x):
            return Fraction(x, 3)

        f_inner = t.wrap("inner", inner)

        def outer():
            Fraction(1, 2)
            return f_inner(1) + f_inner(2)

        t.install()
        try:
            t.wrap("outer", outer)()
        finally:
            t.uninstall()
        totals = t.totals()
        self.assertEqual(totals["inner"]["calls"], 2)
        self.assertEqual(totals["inner"]["fraction_new"], 2)
        # Fraction(1, 2) and the sum are made while outer is innermost
        self.assertEqual(totals["outer"]["fraction_new"], 2)
        outer_span = next(s for s in t.spans if t.names[s[0]] == "outer")
        inner_spans = [s for s in t.spans if t.names[s[0]] == "inner"]
        self.assertAlmostEqual(
            totals["outer"]["self_us"] * 1000,
            (outer_span[4] - outer_span[3]) - sum(s[4] - s[3] for s in inner_spans),
            delta=1e-6,
        )


class BindingSites(unittest.TestCase):
    def test_every_binding_site_is_patched_and_restored(self):
        import wildskel
        import wildskel.annulus as an
        import wildskel.delta_morphism as dm
        import wildskel.genus_graph as gg
        import wildskel.special as sp
        import wildskel.valuation as va

        before = (an.check_restriction, dm.check_restriction,
                  wildskel.check_restriction, gg.GenusGraph.__dict__["branches"],
                  Fraction.__dict__["__new__"])
        t = tracer.Tracer()
        t.install()
        try:
            self.assertEqual(t.missing, [])
            self.assertIsNot(dm.check_restriction, before[1])
            self.assertIs(dm.check_restriction, an.check_restriction)
            self.assertIs(wildskel.check_restriction, an.check_restriction)
            # metric validation reaches check_restriction only through the
            # delta_morphism binding
            sp.metric_lift("WB", sp.Lengths(l0=Fraction(1)), va.ResidueSetting.equichar(2))
        finally:
            t.uninstall()
        after = (an.check_restriction, dm.check_restriction,
                 wildskel.check_restriction, gg.GenusGraph.__dict__["branches"],
                 Fraction.__dict__["__new__"])
        self.assertTrue(all(a is b for a, b in zip(before, after)))
        totals = t.totals()
        self.assertGreater(totals["annulus.check_restriction"]["calls"], 0)
        self.assertGreater(totals["genus_graph.GenusGraph.branches"]["calls"], 0)
        self.assertEqual(totals["special.metric_lift"]["calls"], 1)


class Oracles(unittest.TestCase):
    """Each oracle accepts a real result and flags an injected wrong one."""

    def one(self, name, seed=5):
        w = workloads.WORKLOADS[name](ROOT, None)
        inp = next(iter(w.inputs(seed)))
        out = w.run_in_process(inp) if name == "cli" else w.run(inp)
        w.check(inp, out)
        return w, inp, out

    def assertFlags(self, w, inp, out):
        with self.assertRaises(oracles.Mismatch):
            w.check(inp, out)

    def test_rh(self):
        w, inp, out = self.one("rh_corpus")
        bad = copy.deepcopy(out)
        v = next(iter(bad["divisor"]["canonical"]))
        bad["divisor"]["canonical"][v] += 1
        self.assertFlags(w, inp, bad)
        bad = copy.deepcopy(out)
        bad["degree"]["r_sum"] += 2
        self.assertFlags(w, inp, bad)
        bad = copy.deepcopy(out)
        bad["pullback_degree"] += 1
        self.assertFlags(w, inp, bad)

    def test_annulus(self):
        w, inp, out = self.one("annulus_oracle")
        bad = copy.deepcopy(out)
        bad["grid"][17] += Fraction(1, 1000)
        self.assertFlags(w, inp, bad)
        bad = copy.deepcopy(out)
        m, s, value, ok = bad["triples"][0]
        bad["triples"][0] = (m, s + 1, value, ok)
        self.assertFlags(w, inp, bad)
        bad = copy.deepcopy(out)
        bad["breakpoints"] = bad["breakpoints"][:1] + bad["breakpoints"][2:]
        self.assertFlags(w, inp, bad)
        bad = copy.deepcopy(out)
        m, n, delta, s = bad["report"]
        bad["report"] = (m, n, delta - 1, s)
        self.assertFlags(w, inp, bad)

    def test_admissibility_rule(self):
        # |m+s| >= delta >= |m|, one-sided conditions, odd slopes for m = 2 mod 4
        self.assertTrue(oracles.admissible(2, 1, Fraction(-1), "mixed:2:-1"))
        self.assertFalse(oracles.admissible(2, 2, Fraction(-1), "mixed:2:-1"))
        self.assertFalse(oracles.admissible(1, 1, Fraction(0), "equichar0"))
        self.assertTrue(oracles.admissible(1, 0, Fraction(0), "equichar0"))
        self.assertFalse(oracles.admissible(2, 0, Fraction(0), "equicharP:2"))

    def test_skeleton(self):
        w, inp, out = self.one("skeleton_types")
        bad = dict(out, type="TB" if out["type"] != "TB" else "TG")
        self.assertFlags(w, inp, bad)
        l0, l1, l3 = out["lengths"]
        self.assertFlags(w, inp, dict(out, lengths=(l0 + 1, l1, l3)))
        self.assertFlags(w, inp, dict(out, strict=not out["strict"]))
        stab = copy.deepcopy(out["stabilized"])
        stab["source"]["vertices"].append({"id": "extra", "genus": 0})
        self.assertFlags(w, inp, dict(out, stabilized=stab))

    def test_subdivision_is_not_stable(self):
        w = workloads.WORKLOADS["skeleton_types"](ROOT, None)
        _, _, tag, sub = next(iter(w.inputs(2)))
        self.assertNotEqual(sub, w.shapes[tag])

    def test_cli(self):
        w, inp, out = self.one("cli")
        code, stdout = out
        self.assertFlags(w, inp, (code + 1, stdout))
        self.assertFlags(w, inp, (code, stdout + b" "))


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            tracer.metric_specs(),
        )
        self.assertEqual(
            {m["name"] for m in spec["end_to_end"]},
            {"items_per_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb", "setup_s"},
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_untraced_worker_never_imports_tracer(self):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", str(HERE / "worker.py"), "--mode", "run",
             "--workload", "rh_corpus", "--seed", "1", "--seconds", "0", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        )
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        self.assertIn("workloads", imported)
        self.assertNotIn("tracer", imported)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "benchmark",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "benchmark/run.py", "--workload", "rh_corpus",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


@unittest.skipUnless(shutil.which("git") and (ROOT / ".git").exists(), "needs a git checkout")
class CleanCheckout(unittest.TestCase):
    def status(self) -> str:
        return subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout

    def test_full_runs_leave_git_status_unchanged(self):
        before = self.status()
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "benchmark/run.py", "--workload", "cli", "--seed", "3",
                 "--seconds", "1", "--trace", trace],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertTrue(result["correct"])
        self.assertEqual(self.status(), before)


if __name__ == "__main__":
    unittest.main()
