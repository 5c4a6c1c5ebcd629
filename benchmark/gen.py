"""Seeded input generators for the benchmark workloads.

Standard library only: nothing here imports wildskel, so the inputs a
workload hands to the program are plain JSON dicts, series maps and
argument lists built before the timed region.  Every generator is an
infinite iterator driven by one ``random.Random`` seeded from the
workload seed, so the same seed always yields the same inputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

# -- rh_corpus ---------------------------------------------------------------

#: Share of morphisms drawn from the large tier.
LARGE_SHARE = 0.2
SMALL_TIER = (4, 3)  # (max target vertices, max degree), as in criterion 01
LARGE_TIER = (10, 5)


def _composition(rng: random.Random, total: int) -> List[int]:
    parts = []
    remaining = total
    while remaining > 0:
        p = rng.randint(1, remaining)
        parts.append(p)
        remaining -= p
    rng.shuffle(parts)
    return parts


def _transportation(rng, rows, cols) -> Dict[Tuple[int, int], int]:
    """Random nonnegative integer matrix with the given margins."""
    rem_r, rem_c = list(rows), list(cols)
    plan: Dict[Tuple[int, int], int] = {}
    while sum(rem_r) > 0:
        i = rng.choice([k for k, r in enumerate(rem_r) if r > 0])
        j = rng.choice([k for k, c in enumerate(rem_c) if c > 0])
        amount = rng.randint(1, min(rem_r[i], rem_c[j]))
        plan[(i, j)] = plan.get((i, j), 0) + amount
        rem_r[i] -= amount
        rem_c[j] -= amount
    return plan


def _connected(vertices, edges) -> bool:
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in vertices}) == 1


def _graph_dict(genera: Dict[str, int], edges: Dict[str, Tuple[str, str]]) -> dict:
    return {
        "vertices": [{"id": v, "genus": genera[v]} for v in sorted(genera)],
        "edges": [
            {"id": e, "from": edges[e][0], "to": edges[e][1]} for e in sorted(edges)
        ],
    }


def random_morphism_dict(rng: random.Random, max_tv: int, max_degree: int) -> dict:
    """A proper delta-morphism with a connected source, as a JSON dict.

    Same construction as the criterion-01 generator: a random connected
    target multigraph, fiber multiplicities from random compositions of
    the degree, and a random transportation plan per target edge whose
    entries are split into parallel source edges.
    """
    while True:
        nv = rng.randint(2, max_tv)
        tgen = {f"T{i}": rng.randint(0, 2) for i in range(nv)}
        order = list(tgen)
        rng.shuffle(order)
        tedges: Dict[str, Tuple[str, str]] = {}
        for i in range(1, nv):
            j = rng.randrange(i)
            tedges[f"F{len(tedges)}"] = (order[j], order[i])
        for _ in range(rng.randint(0, 2)):
            u, v = rng.sample(order, 2)
            tedges[f"F{len(tedges)}"] = (u, v)
        degree = rng.randint(1, max_degree)
        fiber = {v2: _composition(rng, degree) for v2 in sorted(tgen)}
        sgen: Dict[str, int] = {}
        vmap: Dict[str, str] = {}
        for v2, mults in fiber.items():
            for i in range(len(mults)):
                sgen[f"{v2}_{i}"] = rng.randint(0, 2)
                vmap[f"{v2}_{i}"] = v2
        sedges: Dict[str, Tuple[str, str]] = {}
        emap: Dict[str, str] = {}
        n: Dict[str, int] = {}
        sdelta: Dict[str, int] = {}
        for e2 in sorted(tedges):
            u2, v2 = tedges[e2]
            plan = _transportation(rng, fiber[u2], fiber[v2])
            for (i, j), total in plan.items():
                for part in _composition(rng, total):
                    name = f"e{len(sedges)}"
                    sedges[name] = (f"{u2}_{i}", f"{v2}_{j}")
                    emap[name] = e2
                    n[name] = part
                    sdelta[name] = rng.randint(-3, 3)
        if not _connected(sgen, sedges.values()):
            continue
        return {
            "source": _graph_dict(sgen, sedges),
            "target": _graph_dict(tgen, tedges),
            "vertex_map": vmap,
            "edge_map": emap,
            "n": n,
            "sdelta": sdelta,
        }


def rh_inputs(seed) -> Iterator[Tuple[dict, Dict[str, int]]]:
    """(morphism dict, target divisor) pairs; ~20 % from the large tier."""
    rng = random.Random(f"rh_corpus:{seed}")
    while True:
        tier = LARGE_TIER if rng.random() < LARGE_SHARE else SMALL_TIER
        m = random_morphism_dict(rng, *tier)
        divisor = {v["id"]: rng.randint(-3, 3) for v in m["target"]["vertices"]}
        yield m, divisor


# -- annulus_oracle -----------------------------------------------------------

#: Settings cycled through, as in criterion 06.
ANNULUS_SETTINGS = ("equichar0", "mixed:2:-1", "equicharP:2")


def random_series(rng: random.Random, max_support: int = 12) -> Dict[int, Fraction]:
    """Criterion-06 distribution: support in [-6, 8], values in [-6, 0]."""
    k = rng.randint(1, max_support)
    indices = rng.sample(range(-6, 9), k)
    den = rng.choice([1, 2, 3, 4])
    return {i: Fraction(rng.randint(-6 * den, 0), den) for i in indices}


def annulus_inputs(seed) -> Iterator[Tuple[Dict[int, Fraction], str]]:
    """(raw series map, setting) pairs on which no operation raises.

    Series that are constant after dropping exponent 0 are redrawn, and
    so are series with only even exponents in equicharacteristic 2
    (their derivative vanishes); the setting advances only on an
    accepted series, as in criterion 06.
    """
    rng = random.Random(f"annulus_oracle:{seed}")
    count = 0
    while True:
        raw = random_series(rng)
        if not any(i != 0 for i in raw):
            continue
        setting = ANNULUS_SETTINGS[count % 3]
        if setting == "equicharP:2" and all(i % 2 == 0 for i in raw):
            continue
        count += 1
        yield raw, setting


# -- skeleton_types ----------------------------------------------------------

#: The five criterion-08 settings.
SKELETON_SETTINGS = (
    "equichar0",
    "equicharP:3",
    "mixed:2:-1",
    "mixed:2:-2/3",
    "equicharP:2",
)
#: The 200-point log|j| scan of criterion 08; ``None`` stands for j = 0.
LOG_J_SCAN = tuple(Fraction(k, 10) for k in range(-130, 70))


def log2_of(setting: str):
    """log|2| under a setting: 0 (tame), None (wild) or a negative rational."""
    parts = setting.split(":")
    if parts[0] == "equichar0" or (parts[0] == "equicharP" and parts[1] != "2"):
        return Fraction(0)
    if parts[0] == "equicharP":
        return None
    return Fraction(parts[2]) if parts[1] == "2" else Fraction(0)


def expected_type(setting: str, log_j) -> str:
    """Skeleton type from the characteristics and log|j| (criterion 08)."""
    log2 = log2_of(setting)
    if log2 == 0:
        return "TB" if log_j is not None and log_j > 0 else "TG"
    if log2 is None:
        if log_j is None:
            return "WSS"
        return "WB" if log_j > 0 else ("WO" if log_j == 0 else "WS")
    if log_j is None:
        return "MSS"
    if log_j > 0:
        return "MB"
    if log_j == 0:
        return "MO"
    return "MS" if log_j > 8 * log2 else "MSS"


def load_special_fixtures(fixtures: Path) -> Dict[str, dict]:
    """Plain morphism dicts of the ten liftable types, keyed by tag."""
    tags = ("TB", "MB", "WB", "TG", "MO", "WO", "MS", "WS", "MSS", "WSS")
    return {
        t: json.loads((fixtures / f"{t.lower()}.morphism.json").read_text())
        for t in tags
    }


def subdivide(rng: random.Random, m: dict) -> dict:
    """A seeded subdivision that ``stabilize`` must undo.

    One to three target edges are subdivided once: a genus-0 vertex is
    put on the target edge and on every source edge over it, keeping
    multiplicity and slope, so each new fiber vertex is smoothable with
    R = 0.  Then zero to two genus-0 leaves are grafted on random target
    vertices: every fiber vertex ``u`` over the chosen vertex gets a
    leaf edge of multiplicity ``vertex_mult(u)`` whose slope makes the
    new leaf balanced (R = 0).  New names sort after the names they
    split, so smoothing restores the original edge ids.
    """
    src = {v["id"]: v["genus"] for v in m["source"]["vertices"]}
    tgt = {v["id"]: v["genus"] for v in m["target"]["vertices"]}
    sedges = {e["id"]: (e["from"], e["to"]) for e in m["source"]["edges"]}
    tedges = {e["id"]: (e["from"], e["to"]) for e in m["target"]["edges"]}
    vmap, emap = dict(m["vertex_map"]), dict(m["edge_map"])
    n, sdelta = dict(m["n"]), dict(m["sdelta"])

    k = 0
    for f in rng.sample(sorted(tedges), rng.randint(1, min(3, len(tedges)))):
        k += 1
        a2, b2 = tedges[f]
        c2, f_new = f"~c{k}'", f"{f}~{k}"
        tgt[c2] = 0
        tedges[f] = (a2, c2)
        tedges[f_new] = (c2, b2)
        for e in sorted(x for x in sedges if emap[x] == f):
            x, y = sedges[e]
            c, e_new = f"~c{k}.{e}", f"{e}~{k}"
            src[c] = 0
            vmap[c] = c2
            sedges[e] = (x, c)
            sedges[e_new] = (c, y)
            first, second = (f, f_new) if vmap[x] == a2 else (f_new, f)
            emap[e], emap[e_new] = first, second
            n[e_new], sdelta[e_new] = n[e], sdelta[e]

    for _ in range(rng.randint(0, 2)):
        k += 1
        w2 = rng.choice(sorted(tgt))
        g2, g2e = f"~g{k}'", f"~g{k}'e"
        some_edge = next(f for f in sorted(tedges) if w2 in tedges[f])
        tgt[g2] = 0
        tedges[g2e] = (w2, g2)
        for u in sorted(v for v in src if vmap[v] == w2):
            mult = sum(
                n[e]
                for e, ends in sedges.items()
                if emap[e] == some_edge and u in ends
            )
            leaf, leaf_e = f"~g{k}.{u}", f"~g{k}.{u}e"
            src[leaf] = 0
            vmap[leaf] = g2
            sedges[leaf_e] = (u, leaf)
            emap[leaf_e] = g2e
            n[leaf_e] = mult
            # slope u -> leaf; the leaf's R is mult - 1 - sdelta = 0
            sdelta[leaf_e] = mult - 1

    return {
        "source": _graph_dict(src, sedges),
        "target": _graph_dict(tgt, tedges),
        "vertex_map": vmap,
        "edge_map": emap,
        "n": n,
        "sdelta": sdelta,
    }


def skeleton_inputs(seed, fixtures: Path) -> Iterator[tuple]:
    """(setting, log_j or None, expected tag, subdivided dict) tuples.

    Each cycle covers the five settings times the 200-point scan plus
    j = 0 in a seeded order; every item carries its own subdivision of
    the plain morphism of its expected type.
    """
    rng = random.Random(f"skeleton_types:{seed}")
    shapes = load_special_fixtures(fixtures)
    grid = [(s, lj) for s in SKELETON_SETTINGS for lj in LOG_J_SCAN + (None,)]
    while True:
        order = list(grid)
        rng.shuffle(order)
        for setting, log_j in order:
            tag = expected_type(setting, log_j)
            yield setting, log_j, tag, subdivide(rng, shapes[tag])


# -- cli -----------------------------------------------------------------------

#: The README invocations: nine subcommands, ``annulus`` with and
#: without a profile domain.
CLI_COMMANDS: Tuple[Tuple[str, ...], ...] = (
    ("rh-check", "fixtures/wb.morphism.json"),
    ("stabilize", "fixtures/wb_subdivided.morphism.json", "--json"),
    ("classify-special", "fixtures/ms.morphism.json"),
    ("enumerate-special",),
    ("metric-lift", "--type", "MS", "--l1", "1/2", "--l3", "1/6",
     "--setting", "mixed:2:-1"),
    ("elliptic", "--char", "0", "--res-char", "2", "--log-p", "-1",
     "--log-j", "-4", "--json"),
    ("annulus", "--series", "fixtures/kummer_p2.series", "--setting",
     "mixed:2:-1"),
    ("annulus", "--series", "fixtures/binomial_p2.series", "--setting",
     "mixed:2:-1", "--domain=-1:0", "--json"),
    ("radial", "fixtures/ms_metric.morphism.json"),
    ("export-dot", "fixtures/wb.morphism.json"),
)


def cli_inputs(seed) -> Iterator[int]:
    """Indices into :data:`CLI_COMMANDS`, each command once per round."""
    rng = random.Random(f"cli:{seed}")
    while True:
        order = list(range(len(CLI_COMMANDS)))
        rng.shuffle(order)
        yield from order
