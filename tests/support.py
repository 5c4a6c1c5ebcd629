"""Settings, corpora, references and stand-ins shared by the tests and the
tools: the one module they share.  It imports only the standard library and
``wildskel``, so the tools run without pytest or hypothesis.

``random_proper_delta_morphism`` builds proper morphisms by
construction: it draws a target multigraph, splits the degree into
fiber multiplicities over every target vertex, and realizes each target
edge as a random transportation plan between the two fibers (row and
column sums are the vertex multiplicities), splitting plan entries into
parallel edges.  Local constancy and constant rank hold by
construction; only source connectivity is enforced by rejection.

``random_genus_graph`` draws such a target multigraph, optionally with
edge lengths, and ``subdivide_metric`` builds a random metric
subdivision of a metric morphism that ``stabilize`` must undo.
``proper_mutations``, ``load_mutations`` and ``stabilize_corpus`` are
the seeded inputs of the ``proper_errors``, ``load_errors`` and
``stabilize`` goldens (``tools/record_goldens.py``).
"""

from __future__ import annotations

import copy
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

from wildskel import (
    INF,
    LIFTABLE_TAGS,
    NEG_INF,
    ZERO,
    BoundaryAnnotation,
    DeltaMorphism,
    DifferentReport,
    Divisor,
    EdgeRadius,
    EllipticInput,
    GenusGraph,
    Lengths,
    LogAbs,
    MetricDeltaMorphism,
    MetricGenusGraph,
    OrientedEdge,
    PMFunction,
    ResidueSetting,
    RootSubtree,
    SpecialType,
    StrictnessReport,
    ValuedSeries,
    Verdict,
    build_special,
    certify_skeleton,
    check_restriction,
    classify_elliptic,
    contract_graph,
    contract_morphism,
    degree_p_locus,
    different_profile,
    is_special,
    metric_lift,
    morphism_from_json_dict,
    morphism_to_json_dict,
    skeleton_image_law,
    tropical_eval,
    wide_open_genus_check,
)
from wildskel.delta_morphism import CertifyReport
from wildskel.special import SpecialCheck

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MIXED2 = ResidueSetting.mixed(2, Fraction(-1))
WILD2 = ResidueSetting.equichar(2)
TAME0 = ResidueSetting.equichar_zero()
TAME3 = ResidueSetting.equichar(3)


# -- settings, lengths and fixed morphisms ----------------------------------------


def canonical_lengths(tag: str, setting: ResidueSetting) -> Lengths:
    """A valid length assignment for each liftable type."""
    two = setting.int_abs(2)
    log2 = None if two.is_neg_inf else two.value
    table = {
        "TB": Lengths(l0=Fraction(1)),
        "TG": Lengths(),
        "WB": Lengths(l0=Fraction(1)),
        "WO": Lengths(),
        "WS": Lengths(l3=Fraction(2, 3)),
        "WSS": Lengths(),
        "MB": Lengths(l0=Fraction(2), l1=-log2 if log2 is not None else 0),
        "MO": Lengths(l1=-log2 if log2 is not None else 0),
        "MS": Lengths(l1=-log2 / 2 if log2 is not None else 0,
                      l3=-log2 / 6 if log2 is not None else 0),
        "MSS": Lengths(l3=-log2 / 3 if log2 is not None else 0),
    }
    return table[tag]


def setting_for(tag: str) -> ResidueSetting:
    return {"tame": TAME0, "mixed": MIXED2, "wild": WILD2}[
        SpecialType(tag).characteristic_class
    ]


def identity_morphism(g: GenusGraph) -> DeltaMorphism:
    return DeltaMorphism(
        g,
        g,
        {v: v for v in g.vertices},
        {e: e for e in g.edge_ids},
        {e: 1 for e in g.edge_ids},
        {e: 0 for e in g.edge_ids},
    )


def one_edge_identity() -> MetricDeltaMorphism:
    """The identity of a segment of length one in ``mixed:2:-1``: degree 1."""
    line = MetricGenusGraph({"u": 0, "v": 0}, {"e": ("u", "v")}, {"e": 1})
    return MetricDeltaMorphism(identity_morphism(line), {"u": ZERO, "v": ZERO}, MIXED2)


def kummer_segment(p: int, log_p: Fraction, length=Fraction(1)) -> MetricDeltaMorphism:
    """Degree-p cover of a segment with constant different |p|."""
    setting = ResidueSetting.mixed(p, log_p)
    src = MetricGenusGraph({"u": 0, "v": 0}, {"e": ("u", "v")}, {"e": length})
    tgt = MetricGenusGraph(
        {"u'": 0, "v'": 0}, {"e'": ("u'", "v'")}, {"e'": p * length}
    )
    dm = DeltaMorphism(
        src, tgt, {"u": "u'", "v": "v'"}, {"e": "e'"}, {"e": p}, {"e": 0}
    )
    return MetricDeltaMorphism(
        dm, {"u": LogAbs(log_p), "v": LogAbs(log_p)}, setting
    )


#: What contracting ``kummer_two_edges().morphism`` (``tests/test_delta_morphism.py``)
#: at m' used to return: a plain source over a metric target, with every delta
#: value dropped.
HYBRID_KUMMER = {
    "edge_map": {"e": "e'"},
    "n": {"e": 2},
    "sdelta": {"e": 0},
    "source": {
        "edges": [{"from": "u", "id": "e", "to": "v"}],
        "vertices": [{"genus": 0, "id": "u"}, {"genus": 0, "id": "v"}],
    },
    "target": {
        "edges": [{"from": "u'", "id": "e'", "length": "2", "to": "v'"}],
        "vertices": [{"genus": 0, "id": "u'"}, {"genus": 0, "id": "v'"}],
    },
    "vertex_map": {"u": "u'", "v": "v'"},
}


# -- stand-ins and oracles -----------------------------------------------------------


class StandInSetting:
    """A stand-in residue setting with ``log|i| = log_abs(i)``: where some
    ``|i|`` exceed one, the different may exceed one too.  It has only the
    integer method that the annulus layer reads."""

    def __init__(self, log_abs):
        self.log_abs = log_abs

    def _int_abs_ratio(self, i):
        return Fraction(self.log_abs(i)).as_integer_ratio()


def _per_term_max(coeffs, x):
    best = max(v + i * x for i, v in coeffs.items())
    return best, [i for i, v in coeffs.items() if v + i * x == best]


# -- random corpora ------------------------------------------------------------------


def _random_composition(rng: random.Random, total: int) -> List[int]:
    """Random composition of ``total`` into positive parts."""
    parts = []
    remaining = total
    while remaining > 0:
        p = rng.randint(1, remaining)
        parts.append(p)
        remaining -= p
    rng.shuffle(parts)
    return parts


def _random_target(rng: random.Random, max_vertices: int) -> GenusGraph:
    nv = rng.randint(2, max_vertices)
    genera = {f"T{i}": rng.randint(0, 2) for i in range(nv)}
    edges: Dict[str, Tuple[str, str]] = {}
    order = list(genera)
    rng.shuffle(order)
    for i in range(1, nv):
        j = rng.randrange(i)
        edges[f"F{len(edges)}"] = (order[j], order[i])
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(order, 2)
        edges[f"F{len(edges)}"] = (u, v)
    return GenusGraph(genera, edges)


def random_genus_graph(rng: random.Random, metric: bool) -> GenusGraph:
    """A random connected multigraph; with ``metric``, random finite lengths."""
    g = _random_target(rng, 5)
    if not metric:
        return g
    lengths = {e: Fraction(rng.randint(1, 6), rng.randint(1, 3)) for e in g.edge_ids}
    return GenusGraph(
        {v: g.genus_of(v) for v in g.vertices},
        {e: g.endpoints(e) for e in g.edge_ids},
        lengths,
    )


def _transportation(
    rng: random.Random, rows: List[int], cols: List[int]
) -> Dict[Tuple[int, int], int]:
    """Random nonnegative matrix with the given row and column sums."""
    rem_r = list(rows)
    rem_c = list(cols)
    plan: Dict[Tuple[int, int], int] = {}
    while sum(rem_r) > 0:
        i = rng.choice([k for k, r in enumerate(rem_r) if r > 0])
        j = rng.choice([k for k, c in enumerate(rem_c) if c > 0])
        amount = rng.randint(1, min(rem_r[i], rem_c[j]))
        plan[(i, j)] = plan.get((i, j), 0) + amount
        rem_r[i] -= amount
        rem_c[j] -= amount
    return plan


def random_proper_delta_morphism(
    rng: random.Random, max_target_vertices: int = 4, max_degree: int = 3
) -> DeltaMorphism:
    """A random proper delta-morphism with a connected source."""
    while True:
        target = _random_target(rng, max_target_vertices)
        degree = rng.randint(1, max_degree)
        fiber_mult: Dict[str, List[int]] = {
            v2: _random_composition(rng, degree) for v2 in target.vertices
        }
        genera: Dict[str, int] = {}
        vertex_map: Dict[str, str] = {}
        for v2, mults in fiber_mult.items():
            for i in range(len(mults)):
                name = f"{v2}_{i}"
                genera[name] = rng.randint(0, 2)
                vertex_map[name] = v2
        edges: Dict[str, Tuple[str, str]] = {}
        edge_map: Dict[str, str] = {}
        mult: Dict[str, int] = {}
        sdelta: Dict[str, int] = {}
        for e2 in target.edge_ids:
            u2, v2 = target.endpoints(e2)
            plan = _transportation(rng, fiber_mult[u2], fiber_mult[v2])
            for (i, j), total in plan.items():
                for part in _random_composition(rng, total):
                    name = f"e{len(edges)}"
                    edges[name] = (f"{u2}_{i}", f"{v2}_{j}")
                    edge_map[name] = e2
                    mult[name] = part
                    sdelta[name] = rng.randint(-3, 3)
        source = GenusGraph(genera, edges)
        if not source.is_connected():
            continue
        return DeltaMorphism(source, target, vertex_map, edge_map, mult, sdelta)


def random_valued_series(
    rng: random.Random, max_support: int = 12
) -> ValuedSeries:
    """Finite support in [-6, 8], rational values in [-6, 0]."""
    n = rng.randint(1, max_support)
    indices = rng.sample(range(-6, 9), n)
    den = rng.choice([1, 2, 3, 4])
    return ValuedSeries(
        {i: Fraction(rng.randint(-6 * den, 0), den) for i in indices}
    )


def subdivide_metric(
    rng: random.Random, mm: MetricDeltaMorphism
) -> MetricDeltaMorphism:
    """A random metric subdivision of ``mm`` that ``stabilize`` must undo.

    One to three non-loop target edges, finite edges and tails alike, get
    a genus-0 vertex at a rational point, and so does every source edge
    above them.  Over a target piece of length ``l`` a source piece of
    multiplicity ``n`` has length ``l / n`` (dilation), and delta at the
    new source vertex is interpolated linearly.  New names sort after
    the names they split, so smoothing restores the original edge ids.
    """
    src, tgt = mm.source, mm.target
    tgt_genus = {v: tgt.genus_of(v) for v in tgt.vertices}
    tgt_edges = {e: tgt.endpoints(e) for e in tgt.edge_ids}
    tgt_len = {e: tgt.length(e) for e in tgt.edge_ids}
    src_genus = {v: src.genus_of(v) for v in src.vertices}
    src_edges = {e: src.endpoints(e) for e in src.edge_ids}
    src_len = {e: src.length(e) for e in src.edge_ids}
    vmap, emap, mult = dict(mm.vertex_map), dict(mm.edge_map), dict(mm.mult)
    sdelta = {e: mm.sdelta((e, True)) for e in src.edge_ids}
    delta = {v: _fraction(d) for v, d in mm.delta.items()}

    candidates = [f for f in tgt.edge_ids if len(set(tgt.endpoints(f))) == 2]
    chosen = rng.sample(candidates, rng.randint(1, min(3, len(candidates))))
    for k, f in enumerate(chosen, 1):
        a2, b2 = tgt_edges[f]
        l = tgt_len[f]
        if l is not INF:
            d = l * Fraction(rng.randint(1, 7), 8)
            pieces = (d, l - d)
        elif b2 in tgt.infinite_leaves:
            pieces = (Fraction(rng.randint(1, 12), rng.randint(1, 4)), INF)
        else:
            pieces = (INF, Fraction(rng.randint(1, 12), rng.randint(1, 4)))
        c2, f_new = f"~c{k}'", f"{f}~{k}"
        tgt_genus[c2] = 0
        tgt_edges[f], tgt_edges[f_new] = (a2, c2), (c2, b2)
        tgt_len[f], tgt_len[f_new] = pieces
        for e in sorted(x for x in src.edge_ids if mm.edge_map[x] == f):
            x, y = src_edges[e]
            n, s = mult[e], sdelta[e]
            # target pieces over (x, c) and (c, y), in that order
            near, far = (f, f_new) if vmap[x] == a2 else (f_new, f)
            px, py = (
                tgt_len[g] if tgt_len[g] is INF else tgt_len[g] / n
                for g in (near, far)
            )
            c, e_new = f"~c{k}.{e}", f"{e}~{k}"
            src_genus[c] = 0
            vmap[c] = c2
            delta[c] = delta[x] + s * px if px is not INF else delta[y] - s * py
            src_edges[e], src_edges[e_new] = (x, c), (c, y)
            src_len[e], src_len[e_new] = px, py
            emap[e], emap[e_new] = near, far
            mult[e_new], sdelta[e_new] = n, s

    source = GenusGraph(src_genus, src_edges, src_len, src.infinite_leaves)
    target = GenusGraph(tgt_genus, tgt_edges, tgt_len, tgt.infinite_leaves)
    m = DeltaMorphism(source, target, vmap, emap, mult, sdelta)
    return MetricDeltaMorphism(m, _log_values(delta), mm.setting)


#: The residue settings with a positive residue characteristic, where the
#: slope restriction constrains delta; the annulus kernel tests use them too.
NON_TAME_SETTINGS = ("equicharP:2", "equicharP:3", "mixed:2:-1", "mixed:3:-1/2")


def random_metric_delta_morphism(
    rng: random.Random, setting: ResidueSetting
) -> MetricDeltaMorphism:
    """A random metric delta-morphism in ``setting`` that the plain-Fraction
    restatement of the metric checks accepts.

    Built on ``random_proper_delta_morphism``: target edges get lengths with
    denominators in {1, 2, 3, 6} and a source edge of multiplicity ``n``
    length ``l' / n``.  Delta is carried from one anchor along a spanning
    tree of the finite edges with integer slopes, each chosen among those
    the slope restriction admits at both ends; an edge off the tree gets the
    slope that closes its cycle (``sum s * l = 0``), and the draw is redrawn
    when that slope is not an integer.  Tails, over zero to two target
    vertices, end at infinite leaves with ``delta = |n|``: descending where
    ``|n| = -inf``, else flat, so delta at their inner end must be ``|n|``.
    A draw is kept only if ``_reference_attach_delta`` accepts it.
    """
    while True:
        drawn = _metric_draw(rng, setting)
        if drawn is not None and _reference_attach_delta(*drawn, setting) is None:
            return MetricDeltaMorphism(*drawn, setting)


def _fraction(d):
    """A delta value (a LogAbs, a Fraction or an int) as a Fraction, None for -inf."""
    if isinstance(d, LogAbs):
        return None if d.is_neg_inf else d.value
    return Fraction(d)


def _log_values(delta: dict) -> dict:
    """Fraction delta values as a constructor reads them, ``NEG_INF`` for None."""
    return {v: NEG_INF if d is None else d for v, d in delta.items()}


def _admitted_slopes(n: int, delta: Fraction, setting: ResidueSetting) -> List[int]:
    return [s for s in range(-3, 4) if check_restriction(n, s, delta, setting)]


def _metric_draw(rng: random.Random, setting: ResidueSetting):
    """``(morphism, delta)`` of one draw, or None when a cycle does not close;
    delta is carried in Fractions (None for -inf) and returned as
    ``_log_values``."""
    m = random_proper_delta_morphism(rng)
    src, tgt = m.source, m.target
    tgt_len = {
        f: Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 6))) for f in tgt.edge_ids
    }
    src_len = {e: tgt_len[m.edge_map[e]] / m.mult[e] for e in src.edge_ids}
    two = _fraction(setting.int_abs(2))
    anchor = rng.choice(src.vertices)
    delta = {anchor: rng.choice(
        [Fraction(0), Fraction(0), Fraction(-rng.randint(1, 6), rng.choice((1, 2, 3)))]
        + ([] if two is None else [two])
    )}
    sdelta: Dict[str, int] = {}
    stack = [anchor]
    while stack:  # depth first: the tree edges, each from its visited end
        u = stack.pop()
        for e, forward in src.branches(u):
            w = src.head(OrientedEdge(e, forward))
            if w in delta or e in sdelta:
                continue
            n, l = m.mult[e], src_len[e]
            options = []
            for s in _admitted_slopes(n, delta[u], setting):
                d = delta[u] + Fraction(s) * l
                if d <= 0 and check_restriction(n, -s, d, setting):
                    options.append((s, d))
            s, delta[w] = rng.choice(options) if options else (0, delta[u])
            sdelta[e] = s if forward else -s
            stack.append(w)
    for e in src.edge_ids:  # the edges off the tree close their cycles
        if e not in sdelta:
            u, v = src.endpoints(e)
            s = (delta[v] - delta[u]) / src_len[e]
            if s.denominator != 1:
                return None
            sdelta[e] = int(s)
    genera = {v: src.genus_of(v) for v in src.vertices}
    edges = {e: src.endpoints(e) for e in src.edge_ids}
    vmap, emap, mult = dict(m.vertex_map), dict(m.edge_map), dict(m.mult)
    tgt_genera = {v: tgt.genus_of(v) for v in tgt.vertices}
    tgt_edges = {f: tgt.endpoints(f) for f in tgt.edge_ids}
    leaves, tgt_leaves = [], []
    for k, v2 in enumerate(rng.sample(tgt.vertices, rng.randint(0, 2))):
        leaf2, f = f"I{k}'", f"G{k}"
        tgt_genera[leaf2] = 0
        tgt_edges[f], tgt_len[f] = (v2, leaf2), INF
        tgt_leaves.append(leaf2)
        for v in m.fibers[v2]:
            for j, n in enumerate(_random_composition(rng, m.vertex_mult[v])):
                leaf, e = f"{v}_I{k}_{j}", f"g{k}_{v}_{j}"
                genera[leaf], vmap[leaf] = 0, leaf2
                edges[e], emap[e], mult[e], src_len[e] = (v, leaf), f, n, INF
                delta[leaf] = _fraction(setting.int_abs(n))
                leaves.append(leaf)
                down = [s for s in _admitted_slopes(n, delta[v], setting) if s < 0]
                sdelta[e] = 0 if delta[leaf] is not None else rng.choice(down or [-1])
    source = GenusGraph(genera, edges, src_len, leaves)
    target = GenusGraph(tgt_genera, tgt_edges, tgt_len, tgt_leaves)
    return DeltaMorphism(source, target, vmap, emap, mult, sdelta), _log_values(delta)


# -- the metric checks against the unmemoized loop --------------------------------


def _reference_attach_delta(m, delta, setting):
    """The first message of the metric checks, restated from the loop that
    tests both ends of every edge (no memo), or None when they pass.  Delta
    is read as Fractions (None for -inf), the values of ``_fraction``."""
    src = m.source
    for v in src.vertices:
        if v not in delta:
            return f"vertex {v} has no delta value"
    delta = {v: _fraction(delta[v]) for v in src.vertices}
    for v in src.vertices:
        d = delta[v]
        if d is not None and d > 0:
            return f"delta at {v} must be <= 0, got {d}"
        if d is None and v not in src.infinite_leaves:
            return f"delta vanishes at {v}, which is not an infinite leaf"
    for e in src.edge_ids:
        n = m.mult[e]
        u, v = src.endpoints(e)
        l = src.length(e)
        target_l = m.target.length(m.edge_map[e])
        if target_l != (l if l is INF else n * l):  # n >= 1 dilates no tail
            return f"dilation fails on edge {e}: {target_l} != {n} * {l}"
        s_uv = m.sdelta(OrientedEdge(e, True))
        du, dv = delta[u], delta[v]
        if l is INF:
            leaf, s_out, d_leaf, d_inner = (
                (v, s_uv, dv, du) if v in src.infinite_leaves else (u, -s_uv, du, dv)
            )
            expected = _fraction(setting.int_abs(n))
            if d_leaf != expected:
                return (
                    f"delta at infinite leaf {leaf} must be |{n}| = {_text(expected)}, "
                    f"got {_text(d_leaf)}"
                )
            if s_out > 0:
                return f"delta would exceed one along the tail {e}"
            if s_out == 0 and d_leaf != d_inner:
                return f"delta is not constant along the slope-zero tail {e}"
            if s_out < 0 and d_leaf is not None:
                return f"delta must vanish at the end of the descending tail {e}"
        else:
            if du is None or dv is None:
                return f"finite edge {e} has a vanishing endpoint"
            if dv != du + s_uv * l:
                return (
                    f"delta is not linear along edge {e}: {dv} != {du} + {s_uv} * {l}"
                )
        for vert, slope in ((u, s_uv), (v, -s_uv)):
            d = delta[vert]
            verdict = check_restriction(n, slope, NEG_INF if d is None else d, setting)
            if not verdict:
                reason = verdict.reason
                return f"edge {e} fails the slope restriction at {vert}: {reason}"
    return None


def _text(d) -> str:
    """A Fraction delta value as the messages show it, ``-inf`` for None."""
    return "-inf" if d is None else str(d)


# -- seeded mutations ----------------------------------------------------------------


def _random_loop_morphism(rng: random.Random) -> DeltaMorphism:
    """A cover of a target loop, with a path of 0-2 edges hanging off it.

    Over the loop ``f`` at ``x'`` sits a cycle of ``k`` source vertices
    (a source loop when ``k = 1``), each edge of multiplicity ``m``; over
    each path edge sits one edge of multiplicity ``m`` per cycle vertex, or
    two parallel edges of multiplicity one when ``m = 2``.
    """
    k, m = rng.randint(1, 3), rng.randint(1, 2)
    parts = (1, 1) if m == 2 and rng.random() < 0.5 else (m,)
    path = [f"y{j}'" for j in range(rng.randint(0, 2))]
    tgt_genera = {"x'": rng.randint(0, 1), **{y: 0 for y in path}}
    tgt_edges = {"f": ("x'", "x'")}
    genera, vertex_map, edges, edge_map, mult = {}, {}, {}, {}, {}
    for i in range(k):
        genera[f"x{i}"] = rng.randint(0, 1)
        vertex_map[f"x{i}"] = "x'"
        edges[f"c{i}"] = (f"x{i}", f"x{(i + 1) % k}")
        edge_map[f"c{i}"], mult[f"c{i}"] = "f", m
    previous = "x'"
    for j, y in enumerate(path):
        tgt_edges[f"g{j}"] = (previous, y)
        for i in range(k):
            genera[f"y{j}_{i}"] = 0
            vertex_map[f"y{j}_{i}"] = y
            below = f"x{i}" if j == 0 else f"y{j - 1}_{i}"
            for q, n in enumerate(parts):
                edges[f"p{j}_{i}_{q}"] = (below, f"y{j}_{i}")
                edge_map[f"p{j}_{i}_{q}"], mult[f"p{j}_{i}_{q}"] = f"g{j}", n
        previous = y
    return DeltaMorphism(
        GenusGraph(genera, edges),
        GenusGraph(tgt_genera, tgt_edges),
        vertex_map,
        edge_map,
        mult,
        {e: rng.randint(-2, 2) for e in edges},
    )


def proper_mutations(seed: int, count: int):
    """``count`` seeded mutations of proper morphisms, as constructor arguments.

    The bases are ``random_proper_delta_morphism`` draws, covers of a
    target loop (source loops and cycles included) and a point over a
    point.  Each mutation makes one or two edits: delete, swap or zero a
    ``vertex_map``, ``edge_map`` or ``n`` entry (a zeroed map entry points
    at another target vertex or edge), or add an isolated vertex to the
    source or the target.  Yields ``(source, target, vertex_map, edge_map,
    n, sdelta)``; most of them are not proper.
    """
    rng = random.Random(seed)
    for _ in range(count):
        roll = rng.random()
        if roll < 0.75:
            m = random_proper_delta_morphism(rng)
        elif roll < 0.95:
            m = _random_loop_morphism(rng)
        else:
            point = GenusGraph({"a": 0}, {})
            m = DeltaMorphism(point, GenusGraph({"a'": 0}, {}), {"a": "a'"}, {}, {}, {})
        src, tgt = m.source, m.target
        graphs = {
            side: ({v: g.genus_of(v) for v in g.vertices}, {e: g.endpoints(e) for e in g.edge_ids})
            for side, g in (("source", src), ("target", tgt))
        }
        maps = {
            "vertex_map": dict(m.vertex_map),
            "edge_map": dict(m.edge_map),
            "n": dict(m.mult),
        }
        for _ in range(rng.randint(1, 2)):
            op = rng.choice(("delete", "swap", "swap", "zero", "zero", "isolate"))
            if op == "isolate":
                side = rng.choice(("source", "target"))
                name = f"iso{len(graphs[side][0])}"
                graphs[side][0][name] = 0
                if side == "source":
                    maps["vertex_map"][name] = rng.choice(tgt.vertices)
                continue
            key = rng.choice(("vertex_map", "edge_map", "n", "n"))
            entries = maps[key]
            if not entries:
                continue
            a, b = rng.choice(sorted(entries)), rng.choice(sorted(entries))
            if op == "delete":
                del entries[a]
            elif op == "swap":
                entries[a], entries[b] = entries[b], entries[a]
            elif key == "n":
                entries[a] = 0
            else:
                pool = tgt.vertices if key == "vertex_map" else tgt.edge_ids
                entries[a] = rng.choice(pool) if pool else "missing"
        yield (
            GenusGraph(*graphs["source"]),
            GenusGraph(*graphs["target"]),
            maps["vertex_map"],
            maps["edge_map"],
            maps["n"],
            {e: m.sdelta((e, True)) for e in src.edge_ids},
        )


def stabilize_corpus():
    """The morphisms the ``stabilize`` golden covers, as ``(group, morphism)``.

    The 3,000 seed-61 ``random_proper_delta_morphism`` draws, the
    ``wb_subdivided`` fixture and 20 ``subdivide_metric`` draws (seeds
    0-19) of the canonical metric lift of each liftable type.
    """
    rng = random.Random(61)
    for _ in range(3000):
        yield "random_proper_seed61", random_proper_delta_morphism(rng)
    yield "wb_subdivided", _fixture("wb_subdivided")
    for tag in LIFTABLE_TAGS:
        setting = setting_for(tag)
        mm = metric_lift(tag, canonical_lengths(tag, setting), setting)
        for seed in range(20):
            yield f"subdivide_metric_{tag}", subdivide_metric(random.Random(seed), mm)


def json_value_paths(node, prefix=()):
    """The key path of every value below the JSON document ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from json_value_paths(value, prefix + (key,))


def _retyped(rng: random.Random, value):
    """``value`` as a list, null, float, bool or string."""
    kind = rng.choice(("list", "null", "float", "bool", "str"))
    if kind == "list":
        return [value]
    if kind == "null":
        return None
    if kind == "float":
        return float(value) if type(value) is int else 0.5
    if kind == "bool":
        return rng.choice((True, False))
    return str(value) if not isinstance(value, str) else value + "x"


def load_mutations(seed: int, count: int):
    """``count`` seeded mutations of the morphism fixtures, as JSON documents.

    Each mutation makes one or two edits to a fixture: delete a key of
    any object, retype any value to a list, null, float, bool or string,
    repeat a vertex or edge entry of a graph, rename a graph id or a key
    of ``vertex_map``, ``edge_map``, ``n``, ``sdelta`` or ``delta`` (other
    entries still use the old name), or add an isolated vertex to the
    source (mapped to a target vertex) or the target.
    """
    texts = [p.read_text() for p in sorted(FIXTURES.glob("*.morphism.json"))]
    rng = random.Random(seed)
    for _ in range(count):
        data = json.loads(rng.choice(texts))
        for _ in range(rng.randint(1, 2)):
            op = rng.choice(("delete", "retype", "retype", "repeat", "rename", "isolate"))
            side = rng.choice(("source", "target"))
            graph = data.get(side)
            if op in ("repeat", "rename", "isolate") and not (
                isinstance(graph, dict)
                and isinstance(graph.get("vertices"), list)
                and isinstance(graph.get("edges"), list)
            ):
                continue
            if op in ("delete", "retype"):
                paths = list(json_value_paths(data))
                if op == "delete":
                    paths = [p for p in paths if isinstance(p[-1], str)]
                path = rng.choice(paths)
                parent = data
                for key in path[:-1]:
                    parent = parent[key]
                if op == "delete":
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = _retyped(rng, parent[path[-1]])
            elif op == "repeat":
                entries = graph[rng.choice(("vertices", "edges"))]
                if entries:
                    entries.append(rng.choice(entries))
            elif op == "rename":
                names = [k for k in ("vertex_map", "edge_map", "n", "sdelta", "delta")
                         if isinstance(data.get(k), dict) and data[k]]
                if names and rng.random() < 0.5:
                    entries = data[rng.choice(names)]
                    entries["zz"] = entries.pop(rng.choice(sorted(entries)))
                else:
                    entries = graph[rng.choice(("vertices", "edges"))]
                    entry = rng.choice(entries) if entries else None
                    if isinstance(entry, dict):
                        entry["id"] = "zz"
            else:
                graph["vertices"].append({"id": "iso", "genus": 0})
                vmap = data.get("vertex_map")
                if side == "source" and isinstance(vmap, dict) and vmap:
                    vmap["iso"] = rng.choice(sorted(str(v) for v in vmap.values()))
        yield data


# -- every public rational entry ------------------------------------------------------


def _entries():
    """``name -> (call of one value, message[, sign of the value])``: each
    public entry that reads a rational value outside graph lengths and delta,
    which refuse a float and a bool alike (``as_ratio``)."""
    series, setting = ValuedSeries({1: 0, 2: -1}), ResidueSetting.equichar(3)
    line = PMFunction.line((0, 2), 0, 1)

    def segment(value, point="1"):
        return {"breakpoints": ["0", point], "segments": [{"left_value": value, "slope": 1}]}

    return {
        "series value": (lambda x: ValuedSeries({1: x, 2: -1}), "series value of 1"),
        "series map value": (lambda x: tropical_eval({1: x}, (0, 1)), "series value of 1"),
        "left value": (lambda x: PMFunction([0, 1], [x], [1]), "left_values value of 0"),
        "breakpoint": (lambda x: PMFunction([0, x, 2], [0, 0], [0, 0]), "breakpoints value of 1"),
        "JSON left value": (lambda x: PMFunction.from_json_dict(segment(x)), "left_values value of 0"),
        "JSON breakpoint": (lambda x: PMFunction.from_json_dict(segment(0, x)),
                            "breakpoints value of 1"),
        "line domain": (lambda x: PMFunction.line((x, 2), 0, 1), "domain value of 0"),
        "line left value": (lambda x: PMFunction.line((0, 2), x, 1), "left_value"),
        "value_at": (line.value_at, "point"),
        "slope_at": (lambda x: line.slope_at(x, "left"), "point"),
        "achievers_at": (tropical_eval(series, (0, 2)).achievers_at, "point"),
        "profile domain": (lambda x: different_profile(series, setting, (0, x)),
                           "domain value of 1"),
        "image law point": (lambda x: skeleton_image_law(series, x), "at_log_r"),
        "LogAbs": (LogAbs, "log value"),
        "Lengths": (lambda x: Lengths(l1=x), "l1"),
        "mixed log_p": (lambda x: ResidueSetting.mixed(2, x), "log value", -1),
        "ResidueSetting log_p": (lambda x: ResidueSetting(0, 2, x), "log_p", -1),
        "EllipticInput.of": (lambda x: EllipticInput.of(setting, x), "log value"),
        "last breakpoint": (lambda x: PMFunction([0, x], [0], [1]), "breakpoints value of 1"),
        "tropical domain": (lambda x: tropical_eval(series, (0, x)), "domain value of 1"),
    }


# -- one instance of each value class -------------------------------------------------


def _fixture(name):
    return morphism_from_json_dict(
        json.loads((FIXTURES / f"{name}.morphism.json").read_text())
    )


#: One builder per value class; each call makes a fresh, equal instance.
BUILDERS = {
    "ResidueSetting": lambda: ResidueSetting.mixed(2, -1),
    "ValuedSeries": lambda: ValuedSeries({1: 0, 2: Fraction(-1, 2)}),
    "DifferentReport": lambda: DifferentReport(2, 1, LogAbs(-1), 1),
    "Verdict": lambda: Verdict(False, "upper bound attained with s > 0"),
    "Divisor": lambda: Divisor({"a": 2, "b": -1, "c": 0}),
    "RHDivisorReport": lambda: _fixture("wb").rh_divisor_identity(),
    "RHDegreeReport": lambda: _fixture("wb").rh_degree_identity(),
    "BoundaryAnnotation": lambda: BoundaryAnnotation({"v": [(1, 0), (2, 1)]}),
    "CertifyReport": lambda: CertifyReport(False, (("v", 1, 2, 0, 1),)),
    "WideOpenReport": lambda: wide_open_genus_check([(2, 1)], 2, 0, 0),
    "SpecialType": lambda: SpecialType("MSS"),
    "RootSubtree": lambda: RootSubtree(1, (RootSubtree(0), RootSubtree(0))),
    "SpecialCheck": lambda: SpecialCheck(True, "", "wild"),
    "Lengths": lambda: Lengths(Fraction(1, 2), 1, Fraction(1, 6)),
    "EllipticInput": lambda: EllipticInput.of(ResidueSetting.equichar(2), -3),
    "SkeletonReport": lambda: classify_elliptic(
        EllipticInput.of(ResidueSetting.mixed(2, -1), -3)
    ),
    "EdgeRadius": lambda: EdgeRadius(
        PMFunction([Fraction(0), Fraction(1)], [Fraction(1)], [0]), 1
    ),
    "RadialDescription": lambda: degree_p_locus(_fixture("wb_metric"), 2),
    "StrictnessReport": lambda: StrictnessReport(True, "e2"),
}


# -- morphism documents with two faults -----------------------------------------------


DELETE = object()


def _edited(doc, edits):
    doc = copy.deepcopy(doc)
    for *path, value in edits:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        elif path[-1] == "+":
            parent.append(value)
        else:
            parent[path[-1]] = value
    return doc


def _graph(metric=False, a="a", b="b"):
    """Two vertices and two parallel edges ``e`` and ``f``."""
    edges = [{"id": "e", "from": a, "to": b}, {"id": "f", "from": a, "to": b}]
    if metric:
        for edge in edges:
            edge["length"] = "1"
    return {"vertices": [{"id": a, "genus": 0}, {"id": b, "genus": 0}], "edges": edges}


def _morphism(metric=False):
    """The identity of ``_graph`` onto a copy with upper-case ids."""
    target = _graph(metric, "A", "B")
    target["edges"] = [dict(x, id=x["id"].upper()) for x in target["edges"]]
    return {
        "source": _graph(metric),
        "target": target,
        "vertex_map": {"a": "A", "b": "B"},
        "edge_map": {"e": "E", "f": "F"},
        "n": {"e": 1, "f": 1},
        "sdelta": {"e": 0, "f": 0},
    }


V, E = "vertices", "edges"

#: Edits that leave the target disconnected from the image of the source.
UNHIT = {
    "an isolated target vertex": [("target", V, "+", {"id": "C", "genus": 0})],
    "a target component with an edge": [
        ("target", V, "+", {"id": "C", "genus": 0}),
        ("target", V, "+", {"id": "D", "genus": 1}),
        ("target", E, "+", {"id": "G", "from": "C", "to": "D"}),
    ],
}

DISCONNECTED_TARGET_CASES = {
    f"{fault} beside {unhit}": edits + more
    for unhit, edits in UNHIT.items()
    for fault, more in (
        ("an empty fiber", []),
        ("a local-constancy fault", [("n", "e", 2)]),
        ("a missing sdelta", [("sdelta", "e", DELETE)]),
        ("a fault of every kind", [("n", "f", 3), ("sdelta", "f", DELETE)]),
    )
}


def _constructed(doc):
    """``DeltaMorphism(...)`` of a plain morphism document."""
    graphs = (
        GenusGraph(
            {v["id"]: v["genus"] for v in g[V]}, {e["id"]: (e["from"], e["to"]) for e in g[E]}
        )
        for g in (doc["source"], doc["target"])
    )
    maps = (doc[key] for key in ("vertex_map", "edge_map", "n", "sdelta"))
    return DeltaMorphism(*graphs, *maps)


# -- messages that show a long id ----------------------------------------------------


#: A 1,000-character id, and how a message shows it: cut after 400 characters.
LONG = "a" * 1000
SHOWN = "a" * 400 + "... (600 more characters)"


def _long_special(tag: str, old: str, sdelta=None) -> DeltaMorphism:
    """``build_special(tag)`` with ``sdelta`` changed and the id ``old`` renamed ``LONG``."""
    doc = morphism_to_json_dict(build_special(tag))
    doc["sdelta"].update(sdelta or {})
    return morphism_from_json_dict(json.loads(json.dumps(doc).replace(f'"{old}"', f'"{LONG}"')))


def split_leaves(w1: str) -> DeltaMorphism:
    """Two split leaves over one target leaf: ``w1`` has R = 1, ``w2`` R = 3,
    and ``v`` balances them; one target edge leaves no move."""
    return DeltaMorphism(
        GenusGraph({"v": 1, w1: 0, "w2": 0}, {"a": (w1, "v"), "b": ("w2", "v")}),
        GenusGraph({"x": 0, "y": 0}, {"e": ("x", "y")}), {"v": "y", w1: "x", "w2": "x"},
        {"a": "e", "b": "e"}, {"a": 1, "b": 1}, {"a": 1, "b": 3},
    )


def even_slope(e: str) -> DeltaMorphism:
    """TG with three of its tame tails moved behind an inner edge ``e`` of
    label 2 (slope index 3 = 1 + 1 + 1): stable, balanced, mixed."""
    ends = {e: ("r", "c"), "f1": ("c", "l1"), "f2": ("c", "l2"), "f3": ("c", "l3"),
            "g": ("r", "l4")}
    genera = {"r": 1, "c": 0, "l1": 0, "l2": 0, "l3": 0, "l4": 0}
    target = GenusGraph({v + "'": 0 for v in genera},
                        {x + "'": (a + "'", b + "'") for x, (a, b) in ends.items()})
    return DeltaMorphism(GenusGraph(genera, ends), target, {v: v + "'" for v in genera},
                         {x: x + "'" for x in ends}, dict.fromkeys(ends, 2),
                         {**dict.fromkeys(ends, 0), e: -2})


def _tail(ends, leaves) -> GenusGraph:
    """One edge ``LONG`` of infinite length between ``ends``, ending at ``leaves``."""
    return GenusGraph({v: 0 for v in ends}, {LONG: ends}, {LONG: INF}, leaves)


#: name -> (a call that raises or returns a ``SpecialCheck``, its message or
#: reason, which shows a 1,000-character id cut).
LONG_ID_MESSAGES = {
    "certify_skeleton": (lambda: certify_skeleton(build_special("WB"), BoundaryAnnotation(
        {LONG: [(1, 0)]}), True), f"annotation mentions unknown vertex {SHOWN}"),
    "BoundaryAnnotation": (lambda: BoundaryAnnotation({LONG: [(0, 0)]}),
                           f"off-graph branch at {SHOWN} needs n >= 1"),
    "delta_profile": (lambda: MetricDeltaMorphism(DeltaMorphism(
        *[_tail(("a", "b"), ["a", "b"])] * 2, {"a": "a", "b": "b"}, {LONG: LONG}, {LONG: 2},
        {LONG: 0}), {"a": NEG_INF, "b": NEG_INF}, WILD2).delta_profile(LONG),
        f"edge {SHOWN} has no finite endpoint value"),
    "no vertex": (lambda: contract_graph(_tail(("a", "b"), ["b"]), ("leaf", 10 ** 999)),
                  "no vertex 1" + "0" * 399 + "... (600 more characters)"),
    "positive genus": (lambda: contract_graph(GenusGraph({LONG: 1}, {}), ("leaf", LONG)),
                       f"vertex {SHOWN} has positive genus"),
    "not a leaf": (lambda: contract_graph(GenusGraph({LONG: 0}, {}), ("leaf", LONG)),
                   f"vertex {SHOWN} is not a leaf"),
    "valence": (lambda: contract_graph(GenusGraph({LONG: 0}, {}), ("smooth", LONG)),
                f"vertex {SHOWN} does not have valence 2"),
    "loop": (lambda: contract_graph(GenusGraph({LONG: 0}, {"l": (LONG, LONG)}), ("smooth", LONG)),
             f"vertex {SHOWN} is a loop vertex"),
    "isolated leaf": (lambda: contract_graph(GenusGraph({"a": 0, LONG: 0}, {"e": ("a", LONG)},
                      {"e": INF}, [LONG]), ("leaf", "a")),
                      f"removing leaf a would isolate the infinite leaf {SHOWN}"),
    "isolating leaf": (lambda: contract_graph(GenusGraph({"a": 0, LONG: 0}, {"e": ("a", LONG)},
                       {"e": INF}, ["a"]), ("leaf", LONG)),
                       f"removing leaf {SHOWN} would isolate the infinite leaf a"),
    "fiber R": (lambda: contract_morphism(_long_special("WB", "v1"), ("leaf", "v1'")),
                f"fiber vertex {SHOWN} has R = 2 != 0"),
    "special not a leaf": (lambda: is_special(_long_special("TB", "s", {"a": -4})),
                           f"violated(2): vertex {SHOWN} has R = 4 but is not a leaf"),
    "special genus": (lambda: is_special(_long_special("MS", "r", {"e2": -4})),
                      f"violated(2): leaf {SHOWN} has R = -1 and positive genus"),
    "special R < 0": (lambda: is_special(_long_special("TB", "v3", {"e2": -4, "e4": 4})),
                      f"violated(2): leaf {SHOWN} has R = -3 < 0"),
    "special multiplicity": (lambda: is_special(split_leaves(LONG)),
                             f"violated(2): leaf {SHOWN} has R = 1 but multiplicity 1"),
    "special split edge": (lambda: is_special(_long_special("TB", "a", {"a": -4, "b": 4})),
                           f"violated(4): split edge {SHOWN} has nonzero slope"),
    "special even slope": (lambda: is_special(even_slope(LONG)),
                           f"violated(5): edge {SHOWN} has even nonzero slope -2"),
    "Divisor": (lambda: Divisor({10 ** 999: 1.5}),
                "divisor coefficient of vertex 1" + "0" * 399 + "... (600 more characters) "
                "is 1.5, not an integer"),
}
