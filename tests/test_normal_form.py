"""Coercion at the boundary, one validating core behind it.

The public constructors coerce their arguments and the JSON loaders coerce
each value as they read it; both, and the library's own constructions,
then enter the validating cores (``GenusGraph._from_normal``,
``DeltaMorphism._from_normal``, ``Divisor._from_normal``).  These tests
build every morphism of several corpora three ways -- through JSON, through
the public constructors with integer ids, and through the cores -- and check
that the three agree and store data in normal form: exact dicts with
``str`` keys and ``int`` values.
"""

import json
import random
import types
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

from wildskel import LIFTABLE_TAGS, degree_p_locus, metric_lift
from wildskel.delta_morphism import (
    DeltaMorphism,
    IllegalMoveError,
    MetricDeltaMorphism,
    NotProperError,
    applicable_moves,
    contract_graph,
    contract_morphism,
    morphism_from_json_dict,
    morphism_to_json_dict,
    stabilize,
)
from wildskel.genus_graph import Divisor, GenusGraph, OrientedEdge
from wildskel.valuation import INF, LogAbs, ResidueSetting, echo, parse_ratio, scaled

from tests.support import (
    FIXTURES,
    canonical_lengths,
    random_proper_delta_morphism,
    setting_for,
    stabilize_corpus,
)


def corpus():
    """``(name, morphism)``: the fixtures, ``stabilize_corpus`` with the
    ``stabilize`` output of its non-random part, 200 random morphisms and
    the ten metric lifts."""
    for path in sorted(FIXTURES.glob("*.morphism.json")):
        yield path.name, morphism_from_json_dict(json.loads(path.read_text()))
    for group, m in stabilize_corpus():
        yield group, m
        if not group.startswith("random"):
            yield f"stabilize {group}", stabilize(m)
    rng = random.Random(5)
    for i in range(200):
        m = random_proper_delta_morphism(rng)
        yield f"random {i}", m
        if i < 50:
            yield f"stabilize random {i}", stabilize(m)
    for tag in LIFTABLE_TAGS:
        setting = setting_for(tag)
        yield f"lift {tag}", metric_lift(tag, canonical_lengths(tag, setting), setting)


def digit_ids(data: dict) -> dict:
    """``data`` with every other vertex and edge id renamed to a digit string."""
    renames = {}
    for side in ("source", "target"):
        for key in ("vertices", "edges"):
            ids = sorted(item["id"] for item in data[side][key])
            names = {i: str(n) for n, i in enumerate(ids) if n % 2 == 0}
            assert not set(names.values()) & set(ids)
            renames[side, key] = lambda i, names=names: names.get(i, i)
    sv, se = renames["source", "vertices"], renames["source", "edges"]
    tv, te = renames["target", "vertices"], renames["target", "edges"]
    out = {}
    for side, v, e in (("source", sv, se), ("target", tv, te)):
        graph = data[side]
        out[side] = {
            "vertices": [{**item, "id": v(item["id"])} for item in graph["vertices"]],
            "edges": [
                {**item, "id": e(item["id"]), "from": v(item["from"]), "to": v(item["to"])}
                for item in graph["edges"]
            ],
        }
        if "infinite_leaves" in graph:
            out[side]["infinite_leaves"] = [v(x) for x in graph["infinite_leaves"]]
    out["vertex_map"] = {sv(k): tv(x) for k, x in data["vertex_map"].items()}
    out["edge_map"] = {se(k): te(x) for k, x in data["edge_map"].items()}
    out["n"] = {se(k): x for k, x in data["n"].items()}
    out["sdelta"] = {se(k): x for k, x in data["sdelta"].items()}
    if "delta" in data:
        out["delta"] = {sv(k): x for k, x in data["delta"].items()}
        out["setting"] = data["setting"]
    return out


def _int(i: str):
    return int(i) if i.isdigit() else i


def _graph_args(graph: dict, integers: bool):
    """Constructor arguments of a JSON graph, ids as ints where they are digits."""
    ident = _int if integers else str
    genera = {ident(v["id"]): v.get("genus", 0) for v in graph["vertices"]}
    edges = {ident(e["id"]): (ident(e["from"]), ident(e["to"])) for e in graph["edges"]}
    lengths = None
    if any("length" in e for e in graph["edges"]):
        # looked up by the str() of each edge id
        ratios = {e["id"]: parse_ratio(e["length"], "inf") for e in graph["edges"]}
        lengths = {e: r if r is INF else Fraction(*r) for e, r in ratios.items()}
    return genera, edges, lengths, [ident(v) for v in graph.get("infinite_leaves", [])]


def _maps(data: dict, integers: bool):
    ident = _int if integers else str
    maps = [
        {ident(k): ident(x) for k, x in data[key].items()} for key in ("vertex_map", "edge_map")
    ]
    return maps + [{ident(k): x for k, x in data[key].items()} for key in ("n", "sdelta")]


def _delta(data: dict):
    if "delta" not in data:
        return None, None
    delta = {k: LogAbs(x) for k, x in data["delta"].items()}
    return delta, ResidueSetting.parse(data["setting"])


def built_three_ways(data: dict):
    """The morphism of ``data`` from JSON, from the public constructors with
    integer ids, and from the validating cores."""
    from_json = morphism_from_json_dict(data)
    public = DeltaMorphism(
        *(GenusGraph(*_graph_args(data[side], True)) for side in ("source", "target")),
        *_maps(data, True),
    )
    delta, setting = _delta(data)
    if delta is not None:
        public = MetricDeltaMorphism(public, delta, setting)
    graphs = []
    for side in ("source", "target"):
        genera, edges, lengths, leaves = _graph_args(data[side], False)
        den = 1
        if lengths is not None:  # the core takes numerators over one denominator
            ratios = {e: l if l is INF else l.as_integer_ratio() for e, l in lengths.items()}
            den, lengths = scaled(ratios, INF)
        graphs.append(GenusGraph._from_normal(genera, edges, den, lengths, frozenset(leaves)))
    den = 1
    if delta is not None:
        ratios = {v: None if d.is_neg_inf else d.value.as_integer_ratio() for v, d in delta.items()}
        den, delta = scaled(ratios, None)
    core = DeltaMorphism._from_normal(*graphs, *_maps(data, False), den, delta, setting)
    return from_json, public, core


def normal_form_faults(m) -> list:
    """What in ``m`` (and the divisors it builds) is not an exact ``str``-keyed dict
    with ``str`` or ``int`` values, a stored branch that is not an exact
    ``(str, bool)`` tuple or a vertex whose branches are not in edge-id order,
    a ``vertex_mult``, ``_indices``, ``_delta_coefficients`` or fiber that is
    not in source vertex order, and a divisor that holds a zero or whose keys
    are not in sorted order."""
    faults = []

    def check(name, d, value_type):
        if type(d) is not dict:
            faults.append(f"{name} is a {type(d).__name__}")
            return
        for k, x in d.items():
            if type(k) is not str or (value_type is not None and type(x) is not value_type):
                faults.append(f"{name} has {k!r}: {x!r}")

    for side, g in (("source", m.source), ("target", m.target)):
        check(f"{side} genera", g._genus, int)
        check(f"{side} ends", g._ends, tuple)
        check(f"{side} branches", g._branches, tuple)
        for v, bs in g._branches.items():  # plain (edge, forward) pairs in edge-id order
            if any(type(b) is not tuple or len(b) != 2 or type(b[0]) is not str
                   or type(b[1]) is not bool for b in bs):
                faults.append(f"{side} branches at {v} are {bs!r}")
            elif [b[0] for b in bs] != sorted(b[0] for b in bs):
                faults.append(f"{side} branches at {v} are out of edge-id order: {bs!r}")
        for e, ends in g._ends.items():
            if any(type(v) is not str for v in ends):
                faults.append(f"{side} edge {e} has ends {ends!r}")
        if g.is_metric:  # integer numerators over one minimal denominator
            check(f"{side} lengths", g._lengths, None)
            finite = [x for x in g._lengths.values() if x is not INF]
            if any(type(x) is not int for x in finite) or gcd(g._den, *finite) != 1:
                faults.append(f"{side} lengths {g._lengths!r} over {g._den!r}")
        if type(g.infinite_leaves) is not frozenset or any(
            type(v) is not str for v in g.infinite_leaves
        ):
            faults.append(f"{side} infinite leaves {g.infinite_leaves!r}")
    for name in ("vertex_map", "edge_map"):
        check(name, getattr(m, name), str)
    for name in ("mult", "_sdelta", "vertex_mult", "_indices", "_delta_coefficients"):
        check(name, getattr(m, name), int)
    # the divisors are built from these without sorting
    for name in ("vertex_mult", "_indices", "_delta_coefficients"):
        if tuple(getattr(m, name)) != m.source.vertices:
            faults.append(f"{name} is not in source vertex order: {list(getattr(m, name))!r}")
    check("fibers", m.fibers, tuple)
    for v2, vs in m.fibers.items():
        if list(vs) != sorted(vs):
            faults.append(f"fibers[{v2!r}] is not in source vertex order: {vs!r}")
    if m.delta is not None:
        check("delta", m.delta, LogAbs)
        finite = [x for x in m._delta.values() if x is not None]
        if any(type(x) is not int for x in finite) or gcd(m._delta_den, *finite) != 1:
            faults.append(f"delta {m._delta!r} over {m._delta_den!r}")
    report = m.rh_divisor_identity()
    divisors = [report.canonical, report.pullback_canonical, report.ramification, report.delta]
    divisors += [m.ramification_divisor(), m.delta_divisor(), m.source.canonical_divisor()]
    divisors.append(m.pullback(m.target.canonical_divisor()))
    for d in divisors:
        check("divisor", d.coefficients, int)
        if list(d.coefficients) != sorted(d.coefficients) or 0 in d.coefficients.values():
            faults.append(f"divisor {d.coefficients!r} is not in normal form")
    return faults


def test_three_ways_agree_and_store_normal_form():
    count = 0
    for name, m in corpus():
        data = digit_ids(morphism_to_json_dict(m))
        first, *others = built_three_ways(data)
        for other in others:
            assert other.source == first.source and other.target == first.target, name
            assert morphism_to_json_dict(other) == morphism_to_json_dict(first), name
            assert other.rh_divisor_identity() == first.rh_divisor_identity(), name
            assert other.rh_degree_identity() == first.rh_degree_identity(), name
            assert other.ramification_divisor() == first.ramification_divisor(), name
            assert other.delta_divisor() == first.delta_divisor(), name
        for built in (m, first, *others):
            assert normal_form_faults(built) == [], name
        count += 1
    assert count > 3_300


def test_normal_form_faults_names_a_divisor_out_of_order():
    m = random_proper_delta_morphism(random.Random(8))
    assert normal_form_faults(m) == []
    m._indices = {v: 1 for v in reversed(m.source.vertices)}  # nonzero, reversed
    assert normal_form_faults(m) == [
        f"_indices is not in source vertex order: {list(m._indices)!r}",
        f"divisor {m.ramification_divisor().coefficients!r} is not in normal form",
    ]


@pytest.mark.parametrize("name", ["vertex_mult", "_indices", "_delta_coefficients"])
def test_normal_form_faults_names_a_vertex_map_out_of_order(name):
    # the divisors built from these maps show it too, but only where two
    # coefficients are nonzero; the order is named on its own
    m = random_proper_delta_morphism(random.Random(8))
    stored = dict(reversed(getattr(m, name).items()))
    setattr(m, name, stored)
    assert normal_form_faults(m)[0] == (
        f"{name} is not in source vertex order: {list(stored)!r}"
    )


def test_normal_form_faults_names_a_fiber_out_of_order():
    m = random_proper_delta_morphism(random.Random(8))
    v2 = next(v2 for v2, vs in m.fibers.items() if len(vs) > 1)
    m.fibers = {**m.fibers, v2: m.fibers[v2][::-1]}
    assert normal_form_faults(m) == [
        f"fibers[{v2!r}] is not in source vertex order: {m.fibers[v2]!r}"
    ]


def test_normal_form_faults_names_a_named_or_unordered_branch():
    m = random_proper_delta_morphism(random.Random(8))
    v = next(v for v in m.source.vertices if len(m.source._branches[v]) > 1)
    stored = m.source._branches[v]
    m.source._branches[v] = m.source.branches(v)  # OrientedEdges, not plain pairs
    assert normal_form_faults(m) == [f"source branches at {v} are {m.source.branches(v)!r}"]
    m.source._branches[v] = stored[::-1]
    assert normal_form_faults(m) == [
        f"source branches at {v} are out of edge-id order: {stored[::-1]!r}"
    ]


def test_branches_name_the_stored_pairs():
    """``branches`` makes OrientedEdges that equal and hash like the stored
    pairs; ``head``, ``sdelta`` and ``slope_index`` read a pair as they read
    its OrientedEdge; and ``applicable_moves`` is exactly the set of moves
    that ``contract_morphism`` accepts."""
    count = 0
    for name, m in corpus():
        for g in (m.source, m.target):
            for v in g.vertices:
                named, stored = g.branches(v), g._branches[v]
                assert [type(b) for b in named] == [OrientedEdge] * len(stored), name
                assert named == stored and list(map(hash, named)) == list(map(hash, stored))
                for b, pair in zip(named, stored):
                    back, pair_back = OrientedEdge(b.edge, not b.forward), (pair[0], not pair[1])
                    assert back == pair_back and g.head(back) == g.head(pair_back), name
                    assert g.head(pair) == g.head(b), name
                    if g is m.source:
                        assert m.sdelta(pair) == m.sdelta(b), name
                        assert m.slope_index(pair) == m.slope_index(b), name
        accepted = set()
        for v2 in m.target.vertices:
            for kind in ("leaf", "smooth"):
                try:
                    contract_morphism(m, (kind, v2))
                except IllegalMoveError:
                    continue
                accepted.add((kind, v2))
        assert set(applicable_moves(m)) == accepted, name
        count += 1
    assert count > 3_300


def test_contractions_agree_with_the_public_constructor():
    """``contract_graph``, the radial centre and divisor arithmetic, which
    enter the cores, build what the public constructors build."""
    for tag in LIFTABLE_TAGS:
        setting = setting_for(tag)
        mm = metric_lift(tag, canonical_lengths(tag, setting), setting)
        src = mm.source
        center = degree_p_locus(mm, 2).center
        assert center == GenusGraph(
            {v: center.genus_of(v) for v in center.vertices},
            {e: center.endpoints(e) for e in center.edge_ids},
            {e: center.length(e) for e in center.edge_ids},
            center.infinite_leaves,
        )
        for v in src.vertices:
            for kind in ("leaf", "smooth"):
                try:
                    g = contract_graph(src, (kind, v))
                except ValueError:
                    continue
                public = GenusGraph(
                    {w: g.genus_of(w) for w in g.vertices},
                    {e: g.endpoints(e) for e in g.edge_ids},
                    {e: g.length(e) for e in g.edge_ids},
                    g.infinite_leaves,
                )
                assert g == public and g.to_json_dict() == public.to_json_dict()
        k, r = src.canonical_divisor(), mm.ramification_divisor()
        for d in (k + r, k - r, r - r, mm.pullback(mm.target.canonical_divisor())):
            assert d == Divisor(dict(d.coefficients))
            assert type(d.coefficients) is dict and 0 not in d.coefficients.values()
            assert list(d.coefficients) == sorted(d.coefficients)


def _integer_keyed(data: dict) -> dict:
    """``data`` with digit-string keys (and map values) as ints."""
    out = dict(data)
    for key in ("vertex_map", "edge_map"):
        out[key] = {_int(k): _int(x) for k, x in data[key].items()}
    for key in ("n", "sdelta"):
        out[key] = {_int(k): x for k, x in data[key].items()}
    return out


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.morphism.json")))
def test_integer_keys_of_a_mapping_load_like_strings(fixture):
    data = digit_ids(json.loads((FIXTURES / fixture).read_text()))
    want = morphism_to_json_dict(morphism_from_json_dict(data))
    integer_keys = _integer_keyed(data)
    for wrap in (dict, types.MappingProxyType):
        proxy = {k: wrap(x) if isinstance(x, dict) else x for k, x in integer_keys.items()}
        m = morphism_from_json_dict(proxy)
        assert morphism_to_json_dict(m) == want
        assert normal_form_faults(m) == []


def test_integer_and_string_key_of_a_mapping_keep_the_last():
    """Keyed by ``str()``, ``1`` beside ``"1"`` keeps the last value, as before."""
    data = digit_ids(json.loads((FIXTURES / "wb.morphism.json").read_text()))
    edge = next(k for k in data["sdelta"] if k.isdigit())
    for key in ("n", "sdelta"):
        given = dict(data)
        given[key] = {int(edge): 7, **data[key]}
        assert morphism_to_json_dict(morphism_from_json_dict(given)) == morphism_to_json_dict(
            morphism_from_json_dict(data)
        )


def test_callers_dicts_are_copied():
    """Mutating what was passed to a public constructor or a loader, after
    the call, leaves the built objects unchanged."""
    setting = setting_for("WB")
    data = morphism_to_json_dict(metric_lift("WB", canonical_lengths("WB", setting), setting))
    genera, edges, lengths, leaves = _graph_args(data["source"], False)
    g = GenusGraph(genera, edges, lengths, leaves)
    tg = GenusGraph(*_graph_args(data["target"], False))
    maps = _maps(data, False)
    m = DeltaMorphism(g, tg, *maps)
    delta, setting = _delta(data)
    metric = MetricDeltaMorphism(m, delta, setting)
    coefficients = {"a": 1, "b": -2}
    d = Divisor(coefficients)
    loaded = morphism_from_json_dict(data)
    before = (
        morphism_to_json_dict(metric), morphism_to_json_dict(loaded), g.to_json_dict(), repr(d)
    )
    for mapping in (genera, edges, lengths, coefficients, delta, *maps):
        mapping.clear()
        mapping["zz"] = None
    leaves.append("zz")
    for side in ("source", "target"):
        data[side]["vertices"].clear()
        data[side]["edges"][0]["from"] = "zz"
    for key in ("vertex_map", "edge_map", "n", "sdelta", "delta"):
        data[key].clear()
    after = (
        morphism_to_json_dict(metric), morphism_to_json_dict(loaded), g.to_json_dict(), repr(d)
    )
    assert after == before
    assert normal_form_faults(metric) == [] and normal_form_faults(loaded) == []


def test_public_constructor_precedence():
    """The metric check runs before any map is read.  The public constructor
    then coerces all four maps before the core checks, so a value that
    ``int()`` cannot convert raises before a properness fault, also in
    ``sdelta``, whose values the checks read last."""
    data = json.loads((FIXTURES / "wb.morphism.json").read_text())
    metric = json.loads((FIXTURES / "wb_metric.morphism.json").read_text())
    source = GenusGraph(*_graph_args(data["source"], False))
    target = GenusGraph(*_graph_args(data["target"], False))
    metric_target = GenusGraph(*_graph_args(metric["target"], False))
    vertex_map, edge_map, mult, sdelta = _maps(data, False)
    kinds = "source and target must both be metric or both plain"
    for maps in ((None, None, None, None), (vertex_map, edge_map, {"a": "x"}, sdelta)):
        with pytest.raises(ValueError, match=kinds):
            DeltaMorphism(source, metric_target, *maps)
    with pytest.raises(ValueError, match=kinds):
        DeltaMorphism._from_normal(source, metric_target, vertex_map, edge_map, mult, sdelta)
    unmapped = {v: x for v, x in vertex_map.items() if v != source.vertices[0]}
    with pytest.raises(NotProperError, match="is not mapped to a target vertex"):
        DeltaMorphism(source, target, unmapped, edge_map, mult, sdelta)
    for name, bad in (
        ("mult", ({**mult, "a": "x"}, sdelta)), ("sdelta", (mult, {**sdelta, "a": "x"}))
    ):
        with pytest.raises(ValueError) as caught:
            DeltaMorphism(source, target, unmapped, edge_map, *bad)
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"{name} value of 'a' is 'x', not an integer"


@pytest.mark.parametrize("value", [None, [1], {}, "1.5", "x", object()])
def test_public_constructors_name_a_value_int_cannot_read(value):
    """``int()`` raised a bare TypeError or a ValueError without the entry."""
    with pytest.raises(ValueError) as caught:
        GenusGraph({"a": value}, {})
    assert str(caught.value) == f"genera value of 'a' is {echo(value)}, not an integer"
    line = GenusGraph({"a": 0, "b": 0}, {"e": ("a", "b")})
    vertex_map, edge_map = {"a": "a", "b": "b"}, {"e": "e"}
    for name, maps in ("mult", ({"e": value}, {"e": 0})), ("sdelta", ({"e": 1}, {"e": value})):
        with pytest.raises(ValueError) as caught:
            DeltaMorphism(line, line, vertex_map, edge_map, *maps)
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"{name} value of 'e' is {echo(value)}, not an integer"


@pytest.mark.parametrize(
    "value", [Fraction(3, 2), Fraction(-1, 3), Decimal("1.9"), Decimal("Infinity")]
)
def test_public_constructors_reject_a_value_int_would_round(value):
    """``int()`` truncated a Fraction or a Decimal: genus ``Fraction(3, 2)``
    and genus ``Decimal('1.9')`` both built genus 1."""
    with pytest.raises(ValueError) as caught:
        GenusGraph({"a": value}, {})
    assert str(caught.value) == f"genera value of 'a' is {value!r}, not an integer"
    line = GenusGraph({"a": 0, "b": 0}, {"e": ("a", "b")})
    vertex_map, edge_map = {"a": "a", "b": "b"}, {"e": "e"}
    for name, maps in ("mult", ({"e": value}, {"e": 0})), ("sdelta", ({"e": 1}, {"e": value})):
        with pytest.raises(ValueError) as caught:
            DeltaMorphism(line, line, vertex_map, edge_map, *maps)
        assert str(caught.value) == f"{name} value of 'e' is {value!r}, not an integer"


@pytest.mark.parametrize("value", [Fraction(2), Decimal("2"), "2", 2])
def test_public_constructors_keep_an_integral_value(value):
    assert GenusGraph({"a": value}, {}).genus_of("a") == 2
    line = GenusGraph({"a": 0, "b": 0}, {"e": ("a", "b")})
    m = DeltaMorphism(line, line, {"a": "a", "b": "b"}, {"e": "e"}, {"e": value}, {"e": value})
    data = morphism_to_json_dict(m)
    assert (data["n"], data["sdelta"]) == ({"e": 2}, {"e": 2})


@pytest.mark.parametrize("value", [1.5, 1.9, True, False])
def test_public_constructors_reject_floats_and_bools(value):
    """``int()`` truncated a float and took a bool: genus 1.5 built genus 1,
    and ``mult`` 1.9 stored 1.  The rejection keeps its place before the core
    checks, like a value that ``int()`` cannot convert."""
    with pytest.raises(ValueError) as caught:
        GenusGraph({"a": value}, {})
    assert str(caught.value) == f"genera value of 'a' is {value!r}, not an integer"
    data = json.loads((FIXTURES / "wb.morphism.json").read_text())
    source = GenusGraph(*_graph_args(data["source"], False))
    target = GenusGraph(*_graph_args(data["target"], False))
    vertex_map, edge_map, mult, sdelta = _maps(data, False)
    unmapped = {v: x for v, x in vertex_map.items() if v != source.vertices[0]}
    for name, bad in (
        ("mult", ({**mult, "a": value}, sdelta)),
        ("sdelta", (mult, {**sdelta, "a": value})),
    ):
        for vmap in vertex_map, unmapped:
            with pytest.raises(ValueError) as caught:
                DeltaMorphism(source, target, vmap, edge_map, *bad)
            assert type(caught.value) is ValueError
            assert str(caught.value) == f"{name} value of 'a' is {value!r}, not an integer"
