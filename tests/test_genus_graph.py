import copy
import pickle
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildskel.genus_graph import (
    DisconnectedError,
    Divisor,
    GenusGraph,
    MetricGenusGraph,
    OrientedEdge,
)
from wildskel.valuation import INF

from tests.support import random_genus_graph


def triangle():
    return GenusGraph(
        {"a": 0, "b": 0, "c": 0},
        {"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a")},
    )


class TestGenus:
    def test_single_genus_one_vertex(self):
        g = GenusGraph({"v": 1}, {})
        assert g.genus() == 1

    def test_two_parallel_edges(self):
        g = GenusGraph({"a": 0, "b": 0}, {"e": ("a", "b"), "f": ("a", "b")})
        assert g.genus() == 1

    def test_triangle(self):
        assert triangle().genus() == 1

    def test_disconnected(self):
        g = GenusGraph({"a": 0, "b": 0}, {})
        with pytest.raises(DisconnectedError):
            g.genus()

    def test_loop_counts_in_h1(self):
        g = GenusGraph({"v": 0}, {"l": ("v", "v")})
        assert g.genus() == 1
        assert g.valence("v") == 2


class TestCanonicalDivisor:
    def test_single_genus_one(self):
        g = GenusGraph({"v": 1}, {})
        k = g.canonical_divisor()
        assert k == Divisor({})
        assert k.degree() == 0

    def test_path_of_two(self):
        g = GenusGraph({"a": 0, "b": 0}, {"e": ("a", "b")})
        k = g.canonical_divisor()
        assert k == Divisor({"a": -1, "b": -1})
        assert k.degree() == -2

    def test_two_parallel_edges(self):
        g = GenusGraph({"a": 0, "b": 0}, {"e": ("a", "b"), "f": ("a", "b")})
        k = g.canonical_divisor()
        assert k == Divisor({})
        assert k.degree() == 0 == 2 * g.genus() - 2

    def test_degree_formula_random(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 8)
            genera = {f"v{i}": rng.randint(0, 3) for i in range(n)}
            names = list(genera)
            edges = {}
            for i in range(1, n):
                edges[f"t{i}"] = (names[rng.randrange(i)], names[i])
            for j in range(rng.randint(0, 4)):
                edges[f"x{j}"] = (rng.choice(names), rng.choice(names))
            g = GenusGraph(genera, edges)
            assert g.canonical_divisor().degree() == 2 * g.genus() - 2


class TestDivisor:
    def test_degree(self):
        assert Divisor({}).degree() == 0
        assert Divisor({"v": 3}).degree() == 3

    def test_arithmetic(self):
        d = Divisor({"a": 1, "b": 2})
        e = Divisor({"b": -2, "c": 1})
        assert d + e == Divisor({"a": 1, "c": 1})
        assert d - d == Divisor({})

    @pytest.mark.parametrize("other", [3, None, {"a": 1}], ids=["int", "none", "dict"])
    def test_arithmetic_with_a_non_divisor_is_a_type_error(self, other):
        """``+`` and ``-`` read ``other.coefficients`` and raised AttributeError."""
        d = Divisor({"a": 1})
        assert d.__add__(other) is NotImplemented and d.__sub__(other) is NotImplemented
        for combine in (
            lambda: d + other, lambda: d - other, lambda: other + d, lambda: other - d
        ):
            with pytest.raises(TypeError):
                combine()

    @pytest.mark.parametrize(
        "value, shown",
        [(0.4, "0.4"), (1.9, "1.9"), (2.0, "2.0"), ("3", "'3'"), (True, "True")],
        ids=["float-below-one", "float", "integral-float", "str", "bool"],
    )
    def test_coefficient_must_be_an_int(self, value, shown):
        """A coefficient was filtered as nonzero and then passed to int(),
        which stored 0.4 as a zero, truncated 1.9 and took "3"."""
        message = f"divisor coefficient of vertex a is {shown}, not an integer"
        with pytest.raises(ValueError) as info:
            Divisor({"b": 1, "a": value})
        assert str(info.value) == message

    def test_ids_equal_as_strings_rejected(self):
        for coefficients in ({1: 2, "1": 3}, {"1": 0, 1: 0}):
            with pytest.raises(ValueError) as info:
                Divisor(coefficients)
            assert str(info.value) == "divisor repeats vertex id '1'"

    def test_zeros_dropped_after_the_check(self):
        d = Divisor({"a": 0, 1: 2})
        assert d.coefficients == {"1": 2} and type(d.coefficients) is dict
        assert Divisor({"a": 0}) == Divisor({}) and hash(Divisor({"a": 0})) == hash(Divisor({}))
        assert Divisor([("a", 1), ("b", 0)]) == Divisor({"a": 1})

    def test_coefficient_reads_an_integer_id(self):
        """The constructor keys ``1`` by ``"1"``; the reader read ``1`` as 0."""
        d = Divisor({1: 3, "b": -1})
        assert (d.coefficient(1), d.coefficient("1"), d.coefficient("b")) == (3, 3, -1)
        assert (d.coefficient(2), d.coefficient("x")) == (0, 0)

    @pytest.mark.parametrize("v, shown", [(1.0, "1.0"), (True, "True"), (None, "None")])
    def test_coefficient_refuses_a_non_id(self, v, shown):
        with pytest.raises(ValueError) as info:
            Divisor({1: 3}).coefficient(v)
        assert (type(info.value), str(info.value)) == (
            ValueError, f"divisor vertex {shown} is not a string or an integer"
        )

    def test_constructor_sorts_unsorted_and_integer_keys(self):
        d = Divisor({"b": 1, 10: 2, 2: -1, "a": 0, "1": 4})
        assert list(d.coefficients) == ["1", "10", "2", "b"]
        assert d == Divisor({"1": 4, "10": 2, "2": -1, "b": 1})
        assert d.to_json_dict() == {"1": 4, "10": 2, "2": -1, "b": 1}

    def test_arithmetic_keeps_sorted_order(self):
        d = Divisor({"a": 1, "c": 2, "e": 3, "g": 0})
        e = Divisor({"b": -1, "c": -2, "d": 4, "f": 5})
        for result in (d + e, e + d, d - e, e - d, d - d, e + e):
            assert list(result.coefficients) == sorted(result.coefficients)
            assert 0 not in result.coefficients.values()
        assert list((d + e).coefficients) == ["a", "b", "d", "e", "f"]
        assert list((e - d).coefficients) == ["a", "b", "c", "d", "e", "f"]

    def test_repr_hash_and_json_read_the_sorted_form(self):
        rng = random.Random(3)
        for _ in range(300):
            ids = rng.sample(["a", "b", "c", "10", "2", "v1", "v10", 3, 11], rng.randint(0, 6))
            d = Divisor({v: rng.randint(-3, 3) for v in ids})
            d = d + Divisor({v: rng.randint(-3, 3) for v in ids[:3]}) if ids else d
            items = sorted(d.coefficients.items())
            terms = " + ".join(f"{c}*{v}" for v, c in items)
            assert repr(d) == (f"Divisor({terms})" if items else "Divisor(0)")
            assert hash(d) == hash(tuple(items))
            assert list(d.to_json_dict().items()) == items


class TestBranches:
    def test_loop_contributes_two_branches(self):
        g = GenusGraph({"v": 0}, {"l": ("v", "v")})
        assert len(g.branches("v")) == 2

    def test_heads(self):
        g = triangle()
        assert g.head(OrientedEdge("ab", True)) == "b"
        assert g.head(OrientedEdge("ab", False)) == "a"


class TestMetric:
    def test_tail_marking(self):
        g = MetricGenusGraph(
            {"a": 0, "l": 0},
            {"e": ("a", "l")},
            {"e": INF},
            infinite_leaves=["l"],
        )
        assert g.length("e") is INF
        assert g.infinite_leaves == frozenset({"l"})

    def test_infinite_length_requires_leaf(self):
        with pytest.raises(ValueError):
            MetricGenusGraph({"a": 0, "b": 0}, {"e": ("a", "b")}, {"e": INF})

    def test_finite_tail_rejected(self):
        with pytest.raises(ValueError):
            MetricGenusGraph(
                {"a": 0, "l": 0},
                {"e": ("a", "l")},
                {"e": Fraction(1)},
                infinite_leaves=["l"],
            )

    def test_infinite_leaf_needs_genus_zero(self):
        with pytest.raises(ValueError):
            MetricGenusGraph(
                {"a": 0, "l": 1},
                {"e": ("a", "l")},
                {"e": INF},
                infinite_leaves=["l"],
            )

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            MetricGenusGraph({"a": 0, "b": 0}, {"e": ("a", "b")}, {"e": 0})

    @pytest.mark.parametrize("value", [0.1, 1.0, True])
    def test_float_or_bool_length_rejected(self, value):
        """A float is not taken as its binary fraction, nor a bool as 1."""
        with pytest.raises(ValueError) as info:
            GenusGraph({"a": 0, "b": 0}, {"e": ("a", "b")}, {"e": value})
        assert str(info.value) == f"lengths value of 'e' is {value!r}, not a rational or inf"

    def test_float_length_after_the_first_rejected_one(self):
        """The lengths are read in the core's order, up to the first it rejects."""
        edges = {"a": ("u", "v"), "b": ("u", "v")}
        with pytest.raises(ValueError, match="^edge a has nonpositive length -1$"):
            GenusGraph({"u": 0, "v": 0}, edges, {"a": -1, "b": 0.5})
        with pytest.raises(ValueError, match="^edge a has no length$"):
            GenusGraph({"u": 0, "v": 0}, edges, {"b": 0.5})


class TestJson:
    def test_roundtrip_plain(self):
        g = triangle()
        assert GenusGraph.from_json_dict(g.to_json_dict()) == g

    def test_roundtrip_metric(self):
        g = MetricGenusGraph(
            {"a": 0, "b": 1, "l": 0},
            {"e": ("a", "b"), "t": ("b", "l")},
            {"e": Fraction(3, 2), "t": INF},
            infinite_leaves=["l"],
        )
        assert GenusGraph.from_json_dict(g.to_json_dict()) == g


class TestEqualityAndHash:
    def test_plain_and_metric_graphs_differ(self):
        plain = GenusGraph({"a": 0, "b": 0}, {"e": ("a", "b")})
        metric = MetricGenusGraph({"a": 0, "b": 0}, {"e": ("a", "b")}, {"e": 1})
        assert plain != metric
        assert metric != plain
        assert len({plain, metric}) == 2

    def test_lengths_select_the_metric_class(self):
        g = GenusGraph({"a": 0, "b": 0}, {"e": ("a", "b")}, {"e": 1})
        assert isinstance(g, MetricGenusGraph)
        assert g == MetricGenusGraph({"a": 0, "b": 0}, {"e": ("a", "b")}, {"e": 1})
        assert not isinstance(triangle(), MetricGenusGraph)
        assert isinstance(GenusGraph.from_json_dict(g.to_json_dict()), MetricGenusGraph)
        assert not isinstance(
            GenusGraph.from_json_dict(triangle().to_json_dict()), MetricGenusGraph
        )

    @pytest.mark.parametrize(
        "how",
        [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_and_pickle_keep_class_and_value(self, how):
        metric = MetricGenusGraph({"a": 0, "b": 0}, {"e": ("a", "b")}, {"e": 1})
        for g in (triangle(), metric):
            again = how(g)
            assert type(again) is type(g) and again == g
            assert again.branches("a") == g.branches("a")

    def test_a_foreign_object_is_unequal(self):
        assert triangle() != 1 and not triangle() == 1

    def test_infinite_leaves_need_lengths(self):
        with pytest.raises(ValueError, match="require edge lengths"):
            GenusGraph({"a": 0, "l": 0}, {"e": ("a", "l")}, infinite_leaves=["l"])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.booleans(), st.booleans())
    def test_equal_graphs_hash_equal(self, seed, metric_a, metric_b):
        rng = random.Random(seed)
        a = random_genus_graph(rng, metric_a)
        # the same random draw again, with or without lengths
        b = random_genus_graph(random.Random(seed), metric_b)
        c = random_genus_graph(rng, metric_b)
        again = GenusGraph.from_json_dict(a.to_json_dict())
        for x, y in ((a, b), (a, c), (b, c), (a, again)):
            if x == y:
                assert hash(x) == hash(y)
        assert (a == b) == (metric_a == metric_b)


class TestJsonInputContract:
    def test_vertex_entry_must_be_an_object(self):
        with pytest.raises(ValueError, match="vertices entry 'a' is not an object"):
            GenusGraph.from_json_dict({"vertices": ["a", "b"], "edges": []})

    def test_edge_entry_must_be_an_object(self):
        data = {"vertices": [{"id": "a"}, {"id": "b"}], "edges": [["a", "b"]]}
        with pytest.raises(ValueError, match="edges entry"):
            GenusGraph.from_json_dict(data)

    @pytest.mark.parametrize("metric", [False, True])
    def test_mapping_entries_load_like_dicts(self, metric):
        data = random_genus_graph(random.Random(5), metric).to_json_dict()
        proxied = dict(data)
        for key in ("vertices", "edges"):
            proxied[key] = [types.MappingProxyType(item) for item in data[key]]
        assert GenusGraph.from_json_dict(types.MappingProxyType(proxied)) == (
            GenusGraph.from_json_dict(data)
        )

    @pytest.mark.parametrize("proxy", [False, True])
    @pytest.mark.parametrize("key", ["from", "to"])
    def test_missing_end_names_the_edge(self, key, proxy):
        edge = {"id": "a", "from": "u", "to": "v"}
        del edge[key]
        data = {
            "vertices": [{"id": "u"}, {"id": "v"}],
            "edges": [types.MappingProxyType(edge) if proxy else edge],
        }
        with pytest.raises(ValueError) as info:
            GenusGraph.from_json_dict(data)
        assert str(info.value) == f"edge a lacks key {key!r}"


    @pytest.mark.parametrize(
        "genera, edges, message",
        [
            ({1: 0, "1": 1}, {}, "graph repeats vertex id '1'"),
            ({"a": 0, "b": 0}, {7: ("a", "b"), "7": ("b", "a")}, "graph repeats edge id '7'"),
        ],
        ids=["vertex", "edge"],
    )
    def test_ids_equal_as_strings_rejected(self, genera, edges, message):
        """Ids are keyed by str(): 1 beside "1" would merge two entries."""
        with pytest.raises(ValueError) as info:
            GenusGraph(genera, edges)
        assert str(info.value) == message

    def test_integer_edge_id_of_a_metric_graph_loads(self):
        data = {
            "vertices": [{"id": "a"}, {"id": "b"}],
            "edges": [{"id": 7, "from": "a", "to": "b", "length": "1"}],
        }
        g = GenusGraph.from_json_dict(data)
        assert g.edge_ids == ("7",) and g.length("7") == 1


class TestIdRule:
    """Edge ends and infinite leaves are ids: a string or an integer."""

    @pytest.mark.parametrize("value", [1.5, True, None, ["a"], {"a": 0}])
    @pytest.mark.parametrize("key", ["from", "to"])
    def test_loader_end_not_an_id(self, key, value):
        data = {
            "vertices": [{"id": "a"}, {"id": "b"}],
            "edges": [{"id": "e", "from": "a", "to": "b"}, {"id": "f", "from": "a", "to": "b"}],
        }
        data["edges"][1][key] = value
        with pytest.raises(ValueError) as info:
            GenusGraph.from_json_dict(data)
        assert str(info.value) == f"edge f {key} {value!r} is not a string or an integer"

    def test_loader_integer_ends_are_ids(self):
        data = {
            "vertices": [{"id": 1}, {"id": "2"}],
            "edges": [{"id": "e", "from": 1, "to": 2}],
        }
        assert GenusGraph.from_json_dict(data).endpoints("e") == ("1", "2")

    @pytest.mark.parametrize("value", [["b"], 1.5, False, None])
    def test_loader_leaf_not_an_id(self, value):
        data = {
            "vertices": [{"id": "a"}, {"id": "b"}],
            "edges": [{"id": "e", "from": "a", "to": "b", "length": "inf"}],
            "infinite_leaves": [value],
        }
        with pytest.raises(ValueError) as info:
            GenusGraph.from_json_dict(data, "source graph")
        assert str(info.value) == (
            f"source graph infinite_leaves entry {value!r} is not a string or an integer"
        )

    @pytest.mark.parametrize("value", [1.5, True, None, ("a",)])
    def test_constructor_end_not_an_id(self, value):
        with pytest.raises(ValueError) as info:
            GenusGraph({"a": 0, "b": 0}, {"e": ("a", "b"), 7: (value, "b")})
        assert str(info.value) == f"edge 7 from {value!r} is not a string or an integer"

    def test_constructor_leaf_not_an_id(self):
        with pytest.raises(ValueError) as info:
            GenusGraph({"a": 0, "b": 0}, {"e": ("a", "b")}, {"e": INF}, [True])
        assert str(info.value) == "graph infinite_leaves entry True is not a string or an integer"

    def test_constructor_integer_ids(self):
        g = GenusGraph({1: 0, 2: 0}, {"e": (1, 2)}, {"e": INF}, [2])
        assert g.endpoints("e") == ("1", "2") and g.infinite_leaves == {"2"}


class TestBranchIndex:
    def test_branches_match_a_scan_of_the_edges(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_genus_graph(rng, rng.random() < 0.5)
            for v in g.vertices:
                scan = []
                for e in sorted(g.edge_ids):
                    a, b = g.endpoints(e)
                    if a == v:
                        scan.append(OrientedEdge(e, True))
                    if b == v:
                        scan.append(OrientedEdge(e, False))
                assert g.branches(v) == tuple(scan)

    def test_loop_contributes_two_branches(self):
        g = GenusGraph({"a": 0}, {"l": ("a", "a")})
        assert g.branches("a") == (OrientedEdge("l", True), OrientedEdge("l", False))
        assert g.branches("missing") == ()



def _random_multigraph(rng: random.Random, metric: bool) -> GenusGraph:
    """Up to five vertices and six edges at random, loops allowed; often disconnected."""
    names = [f"v{i}" for i in range(rng.randint(0, 5))]
    edges = {
        f"e{i}": (rng.choice(names), rng.choice(names))
        for i in range(rng.randint(0, 6) if names else 0)
    }
    lengths = {e: Fraction(rng.randint(1, 5)) for e in edges} if metric else None
    return GenusGraph({v: rng.randint(0, 1) for v in names}, edges, lengths)


def _bfs_connected(g: GenusGraph) -> bool:
    """Connectedness by breadth-first search over the stored edge ends."""
    if not g.vertices:
        return True
    neighbours = {v: set() for v in g.vertices}
    for e in g.edge_ids:
        a, b = g.endpoints(e)
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen, frontier = {g.vertices[0]}, [g.vertices[0]]
    while frontier:
        frontier = [w for v in frontier for w in neighbours[v] if w not in seen]
        seen.update(frontier)
    return len(seen) == len(g.vertices)


def _observable(g: GenusGraph):
    return g, hash(g), g.to_json_dict(), type(g)


class TestConnectednessCache:
    def test_matches_breadth_first_search(self):
        rng = random.Random(17)
        outcomes = set()
        for _ in range(500):
            g = _random_multigraph(rng, rng.random() < 0.5)
            expected = _bfs_connected(g)
            assert g.is_connected() is expected
            assert g.is_connected() is expected
            outcomes.add(expected)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "how",
        [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_cached_call_changes_nothing_observable(self, how):
        rng = random.Random(18)
        for _ in range(100):
            seed = rng.random()
            g = _random_multigraph(random.Random(seed), rng.random() < 0.5)
            fresh = _random_multigraph(random.Random(seed), g.is_metric)
            before = _observable(how(g))
            connected = g.is_connected()
            after = how(g)
            assert _observable(after) == before == _observable(fresh)
            assert _observable(g) == _observable(fresh) and g == fresh
            assert after.is_connected() is connected is fresh.is_connected()

    def test_h1_raises_on_every_call(self):
        g = GenusGraph({"a": 0, "b": 1}, {"l": ("a", "a")})
        for _ in range(3):
            with pytest.raises(DisconnectedError):
                g.h1()
            with pytest.raises(DisconnectedError):
                g.genus()
        assert not g.is_connected()
