import copy
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildskel.cli import run
from wildskel.delta_morphism import (
    BoundaryAnnotation,
    DeltaMorphism,
    IllegalMoveError,
    MetricDeltaMorphism,
    NotProperError,
    RHDivisorReport,
    applicable_moves,
    certify_skeleton,
    contract_graph,
    contract_morphism,
    is_stable,
    morphism_from_json_dict,
    morphism_to_json_dict,
    stabilize,
    wide_open_genus_check,
)
from wildskel.genus_graph import Divisor, GenusGraph, MetricGenusGraph, OrientedEdge
from wildskel.special import LIFTABLE_TAGS, Lengths, build_special, metric_lift
from wildskel.valuation import INF, NEG_INF, LogAbs, ResidueSetting

from tests.support import (
    FIXTURES,
    HYBRID_KUMMER,
    LONG_ID_MESSAGES,
    MIXED2,
    NON_TAME_SETTINGS,
    WILD2,
    _fixture,
    _reference_attach_delta,
    canonical_lengths,
    identity_morphism,
    random_metric_delta_morphism,
    random_proper_delta_morphism,
    setting_for,
    stabilize_corpus,
    subdivide_metric,
)


def wb() -> DeltaMorphism:
    """Double edge between t and s, one descending tail at each."""
    return build_special("WB")


def wb_tail_edges(m: DeltaMorphism):
    return [e for e in m.source.edge_ids if m.mult[e] == 2]


class TestProperness:
    def test_wb_vertex_mult_and_degree(self):
        m = wb()
        assert m.degree == 2
        assert all(m.vertex_mult[v] == 2 for v in m.source.vertices)

    def test_locally_inconstant_rejected(self):
        # middle vertex covers its two target branches with different sums
        source = GenusGraph(
            {"a": 0, "b": 0, "c": 0}, {"e": ("a", "b"), "f": ("b", "c")}
        )
        target = GenusGraph(
            {"x": 0, "y": 0, "z": 0}, {"g": ("x", "y"), "h": ("y", "z")}
        )
        with pytest.raises(NotProperError):
            DeltaMorphism(
                source,
                target,
                {"a": "x", "b": "y", "c": "z"},
                {"e": "g", "f": "h"},
                {"e": 1, "f": 2},
                {"e": 0, "f": 0},
            )

    def test_empty_fiber_rejected(self):
        # a target vertex with no preimage breaks the constant global rank
        source = GenusGraph({"a": 0, "b": 0}, {"e": ("a", "b")})
        target = GenusGraph(
            {"x": 0, "y": 0, "z": 0}, {"g": ("x", "y"), "h": ("y", "z")}
        )
        with pytest.raises(NotProperError):
            DeltaMorphism(
                source,
                target,
                {"a": "x", "b": "y"},
                {"e": "g"},
                {"e": 1},
                {"e": 0},
            )

    def test_disconnected_rejected(self):
        source = GenusGraph({"a": 0, "b": 0}, {})
        target = GenusGraph({"x": 0}, {})
        with pytest.raises(NotProperError):
            DeltaMorphism(source, target, {"a": "x", "b": "x"}, {}, {}, {})

    @pytest.mark.parametrize("genera, ranks", [({"v": 0}, "{'v': 0}"), ({}, "{}")])
    def test_empty_source_has_no_constant_rank(self, genera, ranks):
        # the one way to a non-constant rank: a nonempty source over a
        # connected target has a constant one by local constancy
        empty = GenusGraph({}, {})
        with pytest.raises(NotProperError) as info:
            DeltaMorphism(empty, GenusGraph(genera, {}), {}, {}, {}, {})
        assert str(info.value) == f"global rank is not constant: {ranks}"

    def test_repr_names_the_degree_and_the_graph_sizes(self):
        assert repr(wb()) == (
            "DeltaMorphism(degree 2: GenusGraph(4 vertices, 4 edges) -> "
            "GenusGraph(4 vertices, 3 edges))"
        )


def _reference_core(source, target, vertex_map, edge_map, mult, sdelta):
    """What the core derives from sums of ``n`` per (source vertex, image
    ``OrientedEdge``): ``(vertex_mult, degree, fibers, R, Delta)``, or the
    local-constancy message of the first source vertex that fails it."""
    sums = {v: {} for v in source.vertices}
    for e in source.edge_ids:
        (u, v), e2 = source.endpoints(e), edge_map[e]
        u2, v2 = target.endpoints(e2)
        forward = u2 == v2 or vertex_map[u] == u2  # a loop maps from->from, to->to
        for w, branch in ((u, OrientedEdge(e2, forward)), (v, OrientedEdge(e2, not forward))):
            sums[w][branch] = sums[w].get(branch, 0) + mult[e]
    vertex_mult = {}
    for v in source.vertices:
        counts = {b: sums[v].get(b, 0) for b in target.branches(vertex_map[v])}
        if len(set(counts.values())) > 1 or 0 in counts.values():
            return f"multiplicity is not locally constant at vertex {v}: {counts!r}"
        vertex_mult[v] = next(iter(counts.values()), 1)
    fibers = {
        v2: tuple(v for v in source.vertices if vertex_map[v] == v2) for v2 in target.vertices
    }
    (degree,) = {sum(vertex_mult[v] for v in vs) for vs in fibers.values()}
    r, delta = {}, {}
    for v in source.vertices:
        g, g2 = source.genus_of(v), target.genus_of(vertex_map[v])
        r[v], delta[v] = 2 * g - 2 - vertex_mult[v] * (2 * g2 - 2), 0
        for b in source.branches(v):
            s = sdelta[b.edge] if b.forward else -sdelta[b.edge]
            r[v] -= -s + mult[b.edge] - 1
            delta[v] -= s
    return vertex_mult, degree, fibers, r, delta


def _core_input(m: DeltaMorphism) -> tuple:
    sdelta = {e: m.sdelta((e, True)) for e in m.source.edge_ids}
    return m.source, m.target, m.vertex_map, m.edge_map, m.mult, sdelta


def _loops_over_a_loop() -> DeltaMorphism:
    """Degree two: two source loops of n = 1 over the target loop ``l``
    at ``x``, and two sheets over the edge ``g``."""
    source = GenusGraph(
        {"a": 1, "b1": 0, "b2": 2},
        {"k1": ("a", "a"), "k2": ("a", "a"), "r1": ("a", "b1"), "r2": ("b2", "a")},
    )
    target = GenusGraph({"x": 0, "y": 1}, {"g": ("x", "y"), "l": ("x", "x")})
    return DeltaMorphism(
        source, target, {"a": "x", "b1": "y", "b2": "y"},
        {"k1": "l", "k2": "l", "r1": "g", "r2": "g"},
        {"k1": 1, "k2": 1, "r1": 1, "r2": 1}, {"k1": 2, "k2": -1, "r1": 0, "r2": 3},
    )


def _edges_over_a_loop() -> DeltaMorphism:
    """Degree two: a two-cycle over the target loop ``l``, a double edge
    over ``g`` and one edge of ``n = 2`` over the parallel edge ``h``."""
    source = GenusGraph(
        {"a1": 0, "a2": 1, "b": 0},
        {"p": ("a1", "a2"), "q": ("a2", "a1"), "r": ("a1", "b"), "s": ("a2", "b"),
         "t": ("b", "a1"), "u": ("b", "a2")},
    )
    target = GenusGraph({"x": 0, "y": 0}, {"g": ("x", "y"), "h": ("y", "x"), "l": ("x", "x")})
    return DeltaMorphism(
        source, target, {"a1": "x", "a2": "x", "b": "y"},
        {"p": "l", "q": "l", "r": "g", "s": "g", "t": "h", "u": "h"},
        {"p": 1, "q": 1, "r": 1, "s": 1, "t": 1, "u": 1},
        {"p": 1, "q": 0, "r": -2, "s": 1, "t": 0, "u": 2},
    )


def _three_sheets_over_parallel_edges() -> DeltaMorphism:
    """Degree three over three parallel target edges, one of them reversed,
    with a source loop of ``n = 1`` and one of ``n = 2`` over the loop ``l``."""
    source = GenusGraph(
        {"a": 0, "b1": 1, "b2": 0},
        {"g1": ("a", "b1"), "g2": ("a", "b2"), "h1": ("b1", "a"), "h2": ("b2", "a"),
         "h3": ("b2", "a"), "k1": ("a", "b1"), "k2": ("a", "b2"), "o1": ("a", "a"),
         "o2": ("a", "a")},
    )
    target = GenusGraph(
        {"x": 0, "y": 0}, {"g": ("x", "y"), "h": ("y", "x"), "k": ("x", "y"), "l": ("x", "x")}
    )
    edge_map = {"g1": "g", "g2": "g", "h1": "h", "h2": "h", "h3": "h", "k1": "k", "k2": "k",
                "o1": "l", "o2": "l"}
    mult = {"g1": 1, "g2": 2, "h1": 1, "h2": 1, "h3": 1, "k1": 1, "k2": 2, "o1": 1, "o2": 2}
    sdelta = dict(zip(sorted(edge_map), (0, 1, -1, 2, 0, -3, 1, 3, -2)))
    return DeltaMorphism(source, target, {"a": "x", "b1": "y", "b2": "y"}, edge_map, mult, sdelta)


HAND_MADE = (_loops_over_a_loop, _edges_over_a_loop, _three_sheets_over_parallel_edges)


class TestCoreAgainstReference:
    """The core keys branch sums by target edge id, or by (edge, direction)
    on a target loop; a plain reference keyed by ``OrientedEdge`` agrees."""

    @staticmethod
    def assert_matches(m: DeltaMorphism) -> None:
        vertex_mult, degree, fibers, r, delta = _reference_core(*_core_input(m))
        assert m.vertex_mult == vertex_mult
        assert (m.degree, m.fibers) == (degree, fibers)
        assert {v: m.differential_index(v) for v in m.source.vertices} == r
        assert m.delta_divisor() == Divisor(delta)

    @staticmethod
    def assert_fault(m: DeltaMorphism, e: str) -> bool:
        """Raise ``n`` on ``e`` by one; if the reference names a
        local-constancy fault, the core raises it word for word."""
        source, target, vertex_map, edge_map, mult, sdelta = _core_input(m)
        mult = {**mult, e: mult[e] + 1}
        expected = _reference_core(source, target, vertex_map, edge_map, mult, sdelta)
        if not isinstance(expected, str):
            return False
        with pytest.raises(NotProperError) as info:
            DeltaMorphism(source, target, vertex_map, edge_map, mult, sdelta)
        assert str(info.value) == expected
        return True

    @pytest.mark.parametrize("build", HAND_MADE)
    def test_hand_made_morphisms(self, build):
        m = build()
        self.assert_matches(m)
        assert all(self.assert_fault(m, e) for e in m.source.edge_ids)

    def test_random_proper_morphisms(self):
        rng, faults = random.Random(41), 0
        for _ in range(150):
            m = random_proper_delta_morphism(rng)
            self.assert_matches(m)
            faults += self.assert_fault(m, rng.choice(m.source.edge_ids))
        assert faults > 100

    def test_fault_messages_name_loop_branches_by_direction(self):
        m = _loops_over_a_loop()
        source, target, vertex_map, edge_map, mult, sdelta = _core_input(m)
        for e, message in (
            ("k1", "{OrientedEdge(edge='g', forward=True): 2, "
                   "OrientedEdge(edge='l', forward=True): 3, "
                   "OrientedEdge(edge='l', forward=False): 3}"),
            ("r1", "{OrientedEdge(edge='g', forward=True): 3, "
                   "OrientedEdge(edge='l', forward=True): 2, "
                   "OrientedEdge(edge='l', forward=False): 2}"),
        ):
            with pytest.raises(NotProperError) as info:
                DeltaMorphism(source, target, vertex_map, edge_map, {**mult, e: 2}, sdelta)
            assert str(info.value) == f"multiplicity is not locally constant at vertex a: {message}"

    def test_an_edge_onto_a_loop_keeps_incidence(self):
        # a source edge whose ends map to two target vertices cannot cover a loop
        m = _edges_over_a_loop()
        source, target, vertex_map, edge_map, mult, sdelta = _core_input(m)
        with pytest.raises(NotProperError) as info:
            DeltaMorphism(source, target, vertex_map, {**edge_map, "r": "l"}, mult, sdelta)
        assert str(info.value) == "edge r violates incidence under the map"


def _restated_index(m: DeltaMorphism, v: str) -> int:
    """``chi(v) - sum of S`` from the stored data, each branch found by a scan."""
    g, g2 = m.source.genus_of(v), m.target.genus_of(m.vertex_map[v])
    chi = 2 * g - 2 - m.vertex_mult[v] * (2 * g2 - 2)
    total = 0
    for e in m.source.edge_ids:
        a, b = m.source.endpoints(e)
        n, s = m.mult[e], m.sdelta((e, True))
        if a == v:
            total += -s + n - 1
        if b == v:
            total += s + n - 1
    return chi - total


class TestIndices:
    def test_differential_index_matches_restatement(self):
        rng = random.Random(23)
        unbalanced = 0
        for _ in range(300):
            m = random_proper_delta_morphism(rng)
            expected = {v: _restated_index(m, v) for v in m.source.vertices}
            assert {v: m.differential_index(v) for v in m.source.vertices} == expected
            assert m.ramification_divisor() == Divisor(expected)
            assert m.unbalanced_vertices() == tuple(v for v in expected if expected[v])
            assert m.rh_degree_identity().r_sum == sum(expected.values())
            unbalanced += bool(m.unbalanced_vertices())
        assert unbalanced > 100

    @pytest.mark.parametrize(
        "how",
        [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_index_reads_change_nothing_observable(self, how):
        rng = random.Random(24)
        for _ in range(50):
            m = random_proper_delta_morphism(rng)
            before = how(m)
            data = morphism_to_json_dict(m)
            report = m.rh_divisor_identity().to_json_dict()
            assert m.rh_degree_identity() and m.unbalanced_vertices() is not None
            after = how(m)
            for x in (m, before, after):
                assert morphism_to_json_dict(x) == data
                assert x.rh_divisor_identity().to_json_dict() == report
                assert x.source == m.source and hash(x.source) == hash(m.source)
            assert vars(before) == vars(after) == vars(m)

    def test_slope_index_examples(self):
        m = wb()
        loop_edges = [e for e in m.source.edge_ids if m.mult[e] == 1]
        assert m.slope_index(OrientedEdge(loop_edges[0], True)) == 0
        # tails are stored pointing toward the leaf with sdelta -1
        tail = wb_tail_edges(m)[0]
        assert m.slope_index(OrientedEdge(tail, True)) == 2
        # n=2, sdelta=0 would give index 1
        tg = build_special("TG")
        e = tg.source.edge_ids[0]
        assert tg.slope_index(OrientedEdge(e, True)) == 1

    def test_chi_examples(self):
        m = wb()
        core = [v for v in m.source.vertices if len(m.source.branches(v)) != 1]
        leaf = [v for v in m.source.vertices if len(m.source.branches(v)) == 1][0]
        assert m.chi(core[0]) == 2
        assert m.chi(leaf) == 2
        g1 = build_special("WSS")
        assert g1.chi("r") == 4
        ident = identity_morphism(GenusGraph({"a": 1, "b": 0}, {"e": ("a", "b")}))
        assert all(ident.chi(v) == 0 for v in ident.source.vertices)

    def test_differential_index_examples(self):
        m = wb()
        for v in m.source.vertices:
            expected = 2 if len(m.source.branches(v)) == 1 else 0
            assert m.differential_index(v) == expected
        ident = identity_morphism(GenusGraph({"a": 1, "b": 0}, {"e": ("a", "b")}))
        assert all(ident.differential_index(v) == 0 for v in ident.source.vertices)


class TestRiemannHurwitz:
    def test_wb_divisor_identity(self):
        m = wb()
        rep = m.rh_divisor_identity()
        assert rep.ok
        core = [v for v in m.source.vertices if len(m.source.branches(v)) != 1][0]
        assert rep.canonical.coefficient(core) == 1
        assert rep.pullback_canonical.coefficient(core) == 0
        assert rep.ramification.coefficient(core) == 0
        assert rep.delta.coefficient(core) == 1

    def test_wb_degree_identity(self):
        rep = wb().rh_degree_identity()
        assert rep.ok
        assert rep.lhs == 0
        assert rep.r_sum == 4

    def test_identity_morphism(self):
        g = GenusGraph({"a": 2, "b": 0}, {"e": ("a", "b")})
        m = identity_morphism(g)
        assert m.rh_divisor_identity().ok
        assert m.rh_degree_identity().ok
        assert m.ramification_divisor() == Divisor({})
        assert m.delta_divisor() == Divisor({})

    def test_degree_two_over_tree_with_four_simple_leaves(self):
        rep = build_special("TG").rh_degree_identity()
        assert rep.ok
        assert rep.lhs == 0 and rep.r_sum == 4 and rep.degree == 2

    def test_random_corpus(self):
        rng = random.Random(17)
        for _ in range(300):
            m = random_proper_delta_morphism(rng)
            assert m.rh_divisor_identity().ok
            assert m.rh_degree_identity().ok
            assert m.delta_divisor().degree() == 0

    def test_divisors_match_restatement(self):
        """Every divisor of the identity, restated per vertex in integers
        from ``branches()`` and ``sdelta()``, on random, contracted and
        metric morphisms."""

        def check(m):
            src, tgt = m.source, m.target
            k, pk, r, d = {}, {}, {}, {}
            for v in src.vertices:
                g, v2 = src.genus_of(v), m.vertex_map[v]
                g2, mv = tgt.genus_of(v2), m.vertex_mult[v]
                k[v] = len(src.branches(v)) + 2 * g - 2
                pk[v] = mv * (len(tgt.branches(v2)) + 2 * g2 - 2)
                chi = 2 * g - 2 - mv * (2 * g2 - 2)
                r[v] = chi - sum(
                    -m.sdelta(b) + m.mult[b.edge] - 1 for b in src.branches(v)
                )
                d[v] = -sum(m.sdelta(b) for b in src.branches(v))
            mism = tuple(v for v in src.vertices if k[v] != pk[v] + r[v] + d[v])
            k, pk, r, d = (Divisor(x) for x in (k, pk, r, d))
            assert src.canonical_divisor() == k
            assert m.pullback(tgt.canonical_divisor()) == pk
            assert m.ramification_divisor() == r
            assert m.delta_divisor() == d
            rep = m.rh_divisor_identity()
            assert (rep.canonical, rep.pullback_canonical) == (k, pk)
            assert (rep.ramification, rep.delta) == (r, d)
            assert (rep.ok, rep.mismatched_vertices) == (not mism, mism)

        for _, m in stabilize_corpus():
            check(m)
            check(stabilize(m))
        for tag in LIFTABLE_TAGS:
            setting = setting_for(tag)
            check(metric_lift(tag, canonical_lengths(tag, setting), setting))

    def test_report_matches_the_public_pieces(self):
        """The report, built in one sweep, equals one restated from the public
        divisors field by field, in JSON, and in each divisor's key order; a
        copy with shifted indices has mismatches to compare too."""
        rng = random.Random(30)
        draws = [random_proper_delta_morphism(rng) for _ in range(2000)]
        tampered = []
        for m in draws[::50]:
            x = copy.copy(m)
            x._indices = {v: r + n % 2 for n, (v, r) in enumerate(m._indices.items())}
            tampered.append(x)
        count = mismatched = 0
        for m in [*draws, *tampered, *(m for _, m in stabilize_corpus())]:
            k, pk = m.source.canonical_divisor(), m.pullback(m.target.canonical_divisor())
            r, d = m.ramification_divisor(), m.delta_divisor()
            mism = tuple(
                v for v in m.source.vertices
                if k.coefficient(v) != pk.coefficient(v) + r.coefficient(v) + d.coefficient(v)
            )
            want = RHDivisorReport(not mism, k, pk, r, d, mism)
            got = m.rh_divisor_identity()
            for field in RHDivisorReport._fields:
                assert getattr(got, field) == getattr(want, field), field
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            got_json, want_json = got.to_json_dict(), want.to_json_dict()
            assert got_json == want_json
            for field in ("canonical", "pullback_canonical", "ramification", "delta"):
                assert list(got_json[field]) == list(want_json[field]) == sorted(got_json[field])
            count += 1
            mismatched += bool(mism)
        assert count >= 5_000 and mismatched == len(tampered)

    def test_pullback_degree_multiplicative(self):
        rng = random.Random(19)
        for _ in range(50):
            m = random_proper_delta_morphism(rng)
            d = Divisor(
                {v: rng.randint(-3, 3) for v in m.target.vertices}
            )
            assert m.pullback(d).degree() == m.degree * d.degree()

    def test_pullback_refuses_a_vertex_off_the_target(self):
        # it used to drop such a coefficient: Divisor(0), and deg f*D != deg f * deg D
        m = _fixture("wb")
        for given in ({"nope": 5}, {"t'": 1, "nope": 5, "v1": 2}):
            with pytest.raises(ValueError) as info:
                m.pullback(Divisor(given))
            assert str(info.value) == "divisor vertex nope is not a target vertex"
        assert m.pullback(Divisor({"t'": 1})).degree() == m.degree


class TestGraphContraction:
    def test_leaf_removal_from_path(self):
        g = GenusGraph(
            {"a": 0, "b": 0, "c": 0}, {"e": ("a", "b"), "f": ("b", "c")}
        )
        g2 = contract_graph(g, ("leaf", "c"))
        assert g2.vertices == ("a", "b")
        assert g2.edge_ids == ("e",)

    def test_smoothing_merges_lengths(self):
        g = MetricGenusGraph(
            {"a": 0, "b": 0, "c": 0},
            {"e": ("a", "b"), "f": ("b", "c")},
            {"e": Fraction(1, 2), "f": Fraction(1, 3)},
        )
        g2 = contract_graph(g, ("smooth", "b"))
        assert g2.edge_ids == ("e",)
        assert g2.length("e") == Fraction(5, 6)

    def test_positive_genus_leaf_rejected(self):
        g = GenusGraph({"a": 0, "b": 1}, {"e": ("a", "b")})
        with pytest.raises(IllegalMoveError):
            contract_graph(g, ("leaf", "b"))

    def test_loop_vertex_not_smoothable(self):
        g = GenusGraph({"a": 0, "b": 0}, {"l": ("a", "a"), "e": ("a", "b")})
        with pytest.raises(IllegalMoveError):
            contract_graph(g, ("smooth", "a"))

    def test_two_gon_smooths_to_loop(self):
        g = GenusGraph({"a": 0, "b": 0}, {"e": ("a", "b"), "f": ("a", "b")})
        g2 = contract_graph(g, ("smooth", "b"))
        assert len(set(g2.endpoints("e"))) == 1
        assert g2.genus() == 1


class TestMorphismContraction:
    def test_ramified_leaf_not_contractible(self):
        m = wb()
        leaf_targets = [
            m.vertex_map[v] for v in m.source.vertices if len(m.source.branches(v)) == 1
        ]
        with pytest.raises(IllegalMoveError):
            contract_morphism(m, ("leaf", leaf_targets[0]))

    def test_stabilize_fixes_stable_input(self):
        m = wb()
        assert is_stable(m)
        m2 = stabilize(m)
        assert m2 is m

    def test_stabilize_subdivided_wb(self):
        m = _fixture("wb_subdivided")
        assert not is_stable(m)
        before_genus = m.source.genus()
        before_sig = sorted(
            m.differential_index(v) for v in m.unbalanced_vertices()
        )
        m2 = stabilize(m)
        assert is_stable(m2)
        assert len(m2.source.vertices) == 4
        assert len(m2.source.edge_ids) == 4
        assert m2.source.genus() == before_genus
        after_sig = sorted(
            m2.differential_index(v) for v in m2.unbalanced_vertices()
        )
        assert after_sig == before_sig
        assert m2.rh_divisor_identity().ok
        assert m2.rh_degree_identity().ok

    def test_leaf_chain_contraction_terminates(self):
        # a degree-1 morphism: a path collapses step by step
        g = GenusGraph(
            {"a": 1, "b": 0, "c": 0},
            {"e": ("a", "b"), "f": ("b", "c")},
        )
        m = identity_morphism(g)
        m2 = stabilize(m)
        assert m2.source.vertices == ("a",)
        assert m2.source.edge_ids == ()

    def test_last_target_edge_protected_at_higher_degree(self):
        # contracting the only target edge of a degree-2 cover would leave
        # the fiber multiplicities undetermined
        source = GenusGraph(
            {"a": 0, "b1": 0, "b2": 0},
            {"e1": ("a", "b1"), "e2": ("a", "b2")},
        )
        target = GenusGraph({"x": 0, "y": 0}, {"g": ("x", "y")})
        m = DeltaMorphism(
            source,
            target,
            {"a": "x", "b1": "y", "b2": "y"},
            {"e1": "g", "e2": "g"},
            {"e1": 1, "e2": 1},
            {"e1": 0, "e2": 0},
        )
        assert all(m.differential_index(v) == 0 for v in ("b1", "b2"))
        with pytest.raises(IllegalMoveError, match="degree"):
            contract_morphism(m, ("leaf", "y"))
        assert is_stable(m)

    def test_stabilize_confluent_on_subdivided_wb(self):
        # subdivide the WB loop edge and one tail; the two smoothing moves
        # commute and both orders land on WB
        source = GenusGraph(
            {"t": 0, "s": 0, "m1": 0, "m2": 0, "w": 0, "lt": 0, "ls": 0},
            {
                "a1": ("t", "m1"),
                "a2": ("m1", "s"),
                "b1": ("t", "m2"),
                "b2": ("m2", "s"),
                "c1": ("t", "w"),
                "c2": ("w", "lt"),
                "e4": ("s", "ls"),
            },
        )
        target = GenusGraph(
            {"t'": 0, "s'": 0, "m'": 0, "w'": 0, "lt'": 0, "ls'": 0},
            {
                "a1'": ("t'", "m'"),
                "a2'": ("m'", "s'"),
                "c1'": ("t'", "w'"),
                "c2'": ("w'", "lt'"),
                "e4'": ("s'", "ls'"),
            },
        )
        m = DeltaMorphism(
            source,
            target,
            {
                "t": "t'",
                "s": "s'",
                "m1": "m'",
                "m2": "m'",
                "w": "w'",
                "lt": "lt'",
                "ls": "ls'",
            },
            {
                "a1": "a1'",
                "a2": "a2'",
                "b1": "a1'",
                "b2": "a2'",
                "c1": "c1'",
                "c2": "c2'",
                "e4": "e4'",
            },
            {"a1": 1, "a2": 1, "b1": 1, "b2": 1, "c1": 2, "c2": 2, "e4": 2},
            {"a1": 0, "a2": 0, "b1": 0, "b2": 0, "c1": -1, "c2": -1, "e4": -1},
        )
        moves = applicable_moves(m)
        assert set(moves) == {("smooth", "m'"), ("smooth", "w'")}
        from wildskel.special import classify_special

        results = []
        for first, second in (moves, moves[::-1]):
            m1 = contract_morphism(contract_morphism(m, first), second)
            assert is_stable(m1)
            results.append(m1)
            assert classify_special(m1).tag == "WB"
        a, b = results
        assert len(a.source.vertices) == len(b.source.vertices) == 4

    def test_rh_preserved_along_all_moves(self):
        rng = random.Random(29)
        for _ in range(100):
            m = random_proper_delta_morphism(rng)
            while True:
                moves = applicable_moves(m)
                if not moves:
                    break
                before = sorted(
                    m.differential_index(v) for v in m.unbalanced_vertices()
                )
                genus = m.source.genus()
                m = contract_morphism(m, moves[0])
                assert m.rh_divisor_identity().ok
                assert m.rh_degree_identity().ok
                assert m.source.genus() == genus
                assert (
                    sorted(
                        m.differential_index(v) for v in m.unbalanced_vertices()
                    )
                    == before
                )


class TestMetricDeltaMorphism:
    def test_wb_lift_validates(self):
        mm = metric_lift("WB", Lengths(l0=Fraction(1)), WILD2)
        core = [v for v in mm.source.vertices if len(mm.source.branches(v)) != 1]
        for v in core:
            assert mm.delta[v] == LogAbs(0)
        for leaf in mm.source.infinite_leaves:
            assert mm.delta[leaf] == NEG_INF

    def test_dilation_violation_rejected(self):
        src = MetricGenusGraph(
            {"u": 0, "v": 0}, {"e": ("u", "v")}, {"e": Fraction(1)}
        )
        tgt = MetricGenusGraph(
            {"u'": 0, "v'": 0}, {"e'": ("u'", "v'")}, {"e'": Fraction(3)}
        )
        with pytest.raises(ValueError) as info:
            DeltaMorphism(
                src, tgt, {"u": "u'", "v": "v'"}, {"e": "e'"}, {"e": 2}, {"e": 0}
            )
        assert str(info.value) == "dilation fails on edge e: 3 != 2 * 1"

    @pytest.mark.parametrize("tail, message", [
        ("source", "dilation fails on edge e: 1 != 1 * inf"),
        ("target", "dilation fails on edge e: inf != 1 * 1"),
    ])
    def test_dilation_of_a_tail_over_a_finite_edge(self, tail, message):
        """A tail dilates only onto a tail, in either direction."""
        tailed = MetricGenusGraph({"u": 0, "l": 0}, {"e": ("u", "l")}, {"e": INF}, ["l"])
        finite = MetricGenusGraph({"u": 0, "l": 0}, {"e": ("u", "l")}, {"e": 1})
        src, tgt = (tailed, finite) if tail == "source" else (finite, tailed)
        with pytest.raises(ValueError) as info:
            DeltaMorphism(src, tgt, {"u": "u", "l": "l"}, {"e": "e"}, {"e": 1}, {"e": 0})
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [-0.5, 0.0, False])
    def test_float_or_bool_delta_rejected(self, value):
        """A float is not taken as its binary fraction, nor a bool as a number."""
        src = MetricGenusGraph({"u": 0, "v": 0}, {"e": ("u", "v")}, {"e": Fraction(1)})
        dm = DeltaMorphism(src, src, {"u": "u", "v": "v"}, {"e": "e"}, {"e": 1}, {"e": 0})
        with pytest.raises(ValueError) as info:
            MetricDeltaMorphism(dm, {"u": LogAbs(0), "v": value}, WILD2)
        assert str(info.value) == f"delta value of 'v' is {value!r}, not a rational or -inf"
        with pytest.raises(ValueError, match="^vertex u has no delta value$"):
            MetricDeltaMorphism(dm, {"v": value}, WILD2)

    def test_linearity_violation_rejected(self):
        src = MetricGenusGraph(
            {"u": 0, "v": 0}, {"e": ("u", "v")}, {"e": Fraction(1)}
        )
        tgt = MetricGenusGraph(
            {"u'": 0, "v'": 0}, {"e'": ("u'", "v'")}, {"e'": Fraction(2)}
        )
        dm = DeltaMorphism(
            src, tgt, {"u": "u'", "v": "v'"}, {"e": "e'"}, {"e": 2}, {"e": -1}
        )
        with pytest.raises(ValueError, match="linear"):
            MetricDeltaMorphism(
                dm, {"u": LogAbs(0), "v": LogAbs(Fraction(-1, 2))}, MIXED2
            )

    def test_restriction_violation_rejected(self):
        # slope -2 with m=2 in residue characteristic 2 is not admissible
        src = MetricGenusGraph(
            {"u": 0, "v": 0}, {"e": ("u", "v")}, {"e": Fraction(1, 4)}
        )
        tgt = MetricGenusGraph(
            {"u'": 0, "v'": 0}, {"e'": ("u'", "v'")}, {"e'": Fraction(1, 2)}
        )
        dm = DeltaMorphism(
            src, tgt, {"u": "u'", "v": "v'"}, {"e": "e'"}, {"e": 2}, {"e": -2}
        )
        with pytest.raises(ValueError, match="restriction"):
            MetricDeltaMorphism(
                dm, {"u": LogAbs(0), "v": LogAbs(Fraction(-1, 2))}, MIXED2
            )

    def test_tail_rule_enforced(self):
        src = MetricGenusGraph(
            {"u": 0, "l": 0}, {"e": ("u", "l")}, {"e": INF}, infinite_leaves=["l"]
        )
        tgt = MetricGenusGraph(
            {"u'": 0, "l'": 0},
            {"e'": ("u'", "l'")},
            {"e'": INF},
            infinite_leaves=["l'"],
        )
        dm = DeltaMorphism(
            src, tgt, {"u": "u'", "l": "l'"}, {"e": "e'"}, {"e": 2}, {"e": 0}
        )
        # slope-zero tail in mixed characteristic: leaf delta must be |2|
        mm = MetricDeltaMorphism(
            dm, {"u": LogAbs(-1), "l": LogAbs(-1)}, MIXED2
        )
        assert mm.delta["l"] == MIXED2.int_abs(2)
        with pytest.raises(ValueError, match="infinite leaf"):
            MetricDeltaMorphism(dm, {"u": LogAbs(0), "l": LogAbs(0)}, MIXED2)

    def test_delta_profile(self):
        mm = metric_lift(
            "MS", Lengths(l1=Fraction(1, 2), l3=Fraction(1, 6)), MIXED2
        )
        slope3 = [
            e for e in mm.source.edge_ids
            if abs(mm.morphism.sdelta((e, True))) == 3
        ]
        assert len(slope3) == 1
        prof = mm.delta_profile(slope3[0])
        assert prof.value_at(0) == 0
        assert prof.value_at(Fraction(1, 6)) == Fraction(-1, 2)

    def test_a_morphism_without_delta_values_has_no_delta_profile(self):
        # a plain morphism (or metric graphs without delta) was a bare TypeError
        doc = morphism_to_json_dict(metric_lift("WB", Lengths(l0=Fraction(1)), WILD2))
        del doc["delta"], doc["setting"]
        for m in (build_special("WB"), morphism_from_json_dict(doc)):
            with pytest.raises(ValueError) as info:
                m.delta_profile(m.source.edge_ids[0])
            assert (type(info.value), str(info.value)) == (
                ValueError, "morphism has no delta values"
            )


def test_tail_between_two_infinite_leaves_has_no_delta_profile(tmp_path, capsys):
    """One tail joins two infinite leaves, with delta = |2| = -inf at both
    ends: the morphism is valid, but its edge has no finite end to start
    the profile from, in the library and in ``wildskel radial``."""
    graph = {
        "vertices": [{"id": "a"}, {"id": "b"}],
        "edges": [{"id": "e", "from": "a", "to": "b", "length": "inf"}],
        "infinite_leaves": ["a", "b"],
    }
    doc = {
        "source": graph, "target": graph, "vertex_map": {"a": "a", "b": "b"},
        "edge_map": {"e": "e"}, "n": {"e": 2}, "sdelta": {"e": 0},
        "delta": {"a": "-inf", "b": "-inf"}, "setting": "equicharP:2",
    }
    mm = morphism_from_json_dict(doc)
    with pytest.raises(ValueError, match="^edge e has no finite endpoint value$"):
        mm.delta_profile("e")
    path = tmp_path / "tail.morphism.json"
    path.write_text(json.dumps(doc))
    assert run(["radial", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: edge e has no finite endpoint value\n")


class TestCertifySkeleton:
    def test_trivial_branches_pass(self):
        mm = metric_lift("WB", Lengths(l0=Fraction(1)), WILD2)
        core = [v for v in mm.source.vertices if len(mm.source.branches(v)) != 1]
        boundary = BoundaryAnnotation({core[0]: ((1, 0),), core[1]: ((1, 0),)})
        assert certify_skeleton(mm, boundary, ram_in_vertices=True).ok

    def test_violating_branch_reported(self):
        mm = metric_lift("WB", Lengths(l0=Fraction(1)), WILD2)
        v = mm.source.vertices[0]
        boundary = BoundaryAnnotation({v: ((2, 0),)})
        report = certify_skeleton(mm, boundary, ram_in_vertices=True)
        assert not report.ok
        assert report.violations == ((v, 0, 2, 0, 1),)

    def test_wb_with_trivializing_branches(self):
        mm = metric_lift("WB", Lengths(l0=Fraction(1)), WILD2)
        leaves = sorted(mm.source.infinite_leaves)
        boundary = BoundaryAnnotation({leaf: ((2, 1),) for leaf in leaves})
        assert certify_skeleton(mm, boundary, ram_in_vertices=True).ok

    def test_ram_outside_vertices_fails(self):
        mm = metric_lift("WB", Lengths(l0=Fraction(1)), WILD2)
        assert not certify_skeleton(
            mm, BoundaryAnnotation({}), ram_in_vertices=False
        ).ok

    @pytest.mark.parametrize(
        "pairs, message",
        [
            # int() stored (1, 0), and raised a bare TypeError for None
            ([(1.9, 0.5)], "off-graph n value of 'a' is 1.9, not an integer"),
            ([(None, 0)], "off-graph n value of 'a' is None, not an integer"),
            ([(2, Fraction(1, 2))], "off-graph sdelta value of 'a' is Fraction(1, 2), not an integer"),
            ([(2, 1), (1, True)], "off-graph sdelta value of 'a' is True, not an integer"),
        ],
    )
    def test_annotation_values_must_be_integers(self, pairs, message):
        with pytest.raises(ValueError) as caught:
            BoundaryAnnotation({"a": pairs})
        assert type(caught.value) is ValueError and str(caught.value) == message

    def test_annotation_keeps_integral_values(self):
        given = BoundaryAnnotation({"a": [(Fraction(2), "1")]})
        assert given == BoundaryAnnotation({"a": ((2, 1),)})

    @pytest.mark.parametrize("n", [0, -1])
    def test_annotation_needs_a_positive_n(self, n):
        with pytest.raises(ValueError, match="^off-graph branch at a needs n >= 1$"):
            BoundaryAnnotation({"a": [(1, 0), (n, 0)]})

    def test_annotation_of_an_unknown_vertex(self):
        mm = metric_lift("WB", Lengths(l0=Fraction(1)), WILD2)
        boundary = BoundaryAnnotation({"zz": ((1, 0),)})
        with pytest.raises(ValueError, match="^annotation mentions unknown vertex zz$"):
            certify_skeleton(mm, boundary, ram_in_vertices=True)


class TestWideOpenGenus:
    def test_etale_disc_cover(self):
        rep = wide_open_genus_check([(2, 1)], 2, 0, 0)
        assert rep.ok
        assert rep.lhs == 2 == rep.rhs
        assert rep.disc_criterion
        assert rep.solved_genus == 0

    def test_identity_disc(self):
        rep = wide_open_genus_check([(1, 0)], 1, 0, 0)
        assert rep.ok and rep.disc_criterion

    def test_annulus_identity(self):
        rep = wide_open_genus_check([(1, 0), (1, 0)], 1, 0, 0)
        assert rep.ok
        assert not rep.disc_criterion
        assert rep.solved_genus == 0

    def test_mismatch_detected(self):
        rep = wide_open_genus_check([(2, 1)], 2, 1, 0)
        assert not rep.ok

    def test_accepts_boundary_annotation(self):
        boundary = BoundaryAnnotation({"v": ((2, 1),)})
        rep = wide_open_genus_check(boundary, 2, 0, 0)
        assert rep.ok and rep.disc_criterion

    @pytest.mark.parametrize(
        "infinity, ram, message",
        [
            # int() computed with n = 2 and s = 1
            ([(2.7, True)], (), "infinity n value of 'branch 0' is 2.7, not an integer"),
            ([(2, 1), (1, None)], (), "infinity sdelta value of 'branch 1' is None, not an integer"),
            ([(2, 1)], [1, Fraction(3, 2)], "ram value of 'point 1' is Fraction(3, 2), not an integer"),
        ],
    )
    def test_values_must_be_integers(self, infinity, ram, message):
        with pytest.raises(ValueError) as caught:
            wide_open_genus_check(infinity, 2, 1, 0, ram)
        assert type(caught.value) is ValueError and str(caught.value) == message

    @pytest.mark.parametrize(
        "infinity, degree, genera, message",
        [
            # BoundaryAnnotation refuses such a branch too
            ([(0, 0)], 1, (0, 0), "branch 0 at infinity needs n >= 1"),
            ([(2, 1), (-1, 0)], 2, (0, 0), "branch 1 at infinity needs n >= 1"),
            # Fraction(1.5 * -2, 2) used to raise a bare TypeError
            ([(1, 0)], 1.5, (0, 0), "degree is 1.5, not an integer"),
            ([(1, 0)], 1, (True, 0), "g_source is True, not an integer"),
            ([(1, 0)], 1, (0, None), "g_target is None, not an integer"),
        ],
    )
    def test_branches_and_degree_are_checked(self, infinity, degree, genera, message):
        with pytest.raises(ValueError) as caught:
            wide_open_genus_check(infinity, degree, *genera)
        assert type(caught.value) is ValueError and str(caught.value) == message

    def test_degree_and_genera_read_as_integers(self):
        expected = wide_open_genus_check([(2, 1)], 2, 0, 0)
        assert wide_open_genus_check([(2, 1)], "2", Fraction(0), "0") == expected


class TestJsonRoundtrip:
    def test_plain(self):
        m = wb()
        data = morphism_to_json_dict(m)
        m2 = morphism_from_json_dict(json.loads(json.dumps(data)))
        assert morphism_to_json_dict(m2) == data

    def test_metric(self):
        mm = metric_lift(
            "MS", Lengths(l1=Fraction(1, 2), l3=Fraction(1, 6)), MIXED2
        )
        data = morphism_to_json_dict(mm)
        mm2 = morphism_from_json_dict(json.loads(json.dumps(data)))
        assert isinstance(mm2, MetricDeltaMorphism)
        assert morphism_to_json_dict(mm2) == data


class TestIdRule:
    """``vertex_map`` and ``edge_map`` values are ids: a string or an integer."""

    @pytest.mark.parametrize("value", [1.5, True, None, ["t'"]])
    @pytest.mark.parametrize("key, k", [("vertex_map", "t"), ("edge_map", "a")])
    def test_loader_value_not_an_id(self, key, k, value):
        data = morphism_to_json_dict(wb())
        data[key][k] = value
        with pytest.raises(ValueError) as info:
            morphism_from_json_dict(data)
        assert str(info.value) == (
            f"morphism {key} value of {k!r} is {value!r}, not a string or an integer"
        )

    @pytest.mark.parametrize("value", [1.5, False, None])
    @pytest.mark.parametrize("key, k", [("vertex_map", "t"), ("edge_map", "a")])
    def test_constructor_value_not_an_id(self, key, k, value):
        m = wb()
        maps = {"vertex_map": dict(m.vertex_map), "edge_map": dict(m.edge_map)}
        maps[key][k] = value
        with pytest.raises(ValueError) as info:
            DeltaMorphism(m.source, m.target, *maps.values(), m.mult, m._sdelta)
        assert str(info.value) == (
            f"{key} value of {k!r} is {value!r}, not a string or an integer"
        )

    def test_integer_values_are_ids(self):
        g = GenusGraph({1: 0, 2: 0}, {3: (1, 2)})
        m = DeltaMorphism(g, g, {1: 1, 2: 2}, {3: 3}, {3: 1}, {3: 0})
        assert m.vertex_map == {"1": "1", "2": "2"} and m.edge_map == {"3": "3"}
        data = {"source": g.to_json_dict(), "target": g.to_json_dict(),
                "vertex_map": {"1": 1, "2": 2}, "edge_map": {"3": 3},
                "n": {"3": 1}, "sdelta": {"3": 0}}
        assert morphism_to_json_dict(morphism_from_json_dict(data)) == morphism_to_json_dict(m)


class TestUnknownIds:
    """A map key that names no source vertex or edge is refused after every
    other check, by both public constructors as by the loader
    (``tests/test_cli.py`` covers the loader's entries)."""

    MAPS = {"vertex_map": {"a": "x", "b": "y"}, "edge_map": {"e": "f"},
            "mult": {"e": 1}, "sdelta": {"e": 0}}

    @staticmethod
    def graphs(metric=False):
        lengths = ({"e": 1}, {"f": 1}) if metric else (None, None)
        return (GenusGraph({"a": 0, "b": 0}, {"e": ("a", "b")}, lengths[0]),
                GenusGraph({"x": 0, "y": 0}, {"f": ("x", "y")}, lengths[1]))

    @pytest.mark.parametrize("name, extra, message", [
        ("vertex_map", {"zz": "x"}, "vertex_map names unknown vertex 'zz'"),
        ("edge_map", {"qq": "f"}, "edge_map names unknown edge 'qq'"),
        ("mult", {"qq": 3}, "mult names unknown edge 'qq'"),
        ("sdelta", {"ww": 5}, "sdelta names unknown edge 'ww'"),
    ])
    def test_constructor_entry(self, name, extra, message):
        maps = {key: dict(value) for key, value in self.MAPS.items()}
        maps[name].update(extra)
        with pytest.raises(ValueError) as info:
            DeltaMorphism(*self.graphs(), **maps)
        assert str(info.value) == message

    def test_constructor_names_the_first_entry(self):
        with pytest.raises(ValueError, match="^vertex_map names unknown vertex 'zz'$"):
            DeltaMorphism(
                *self.graphs(), {"a": "x", "b": "y", "zz": "x"}, {"e": "f", "qq": "f"},
                {"e": 1, "qq": 3}, {"e": 0, "ww": 5},
            )

    def test_constructor_names_the_core_fault_first(self):
        with pytest.raises(ValueError, match="^edge e needs a positive multiplicity$"):
            DeltaMorphism(*self.graphs(), **dict(self.MAPS, mult={"e": 0, "qq": 3}))

    def test_metric_constructor_delta(self):
        m = DeltaMorphism(*self.graphs(metric=True), **self.MAPS)
        with pytest.raises(ValueError, match="^delta names unknown vertex 'zz'$"):
            MetricDeltaMorphism(m, {"a": 0, "b": 0, "zz": 0}, WILD2)
        with pytest.raises(ValueError, match="^delta at a must be <= 0, got 1$"):
            MetricDeltaMorphism(m, {"a": 1, "b": 0, "zz": 0}, WILD2)
        assert MetricDeltaMorphism(m, {"a": 0, "b": 0}, WILD2).delta == {"a": 0, "b": 0}


def kummer_two_edges() -> MetricDeltaMorphism:
    """The metric Kummer segment of ``kummer_p2_metric``, cut at its midpoint."""
    src = MetricGenusGraph(
        {"u": 0, "m": 0, "v": 0},
        {"e": ("u", "m"), "f": ("m", "v")},
        {"e": Fraction(1, 2), "f": Fraction(1, 2)},
    )
    tgt = MetricGenusGraph(
        {"u'": 0, "m'": 0, "v'": 0},
        {"e'": ("u'", "m'"), "f'": ("m'", "v'")},
        {"e'": Fraction(1), "f'": Fraction(1)},
    )
    dm = DeltaMorphism(
        src,
        tgt,
        {"u": "u'", "m": "m'", "v": "v'"},
        {"e": "e'", "f": "f'"},
        {"e": 2, "f": 2},
        {"e": 0, "f": 0},
    )
    return MetricDeltaMorphism(dm, {v: LogAbs(-1) for v in "umv"}, MIXED2)


class TestMetricContraction:
    def test_smoothing_keeps_lengths_and_delta(self):
        mm = kummer_two_edges()
        for m in (mm, mm.morphism):
            out = contract_morphism(m, ("smooth", "m'"))
            assert isinstance(out, MetricDeltaMorphism)
            assert isinstance(out.source, MetricGenusGraph)
            assert isinstance(out.target, MetricGenusGraph)
            fixture = json.loads((FIXTURES / "kummer_p2_metric.morphism.json").read_text())
            assert morphism_to_json_dict(out) == fixture

    def test_stabilize_metric_morphism(self):
        out = stabilize(kummer_two_edges())
        assert isinstance(out, MetricDeltaMorphism)
        assert out.source.length("e") == 1
        assert out.delta == {"u": LogAbs(-1), "v": LogAbs(-1)}

    def test_contract_graph_keeps_class(self):
        g = kummer_two_edges().source
        assert isinstance(contract_graph(g, ("smooth", "m")), MetricGenusGraph)
        plain = GenusGraph({"a": 0, "b": 0, "c": 0}, {"e": ("a", "b"), "f": ("b", "c")})
        assert not isinstance(contract_graph(plain, ("leaf", "c")), MetricGenusGraph)

    def test_metric_graphs_without_delta_stay_metric(self):
        dm = kummer_two_edges()
        plain_delta = DeltaMorphism(
            dm.source, dm.target, dm.vertex_map, dm.edge_map, dm.mult,
            {e: dm.sdelta((e, True)) for e in dm.source.edge_ids},
        )
        out = contract_morphism(plain_delta, ("smooth", "m'"))
        assert not isinstance(out, MetricDeltaMorphism)
        assert out.delta is None
        assert out.source.length("e") == 1 and out.target.length("e'") == 2

    @pytest.mark.parametrize("tag", LIFTABLE_TAGS)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_stabilize_undoes_metric_subdivision(self, tag, seed):
        setting = setting_for(tag)
        mm = metric_lift(tag, canonical_lengths(tag, setting), setting)
        sub = subdivide_metric(random.Random(seed), mm)
        assert not is_stable(sub)
        out = stabilize(sub)
        assert isinstance(out, MetricDeltaMorphism)
        assert morphism_to_json_dict(out) == morphism_to_json_dict(mm)


def single_tail_identity(end: str, leaf: str) -> MetricDeltaMorphism:
    """Identity on one tail from ``end`` to the infinite leaf ``leaf``."""
    g = GenusGraph({end: 0, leaf: 0}, {"e": (end, leaf)}, {"e": INF}, [leaf])
    return MetricDeltaMorphism(
        identity_morphism(g),
        {end: LogAbs(0), leaf: LogAbs(0)},
        ResidueSetting.equichar_zero(),
    )


class TestInfiniteLeafContraction:
    """A leaf move must not strand an infinite leaf at valence zero."""

    def test_stabilize_independent_of_vertex_names(self):
        results = []
        for end, leaf in (("a", "z"), ("u", "l")):
            m = single_tail_identity(end, leaf)
            assert applicable_moves(m) == (("leaf", leaf),)
            out = stabilize(m)
            assert out.source.vertices == out.target.vertices == (end,)
            assert out.source.edge_ids == () and out.source.genus() == 0
            data = json.dumps(morphism_to_json_dict(out))
            results.append(data.replace(f'"{end}"', '"END"'))
        assert results[0] == results[1]

    def test_stranding_move_rejected(self):
        m = single_tail_identity("a", "z")
        with pytest.raises(IllegalMoveError, match="isolate the infinite leaf z"):
            contract_morphism(m, ("leaf", "a"))
        with pytest.raises(IllegalMoveError, match="isolate the infinite leaf z"):
            contract_graph(m.source, ("leaf", "a"))


class TestHybridRejected:
    def test_plain_source_metric_target(self):
        mm = kummer_two_edges()
        plain = GenusGraph({"u": 0, "m": 0, "v": 0}, {"e": ("u", "m"), "f": ("m", "v")})
        with pytest.raises(ValueError, match="must both be metric or both plain"):
            DeltaMorphism(plain, mm.target, mm.vertex_map, mm.edge_map, mm.mult,
                          {"e": 0, "f": 0})
        with pytest.raises(ValueError, match="must both be metric or both plain"):
            DeltaMorphism(mm.target, plain, {v + "'": v for v in "umv"},
                          {"e'": "e", "f'": "f"}, {"e'": 1, "f'": 1}, {"e'": 0, "f'": 0})

    def test_delta_needs_metric_graphs(self):
        with pytest.raises(ValueError, match="require metric graphs"):
            MetricDeltaMorphism(wb(), {}, WILD2)

    def test_hybrid_json_rejected(self):
        with pytest.raises(ValueError, match="must both be metric or both plain"):
            morphism_from_json_dict(HYBRID_KUMMER)



# -- move rules against a reference ---------------------------------------------


def _reference_isolates(g: GenusGraph, leaf: str) -> bool:
    (b,) = g.branches(leaf)
    return g.head(b) in g.infinite_leaves


def _reference_leaf_ok(m: DeltaMorphism, v2: str) -> bool:
    """The leaf move rules, each fiber found by a scan of the source."""
    t = m.target
    if t.genus_of(v2) != 0 or len(t.branches(v2)) != 1 or _reference_isolates(t, v2):
        return False
    if len(t.edge_ids) == 1 and m.degree > 1:
        return False
    for v in m.source.vertices:
        if m.vertex_map[v] != v2:
            continue
        if len(m.source.branches(v)) != 1 or _reference_isolates(m.source, v):
            return False
        if m.source.genus_of(v) != 0 or m.differential_index(v) != 0:
            return False
    return True


def _reference_smooth_ok(m: DeltaMorphism, v2: str) -> bool:
    """The smoothing rules, each fiber found by a scan of the source."""
    branches = m.target.branches(v2)
    if m.target.genus_of(v2) != 0 or len(branches) != 2:
        return False
    if branches[0].edge == branches[1].edge:
        return False
    for v in m.source.vertices:
        if m.vertex_map[v] != v2:
            continue
        if m.source.genus_of(v) != 0 or m.source.valence(v) != 2:
            return False
        if m.differential_index(v) != 0:
            return False
        b1, b2 = m.source.branches(v)
        if b1.edge == b2.edge or m.mult[b1.edge] != m.mult[b2.edge]:
            return False
        if m.sdelta((b1.edge, not b1.forward)) != m.sdelta(b2):
            return False
    return True


def _reference_moves(m: DeltaMorphism):
    moves = []
    for v2 in m.target.vertices:
        if _reference_leaf_ok(m, v2):
            moves.append(("leaf", v2))
        if _reference_smooth_ok(m, v2):
            moves.append(("smooth", v2))
    return tuple(moves)


def _assert_moves_match_reference(m: DeltaMorphism) -> int:
    """Walk ``stabilize`` from ``m``, comparing the moves at every step."""
    steps = 0
    while True:
        moves = applicable_moves(m)
        assert moves == _reference_moves(m)
        if not moves:
            return steps
        m = contract_morphism(m, moves[0])
        steps += 1


class TestMoveRulesAgainstReference:
    def test_random_proper_morphisms(self):
        rng = random.Random(61)
        steps = [
            _assert_moves_match_reference(random_proper_delta_morphism(rng))
            for _ in range(3000)
        ]
        assert sum(1 for s in steps if s) > 10

    def test_stabilize_wb_subdivided(self):
        m = _fixture("wb_subdivided")
        assert _assert_moves_match_reference(m) > 0

    @pytest.mark.parametrize("tag", LIFTABLE_TAGS)
    def test_stabilize_metric_subdivisions(self, tag):
        setting = setting_for(tag)
        mm = metric_lift(tag, canonical_lengths(tag, setting), setting)
        for seed in range(5):
            sub = subdivide_metric(random.Random(seed), mm)
            assert _assert_moves_match_reference(sub) > 0


def _sorted_json(m: DeltaMorphism) -> str:
    return json.dumps(morphism_to_json_dict(m), sort_keys=True)


def _assert_move_order_free(m: DeltaMorphism, rng: random.Random) -> None:
    """Three runs of uniformly random applicable moves all reach ``stabilize(m)``."""
    expected = _sorted_json(stabilize(m))
    for _ in range(3):
        out = m
        while moves := applicable_moves(out):
            out = contract_morphism(out, rng.choice(moves))
        assert _sorted_json(out) == expected


class TestMoveOrder:
    def test_random_proper_morphisms(self):
        draws, rng = random.Random(61), random.Random(62)
        checked = 0
        for _ in range(3000):
            m = random_proper_delta_morphism(draws)
            if applicable_moves(m):
                _assert_move_order_free(m, rng)
                checked += 1
        assert checked > 10

    def test_wb_subdivided(self):
        m = _fixture("wb_subdivided")
        _assert_move_order_free(m, random.Random(63))

    @pytest.mark.parametrize("tag", LIFTABLE_TAGS)
    def test_metric_subdivisions(self, tag):
        setting = setting_for(tag)
        mm = metric_lift(tag, canonical_lengths(tag, setting), setting)
        rng = random.Random(64)
        for seed in range(20):
            _assert_move_order_free(subdivide_metric(random.Random(seed), mm), rng)


def _path(*genera: int) -> GenusGraph:
    names = "abcdefg"[: len(genera)]
    return GenusGraph(
        dict(zip(names, genera)),
        {f"e{i}": (names[i], names[i + 1]) for i in range(len(names) - 1)},
    )


def _loop() -> GenusGraph:
    return GenusGraph({"a": 0}, {"l": ("a", "a")})


def _one_tail() -> GenusGraph:
    return single_tail_identity("a", "z").source


def _over_one_edge(source_genus_b: int, sdelta_e0: int) -> DeltaMorphism:
    """Degree one over the edge a'-b'; b may have positive genus."""
    return DeltaMorphism(
        GenusGraph({"a": 0, "b": source_genus_b}, {"e0": ("a", "b")}),
        GenusGraph({"a'": 0, "b'": 0}, {"f": ("a'", "b'")}),
        {"a": "a'", "b": "b'"}, {"e0": "f"}, {"e0": 1}, {"e0": sdelta_e0},
    )


def _degree_two_over_path(fiber_of_z: str) -> DeltaMorphism:
    """Degree two over the path x-y-z, unramified over x-y.

    ``"double"``: one vertex c over z, joined to b by two edges;
    ``"split"``: c1 and c2 over z, each joined to b by one edge.
    """
    edges = {"ab": ("a", "b")}
    if fiber_of_z == "double":
        over_z = {"c": "z"}
        edges.update({"h1": ("b", "c"), "h2": ("b", "c")})
    else:
        over_z = {"c1": "z", "c2": "z"}
        edges.update({"h1": ("b", "c1"), "h2": ("b", "c2")})
    genera = {v: 0 for v in ("a", "b", *over_z)}
    return DeltaMorphism(
        GenusGraph(genera, edges),
        GenusGraph({"x": 0, "y": 0, "z": 0}, {"g": ("x", "y"), "h": ("y", "z")}),
        {"a": "x", "b": "y", **over_z},
        {"ab": "g", "h1": "h", "h2": "h"},
        {"ab": 2, "h1": 1, "h2": 1},
        {"ab": -1, "h1": 0, "h2": 0},
    )


def _tail_onto_finite_end() -> DeltaMorphism:
    """The source tail ends at its infinite leaf w, over the finite w'."""
    source = GenusGraph({"v": 0, "w": 0}, {"e": ("v", "w")}, {"e": INF}, ["w"])
    target = GenusGraph({"v'": 0, "w'": 0}, {"f": ("v'", "w'")}, {"f": INF}, ["v'"])
    return DeltaMorphism(
        source, target, {"v": "v'", "w": "w'"}, {"e": "f"}, {"e": 1}, {"e": 0}
    )


def _last_edge_at_degree_two() -> DeltaMorphism:
    return DeltaMorphism(
        GenusGraph({"a": 0, "b1": 0, "b2": 0}, {"e1": ("a", "b1"), "e2": ("a", "b2")}),
        GenusGraph({"x": 0, "y": 0}, {"g": ("x", "y")}),
        {"a": "x", "b1": "y", "b2": "y"}, {"e1": "g", "e2": "g"},
        {"e1": 1, "e2": 1}, {"e1": 0, "e2": 0},
    )


# (rule, side) -> the graph or morphism, the move and the message.  A fiber
# vertex always exists, and no proper morphism has a loop fiber vertex
# over a non-loop target vertex, or a balanced smoothable fiber vertex
# joining unequal multiplicities or a broken sdelta, so those
# (rule, side) pairs have no row.
MOVE_MESSAGES = {
    ("kind", "graph"): (
        lambda: _path(0, 0), ("fold", "a"), "unknown move kind 'fold'"),
    ("kind", "target"): (
        lambda: identity_morphism(_path(0, 0)), ("fold", "a"),
        "unknown move kind 'fold'"),
    ("vertex", "graph"): (lambda: _path(0, 0), ("leaf", "x"), "no vertex x"),
    ("vertex", "target"): (
        lambda: identity_morphism(_path(0, 0)), ("smooth", "x"),
        "no target vertex x"),
    ("genus-leaf", "graph"): (
        lambda: _path(0, 1), ("leaf", "b"), "vertex b has positive genus"),
    ("genus-smooth", "graph"): (
        lambda: _path(0, 1, 0), ("smooth", "b"), "vertex b has positive genus"),
    ("genus", "target"): (
        lambda: identity_morphism(_path(0, 1)), ("leaf", "b"),
        "target vertex b has positive genus"),
    ("genus", "fiber"): (
        lambda: _over_one_edge(1, 0), ("leaf", "b'"),
        "fiber vertex b has positive genus"),
    ("leaf", "graph"): (
        lambda: _path(0, 0, 0), ("leaf", "b"), "vertex b is not a leaf"),
    ("leaf", "target"): (
        lambda: identity_morphism(_path(0, 0, 0)), ("leaf", "b"),
        "target vertex b is not a leaf"),
    ("leaf", "fiber"): (
        lambda: _degree_two_over_path("double"), ("leaf", "z"),
        "fiber vertex c is not a leaf"),
    ("valence", "graph"): (
        lambda: _path(0, 0), ("smooth", "a"), "vertex a does not have valence 2"),
    ("valence", "target"): (
        lambda: identity_morphism(_path(0, 0)), ("smooth", "a"),
        "target vertex a does not have valence 2"),
    ("valence", "fiber"): (
        lambda: _degree_two_over_path("split"), ("smooth", "y"),
        "fiber vertex b does not have valence 2"),
    ("loop", "graph"): (lambda: _loop(), ("smooth", "a"), "vertex a is a loop vertex"),
    ("loop", "target"): (
        lambda: identity_morphism(_loop()), ("smooth", "a"),
        "target vertex a is a loop vertex"),
    ("isolate", "graph"): (
        _one_tail, ("leaf", "a"),
        "removing leaf a would isolate the infinite leaf z"),
    ("isolate", "target"): (
        lambda: identity_morphism(_one_tail()), ("leaf", "a"),
        "removing leaf a would isolate the infinite leaf z"),
    ("isolate", "fiber"): (
        _tail_onto_finite_end, ("leaf", "v'"),
        "removing leaf v would isolate the infinite leaf w"),
    ("balance", "fiber"): (
        lambda: _over_one_edge(0, 1), ("leaf", "b'"),
        "fiber vertex b has R = -1 != 0"),
    ("last-edge", "target"): (
        _last_edge_at_degree_two, ("leaf", "y"),
        "cannot contract the last target edge at degree > 1"),
}


@pytest.mark.parametrize(
    "rule, side", list(MOVE_MESSAGES), ids=["-".join(k) for k in MOVE_MESSAGES]
)
def test_illegal_move_message(rule, side):
    build, move, message = MOVE_MESSAGES[(rule, side)]
    obj = build()
    contract = contract_graph if side == "graph" else contract_morphism
    with pytest.raises(IllegalMoveError) as info:
        contract(obj, move)
    assert str(info.value) == message
    if side != "graph":
        assert move not in applicable_moves(obj)


@pytest.mark.parametrize("kind", [7, None, ("leaf",), "k" * 500])
def test_unknown_move_kind_is_shown_whole(kind):
    """The kind is not an id: its message shows its ``repr``, uncut."""
    for contract, obj in (contract_graph, _path(0, 0)), (
        contract_morphism, identity_morphism(_path(0, 0))
    ):
        with pytest.raises(IllegalMoveError) as info:
            contract(obj, (kind, "a"))
        assert str(info.value) == f"unknown move kind {kind!r}"


@pytest.mark.parametrize("name", sorted(LONG_ID_MESSAGES))
def test_long_id_is_cut_in_the_message(name):
    """Each message, or ``is_special`` reason, showed a 1,000-character id whole."""
    call, message = LONG_ID_MESSAGES[name]
    try:
        shown = call().reason
    except ValueError as exc:
        shown = str(exc)
    assert shown == message


# -- smoothing between parallel target edges ------------------------------------


def _two_edge_cycle_cover(sigma, tau, mult=1, slope=0, names=None, turn=()):
    """A cover of the cycle ``f1: x' -> v'``, ``f2: v' -> x'``.

    Over ``f1`` run the edges ``x_i -> v_sigma(i)``, over ``f2`` the edges
    ``v_j -> x_tau(j)``, all of multiplicity ``mult`` with sdelta ``slope``
    along that direction.  ``names`` renames the source edges; an edge in
    ``turn`` is stored the other way round, with its sdelta negated.
    """
    d = len(sigma)
    ends, emap = {}, {}
    for i in range(d):
        ends[f"p{i}"], emap[f"p{i}"] = (f"x{i}", f"v{sigma[i]}"), "f1"
        ends[f"q{i}"], emap[f"q{i}"] = (f"v{i}", f"x{tau[i]}"), "f2"
    names = names or {e: e for e in ends}
    sdelta = {names[e]: -slope if e in turn else slope for e in ends}
    ends = {names[e]: (y, x) if e in turn else (x, y) for e, (x, y) in ends.items()}
    genera = {f"{c}{i}": 0 for c in "xv" for i in range(d)}
    return DeltaMorphism(
        GenusGraph(genera, ends),
        GenusGraph({"x'": 0, "v'": 0}, {"f1": ("x'", "v'"), "f2": ("v'", "x'")}),
        {v: f"{v[0]}'" for v in genera},
        {names[e]: f for e, f in emap.items()},
        dict.fromkeys(ends, mult),
        sdelta,
    )


def _assert_stable_round_trip(m: DeltaMorphism) -> DeltaMorphism:
    out = stabilize(m)
    assert is_stable(out)
    assert out.rh_divisor_identity().ok and out.rh_degree_identity().ok
    back = morphism_from_json_dict(morphism_to_json_dict(out))
    assert type(back) is type(out) and vars(back) == vars(out)
    return out


class TestParallelEdgeSmoothing:
    def test_degree_two_cover_stabilizes(self):
        # a: x0-v0 and z: x1-v1 over f1, b: v0-x1 and d: v1-x0 over f2; at
        # v1 the kept source edge d lies over the dropped target edge f2
        names = {"p0": "a", "p1": "z", "q0": "b", "q1": "d"}
        m = _two_edge_cycle_cover((0, 1), (1, 0), names=names)
        assert applicable_moves(m)[0] == ("smooth", "v'")
        out = _assert_stable_round_trip(m)
        assert out.target.edge_ids == ("f1",) and len(set(out.target.endpoints("f1"))) == 1
        assert {e: out.source.endpoints(e) for e in out.source.edge_ids} == {
            "a": ("x0", "x1"),
            "d": ("x1", "x0"),
        }

    def test_metric_degree_two_cover_stabilizes(self):
        names = {"p0": "a", "p1": "z", "q0": "b", "q1": "d"}
        plain = _two_edge_cycle_cover((0, 1), (1, 0), names=names)
        graphs = []
        for g in (plain.source, plain.target):
            lengths = {
                e: Fraction(1 if "f1" in (e, plain.edge_map.get(e)) else 2)
                for e in g.edge_ids
            }
            genera = {v: g.genus_of(v) for v in g.vertices}
            ends = {e: g.endpoints(e) for e in g.edge_ids}
            graphs.append(GenusGraph(genera, ends, lengths))
        m = DeltaMorphism(
            *graphs, plain.vertex_map, plain.edge_map, plain.mult,
            {e: plain.sdelta((e, True)) for e in plain.source.edge_ids},
        )
        mm = MetricDeltaMorphism(m, dict.fromkeys(m.source.vertices, LogAbs(0)), WILD2)
        out = _assert_stable_round_trip(mm)
        assert out.target.length("f1") == 3
        assert [out.source.length(e) for e in out.source.edge_ids] == [3, 3]

    @pytest.mark.parametrize("turn", [(), ("p0",), ("q0",), ("p0", "q0")])
    def test_result_does_not_depend_on_source_edge_names(self, turn):
        # a degree-one cover: the merged loop runs along the target loop
        # whichever of its two source edges keeps its id
        plain = _two_edge_cycle_cover((0,), (0,), slope=2, names={"p0": "a", "q0": "b"})
        swapped = _two_edge_cycle_cover(
            (0,), (0,), slope=2, names={"p0": "b", "q0": "a"}, turn=turn
        )
        assert morphism_to_json_dict(stabilize(swapped)) == morphism_to_json_dict(
            stabilize(plain)
        )
        assert stabilize(plain).sdelta(("a", True)) == 2

    def test_permutation_covers(self):
        done = 0
        for seed in range(200):
            rng = random.Random(seed)
            mult = rng.randint(1, 2)
            d = rng.randint(1, 4 // mult)
            sigma, tau = rng.sample(range(d), d), rng.sample(range(d), d)
            edges = [f"{c}{i}" for c in "pq" for i in range(d)]
            names = dict(zip(edges, rng.sample([f"e{k}" for k in range(2 * d)], 2 * d)))
            turn = {e for e in edges if rng.random() < 0.5}
            try:
                m = _two_edge_cycle_cover(
                    sigma, tau, mult, rng.randint(-2, 2), names, turn
                )
            except NotProperError:  # a disconnected source
                continue
            out = _assert_stable_round_trip(m)
            assert out.degree == d * mult and out.target.edge_ids == ("f1",)
            done += 1
        assert done > 100


# -- the metric checks against the unmemoized loop --------------------------------


def _metric_bases():
    for tag in LIFTABLE_TAGS:
        setting = setting_for(tag)
        yield tag, metric_lift(tag, canonical_lengths(tag, setting), setting)
    for path in sorted(FIXTURES.glob("*_metric.morphism.json")):
        yield path.name, morphism_from_json_dict(json.loads(path.read_text()))


class _Unchecked:
    """The graphs and maps of a morphism, unchecked: a base the core may
    reject, which the reference and ``MetricDeltaMorphism`` both read."""

    _delta = None
    sdelta = DeltaMorphism.sdelta

    def __init__(self, source, target, vertex_map, edge_map, mult, sdelta):
        self.source, self.target, self.vertex_map = source, target, vertex_map
        self.edge_map, self.mult, self._sdelta = edge_map, mult, sdelta


def _rebuild(mm, sdelta=None, src_len=None, tgt_len=None) -> _Unchecked:
    """The combinatorial data of ``mm`` with some of it replaced."""
    graphs = []
    for g, lengths in ((mm.source, src_len), (mm.target, tgt_len)):
        graphs.append(
            GenusGraph(
                {v: g.genus_of(v) for v in g.vertices},
                {e: g.endpoints(e) for e in g.edge_ids},
                lengths or {e: g.length(e) for e in g.edge_ids},
                g.infinite_leaves,
            )
        )
    return _Unchecked(
        *graphs,
        mm.vertex_map,
        mm.edge_map,
        mm.mult,
        sdelta or {e: mm.sdelta((e, True)) for e in mm.source.edge_ids},
    )


def _metric_mutants(mm, rng: random.Random):
    """``(combinatorial data, delta)`` pairs, each with one value changed,
    or (``shift``) every finite delta moved alike, which keeps linearity."""
    src, tgt = mm.source, mm.target
    lengths = {e: src.length(e) for e in src.edge_ids}
    finite = [e for e in tgt.edge_ids if tgt.length(e) is not INF]
    for _ in range(40):
        delta, base = dict(mm.delta), mm
        kind = rng.choice(("delta", "slope", "length", "rescale", "shift"))
        if kind == "shift":
            c = rng.choice((Fraction(-1, 2), -1, Fraction(-1, 3), Fraction(1, 3)))
            delta = {v: d if d.is_neg_inf else d.value + c for v, d in delta.items()}
        elif kind == "delta":
            v = rng.choice(src.vertices)
            shift = rng.choice((Fraction(-1, 2), Fraction(1, 3), -1, 1))
            choices = [NEG_INF, LogAbs(0), mm.setting.int_abs(2), mm.setting.int_abs(3)]
            if not delta[v].is_neg_inf:
                choices.append(delta[v].value + shift)
            delta[v] = rng.choice(choices)
        elif kind == "slope":
            e = rng.choice(src.edge_ids)
            sdelta = {x: mm.sdelta((x, True)) for x in src.edge_ids}
            sdelta[e] = rng.choice((-1, 1, -2, 2)) + sdelta[e]
            base = _rebuild(mm, sdelta=sdelta)
        elif kind == "length":
            g, side = rng.choice(((src, "src_len"), (tgt, "tgt_len")))
            e = rng.choice(g.edge_ids)
            changed = {x: g.length(x) for x in g.edge_ids}
            if changed[e] is not INF:
                changed[e] *= rng.choice((2, Fraction(1, 2), Fraction(3, 2)))
            base = _rebuild(mm, **{side: changed})
        elif finite:  # a target edge and the source edges over it, scaled alike
            f = rng.choice(finite)
            k = rng.choice((2, Fraction(1, 2), Fraction(1, 3)))
            tgt_len = {x: tgt.length(x) * k if x == f else tgt.length(x) for x in tgt.edge_ids}
            src_len = {
                x: l * k if mm.edge_map[x] == f else l for x, l in lengths.items()
            }
            base = _rebuild(mm, src_len=src_len, tgt_len=tgt_len)
        yield base, delta


class TestAttachDeltaAgainstReference:
    def test_mutants_agree_with_unmemoized_checks(self):
        rng = random.Random(17)
        outcomes = set()
        for name, mm in _metric_bases():
            assert _reference_attach_delta(mm, mm.delta, mm.setting) is None, name
            for base, delta in _metric_mutants(mm, rng):
                expected = _reference_attach_delta(base, delta, mm.setting)
                try:
                    MetricDeltaMorphism(base, delta, mm.setting)
                    got = None
                except ValueError as exc:
                    got = str(exc)
                assert got == expected, name
                outcomes.add(expected is None)
                if expected is not None:
                    outcomes.add(expected.split(" ")[0])
        # both verdicts and several rules occur
        assert {True, False, "edge", "delta", "dilation"} <= outcomes


# -- random metric morphisms against the reference ----------------------------------


def _one_value_mutant(mm, rng: random.Random):
    """``(kind, document, base, delta, setting)`` for ``mm`` with one length,
    delta value, slope, multiplicity or the setting changed: the mutant's
    morphism file, and the combinatorial data (or the NotProperError that
    building on it raises) with the delta values and the setting."""
    src, tgt = mm.source, mm.target
    delta, setting, base = dict(mm.delta), mm.setting, mm
    sdelta = {e: mm.sdelta((e, True)) for e in src.edge_ids}
    kind = rng.choice(("length", "delta", "slope", "multiplicity", "setting"))
    if kind == "length":
        g, side = rng.choice(((src, "src_len"), (tgt, "tgt_len")))
        changed = {x: g.length(x) for x in g.edge_ids}
        finite = [x for x in g.edge_ids if g.length(x) is not INF]
        if finite:
            changed[rng.choice(finite)] *= rng.choice((2, Fraction(1, 2), Fraction(2, 3)))
        base = _rebuild(mm, **{side: changed})
    elif kind == "delta":
        v = rng.choice(src.vertices)
        choices = [NEG_INF, LogAbs(0), setting.int_abs(2), setting.int_abs(3)]
        if not delta[v].is_neg_inf:
            choices.append(delta[v].value + rng.choice((Fraction(-1, 2), Fraction(1, 3), -1)))
        delta[v] = rng.choice(choices)
    elif kind == "slope":
        e = rng.choice(src.edge_ids)
        sdelta[e] += rng.choice((-2, -1, 1, 2))
        base = _rebuild(mm, sdelta=sdelta)
    elif kind == "multiplicity":
        e = rng.choice(src.edge_ids)
        mult = dict(mm.mult)
        mult[e] = rng.choice([k for k in (mult[e] - 1, mult[e] + 1) if k >= 1])
        base = _Unchecked(src, tgt, mm.vertex_map, mm.edge_map, mult, sdelta)
        try:  # properness, which the reference does not restate
            MetricDeltaMorphism(base, delta, setting)
        except NotProperError as exc:
            base = exc
        except ValueError:
            pass
        doc = morphism_to_json_dict(mm)
        doc["n"] = mult
        return kind, doc, base, delta, setting
    else:
        setting = ResidueSetting.parse(rng.choice(NON_TAME_SETTINGS))
    doc = morphism_to_json_dict(base)
    doc["delta"] = {v: str(d) for v, d in delta.items()}
    doc["setting"] = setting.describe()
    return kind, doc, base, delta, setting


def _message(build) -> str:
    """None if ``build()`` succeeds, else the message of its ValueError."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


class TestRandomMetricMorphisms:
    def test_draws_and_one_value_mutants_agree_with_the_reference(self):
        seen = set()
        for name in NON_TAME_SETTINGS:
            setting = ResidueSetting.parse(name)
            rng = random.Random(f"metric-{name}")
            for _ in range(500):
                mm = random_metric_delta_morphism(rng, setting)
                data = morphism_to_json_dict(mm)
                back = morphism_from_json_dict(json.loads(json.dumps(data)))
                assert morphism_to_json_dict(back) == data
                assert (back.delta, back.setting) == (mm.delta, mm.setting)
                for g, h in ((mm.source, back.source), (mm.target, back.target)):
                    assert h == g and all(h.length(e) == g.length(e) for e in g.edge_ids)
                kind, doc, base, delta, st = _one_value_mutant(mm, rng)
                if isinstance(base, NotProperError):
                    expected = str(base)
                else:
                    expected = _reference_attach_delta(base, delta, st)
                    got = _message(lambda: MetricDeltaMorphism(base, delta, st))
                    assert got == expected, (name, kind)
                doc = json.loads(json.dumps(doc))
                assert _message(lambda: morphism_from_json_dict(doc)) == expected, (name, kind)
                seen.add((kind, None if expected is None else expected.split(" ")[0]))
        # every kind of mutant is rejected, and each metric rule fires
        assert {k for k, first in seen if first} == {
            "length", "delta", "slope", "multiplicity", "setting"
        }
        assert {"dilation", "delta", "edge", "multiplicity"} <= {first for _, first in seen}
