from fractions import Fraction

import pytest

from wildskel.delta_morphism import (
    DeltaMorphism,
    MetricDeltaMorphism,
    morphism_from_json_dict,
    morphism_to_json_dict,
)
from wildskel.elliptic import EllipticInput, classify_elliptic
from wildskel.genus_graph import MetricGenusGraph
from wildskel import radial
from wildskel.radial import (
    StrictnessReport,
    WrongDegreeError,
    degree_p_locus,
    radial_vs_ball,
    supersingular_witness,
)
from wildskel.special import LIFTABLE_TAGS, Lengths, build_special, metric_lift
from wildskel.valuation import LogAbs

from tests.support import (
    MIXED2,
    TAME0,
    WILD2,
    canonical_lengths,
    kummer_segment,
    one_edge_identity,
    setting_for,
)


class TestDegreePLocus:
    def test_kummer_constant_radius(self):
        for p, log_p in ((2, Fraction(-1)), (3, Fraction(-1)), (5, Fraction(-2, 3))):
            mm = kummer_segment(p, log_p)
            desc = degree_p_locus(mm, p)
            expected = -log_p / (p - 1)
            for num in range(0, 5):
                assert desc.radius_at("e", Fraction(num, 4)) == expected

    def test_radius_zero_where_delta_one(self):
        mm = metric_lift("WB", Lengths(l0=Fraction(1)), WILD2)
        desc = degree_p_locus(mm, 2)
        # the core is not in the center (multiplicity 1 there); tails are
        for e in desc.center.edge_ids:
            assert desc.radius_at(e, 0) == 0  # delta = 1 at the finite end

    def test_slope_scaling(self):
        # slope -3 of log delta over p = 2 gives radius slope 3
        mm = metric_lift(
            "MS", Lengths(l1=Fraction(1, 2), l3=Fraction(1, 6)), MIXED2
        )
        desc = degree_p_locus(mm, 2)
        slope3 = [
            e
            for e in desc.center.edge_ids
            if abs(mm.morphism.sdelta((e, True))) == 3
        ][0]
        r = desc.radii[slope3]
        assert r.value_at(Fraction(1, 6)) - r.value_at(0) == Fraction(1, 2)
        assert [s for *_, s in r.neg_log_delta.segments()] == [3]

    def test_wrong_degree(self):
        mm = kummer_segment(3, Fraction(-1))
        with pytest.raises(WrongDegreeError):
            degree_p_locus(mm, 2)

    def test_p_one_has_no_radius(self):
        # a degree-1 cover used to give denominator 0, and radius_at a ZeroDivisionError
        mm = one_edge_identity()
        with pytest.raises(ValueError) as info:
            degree_p_locus(mm, 1)
        assert (type(info.value), str(info.value)) == (ValueError, "p must be at least 2, got 1")
        with pytest.raises(WrongDegreeError, match=r"^morphism has degree 1, expected 0$"):
            degree_p_locus(mm, 0)  # the degree is tested first

    @pytest.mark.parametrize("p", [2.0, True, 1.5, None])
    def test_p_is_an_integer(self, p):
        # 2.0 used to build denominator 1.0, whose JSON form was a bare TypeError
        mm = kummer_segment(2, Fraction(-1))
        with pytest.raises(ValueError) as info:
            degree_p_locus(mm, p)
        assert (type(info.value), str(info.value)) == (ValueError, f"p is {p!r}, not an integer")

    def test_bool_p_is_read_before_the_degree(self):
        # True equals the degree of a degree-1 cover
        with pytest.raises(ValueError, match=r"^p is True, not an integer$"):
            degree_p_locus(one_edge_identity(), True)

    def test_a_morphism_without_delta_values_is_named(self):
        # a plain morphism (or metric graphs without delta) was a bare TypeError
        doc = morphism_to_json_dict(kummer_segment(2, Fraction(-1)))
        del doc["delta"], doc["setting"]
        for m in (build_special("WB"), morphism_from_json_dict(doc)):
            with pytest.raises(WrongDegreeError):
                degree_p_locus(m, 3)  # the degree and p are read first
            with pytest.raises(ValueError) as info:
                degree_p_locus(m, 2)
            assert (type(info.value), str(info.value)) == (
                ValueError, "morphism has no delta values"
            )

    def test_pointwise_oracle(self):
        mm = metric_lift(
            "MS", Lengths(l1=Fraction(1, 2), l3=Fraction(1, 6)), MIXED2
        )
        desc = degree_p_locus(mm, 2)
        for e in desc.center.edge_ids:
            prof = mm.delta_profile(e)
            length = mm.source.length(e)
            for k in range(8):
                x = Fraction(k, 48)
                if not x <= length:
                    break
                assert desc.radius_at(e, x) == -prof.value_at(x)

    def test_center_excludes_split_part(self):
        mm = metric_lift("WB", Lengths(l0=Fraction(1)), WILD2)
        desc = degree_p_locus(mm, 2)
        # the two loop edges have multiplicity one and are excluded
        assert len(desc.center.edge_ids) == 2
        for e in desc.center.edge_ids:
            assert mm.morphism.mult[e] == 2


    @pytest.mark.parametrize(
        "tag, lengths", [("WB", Lengths(l0=Fraction(1))), ("WO", Lengths())]
    )
    def test_radius_starts_at_the_finite_end_either_way(self, tag, lengths):
        """Reversing every source edge (and its slope) moves the infinite
        leaf of each tail to the edge's start; the radii stay the same."""
        mm = metric_lift(tag, lengths, WILD2)
        data = morphism_to_json_dict(mm)
        for edge in data["source"]["edges"]:
            edge["from"], edge["to"] = edge["to"], edge["from"]
        data["sdelta"] = {e: -s for e, s in data["sdelta"].items()}
        flipped = morphism_from_json_dict(data)
        assert any(flipped.delta[flipped.source.endpoints(e)[0]].is_neg_inf
                   for e in flipped.source.edge_ids)
        radii = degree_p_locus(mm, 2).to_json_dict()["per_edge_radius"]
        assert degree_p_locus(flipped, 2).to_json_dict()["per_edge_radius"] == radii

    @pytest.mark.parametrize("tag", LIFTABLE_TAGS)
    def test_the_center_stores_its_vertices_in_id_order(self, tag):
        # the genus dict followed a set's order, which the hash seed picks; a
        # working copy of the center (contract_graph, contract_morphism) keeps it
        setting = setting_for(tag)
        mm = metric_lift(tag, canonical_lengths(tag, setting), setting)
        center = degree_p_locus(mm, 2).center
        assert list(center._genus) == list(center.vertices)


class TestRadialVsBall:
    def test_constant_radius_is_equal(self):
        mm = kummer_segment(2, Fraction(-1))
        assert not radial_vs_ball(degree_p_locus(mm, 2)).strict

    def test_slope_one_boundary_is_equal(self):
        # WO tails: log delta has slope -1, radius decreases at rate exactly 1
        mm = metric_lift("WO", Lengths(), WILD2)
        report = radial_vs_ball(degree_p_locus(mm, 2))
        assert not report.strict

    def test_slope_three_is_strict(self):
        mm = metric_lift("WS", Lengths(l3=Fraction(1, 2)), WILD2)
        report = radial_vs_ball(degree_p_locus(mm, 2))
        assert report.strict
        assert abs(mm.morphism.sdelta((report.witness_edge, True))) == 3

    def test_invariant_under_subdivision(self):
        # subdividing the slope-3 edge of a Kummer-like segment changes nothing
        setting = WILD2
        src = MetricGenusGraph(
            {"u": 0, "m": 0, "v": 0},
            {"e1": ("u", "m"), "e2": ("m", "v")},
            {"e1": Fraction(1, 4), "e2": Fraction(1, 4)},
        )
        tgt = MetricGenusGraph(
            {"u'": 0, "m'": 0, "v'": 0},
            {"e1'": ("u'", "m'"), "e2'": ("m'", "v'")},
            {"e1'": Fraction(1, 2), "e2'": Fraction(1, 2)},
        )
        dm = DeltaMorphism(
            src,
            tgt,
            {"u": "u'", "m": "m'", "v": "v'"},
            {"e1": "e1'", "e2": "e2'"},
            {"e1": 2, "e2": 2},
            {"e1": -3, "e2": -3},
        )
        mm = MetricDeltaMorphism(
            dm,
            {
                "u": LogAbs(0),
                "m": LogAbs(Fraction(-3, 4)),
                "v": LogAbs(Fraction(-3, 2)),
            },
            setting,
        )
        assert radial_vs_ball(degree_p_locus(mm, 2)).strict

        whole = MetricDeltaMorphism(
            DeltaMorphism(
                MetricGenusGraph(
                    {"u": 0, "v": 0}, {"e": ("u", "v")}, {"e": Fraction(1, 2)}
                ),
                MetricGenusGraph(
                    {"u'": 0, "v'": 0}, {"e'": ("u'", "v'")}, {"e'": Fraction(1)}
                ),
                {"u": "u'", "v": "v'"},
                {"e": "e'"},
                {"e": 2},
                {"e": -3},
            ),
            {"u": LogAbs(0), "v": LogAbs(Fraction(-3, 2))},
            setting,
        )
        assert radial_vs_ball(degree_p_locus(whole, 2)).strict


class TestSupersingularWitness:
    def test_supersingular_types_true(self):
        assert supersingular_witness(
            classify_elliptic(EllipticInput.of(MIXED2, Fraction(-4)))
        )
        assert supersingular_witness(
            classify_elliptic(EllipticInput.j_zero(MIXED2))
        )
        assert supersingular_witness(
            classify_elliptic(EllipticInput.of(WILD2, Fraction(-6)))
        )
        assert supersingular_witness(
            classify_elliptic(EllipticInput.j_zero(WILD2))
        )

    def test_other_types_false(self):
        assert not supersingular_witness(
            classify_elliptic(EllipticInput.of(MIXED2, Fraction(0)))
        )
        assert not supersingular_witness(
            classify_elliptic(EllipticInput.of(MIXED2, Fraction(3)))
        )
        assert not supersingular_witness(
            classify_elliptic(EllipticInput.of(TAME0, Fraction(-1)))
        )
        assert not supersingular_witness(
            classify_elliptic(EllipticInput.of(WILD2, Fraction(0)))
        )

    def test_disagreement_is_an_assertion_error(self, monkeypatch):
        report = classify_elliptic(EllipticInput.of(MIXED2, Fraction(0)))  # MO
        monkeypatch.setattr(radial, "radial_vs_ball", lambda r: StrictnessReport(True, "e"))
        with pytest.raises(AssertionError) as info:
            supersingular_witness(report)
        assert str(info.value) == (
            "witness disagreement for MO: type=False scan=False radial=True"
        )
