import json
import random
from fractions import Fraction

import pytest

from wildskel.delta_morphism import (
    DeltaMorphism, MetricDeltaMorphism, morphism_to_json_dict, stabilize,
)
from wildskel.genus_graph import GenusGraph
from wildskel.special import (
    LIFTABLE_TAGS,
    SPECIAL_TAGS,
    Lengths,
    RootSubtree,
    SpecialType,
    UnliftableError,
    bar_discriminator,
    build_special,
    classify_special,
    enumerate_root_subtrees,
    enumerate_special,
    is_special,
    metric_lift,
    ramification_signature,
)

from tests.support import (
    FIXTURES,
    MIXED2,
    TAME0,
    TAME3,
    WILD2,
    canonical_lengths,
    even_slope,
    setting_for,
    split_leaves,
    subdivide_metric,
)


class TestRootSubtrees:
    def test_inventory_of_four_leaves(self):
        trees = enumerate_root_subtrees(4)
        assert len(trees) == 8
        single = [t for t in trees if not t.children]
        assert sorted(t.label for t in single) == [0, 1, 3]
        assert sorted(t.slope_index for t in single) == [1, 2, 4]

    def test_single_leaf_budget(self):
        trees = enumerate_root_subtrees(1)
        assert len(trees) == 3
        assert all(not t.children for t in trees)

    def test_slope_index_equals_leaf_r_sum(self):
        for t in enumerate_root_subtrees(4):
            assert sum(t.leaf_r_values()) == t.slope_index

    def test_upward_slopes_nonpositive(self):
        # labels are the negated upward slopes, so nonnegativity is the claim
        def walk(t):
            assert t.label >= 0
            for c in t.children:
                walk(c)

        for t in enumerate_root_subtrees(4):
            walk(t)

    def test_all_labels_odd_or_zero(self):
        def labels(t):
            yield t.label
            for c in t.children:
                yield from labels(c)

        for t in enumerate_root_subtrees(4):
            assert all(l == 0 or l % 2 == 1 for l in labels(t))

    @pytest.mark.parametrize("max_leaves", [0, -1])
    def test_no_leaves_rejected(self, max_leaves):
        with pytest.raises(ValueError, match="^max_leaves must be at least 1$"):
            enumerate_root_subtrees(max_leaves)

    @pytest.mark.parametrize("max_leaves", [1.5, 4.0, True, None, "x"])
    def test_max_leaves_is_an_integer(self, max_leaves):
        # 1.5 used to act as 1, and None or text a bare TypeError
        with pytest.raises(ValueError) as info:
            enumerate_root_subtrees(max_leaves)
        message = f"max_leaves is {max_leaves!r}, not an integer"
        assert (type(info.value), str(info.value)) == (ValueError, message)

    def test_max_leaves_text_reads_as_its_integer(self):
        assert enumerate_root_subtrees("3") == enumerate_root_subtrees(3)

    @pytest.mark.parametrize("label", [1.0, 1.5, True, None, "x"])
    def test_a_label_is_an_integer(self, label):
        # 1.0 described itself as '1.0', and None or text was a bare TypeError
        with pytest.raises(ValueError) as info:
            RootSubtree(label)
        message = f"label is {label!r}, not an integer"
        assert (type(info.value), str(info.value)) == (ValueError, message)

    def test_label_text_reads_as_its_integer(self):
        tree = RootSubtree("1", (RootSubtree("0"), RootSubtree(Fraction(0))))
        assert tree == RootSubtree(1, (RootSubtree(0), RootSubtree(0)))
        assert tree.describe() == "1(0,0)"

    def test_invalid_trees_rejected(self):
        with pytest.raises(ValueError):
            RootSubtree(2)  # even nonzero label
        with pytest.raises(ValueError):
            RootSubtree(-1)
        with pytest.raises(ValueError):
            RootSubtree(3, (RootSubtree(3),))  # single child
        with pytest.raises(ValueError):
            RootSubtree(1, (RootSubtree(0), RootSubtree(1)))  # bad index sum


class TestIsSpecial:
    def test_wb_is_special_wild(self):
        check = is_special(build_special("WB"))
        assert check.ok
        assert check.characteristic_class == "wild"

    def test_identity_violates_degree(self):
        g = GenusGraph({"a": 1}, {})
        m = DeltaMorphism(g, g, {"a": "a"}, {}, {}, {})
        check = is_special(m)
        assert not check.ok
        assert "violated(1)" in check.reason

    def test_interior_ramification_violates_leaf_condition(self):
        # degree-2 cover of a path with an unbalanced middle vertex
        source = GenusGraph(
            {"a": 1, "b": 0, "c": 0}, {"e": ("a", "b"), "f": ("b", "c")}
        )
        target = GenusGraph(
            {"x": 0, "y": 0, "z": 0}, {"g": ("x", "y"), "h": ("y", "z")}
        )
        m = DeltaMorphism(
            source,
            target,
            {"a": "x", "b": "y", "c": "z"},
            {"e": "g", "f": "h"},
            {"e": 2, "f": 2},
            {"e": -1, "f": -3},
        )
        assert m.differential_index("b") == -2
        check = is_special(m)
        assert not check.ok
        assert "violated(2)" in check.reason

    def test_leaf_of_multiplicity_one_violates_the_leaf_condition(self):
        check = is_special(split_leaves("w1"))
        assert not check.ok
        assert check.reason == "violated(2): leaf w1 has R = 1 but multiplicity 1"

    def test_even_nonzero_slope_violates_condition_five(self):
        check = is_special(even_slope("e"))
        assert not check.ok
        assert check.reason == "violated(5): edge e has even nonzero slope -2"

    def test_all_twelve_pass(self):
        for tag in SPECIAL_TAGS:
            check = is_special(build_special(tag))
            assert check.ok, (tag, check.reason)
            assert check.characteristic_class == SpecialType(tag).characteristic_class


class TestClassify:
    def test_each_shape_classifies_to_itself(self):
        for tag in SPECIAL_TAGS:
            assert classify_special(build_special(tag)).tag == tag

    def test_star_of_four_tame_tails_is_tg(self):
        assert classify_special(build_special("TG")).tag == "TG"

    def test_single_slope3_tail_is_wss(self):
        assert classify_special(build_special("WSS")).tag == "WSS"

    def test_non_special_rejected(self):
        g = GenusGraph({"a": 1}, {})
        m = DeltaMorphism(g, g, {"a": "a"}, {}, {}, {})
        with pytest.raises(ValueError):
            classify_special(m)

    def test_the_incoherent_loop_is_special_and_unclassifiable(self):
        # a loop with two tame tails on one side and a mixed cherry on the
        # other; tests/test_census.py finds it the one special morphism on a
        # tree of at most eight vertices that matches none of the twelve
        from wildskel.special import _0L, _1C, UnclassifiableError, _build

        m = _build("loop", ((_0L, _0L), (_1C,)))
        assert is_special(m)
        with pytest.raises(UnclassifiableError) as caught:
            classify_special(m)
        assert str(caught.value) == "unknown bad-reduction shape (('0', '0'), ('1(0,0)',))"


class TestEnumerateSpecial:
    def test_twelve_types(self):
        pairs = enumerate_special()
        assert [t.tag for t, _ in pairs] == list(SPECIAL_TAGS)

    def test_signatures(self):
        expected = {
            "TB": (1, 1, 1, 1),
            "MB": (1, 1, 1, 1),
            "WB": (2, 2),
            "TG": (1, 1, 1, 1),
            "MO": (1, 1, 1, 1),
            "WO": (2, 2),
            "MS": (1, 1, 1, 1),
            "WS": (2, 2),
            "MSS": (1, 1, 1, 1),
            "WSS": (4,),
            "ME": (1, 1, 1, 1),
            "MES": (1, 1, 1, 1),
        }
        for t, m in enumerate_special():
            assert ramification_signature(m) == expected[t.tag]

    def test_wild_and_exceptional_membership(self):
        wild = {t.tag for t, _ in enumerate_special() if
                t.characteristic_class == "wild"}
        assert wild == {"WB", "WO", "WS", "WSS"}
        exceptional = {t.tag for t, _ in enumerate_special() if not t.liftable}
        assert exceptional == {"ME", "MES"}

    def test_degree_identity_with_r_sum_four(self):
        for _, m in enumerate_special():
            rep = m.rh_degree_identity()
            assert rep.ok and rep.r_sum == 4

    def test_built_enumerated_and_fixture_morphisms_are_equal(self):
        """The fixtures pin the ids ``build_special`` assigns."""
        for t, m in enumerate_special():
            fixture = json.loads((FIXTURES / f"{t.tag.lower()}.morphism.json").read_text())
            built = morphism_to_json_dict(build_special(t.tag))
            assert built == morphism_to_json_dict(m) == fixture, t.tag


class TestMetricLift:
    def test_ten_liftable_two_not(self):
        for tag in SPECIAL_TAGS:
            setting = setting_for(tag)
            if tag in LIFTABLE_TAGS:
                mm = metric_lift(tag, canonical_lengths(tag, setting), setting)
                assert isinstance(mm, MetricDeltaMorphism)
            else:
                with pytest.raises(UnliftableError):
                    metric_lift(tag, Lengths(), setting)

    def test_mb_example(self):
        mm = metric_lift("MB", Lengths(l0=Fraction(2), l1=Fraction(1)), MIXED2)
        assert isinstance(mm, MetricDeltaMorphism)

    def test_ms_example(self):
        mm = metric_lift(
            "MS", Lengths(l1=Fraction(1, 2), l3=Fraction(1, 6)), MIXED2
        )
        assert isinstance(mm, MetricDeltaMorphism)

    def test_mixed_constraint_enforced(self):
        with pytest.raises(UnliftableError):
            metric_lift("MS", Lengths(l1=Fraction(1, 2), l3=Fraction(1, 3)), MIXED2)
        with pytest.raises(UnliftableError):
            metric_lift("MB", Lengths(l0=Fraction(1), l1=Fraction(1, 2)), MIXED2)

    def test_zero_length_on_required_edge(self):
        with pytest.raises(UnliftableError):
            metric_lift("WB", Lengths(), WILD2)

    def test_extraneous_length_rejected(self):
        with pytest.raises(UnliftableError):
            metric_lift("WO", Lengths(l3=Fraction(1)), WILD2)

    def test_setting_class_must_match(self):
        with pytest.raises(UnliftableError):
            metric_lift("WB", Lengths(l0=Fraction(1)), MIXED2)
        with pytest.raises(UnliftableError):
            metric_lift("MB", Lengths(l0=1, l1=1), TAME3)

    def test_tame_other_characteristic(self):
        mm = metric_lift("TG", Lengths(), TAME3)
        assert isinstance(mm, MetricDeltaMorphism)

    def test_constructor_accepts_iff_weighted_sum_matches(self):
        rng = random.Random(31)
        mixed_types = ["MB", "MO", "MS", "MSS"]
        for _ in range(300):
            tag = rng.choice(mixed_types)
            good = rng.random() < 0.5
            if tag == "MB":
                l0 = Fraction(rng.randint(1, 8), rng.randint(1, 4))
                l1 = Fraction(1) if good else Fraction(rng.randint(2, 8), 2)
                lengths = Lengths(l0=l0, l1=l1)
                valid = l1 == 1
            elif tag == "MO":
                l1 = Fraction(1) if good else Fraction(rng.randint(2, 8), 3)
                lengths = Lengths(l1=l1)
                valid = l1 == 1
            elif tag == "MS":
                l1 = Fraction(rng.randint(1, 11), 12)
                l3 = (1 - l1) / 3 if good else Fraction(rng.randint(1, 8), 5)
                lengths = Lengths(l1=l1, l3=l3)
                valid = l1 + 3 * l3 == 1
            else:
                l3 = Fraction(1, 3) if good else Fraction(rng.randint(2, 9), 7)
                lengths = Lengths(l3=l3)
                valid = 3 * l3 == 1
            if valid:
                metric_lift(tag, lengths, MIXED2)
            else:
                with pytest.raises(UnliftableError):
                    metric_lift(tag, lengths, MIXED2)


class TestBarDiscriminator:
    def test_examples(self):
        assert bar_discriminator(Lengths(l0=1, l1=1), MIXED2).tag == "MB"
        assert bar_discriminator(Lengths(l0=0, l1=1), MIXED2).tag == "MO"
        assert bar_discriminator(Lengths(l0=0, l1=Fraction(3, 4)), MIXED2).tag == "MS"

    def test_roundtrip_through_lift(self):
        rng = random.Random(37)
        for _ in range(100):
            tag = rng.choice(["MB", "MO", "MS"])
            if tag == "MB":
                lengths = Lengths(
                    l0=Fraction(rng.randint(1, 9), rng.randint(1, 3)), l1=Fraction(1)
                )
            elif tag == "MO":
                lengths = Lengths(l1=Fraction(1))
            else:
                l1 = Fraction(rng.randint(1, 11), 12)
                lengths = Lengths(l1=l1, l3=(1 - l1) / 3)
            metric_lift(tag, lengths, MIXED2)
            assert bar_discriminator(lengths, MIXED2).tag == tag

    def test_requires_mixed(self):
        with pytest.raises(ValueError):
            bar_discriminator(Lengths(l0=1), TAME0)


class TestMetricLiftValidation:
    def test_lift_passes_constructor_invariants(self):
        # rebuild the metric morphism from its own data: must validate
        for tag in LIFTABLE_TAGS:
            setting = setting_for(tag)
            mm = metric_lift(tag, canonical_lengths(tag, setting), setting)
            MetricDeltaMorphism(mm.morphism, mm.delta, mm.setting)

    def test_lift_classifies_back(self):
        for tag in LIFTABLE_TAGS:
            setting = setting_for(tag)
            mm = metric_lift(tag, canonical_lengths(tag, setting), setting)
            assert classify_special(mm.morphism).tag == tag

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="^l0 must be nonnegative$"):
            Lengths(l0=-1)

    def test_unequal_pieces_of_one_slope_class_rejected(self):
        from wildskel.special import metric_lengths

        setting = setting_for("WS")
        mm = metric_lift("WS", canonical_lengths("WS", setting), setting)
        sub = subdivide_metric(random.Random(2), mm)
        with pytest.raises(ValueError, match="^inner edges of slope 3 have different lengths$"):
            metric_lengths(sub)
        assert metric_lengths(stabilize(sub)) == canonical_lengths("WS", setting)

    def test_a_morphism_without_lengths_is_named(self):
        # a plain morphism was a bare TypeError
        from wildskel.special import metric_lengths

        with pytest.raises(ValueError) as info:
            metric_lengths(build_special("WB"))
        assert (type(info.value), str(info.value)) == (ValueError, "morphism has no edge lengths")

    def test_metric_lengths_roundtrip(self):
        from wildskel.special import metric_lengths

        for tag in LIFTABLE_TAGS:
            setting = setting_for(tag)
            lengths = canonical_lengths(tag, setting)
            mm = metric_lift(tag, lengths, setting)
            assert metric_lengths(mm) == lengths
