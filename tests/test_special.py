import random
from fractions import Fraction

import pytest

from wildskel.delta_morphism import DeltaMorphism, MetricDeltaMorphism
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
from wildskel.valuation import ResidueSetting

MIXED2 = ResidueSetting.mixed(2, Fraction(-1))
WILD2 = ResidueSetting.equichar(2)
TAME0 = ResidueSetting.equichar_zero()
TAME3 = ResidueSetting.equichar(3)


class TestRootSubtrees:
    def test_inventory_of_four_leaves(self):
        trees = enumerate_root_subtrees(4)
        assert len(trees) == 8
        single = [t for t in trees if t.is_leaf_edge]
        assert sorted(t.label for t in single) == [0, 1, 3]
        assert sorted(t.slope_index for t in single) == [1, 2, 4]

    def test_single_leaf_budget(self):
        trees = enumerate_root_subtrees(1)
        assert len(trees) == 3
        assert all(t.is_leaf_edge for t in trees)

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

    def test_only_unclassifiable_candidate_is_the_incoherent_loop(self):
        # of all special candidates the enumeration assembles, exactly one
        # matches no shape: a loop with two tame tails on one side and a
        # mixed cherry on the other (the class-coherence cut drops it)
        from wildskel.special import UnclassifiableError, _build, _candidate_shapes

        errors = []
        for kind, data in _candidate_shapes():
            m = _build(kind, data)
            if not is_special(m):
                continue
            try:
                classify_special(m)
            except UnclassifiableError as exc:
                errors.append(str(exc))
        assert errors == [
            "unknown bad-reduction shape (('0', '0'), ('1(0,0)',))"
        ]


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

    def test_metric_lengths_roundtrip(self):
        from wildskel.special import metric_lengths

        for tag in LIFTABLE_TAGS:
            setting = setting_for(tag)
            lengths = canonical_lengths(tag, setting)
            mm = metric_lift(tag, lengths, setting)
            assert metric_lengths(mm) == lengths
