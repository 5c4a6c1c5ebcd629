from fractions import Fraction

import pytest

from wildskel.elliptic import EllipticInput, InvalidSettingError, classify_elliptic, log_256
from wildskel.special import LIFTABLE_TAGS, metric_lift
from wildskel.valuation import LogAbs, ResidueSetting

from tests.support import MIXED2, TAME0, TAME3, WILD2

MIXED3 = ResidueSetting.mixed(3, Fraction(-1))


def classify(setting, log_j=None, j_zero=False):
    inp = (
        EllipticInput.j_zero(setting)
        if j_zero
        else EllipticInput.of(setting, Fraction(log_j))
    )
    return classify_elliptic(inp)


class TestTable:
    def test_mixed_supersingular_example(self):
        rep = classify(MIXED2, -4)
        assert rep.type.tag == "MS"
        assert rep.lengths.l1 == Fraction(1, 2)
        assert rep.lengths.l3 == Fraction(1, 6)
        assert rep.reduction == "good"
        assert rep.reduction_fiber == "supersingular"

    def test_tame_good_reduction(self):
        for setting in (TAME0, TAME3, MIXED3):
            rep = classify(setting, -3)
            assert rep.type.tag == "TG"
            assert rep.reduction == "good"

    def test_wild_j_zero(self):
        rep = classify(WILD2, j_zero=True)
        assert rep.type.tag == "WSS"
        assert rep.reduction_fiber == "supersingular"

    def test_mixed_ordinary(self):
        rep = classify(MIXED2, 0)
        assert rep.type.tag == "MO"
        assert rep.lengths.l1 == Fraction(1)
        assert rep.reduction_fiber == "ordinary"

    def test_bad_reduction_cases(self):
        assert classify(TAME0, 6).type.tag == "TB"
        assert classify(MIXED2, 6).type.tag == "MB"
        assert classify(WILD2, 6).type.tag == "WB"
        for setting in (TAME0, MIXED2, WILD2):
            rep = classify(setting, 6)
            assert rep.reduction == "bad"
            assert rep.lengths.l0 == Fraction(3)  # half the loop length log|j|
            assert rep.notes  # the printed-formula discrepancy is recorded

    def test_wild_supersingular_reduction(self):
        rep = classify(WILD2, -6)
        assert rep.type.tag == "WS"
        assert rep.lengths.l3 == Fraction(1, 4)

    def test_wild_ordinary(self):
        assert classify(WILD2, 0).type.tag == "WO"

    def test_mixed_boundary_at_256(self):
        assert log_256(MIXED2) == LogAbs(-8)
        assert classify(MIXED2, -8).type.tag == "MSS"
        assert classify(MIXED2, Fraction(-79, 10)).type.tag == "MS"
        assert classify(MIXED2, -9).type.tag == "MSS"

    def test_mixed_j_zero_is_mss(self):
        rep = classify(MIXED2, j_zero=True)
        assert rep.type.tag == "MSS"
        assert rep.lengths.l3 == Fraction(1, 3)

    def test_mb_lengths(self):
        rep = classify(MIXED2, 4)
        assert rep.lengths.l0 == Fraction(2)
        assert rep.lengths.l1 == Fraction(1)


class TestInput:
    def test_log_j_must_be_a_log_abs(self):
        with pytest.raises(InvalidSettingError, match="^expected a LogAbs, got 0$"):
            EllipticInput(TAME0, 0)


class TestInvariants:
    def test_outputs_always_liftable(self):
        settings = [TAME0, TAME3, MIXED2, MIXED3, WILD2]
        for setting in settings:
            for num in range(-100, 101, 7):
                rep = classify(setting, Fraction(num, 12))
                assert rep.type.tag in LIFTABLE_TAGS
                metric_lift(rep.type, rep.lengths, setting)
            rep = classify(setting, j_zero=True)
            metric_lift(rep.type, rep.lengths, setting)

    def test_mixed_constraint(self):
        for num in range(-120, 1):
            rep = classify(MIXED2, Fraction(num, 13))
            if rep.type.tag in ("MO", "MS", "MSS"):
                assert rep.lengths.l1 + 3 * rep.lengths.l3 == Fraction(1)

    def test_monotone_boundaries_mixed(self):
        # scanning log|j| downward crosses MB -> MO -> MS -> MSS exactly once
        seen = []
        for num in range(60, -241, -1):
            tag = classify(MIXED2, Fraction(num, 20)).type.tag
            if not seen or seen[-1] != tag:
                seen.append(tag)
        assert seen == ["MB", "MO", "MS", "MSS"]

    def test_monotone_boundaries_wild(self):
        seen = []
        for num in range(40, -41, -1):
            tag = classify(WILD2, Fraction(num, 10)).type.tag
            if not seen or seen[-1] != tag:
                seen.append(tag)
        assert seen == ["WB", "WO", "WS"]

    def test_invalid_setting_rejected(self):
        import pytest

        from wildskel.elliptic import InvalidSettingError

        with pytest.raises(InvalidSettingError):
            EllipticInput("mixed:2:-1", Fraction(0))  # not a ResidueSetting

    def test_report_json(self):
        rep = classify(MIXED2, -4)
        data = rep.to_json_dict()
        assert data["type"] == "MS"
        assert data["l1"] == "1/2"
        assert data["l3"] == "1/6"
