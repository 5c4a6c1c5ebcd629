import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildskel.annulus import (
    ConstantSeriesError,
    DifferentReport,
    InseparableSeriesError,
    InvalidModelError,
    UnrealizableTripleError,
    ValuedSeries,
    check_restriction,
    derivative,
    different_profile,
    different_report,
    is_normalized,
    normalize,
    realize_triple,
    skeleton_image_law,
)
from wildskel.pmfunc import PMFunction, tropical_eval
from wildskel.valuation import INF, NEG_INF, LogAbs, ResidueSetting

from tests.support import (
    INTEGER_ENTRIES,
    MIXED2,
    TAME0,
    WILD2,
    StandInSetting,
    _per_term_max,
)


class TestValuedSeries:
    def test_neg_inf_entries_dropped(self):
        s = ValuedSeries({1: 0, 2: NEG_INF})
        assert s.support == (1,)

    def test_text_roundtrip(self):
        s = ValuedSeries({-1: Fraction(-1, 3), 2: 0})
        assert ValuedSeries.from_text(s.to_text()) == s

    def test_text_comments(self):
        s = ValuedSeries.from_text("# a series\n2 0\n3 -1/2  # second term\n")
        assert s == ValuedSeries({2: 0, 3: Fraction(-1, 2)})


class TestNormalize:
    def test_drops_constant_term(self):
        assert normalize(ValuedSeries({0: 0, 2: -1})) == ValuedSeries({2: 0})

    def test_idempotent(self):
        assert normalize(ValuedSeries({2: 0})) == ValuedSeries({2: 0})

    def test_shift(self):
        assert normalize(ValuedSeries({1: -3, 3: -1})) == ValuedSeries(
            {1: -2, 3: 0}
        )

    def test_constant_series(self):
        with pytest.raises(ConstantSeriesError):
            normalize(ValuedSeries({0: 0}))

    def test_is_normalized(self):
        assert is_normalized(ValuedSeries({2: 0}))
        assert not is_normalized(ValuedSeries({2: -1}))
        assert not is_normalized(ValuedSeries({0: 0, 2: 0}))


class TestSkeletonImageLaw:
    def test_kummer(self):
        for p in (2, 3, 5):
            assert skeleton_image_law(ValuedSeries({p: 0}), 0) == (p, LogAbs(0))

    def test_tie_free_binomial(self):
        s = ValuedSeries({2: 0, 3: Fraction(-1, 2)})
        assert skeleton_image_law(s, 0) == (2, LogAbs(0))

    def test_identity_map(self):
        for x in (Fraction(-1), Fraction(0), Fraction(7, 3)):
            assert skeleton_image_law(ValuedSeries({1: 0}), x) == (1, LogAbs(0))

    def test_inward_convention_at_tie(self):
        # at a tie the smaller exponent dominates just inward
        s = ValuedSeries({1: 0, 3: 0})
        assert skeleton_image_law(s, 0) == (1, LogAbs(0))


class TestDerivative:
    def test_mixed(self):
        assert derivative(ValuedSeries({2: 0}), MIXED2) == ValuedSeries({1: -1})

    def test_frobenius_inseparable(self):
        with pytest.raises(InseparableSeriesError):
            derivative(ValuedSeries({2: 0}), WILD2)

    def test_binomial(self):
        s = ValuedSeries({2: 0, 3: Fraction(-1, 2)})
        assert derivative(s, MIXED2) == ValuedSeries({1: -1, 2: Fraction(-1, 2)})


class TestDifferentProfile:
    def test_kummer_constant(self):
        for p, log_p in ((2, Fraction(-1)), (3, Fraction(-2, 3))):
            setting = ResidueSetting.mixed(p, log_p)
            prof = different_profile(ValuedSeries({p: 0}), setting, (-1, 0))
            assert prof == PMFunction.constant((-1, 0), log_p)

    def test_split_covering(self):
        prof = different_profile(ValuedSeries({1: 0}), TAME0, (-1, 0))
        assert prof == PMFunction.constant((-1, 0), 0)

    def test_binomial_value_at_zero(self):
        s = ValuedSeries({2: 0, 3: Fraction(-1, 2)})
        prof = different_profile(s, MIXED2, (-1, 0))
        assert prof.value_at(0) == Fraction(-1, 2)

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            different_profile(ValuedSeries({2: -1}), MIXED2, (-1, 0))

    def test_tame_monomials_have_trivial_different(self):
        for m in (2, 3, 5):
            prof = different_profile(ValuedSeries({m: 0}), TAME0, (-2, 2))
            assert prof == PMFunction.constant((-2, 2), 0)

    def test_kummer_constant_on_infinite_tail(self):
        from wildskel.valuation import INF

        prof = different_profile(ValuedSeries({2: 0}), MIXED2, (-1, INF))
        assert prof == PMFunction.constant((-1, INF), -1)

    def test_always_nonpositive(self):
        rng = random.Random(5)
        for _ in range(300):
            idx = rng.sample(range(-5, 7), rng.randint(1, 6))
            s = ValuedSeries({i: Fraction(rng.randint(-12, 0), 2) for i in idx})
            try:
                s = normalize(s)
                prof = different_profile(s, MIXED2, (-2, 1))
            except (ConstantSeriesError, InseparableSeriesError):
                continue
            assert prof.sup() <= 0


class TestDifferentReport:
    def test_kummer(self):
        for p, log_p in ((2, Fraction(-1)), (5, Fraction(-1, 2))):
            setting = ResidueSetting.mixed(p, log_p)
            rep = different_report(ValuedSeries({p: 0}), setting)
            assert rep == DifferentReport(p, p, LogAbs(log_p), 0)

    def test_binomial(self):
        rep = different_report(ValuedSeries({2: 0, 3: Fraction(-1, 2)}), MIXED2)
        assert rep == DifferentReport(2, 3, LogAbs(Fraction(-1, 2)), -1)

    def test_identity(self):
        rep = different_report(ValuedSeries({1: 0}), TAME0)
        assert rep == DifferentReport(1, 1, LogAbs(0), 0)

    def test_inseparable(self):
        with pytest.raises(InseparableSeriesError):
            different_report(ValuedSeries({2: 0}), WILD2)

    def test_constructor_guards(self):
        with pytest.raises(ValueError, match=r"^log_delta must be <= 0$"):
            DifferentReport(1, 1, LogAbs(Fraction(1, 2)), 0)
        with pytest.raises(ValueError, match=r"^slope_s must equal m - n$"):
            DifferentReport(2, 3, LogAbs(0), 1)

    @pytest.mark.parametrize(
        "setting, coeffs, expected",
        [
            # (m, n, log_delta, s): every tied exponent is listed after the smallest
            ("equichar0", {3: 0, 1: 0, 2: -1}, (1, 1, 0, 0)),
            ("equicharP:2", {2: 0, 5: 0, 3: 0}, (2, 3, 0, -1)),
            ("equicharP:3", {3: 0, 5: 0, 4: 0}, (3, 4, 0, -1)),
            ("mixed:2:-1", {2: 0, 3: -1, 1: -1}, (2, 1, -1, 1)),
            ("mixed:3:-1/2", {3: 0, 6: Fraction(-1, 2), 1: Fraction(-1, 2),
                              -1: Fraction(-1, 2)}, (3, -1, Fraction(-1, 2), 4)),
        ],
    )
    def test_tie_for_the_derivative_term_picks_the_smaller_exponent(
        self, setting, coeffs, expected
    ):
        rep = different_report(ValuedSeries(coeffs), ResidueSetting.parse(setting))
        m, n, log_delta, s = expected
        assert rep == DifferentReport(m, n, LogAbs(log_delta), s)


class TestCheckRestriction:
    def test_realizable_binomial_triple(self):
        assert check_restriction(2, -1, LogAbs(Fraction(-1, 2)), MIXED2)

    def test_kummer_boundary(self):
        for p in (2, 3):
            setting = ResidueSetting.mixed(p, Fraction(-1))
            assert check_restriction(p, 0, setting.int_abs(p), setting)

    def test_zero_slope_requires_delta_equal_abs_m(self):
        verdict = check_restriction(2, 0, LogAbs(Fraction(-1, 2)), MIXED2)
        assert not verdict.ok

    def test_strip_boundaries(self):
        # upper boundary needs s <= 0, lower needs s >= 0
        assert not check_restriction(2, 1, LogAbs(0), MIXED2).ok  # |m+s|=|3|=1=delta
        assert check_restriction(2, -1, LogAbs(0), MIXED2).ok
        assert check_restriction(2, 1, LogAbs(-1), MIXED2).ok  # delta=|2|
        assert not check_restriction(2, -1, LogAbs(-1), MIXED2).ok

    def test_even_slope_refinement_res2(self):
        verdict = check_restriction(2, 2, LogAbs(Fraction(-1, 2)), MIXED2)
        assert not verdict.ok
        assert "odd" in verdict.reason

    def test_neg_inf_delta_wild_tail(self):
        assert check_restriction(2, 3, NEG_INF, WILD2).ok
        assert not check_restriction(3, 0, NEG_INF, WILD2).ok  # |3| = 1 > -inf

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            check_restriction(0, 0, LogAbs(0), TAME0)
        with pytest.raises(ValueError):
            check_restriction(2, 0, LogAbs(1), TAME0)


class TestRealizeTriple:
    def test_binomial(self):
        s = realize_triple(2, -1, LogAbs(Fraction(-1, 2)), MIXED2)
        assert s == ValuedSeries({2: 0, 3: Fraction(-1, 2)})

    def test_monomial_case(self):
        for p in (2, 3):
            setting = ResidueSetting.mixed(p, Fraction(-1))
            assert realize_triple(p, 0, setting.int_abs(p), setting) == ValuedSeries(
                {p: 0}
            )

    def test_identity_triple(self):
        for setting in (TAME0, MIXED2, WILD2):
            assert realize_triple(1, 0, LogAbs(0), setting) == ValuedSeries({1: 0})

    def test_unrealizable(self):
        with pytest.raises(UnrealizableTripleError):
            realize_triple(2, 0, LogAbs(Fraction(-1, 2)), MIXED2)

    @given(
        st.integers(1, 10),
        st.integers(-6, 6),
        st.fractions(min_value=-6, max_value=0, max_denominator=6),
        st.sampled_from(["equichar0", "mixed:2:-1", "mixed:3:-1/2", "equicharP:2"]),
    )
    def test_every_admissible_triple_is_realized(self, m, s, delta, setting_text):
        setting = ResidueSetting.parse(setting_text)
        log_delta = LogAbs(delta)
        if not check_restriction(m, s, log_delta, setting):
            return
        series = realize_triple(m, s, log_delta, setting)
        rep = different_report(series, setting)
        assert (rep.m, rep.slope_s, rep.log_delta) == (m, s, log_delta)

    def test_roundtrip_on_reports(self):
        rng = random.Random(11)
        settings = [TAME0, MIXED2, ResidueSetting.mixed(3, Fraction(-1, 2)), WILD2]
        trials = 0
        while trials < 200:
            setting = rng.choice(settings)
            m = rng.randint(1, 8)
            coeffs = {m: Fraction(0)}
            if rng.random() < 0.8:
                k = rng.choice([i for i in range(-4, 9) if i not in (0, m)])
                coeffs[k] = Fraction(rng.randint(-8, 0 if k > m else -1), 2)
            try:
                series = normalize(ValuedSeries(coeffs))
                rep = different_report(series, setting)
            except (ConstantSeriesError, InseparableSeriesError, ValueError):
                continue
            trials += 1
            realized = realize_triple(rep.m, rep.slope_s, rep.log_delta, setting)
            assert different_report(realized, setting) == rep


class TestProfileSegmentsSatisfyRestriction:
    def test_random_series(self):
        rng = random.Random(23)
        settings = [TAME0, MIXED2, WILD2, ResidueSetting.equichar(3)]
        checked = 0
        for _ in range(400):
            idx = rng.sample(range(-6, 9), rng.randint(1, 8))
            den = rng.choice([1, 2, 3])
            raw = ValuedSeries(
                {i: Fraction(rng.randint(-6 * den, 0), den) for i in idx}
            )
            setting = rng.choice(settings)
            try:
                series = normalize(raw)
                prof = different_profile(series, setting, (-2, 1))
            except (ConstantSeriesError, InseparableSeriesError):
                continue
            envelope = tropical_eval(series, (-2, 1))
            a, b = prof.domain
            for x in prof.breakpoints:
                value = LogAbs(prof.value_at(x))
                if x > a:
                    m = abs(min(envelope.achievers_at(x)))
                    assert check_restriction(
                        m, -prof.slope_at(x, "left"), value, setting
                    ).ok
                    checked += 1
                if x < b:
                    m = abs(max(envelope.achievers_at(x)))
                    assert check_restriction(
                        m, prof.slope_at(x, "right"), value, setting
                    ).ok
                    checked += 1
        assert checked > 200


# -- different_profile against a brute-force Fraction per-term-max oracle ------

@st.composite
def profile_domains(draw):
    """A finite, an unbounded ``(a, +inf)`` or a one-point ``(a, a)`` domain."""
    a = draw(st.fractions(min_value=-3, max_value=2, max_denominator=4))
    kind = draw(st.sampled_from(["finite", "tail", "point"]))
    if kind == "tail":
        return (a, INF)
    if kind == "point":
        return (a, a)
    return (a, a + draw(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)))


class TestDifferentProfileOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(
            st.integers(-5, 7),
            st.fractions(min_value=-5, max_value=0, max_denominator=4),
            min_size=1,
            max_size=7,
        ),
        st.sampled_from(["equichar0", "mixed:2:-1", "mixed:3:-1/2", "equicharP:2"]),
        profile_domains(),
    )
    def test_value_and_slopes(self, coeffs, setting_text, domain):
        setting = ResidueSetting.parse(setting_text)
        try:
            series = normalize(ValuedSeries(coeffs))
            prof = different_profile(series, setting, domain)
        except (ConstantSeriesError, InseparableSeriesError):
            return
        h, dh = series.coefficients, derivative(series, setting).coefficients
        a, b = domain
        assert prof.domain == (a, b)
        if b is INF:
            pts = [a + Fraction(k, 2) for k in range(12)]
        else:
            pts = [a + (b - a) * Fraction(k, 6) for k in range(7)]
        pts += [x for x in prof.breakpoints if x is not INF]
        for x in pts:
            th, ah = _per_term_max(h, x)
            td, ad = _per_term_max(dh, x)
            assert prof.value_at(x) == td + x - th
            if prof.is_degenerate:
                continue
            if x > a:
                assert prof.slope_at(x, "left") == min(ad) + 1 - min(ah)
            if b is INF or x < b:
                assert prof.slope_at(x, "right") == max(ad) + 1 - max(ah)

    def test_invalid_model_error_unchanged(self):
        for domain in ((Fraction(-1), Fraction(0)), (Fraction(0), INF)):
            with pytest.raises(InvalidModelError) as info:
                different_profile(ValuedSeries({2: 0}), StandInSetting(lambda i: 1), domain)
            assert str(info.value) == (
                f"different exceeds one on {domain}; the series does not model "
                "a covering there"
            )


def test_series_keys_equal_after_int_are_an_error():
    # the constructor used to keep the last of them: ValuedSeries({1: -1})
    with pytest.raises(ValueError, match=r"^series repeats exponent 1$"):
        ValuedSeries({1: 0, "1": -1})
    with pytest.raises(ValueError, match=r"^series repeats exponent 2$"):
        ValuedSeries({2: NEG_INF, "2": 0})  # checked before -inf values drop
    assert ValuedSeries({1: 0, "2": NEG_INF}) == ValuedSeries({1: 0})
    # tropical_eval used to read this map as the line PMFunction([0,1]: 0+1x)
    with pytest.raises(ValueError, match=r"^series repeats exponent 1$"):
        tropical_eval({1: 0, "1": -1}, (0, 1))


@pytest.mark.parametrize("given", [
    {1: "x", "y": 0},  # every key is read before any value
    {"1": None, 2: 0},  # a value is named by its key as an integer
    {1: 0, "1": "x"},  # the repeat is found before the value
])
def test_a_series_map_faults_as_a_valued_series_does(given):
    with pytest.raises(ValueError) as want:
        ValuedSeries(given)
    with pytest.raises(ValueError) as got:
        tropical_eval(given, (0, 1))
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@pytest.mark.parametrize("exponent", [1.5, True, Fraction(5, 2)])
def test_series_exponent_int_would_round_is_an_error(exponent):
    # int() used to read ValuedSeries({1.5: 0, 3: -1}) as ValuedSeries({1: 0, 3: -1})
    message = f"series exponent is {exponent!r}, not an integer"
    with pytest.raises(ValueError) as info:
        ValuedSeries({exponent: 0, 3: -1})
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        tropical_eval({exponent: 0, 3: -1}, (0, 1))
    assert str(info.value) == message
    assert ValuedSeries({"2": 0, Fraction(6, 2): -1}) == ValuedSeries({2: 0, 3: -1})


def test_admissible_triple_with_vanishing_delta_and_nonzero_slope():
    setting = ResidueSetting.equichar(2)
    assert check_restriction(2, 3, NEG_INF, setting)
    with pytest.raises(UnrealizableTripleError, match=r"log_delta = -inf needs s = 0"):
        realize_triple(2, 3, NEG_INF, setting)
    assert realize_triple(2, 0, NEG_INF, setting) == ValuedSeries({2: 0})


@pytest.mark.parametrize("value", [1.5, 1.0, True, "x", None, Fraction(3, 2)])
@pytest.mark.parametrize("entry", INTEGER_ENTRIES, ids="-".join)
def test_an_integer_entry_refuses_what_is_no_integer(entry, value):
    # 1.5 built ValuedSeries({1.5: 0}) or a report without a JSON form, and
    # True passed as 1
    with pytest.raises(ValueError) as info:
        INTEGER_ENTRIES[entry][0](value)
    message = f"{entry[1]} is {value!r}, not an integer"
    assert (type(info.value), str(info.value)) == (ValueError, message)


@pytest.mark.parametrize("entry", INTEGER_ENTRIES, ids="-".join)
def test_an_integer_entry_reads_integer_text_as_its_integer(entry):
    call, value = INTEGER_ENTRIES[entry]
    assert call(str(value)) == call(Fraction(value)) == call(value)
