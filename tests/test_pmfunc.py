import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildskel.annulus import ValuedSeries
from wildskel.pmfunc import (
    DomainMismatchError,
    EmptySeriesError,
    OutOfDomainError,
    PMFunction,
    monomial_product,
    tropical_eval,
)
from wildskel.valuation import INF, LogAbs

from tests.support import PMFUNCTION_JSON_REFUSALS, PMFUNCTION_REFUSALS, _per_term_max


class TestEval:
    def test_constant(self):
        f = PMFunction.constant((0, 1), 0)
        assert f.value_at(Fraction(1, 2)) == 0

    def test_single_segment(self):
        f = PMFunction.line((0, 1), -1, 2)
        assert f.value_at(1) == 1

    def test_newton_profile_point(self):
        # envelope of {2: 0, 3: -1/2} passes through 2*(1/4) at x = 1/4
        prof = tropical_eval({2: 0, 3: Fraction(-1, 2)}, (-1, 1))
        assert prof.value_at(Fraction(1, 4)) == Fraction(1, 2)

    def test_out_of_domain(self):
        f = PMFunction.constant((0, 1), 0)
        with pytest.raises(OutOfDomainError):
            f.value_at(2)

    def test_infinite_domain(self):
        f = PMFunction.line((0, INF), 0, -1)
        assert f.value_at(100) == -100

    def test_degenerate_domain(self):
        f = PMFunction.constant((1, 1), -3)
        assert f.value_at(1) == -3


class TestMulPow:
    def test_mul_by_constant_zero_is_identity(self):
        f = tropical_eval({1: 0, 2: -1}, (0, 2))
        one = PMFunction.constant((0, 2), 0)
        assert f.mul(one) == f

    def test_slope_additivity(self):
        f = PMFunction.line((0, 1), 0, 2)
        g = PMFunction.line((0, 1), 0, -1)
        assert f.mul(g) == PMFunction.line((0, 1), 0, 1)

    def test_pow_scales_slope(self):
        p = 5
        f = PMFunction.line((0, 1), 0, 1)
        assert f.pow(p - 1) == PMFunction.line((0, 1), 0, p - 1)

    def test_pow_zero_is_constant_one(self):
        f = tropical_eval({1: 0, 3: -2}, (0, 3))
        assert f.pow(0) == PMFunction.constant((0, 3), 0)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            PMFunction.constant((0, 1), 0).mul(PMFunction.constant((0, 2), 0))

    def test_mul_commutative_associative(self):
        rng = random.Random(1)
        dom = (Fraction(-1), Fraction(2))
        fs = [
            tropical_eval(
                {i: Fraction(rng.randint(-8, 0), 2) for i in rng.sample(range(-3, 5), 3)},
                dom,
            )
            for _ in range(3)
        ]
        f, g, h = fs
        assert f.mul(g) == g.mul(f)
        assert f.mul(g).mul(h) == f.mul(g.mul(h))

    def test_mul_eval_is_pointwise_sum(self):
        rng = random.Random(2)
        dom = (Fraction(-2), Fraction(2))
        c1 = {i: Fraction(rng.randint(-10, 0), 3) for i in (-2, 0, 3)}
        c2 = {i: Fraction(rng.randint(-10, 0), 3) for i in (-1, 1, 4)}
        f, g = tropical_eval(c1, dom), tropical_eval(c2, dom)
        prod = f.mul(g)
        for _ in range(1000):
            x = Fraction(rng.randint(-24, 24), 12)
            assert prod.value_at(x) == f.value_at(x) + g.value_at(x)


class TestTropicalEval:
    def test_monomial(self):
        prof = tropical_eval({2: 0}, (-1, 1))
        segs = list(prof.segments())
        assert len(segs) == 1
        assert segs[0] == (Fraction(-1), Fraction(1), Fraction(-2), 2)

    def test_binomial_breakpoint(self):
        prof = tropical_eval({2: 0, 3: Fraction(-1, 2)}, (-1, 1))
        assert prof.breakpoints == (Fraction(-1), Fraction(1, 2), Fraction(1))
        slopes = [s for *_, s in prof.segments()]
        assert slopes == [2, 3]

    def test_tie_at_zero(self):
        prof = tropical_eval({0: 0, 1: 0}, (-1, 0))
        assert [s for *_, s in prof.segments()] == [0]
        assert prof.achievers_at(0) == frozenset({0, 1})

    def test_achiever_conventions(self):
        prof = tropical_eval({0: 0, 1: 0, 2: 0}, (-1, 1))
        assert prof.achievers_at(0) == frozenset({0, 1, 2})
        assert min(prof.achievers_at(0)) == 0
        assert max(prof.achievers_at(0)) == 2

    def test_segment_achievers(self):
        prof = tropical_eval({2: 0, 3: Fraction(-1, 2)}, (-1, 1))
        assert prof.segment_achievers == (frozenset({2}), frozenset({3}))
        # a collinear middle term never owns a segment but ties at the break
        prof = tropical_eval({0: 0, 1: 0, 2: 0}, (-1, 1))
        assert prof.segment_achievers == (frozenset({0}), frozenset({2}))
        assert prof.achievers_at(0) == frozenset({0, 1, 2})

    def test_empty_series(self):
        with pytest.raises(EmptySeriesError):
            tropical_eval({}, (0, 1))

    def test_degenerate_point_domain(self):
        prof = tropical_eval({1: 0, 2: -1}, (0, 0))
        assert prof.value_at(0) == 0
        assert min(prof.achievers_at(0)) == 1

    def test_infinite_domain_tail(self):
        prof = tropical_eval({1: 0, 2: -1}, (0, INF))
        assert prof.breakpoints == (Fraction(0), Fraction(1), INF)
        assert prof.value_at(10) == 19

    @settings(max_examples=200)
    @given(
        st.dictionaries(
            st.integers(-6, 8),
            st.fractions(min_value=-6, max_value=0, max_denominator=4),
            min_size=1,
            max_size=10,
        )
    )
    def test_convexity_and_oracle(self, coeffs):
        dom = (Fraction(-3), Fraction(3))
        prof = tropical_eval(coeffs, dom)
        slopes = [s for *_, s in prof.segments()]
        assert slopes == sorted(slopes)
        for k in range(-12, 13):
            x = Fraction(k, 4)
            assert prof.value_at(x) == _per_term_max(coeffs, x)[0]

    def test_slope_at(self):
        prof = tropical_eval({2: 0, 3: Fraction(-1, 2)}, (-1, 1))
        assert prof.slope_at(Fraction(1, 2), "left") == 2
        assert prof.slope_at(Fraction(1, 2), "right") == 3
        assert prof.slope_at(0, "left") == 2
        const = PMFunction.constant((0, 1), 0)
        assert const.slope_at(Fraction(1, 2), "left") == 0
        with pytest.raises(OutOfDomainError):
            prof.slope_at(-1, "left")
        with pytest.raises(OutOfDomainError):
            prof.slope_at(1, "right")


class TestJson:
    def test_roundtrip(self):
        prof = tropical_eval({-1: Fraction(-1, 3), 2: 0}, (-2, INF))
        data = prof.to_json_dict()
        back = PMFunction.from_json_dict(data)
        assert back == PMFunction(
            prof.breakpoints,
            [seg[2] for seg in prof.segments()],
            [seg[3] for seg in prof.segments()],
        )


class TestValidation:
    def test_discontinuity_rejected(self):
        with pytest.raises(ValueError):
            PMFunction((0, 1, 2), (0, 5), (1, 1))

    def test_a_foreign_object_is_unequal(self):
        f = PMFunction.line((0, 1), 0, 1)
        assert f != 1 and not f == 1

    def test_line_on_an_empty_domain(self):
        with pytest.raises(ValueError, match=r"^empty domain \[1, 0\]$"):
            PMFunction.line((1, 0), 0, 1)

    def test_merge_equal_slopes(self):
        f = PMFunction((0, 1, 2), (0, 1), (1, 1))
        assert len(list(f.segments())) == 1

    def test_sup(self):
        f = tropical_eval({1: 0, -1: 0}, (-2, 2))
        assert f.sup() == Fraction(2)
        assert PMFunction.line((0, INF), 0, 1).sup() is INF
        assert PMFunction.line((0, INF), 0, -1).sup() == Fraction(0)


# -- integer kernel against a brute-force Fraction oracle ----------------------

coefficient_maps = st.dictionaries(
    st.integers(-6, 8),
    st.fractions(min_value=-6, max_value=0, max_denominator=6),
    min_size=1,
    max_size=8,
)


@st.composite
def domains(draw):
    """A finite, an unbounded ``(a, +inf)`` or a one-point ``(a, a)`` domain."""
    a = draw(st.fractions(min_value=-4, max_value=4, max_denominator=6))
    kind = draw(st.sampled_from(["finite", "tail", "point"]))
    if kind == "tail":
        return (a, INF)
    if kind == "point":
        return (a, a)
    width = draw(st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6))
    return (a, a + width)


def sample_points(domain, extra=()):
    a, b = domain
    if b is INF:
        pts = [a + Fraction(k, 3) for k in range(13)]
    else:
        pts = [a + (b - a) * Fraction(k, 7) for k in range(8)]
    return sorted(set(pts) | {x for x in extra if x is not INF})


class TestIntegerKernelOracle:
    @settings(max_examples=150, deadline=None)
    @given(coefficient_maps, domains())
    def test_tropical_profile(self, coeffs, domain):
        prof = tropical_eval(coeffs, domain)
        a, b = domain
        assert prof.domain == (a, b)
        for x in sample_points(domain, prof.breakpoints):
            best, ach = _per_term_max(coeffs, x)
            assert prof.value_at(x) == best
            assert prof.achievers_at(x) == frozenset(ach)
            if prof.is_degenerate:
                with pytest.raises(OutOfDomainError):
                    prof.slope_at(x, "left")
                continue
            if x > a:
                assert prof.slope_at(x, "left") == min(ach)
            if b is INF or x < b:
                assert prof.slope_at(x, "right") == max(ach)
            assert prof.pow(-3).value_at(x) == -3 * prof.value_at(x)

    @settings(max_examples=150, deadline=None)
    @given(coefficient_maps, domains())
    def test_segment_achievers_are_the_slopes(self, coeffs, domain):
        for series in (coeffs, ValuedSeries(coeffs)):
            prof = tropical_eval(series, domain)
            slopes = [s for *_, s in prof.segments()]
            assert prof.segment_achievers == tuple(frozenset({s}) for s in slopes)

    @settings(max_examples=100, deadline=None)
    @given(coefficient_maps, domains())
    def test_boundary_errors_unchanged(self, coeffs, domain):
        prof = tropical_eval(coeffs, domain)
        a, b = domain
        below = a - Fraction(1, 5)
        for call in (prof.value_at, prof.achievers_at, lambda x: prof.slope_at(x, "left")):
            with pytest.raises(OutOfDomainError) as info:
                call(below)
            assert str(info.value) == f"{below} outside domain {(a, b)}"
        if b is not INF:
            with pytest.raises(OutOfDomainError) as info:
                prof.value_at(b + 1)
            assert str(info.value) == f"{b + 1} outside domain {(a, b)}"
        if prof.is_degenerate:
            with pytest.raises(OutOfDomainError) as info:
                prof.slope_at(a, "right")
            assert str(info.value) == "degenerate domain has no adjacent segments"
            return
        with pytest.raises(OutOfDomainError) as info:
            prof.slope_at(a, "left")
        assert str(info.value) == f"no segment left of {a}"
        if b is not INF:
            with pytest.raises(OutOfDomainError) as info:
                prof.slope_at(b, "right")
            assert str(info.value) == f"no segment right of {b}"
        with pytest.raises(ValueError) as info:
            prof.slope_at(a, "up")
        assert str(info.value) == "direction must be 'left' or 'right', got 'up'"
        other = PMFunction.constant((a - 1, a), 0)
        with pytest.raises(DomainMismatchError) as info:
            prof.mul(other)
        assert str(info.value) == f"domains differ: {prof.domain} vs {other.domain}"

    def test_constructor_errors_unchanged(self):
        with pytest.raises(ValueError) as info:
            PMFunction((0, Fraction(1, 2), 2), (0, 5), (1, 1))
        assert str(info.value) == "discontinuity at breakpoint 1/2"
        for breaks in ((0, 2, 1), (0, 1, 1), (1, 1, INF)):
            with pytest.raises(ValueError) as info:
                PMFunction(breaks, (0, 0), (0, 0))
            assert str(info.value) == "breakpoints must be strictly increasing"
        with pytest.raises(ValueError) as info:
            PMFunction((0, INF, 2), (0, 0), (0, 0))
        assert str(info.value) == "only the final breakpoint may be infinite"
        with pytest.raises(ValueError) as info:
            PMFunction((0, 1), (0, 0), (0,))
        assert str(info.value) == "inconsistent segment data"

    def test_equal_functions_store_equal_data(self):
        # different denominators and an unmerged split give one function
        f = PMFunction((0, Fraction(2, 4)), (Fraction(3, 6),), (1,))
        g = PMFunction.line((0, Fraction(1, 2)), Fraction(1, 2), 1)
        assert f == g and hash(f) == hash(g)
        split = PMFunction((0, Fraction(1, 3), 2), (0, Fraction(1, 3)), (1, 1))
        whole = PMFunction.line((0, 2), 0, 1)
        assert split == whole and hash(split) == hash(whole)
        assert split.breakpoints == (Fraction(0), Fraction(2))


@pytest.mark.parametrize("slope", [1.5, 1.9, True])
def test_slope_int_would_round_is_an_error(slope):
    # int() used to read both as the slope-1 line PMFunction([0,1]: 0+1x)
    message = f"slope of segment 0 is {slope!r}, not an integer"
    with pytest.raises(ValueError) as info:
        PMFunction([0, 1], [0], [slope])
    assert str(info.value) == message
    doc = {"breakpoints": ["0", "1"], "segments": [{"left_value": "0", "slope": slope}]}
    with pytest.raises(ValueError) as info:
        PMFunction.from_json_dict(doc)
    assert str(info.value) == message
    doc["segments"][0]["slope"] = "2"
    assert PMFunction.from_json_dict(doc) == PMFunction([0, 1], [0], [2])


@pytest.mark.parametrize("doc, message", PMFUNCTION_JSON_REFUSALS)
def test_json_faults_are_named(doc, message):
    # a list document and a missing key were a bare TypeError or KeyError
    with pytest.raises(ValueError) as info:
        PMFunction.from_json_dict(doc)
    assert (type(info.value), str(info.value)) == (ValueError, message)


@pytest.mark.parametrize("args, message", [
    *PMFUNCTION_REFUSALS, (([0, 1], [0], iter([1])), "slopes is <list_iterator object"),
])
def test_the_constructor_refuses_what_is_no_sequence(args, message):
    # None or 0 raised a bare TypeError (no len()), a dict read its keys, and
    # text read its characters ("01" was the function on [0, 1]), and bytes,
    # a bytearray and a memoryview their bytes ([48, 49])
    with pytest.raises(ValueError) as info:
        PMFunction(*args)
    assert type(info.value) is ValueError and str(info.value).startswith(message)
    assert str(info.value).endswith(", not a sequence")


def _refusal(call) -> tuple:
    with pytest.raises(ValueError) as info:
        call()
    return type(info.value), str(info.value)


def test_a_memoryview_refusal_is_the_same_at_every_call():
    # the message showed the view's address, <memory at 0x7fc1402dbdc0>, which
    # changed from call to call; both views are alive, so their addresses differ
    views = memoryview(b"01"), memoryview(bytearray(b"01"))
    assert [_refusal(lambda: PMFunction(v, [0], [1])) for v in views] == [
        (ValueError, "breakpoints is memoryview(b'01'), not a sequence")] * 2


@pytest.mark.parametrize("n", [True, False, 1.5, 2.0, "x", None, Fraction(3, 2)])
def test_pow_refuses_what_is_no_integer(n):
    # True used to read as 1 and 1.5 or "x" raised a bare TypeError
    f = PMFunction.line((0, 1), 0, 1)
    assert _refusal(lambda: f.pow(n)) == (ValueError, f"exponent is {n!r}, not an integer")


def test_pow_reads_an_integer_like_exponent():
    f = PMFunction.line((0, 1), 0, 1)
    assert f.pow("3") == f.pow(Fraction(3)) == f.pow(3) == PMFunction.line((0, 1), 0, 3)


@pytest.mark.parametrize("other", [3, Fraction(1, 2), None, LogAbs(0), "f"])
def test_mul_refuses_what_is_no_pmfunction(other):
    # an int used to raise AttributeError: 'int' object has no attribute '_den'
    f = PMFunction.line((0, 1), 0, 1)
    assert _refusal(lambda: f.mul(other)) == (
        ValueError, f"factor 1 is {other!r}, not a PMFunction")


def test_monomial_product_refuses_bad_factors_and_exponents():
    f = PMFunction.line((0, 1), 0, 1)
    assert _refusal(lambda: monomial_product([])) == (
        ValueError, "monomial_product needs at least one factor")
    assert _refusal(lambda: monomial_product(())) == (
        ValueError, "monomial_product needs at least one factor")
    assert _refusal(lambda: monomial_product([(f, 1), (2, 1)])) == (
        ValueError, "factor 1 is 2, not a PMFunction")
    for e in (1.5, True, None, "x"):
        assert _refusal(lambda: monomial_product([(f, e)])) == (
            ValueError, f"exponent of factor 0 is {e!r}, not an integer")
        assert _refusal(lambda: monomial_product([(f, 1), (f, e)])) == (
            ValueError, f"exponent of factor 1 is {e!r}, not an integer")
        assert _refusal(lambda: monomial_product([(f, 1)], r_exponent=e)) == (
            ValueError, f"r_exponent is {e!r}, not an integer")
    assert _refusal(lambda: monomial_product([(f, 1)], r_exponent=0.5)) == (
        ValueError, "r_exponent is 0.5, not an integer")
    # integer-like values still read as integers
    assert monomial_product([(f, "2")], r_exponent=Fraction(-1)) == PMFunction.line((0, 1), 0, 1)


def test_monomial_product_refuses_what_is_no_list_of_pairs():
    # each used to raise a bare TypeError, or an unpacking ValueError naming no factor
    f = PMFunction.line((0, 1), 0, 1)
    assert _refusal(lambda: monomial_product(f)) == (
        ValueError, f"factors is {f!r}, not an iterable of (PMFunction, exponent) pairs")
    for factors, bad in (([f], f), ([(f,)], (f,)), ([(f, 1, 2)], (f, 1, 2))):
        assert _refusal(lambda: monomial_product(factors)) == (
            ValueError, f"factor 0 is {bad!r}, not a (PMFunction, exponent) pair")
    assert _refusal(lambda: monomial_product([(f, 1), f])) == (
        ValueError, f"factor 1 is {f!r}, not a (PMFunction, exponent) pair")
    # factors are read once, so an iterator of pairs is a product like a list
    assert monomial_product(iter([(f, 1), (f, 2)])) == monomial_product([(f, 1), (f, 2)])
    assert monomial_product(iter([(f, 1)])) == f
