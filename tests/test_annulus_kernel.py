"""The annulus layer against a restatement of it in plain Fractions.

The reference functions below rewrite ``normalize``, ``derivative``,
``different_report``, ``skeleton_image_law`` and ``realize_triple`` on a
dict ``exponent -> Fraction``, with ``log|k|`` read off the setting's
text; they call nothing of the library.  On random series in five
residue settings the library must give the same values, raise the same
exception types and word the same messages.  ``different_profile``, which
fuses two envelopes and their product, is held to that public composition.
"""

import random
from fractions import Fraction

import pytest

from tests.support import StandInSetting, random_valued_series
from wildskel.annulus import (
    ConstantSeriesError,
    InseparableSeriesError,
    InvalidModelError,
    UnrealizableTripleError,
    ValuedSeries,
    derivative,
    different_profile,
    different_report,
    is_normalized,
    normalize,
    realize_triple,
    skeleton_image_law,
)
from wildskel.pmfunc import monomial_product, tropical_eval
from wildskel.valuation import INF, NEG_INF, LogAbs, ResidueSetting

SETTINGS = ["equichar0", "equicharP:2", "equicharP:3", "mixed:2:-1", "mixed:3:-1/2"]
DRAWS = 3000
POINTS = [Fraction(-1, 2), Fraction(0), Fraction(4, 3)]


def ref_abs(setting: str, k: int):
    """log|k| as a Fraction, or None for log 0."""
    if k == 0:
        return None
    kind, *rest = setting.split(":")
    if kind == "equichar0":
        return Fraction(0)
    p = int(rest[0])
    if kind == "equicharP":
        return None if k % p == 0 else Fraction(0)
    v, k = 0, abs(k)
    while k % p == 0:
        k, v = k // p, v + 1
    return Fraction(rest[1]) * v


def ref_is_normalized(c):
    return 0 not in c and max(c.values()) == 0


def ref_normalize(c):
    c = {i: v for i, v in c.items() if i != 0}
    if not c:
        raise ConstantSeriesError("series is constant after dropping exponent 0")
    top = max(c.values())
    return {i: v - top for i, v in c.items()}


def ref_derivative(c, setting):
    scales = {i: ref_abs(setting, i) for i in c}
    d = {i - 1: v + scales[i] for i, v in c.items() if scales[i] is not None}
    if not d:
        raise InseparableSeriesError(
            "derivative vanishes identically; the covering is inseparable"
        )
    return d


def _require_normalized(c):
    if not ref_is_normalized(c):
        raise ValueError("series must be normalized (no constant term, sup = 1)")


def ref_report(c, setting):
    _require_normalized(c)
    m = min(i for i, v in c.items() if v == 0)
    d = ref_derivative(c, setting)
    top = max(d.values())
    n = min(j for j, v in d.items() if v == top) + 1
    return m, n, top, m - n


def ref_image_law(c, x):
    _require_normalized(c)
    at_x = {i: v + i * x for i, v in c.items()}
    best = max(at_x.values())
    m = min(i for i, v in at_x.items() if v == best)
    return m, c[m]


def ref_admissible(m, s, delta, setting):
    """``|m+s| >= delta >= |m|``, one-sided at equality; ``delta`` None is -inf."""
    upper, lower = ref_abs(setting, m + s), ref_abs(setting, m)
    if setting.split(":")[1:2] == ["2"] and m % 4 == 2 and s and s % 2 == 0:
        return False

    def le(a, b):  # a <= b with None below everything
        return a is None or (b is not None and a <= b)

    if not (le(delta, upper) and le(lower, delta)):
        return False
    if delta == upper and s > 0:
        return False
    return not (delta == lower and s < 0)


def ref_realize(m, s, delta, setting):
    """The witness series, or the exception type and message to expect."""
    if not ref_admissible(m, s, delta, setting):
        return UnrealizableTripleError, None
    if s == 0:
        return {m: Fraction(0)}
    if delta is None:  # the witness coefficient would be zero
        return (
            UnrealizableTripleError,
            f"log_delta = -inf needs s = 0 (the witness would need a = 0), got s={s}",
        )
    coeff = delta - ref_abs(setting, m - s)
    if coeff > 0:
        return UnrealizableTripleError, f"witness coefficient would have positive log {coeff}"
    return {m: Fraction(0), m - s: coeff}


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def as_dict(value):
    return dict(value.coefficients) if isinstance(value, ValuedSeries) else value


def as_tuple(report):
    if isinstance(report, tuple):
        return report
    return report.m, report.n, report.log_delta, report.slope_s


@pytest.mark.parametrize("setting_text", SETTINGS)
def test_series_operations_match_the_restatement(setting_text):
    setting = ResidueSetting.parse(setting_text)
    rng = random.Random(f"kernel-{setting_text}")
    reports = 0
    for _ in range(DRAWS):
        raw = random_valued_series(rng)
        c = dict(raw.coefficients)
        assert is_normalized(raw) == ref_is_normalized(c)
        assert as_tuple(outcome(different_report, raw, setting)) == outcome(
            ref_report, c, setting_text
        )
        series = outcome(normalize, raw)
        want = outcome(ref_normalize, c)
        assert as_dict(series) == want
        if isinstance(want, tuple):
            continue
        assert is_normalized(series)
        assert as_dict(outcome(derivative, series, setting)) == outcome(
            ref_derivative, want, setting_text
        )
        for x in POINTS:
            m, coeff = skeleton_image_law(series, x)
            assert (m, coeff) == ref_image_law(want, x) and type(coeff) is LogAbs
        rep = outcome(different_report, series, setting)
        want_rep = outcome(ref_report, want, setting_text)
        assert as_tuple(rep) == want_rep
        if isinstance(rep, tuple) or rep.m <= 0:
            continue
        assert type(rep.log_delta) is LogAbs
        reports += 1
        # a report is admissible, and its witness reports it back
        assert ref_admissible(rep.m, rep.slope_s, want_rep[2], setting_text)
        back = realize_triple(rep.m, rep.slope_s, rep.log_delta, setting)
        assert as_dict(back) == ref_realize(rep.m, rep.slope_s, want_rep[2], setting_text)
        assert different_report(back, setting) == rep
    assert reports > DRAWS // 10


@pytest.mark.parametrize("setting_text", SETTINGS)
def test_realize_triple_matches_the_restatement(setting_text):
    setting = ResidueSetting.parse(setting_text)
    rng = random.Random(f"triples-{setting_text}")
    for _ in range(DRAWS):
        m, s = rng.randint(1, 12), rng.randint(-8, 8)
        delta = Fraction(rng.randint(-12, 0), rng.choice([1, 2, 3]))
        if rng.random() < 0.1:
            delta = None
        log_delta = NEG_INF if delta is None else LogAbs(delta)
        got = outcome(realize_triple, m, s, log_delta, setting)
        want = ref_realize(m, s, delta, setting_text)
        if isinstance(want, dict):
            assert as_dict(got) == want
        else:
            assert got[0] is want[0]
            if want[1] is not None:
                assert got[1] == want[1]


def test_restated_errors_are_the_library_errors():
    """The messages the restatement expects are the ones raised."""
    assert outcome(normalize, ValuedSeries({0: 0})) == outcome(ref_normalize, {0: 0})
    equi2 = ResidueSetting.parse("equicharP:2")
    assert outcome(derivative, ValuedSeries({2: 0}), equi2) == outcome(
        ref_derivative, {2: 0}, "equicharP:2"
    )
    assert outcome(different_report, ValuedSeries({2: -1}), equi2) == outcome(
        ref_report, {2: Fraction(-1)}, "equicharP:2"
    )
    assert outcome(skeleton_image_law, ValuedSeries({2: -1}), 0) == outcome(
        ref_image_law, {2: Fraction(-1)}, 0
    )


# -- the integer form -------------------------------------------------------------


def test_equal_maps_store_equal_data():
    """A value given as text, Fraction or LogAbs: one series, one minimal D."""
    given = [
        {1: "2/4", 3: "-1/3", 5: 0},
        {1: Fraction(1, 2), 3: Fraction(-1, 3), 5: Fraction(0)},
        {1: LogAbs(Fraction(1, 2)), 3: LogAbs(Fraction(-2, 6)), 5: LogAbs(0), 7: NEG_INF},
    ]
    series = [ValuedSeries(c) for c in given]
    assert series[0] == series[1] == series[2]
    assert len({hash(s) for s in series}) == 1
    for s in series:
        assert s.den == 6 and s.terms == ((1, 3), (3, -2), (5, 0))
        assert s.coefficients[3] == Fraction(-1, 3) and s.support == (1, 3, 5)


def test_internal_results_store_the_minimal_denominator():
    """normalize, derivative and realize_triple reduce what they compute."""
    # -5/2 and -1/2, shifted by the top value -1/2, are integers
    assert normalize(ValuedSeries({1: Fraction(-5, 2), 2: Fraction(-1, 2)})).den == 1
    mixed3 = ResidueSetting.parse("mixed:3:-1/2")
    # log|3| = -1/2 cancels the half of 1/2
    deriv = derivative(ValuedSeries({3: Fraction(1, 2), 2: 0}), mixed3)
    assert (deriv.den, deriv.terms) == (1, ((1, 0), (2, 0)))
    back = realize_triple(2, -1, LogAbs(Fraction(-1, 2)), ResidueSetting.mixed(2, -1))
    assert (back.den, back.terms) == (2, ((2, 0), (3, -1)))


@pytest.mark.parametrize("setting_text", SETTINGS)
def test_tropical_eval_reads_series_and_maps_alike(setting_text):
    """A series and its map of coefficients give one envelope, down to the
    tie set at every breakpoint; so do a series' derivative and its map."""
    def form(profile):
        ties = [profile.achievers_at(x) for x in profile.breakpoints if x is not INF]
        return profile, profile._cden, profile._terms, profile.segment_achievers, ties

    setting = ResidueSetting.parse(setting_text)
    rng = random.Random("envelope")
    domains = [(Fraction(-2), Fraction(1)), (Fraction(-1, 3), INF), (Fraction(1, 2),) * 2]
    for _ in range(500):
        s = random_valued_series(rng)
        try:
            series = (s, derivative(s, setting))
        except InseparableSeriesError:
            series = (s,)
        for t in series:
            for domain in domains:
                assert form(tropical_eval(t, domain)) == form(tropical_eval(t.coefficients, domain))



def _random_domain(rng, kind):
    a = Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3]))
    if kind == "finite":
        return a, a + Fraction(rng.randint(1, 12), rng.choice([1, 2, 5]))
    return (a, INF) if kind == "tail" else (a, a)


@pytest.mark.parametrize("setting_text", SETTINGS + ["over one somewhere"])
def test_different_profile_is_the_public_composition(setting_text):
    """``T(h') + x - T(h)`` without intermediate envelopes equals the product
    of the two public envelopes, and is refused exactly where its sup exceeds
    0: never in a residue setting, where ``|i| <= 1``."""
    real = setting_text in SETTINGS
    # the stand-in has |i| > 1 for a third of the exponents, so some profiles exceed 0
    setting = (ResidueSetting.parse(setting_text) if real
               else StandInSetting(lambda i: Fraction(i % 3 - 1, 2)))
    rng = random.Random(f"fused-{setting_text}")
    seen = {"ok": 0, "invalid": 0}
    for _ in range(1000):
        try:
            series = normalize(random_valued_series(rng))
            deriv = derivative(series, setting)
        except (ConstantSeriesError, InseparableSeriesError):
            continue
        for kind in ("finite", "tail", "point"):
            domain = _random_domain(rng, kind)
            want = monomial_product(
                ((tropical_eval(deriv, domain), 1), (tropical_eval(series, domain), -1)),
                r_exponent=1,
            )
            top = want.sup()
            got = outcome(different_profile, series, setting, domain)
            if top is INF or top > 0:
                assert got == (InvalidModelError, f"different exceeds one on {domain}; "
                               "the series does not model a covering there")
                seen["invalid"] += 1
            else:
                assert got == want and got.to_json_dict() == want.to_json_dict()
                assert type(got) is type(want)
                seen["ok"] += 1
    assert seen["ok"] > 1000, seen
    assert seen["invalid"] == 0 if real else seen["invalid"] > 300, seen
