import copy
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wildskel.valuation import (
    INF,
    NEG_INF,
    ZERO,
    LogAbs,
    ResidueSetting,
    _is_prime,
    cut,
    echo,
    parse_rational,
    parse_ratio,
)

from tests.support import _entries


class TestLogAbs:
    def test_ordering(self):
        assert NEG_INF < LogAbs(-5) < LogAbs(0) < LogAbs(Fraction(1, 2))
        assert NEG_INF <= NEG_INF
        assert not NEG_INF < NEG_INF

    def test_parse_format_roundtrip(self):
        for text in ["-inf", "0", "-1", "3/7", "-22/5"]:
            assert str(LogAbs(text)) == text

    def test_compare_with_plain_numbers(self):
        assert LogAbs(Fraction(-1, 2)) <= 0
        assert NEG_INF < 0
        assert LogAbs(0) == 0

    def test_neg_inf_has_no_value(self):
        with pytest.raises(ValueError, match="^NEG_INF has no finite value$"):
            NEG_INF.value

    @pytest.mark.parametrize("other", [1.5, "1", None])
    def test_foreign_operand_is_a_type_error(self, other):
        for apply in (lambda a: a + other, lambda a: a - other, lambda a: a * other):
            with pytest.raises(TypeError):
                apply(LogAbs(1))

    def test_compare_with_a_str(self):
        assert LogAbs(0) != "0" and not LogAbs(0) == "0"
        for compare in (lambda a: a < "0", lambda a: a >= "0"):
            with pytest.raises(TypeError):
                compare(LogAbs(0))

    @pytest.mark.parametrize("number", [0, -3, Fraction(1, 2)])
    def test_hashes_as_the_number_it_equals(self, number):
        value = LogAbs(number)
        assert value == number and hash(value) == hash(number)
        assert len({value, number}) == 1
        assert {value: "found"}.get(number) == "found"
        assert {number: "found"}.get(value) == "found"

    @pytest.mark.parametrize("value", [NEG_INF, ZERO, LogAbs(-2), LogAbs(Fraction(1, 3))])
    def test_reads_any_log_abs(self, value):
        assert LogAbs(value) == value and hash(LogAbs(value)) == hash(value)

    def test_neg_inf_hashes_alike_in_every_copy(self):
        assert len({NEG_INF, LogAbs("-inf"), copy.deepcopy(NEG_INF)}) == 1

    def test_greater_or_equal(self):
        assert LogAbs(0) >= LogAbs(-1) and LogAbs(0) >= 0 and LogAbs(0) >= NEG_INF
        assert NEG_INF >= NEG_INF and not NEG_INF >= -5 and not LogAbs(-1) >= 0


class TestPlusInfinity:
    def test_ordering(self):
        assert Fraction(10**9) < INF
        assert INF <= INF
        assert not INF < INF

    def test_arithmetic(self):
        assert INF + 3 is INF and 3 + INF is INF

    def test_parse(self):
        assert parse_ratio("inf", "inf") is INF
        assert parse_ratio("3/2", "inf") == (3, 2)


class TestResidueSetting:
    def test_valid_kinds(self):
        assert ResidueSetting.equichar_zero().kind == "equichar0"
        assert ResidueSetting.equichar(5).kind == "equicharp"
        assert ResidueSetting.mixed(2).kind == "mixed"

    def test_invalid_pairs(self):
        with pytest.raises(ValueError):
            ResidueSetting(3, 5)
        with pytest.raises(ValueError):
            ResidueSetting(0, 4, LogAbs(-1))
        with pytest.raises(ValueError):
            ResidueSetting(0, 2)  # mixed without log_p
        with pytest.raises(ValueError):
            ResidueSetting(0, 2, LogAbs(1))  # log_p must be negative
        with pytest.raises(ValueError):
            ResidueSetting(2, 2, LogAbs(-1))  # equichar p carries no log_p

    @pytest.mark.parametrize("log_p", [-1, Fraction(-1, 2), "-3/4"],
                             ids=["int", "Fraction", "text"])
    def test_log_p_is_read_as_a_rational(self, log_p):
        setting = ResidueSetting(0, 2, log_p)
        assert setting == ResidueSetting.mixed(2, log_p)
        assert type(setting.log_p) is LogAbs and setting.int_abs(4).value == 2 * setting.log_p.value

    @pytest.mark.parametrize("log_p", [NEG_INF, 0, "0", Fraction(1, 2), LogAbs(1), "-inf", " -inf",
                                       copy.deepcopy(NEG_INF), " -inf "])
    def test_log_p_must_be_negative(self, log_p):
        message = "^log_p must be a strictly negative rational$"
        with pytest.raises(ValueError, match=message):
            ResidueSetting(0, 2, log_p)

    def test_mixed_reads_a_log_abs(self):
        assert ResidueSetting.mixed(2, LogAbs(-2)) == ResidueSetting.mixed(2, -2)
        with pytest.raises(ValueError, match="^log_p must be a strictly negative rational$"):
            ResidueSetting.mixed(2, NEG_INF)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("mixed:2:-inf", "log_p must be a strictly negative rational"),
            ("equicharP:x", "p is 'x', not an integer"),
            ("mixed:x:-1", "p is 'x', not an integer"),
            ("mixed:2:x", "Invalid literal for Fraction: 'x'"),
        ],
    )
    def test_parse_names_the_fault(self, text, message):
        with pytest.raises(ValueError) as info:
            ResidueSetting.parse(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("log_p", [-1, -0.5, True, LogAbs(-1)])
    def test_log_p_in_equicharacteristic_keeps_its_message(self, log_p):
        for char, res_char, kind in ((0, 0, "zero"), (2, 2, "p")):
            message = f"^equicharacteristic {kind} carries no log_p$"
            with pytest.raises(ValueError, match=message):
                ResidueSetting(char, res_char, log_p)

    def test_parse_describe_roundtrip(self):
        for text in ["equichar0", "equicharP:3", "mixed:2:-1", "mixed:5:-2/3"]:
            assert ResidueSetting.parse(text).describe() == text


class TestPrimality:
    def test_agrees_with_trial_division(self):
        def by_trial_division(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert all(_is_prime(n) == by_trial_division(n) for n in range(20000))

    def test_strong_pseudoprime_to_bases_up_to_23(self):
        assert not _is_prime(3825123056546413051)

    def test_largest_prime_below_2_64_is_quick(self):
        start = time.perf_counter()
        setting = ResidueSetting.parse("equicharP:18446744073709551557")
        assert time.perf_counter() - start < 0.1
        assert setting.char == 2**64 - 59

    def test_characteristic_of_2_64_or_more_rejected(self):
        with pytest.raises(ValueError, match="is not below 2\\^64"):
            ResidueSetting.equichar(2**64 + 13)
        with pytest.raises(ValueError, match="is not below 2\\^64"):
            ResidueSetting.mixed(2**64)


class TestIntAbs:
    def test_mixed_p2(self):
        setting = ResidueSetting.mixed(2, Fraction(-1))
        assert setting.int_abs(12) == LogAbs(-2)

    def test_equichar_zero(self):
        assert ResidueSetting.equichar_zero().int_abs(7) == ZERO

    def test_equichar_p(self):
        setting = ResidueSetting.equichar(3)
        assert setting.int_abs(9) == NEG_INF
        assert setting.int_abs(4) == ZERO

    def test_zero_always_neg_inf(self):
        for setting in (
            ResidueSetting.equichar_zero(),
            ResidueSetting.mixed(2),
            ResidueSetting.equichar(5),
        ):
            assert setting.int_abs(0) == NEG_INF

    def test_units(self):
        for setting in (
            ResidueSetting.equichar_zero(),
            ResidueSetting.mixed(3, Fraction(-1, 2)),
            ResidueSetting.equichar(7),
        ):
            assert setting.int_abs(1) == ZERO
            assert setting.int_abs(-1) == ZERO

    @given(st.integers(-300, 300), st.integers(-300, 300))
    def test_multiplicative(self, m, n):
        for setting in (
            ResidueSetting.equichar_zero(),
            ResidueSetting.mixed(2, Fraction(-1)),
            ResidueSetting.mixed(3, Fraction(-1, 3)),
            ResidueSetting.equichar(2),
        ):
            a, b = setting.int_abs(m), setting.int_abs(n)
            if a.is_neg_inf or b.is_neg_inf:
                assert setting.int_abs(m * n) == NEG_INF
            else:
                assert setting.int_abs(m * n) == a.value + b.value

    @given(st.integers(-300, 300), st.integers(-300, 300))
    def test_ultrametric(self, m, n):
        setting = ResidueSetting.mixed(2, Fraction(-1))
        a, b = setting.int_abs(m), setting.int_abs(n)
        s = setting.int_abs(m + n)
        assert s <= max(a, b)
        if a != b:
            assert s == max(a, b)


class TestParseRational:
    def test_exponent_notation_loads(self):
        assert parse_rational("1e3") == 1000
        assert parse_rational("2.5E-1") == Fraction(1, 4)
        assert parse_rational("-1_0e+0_2") == -1000

    def test_digits_over_the_limit_rejected_before_they_are_built(self):
        limit = sys.get_int_max_str_digits()
        start = time.perf_counter()
        for text in ("1e3000000", "-2.5e-3000000", "1e" + "9" * 5000, "7" * (limit + 1)):
            with pytest.raises(ValueError, match=f"has more than {limit} digits"):
                parse_rational(text)
        assert time.perf_counter() - start < 0.1

    def test_the_bound_is_the_mantissa_digits_plus_the_exponent(self):
        limit = sys.get_int_max_str_digits()
        assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
        assert parse_rational(f"1e-00{limit - 1}") == Fraction(1, 10 ** (limit - 1))
        with pytest.raises(ValueError, match="has more than"):
            parse_rational(f"1.0e{limit - 1}")

    def test_no_limit_no_check(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert parse_rational("1e5000") == 10**5000
        finally:
            sys.set_int_max_str_digits(before)



def _outcome(parse, text):
    """``parse(text)`` as a Fraction (None for -inf, INF for inf), or the type
    and message of the ValueError it raises."""
    try:
        value = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return Fraction(*value) if isinstance(value, tuple) else value


def _fraction_length(text):
    """How the loaders read a length before they read integer pairs."""
    text = text.strip()
    return INF if text == "inf" else parse_rational(text)


def _fraction_delta(text):
    """How the loaders read a delta value before they read integer pairs."""
    text = text.strip()
    return None if text == "-inf" else parse_rational(text)


class TestParseRatio:
    """The integer-pair reader of length and delta text agrees with the
    Fraction readers it replaced in the loaders, fast path or not; the
    public ``LogAbs`` reads text through it."""

    PIECES = ["-", "+", " ", "\t", "/", ".", "e", "E", "_", "0", "00", "1", "7",
              "12", "360", "\u0663", "\u00b2", "x", "inf", "-inf", "nan"]

    def test_fuzzed_texts_agree_with_the_fraction_readers(self):
        import random

        rng = random.Random(8)
        limit = sys.get_int_max_str_digits()
        texts = ["1" * limit, "1" * (limit + 1), "-" + "9" * limit, "1/" + "3" * limit,
                 " " + "2" * (limit - 1), "2" * (limit - 2) + "/4", "1e3", "1/0",
                 "-0/0000", "0/7", "-6/4", "8/12", " -inf ", "inf\n"]
        for _ in range(20000):
            texts.append("".join(rng.choice(self.PIECES) for _ in range(rng.randint(0, 6))))
        for _ in range(2000):
            num = str(rng.randint(-10**6, 10**6))
            texts.append(num if rng.random() < 0.3 else f"{num}/{rng.randint(0, 10**4)}")
        for text in texts:
            length = _outcome(lambda t: parse_ratio(t, "inf"), text)
            assert length == _outcome(_fraction_length, text), text
            delta = _outcome(lambda t: parse_ratio(t, "-inf"), text)
            assert delta == _outcome(_fraction_delta, text), text
            parsed = _outcome(LogAbs, text)
            if isinstance(parsed, LogAbs):
                parsed = None if parsed.is_neg_inf else parsed.value
            assert parsed == delta, text

    def test_pairs_are_reduced_with_a_positive_denominator(self):
        assert parse_ratio("-6/4", "inf") == (-3, 2)
        assert parse_ratio(" 0/5", "inf") == (0, 1)
        assert parse_ratio("-0", "-inf") == (0, 1)
        assert parse_ratio("2.50", "-inf") == (5, 2)
        assert parse_ratio("\t-inf ", "-inf") is None


# -- one reader of rationals at every public entry ------------------------------


@pytest.mark.parametrize("name", sorted(_entries()))
def test_float_and_bool_are_refused(name):
    call, entry, sign = (*_entries()[name], 1)[:3]
    for value in (0.5 * sign, 1.0 * sign, True):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{entry} is {value!r}, not a rational"


@pytest.mark.parametrize("name", sorted(_entries()))
def test_int_fraction_and_text_read_alike(name):
    call, _, sign = (*_entries()[name], 1)[:3]
    results = [call(value) for value in (sign, Fraction(sign), str(sign), f" {2 * sign}/2 ")]
    assert all(r == results[0] for r in results)


@pytest.mark.parametrize("value", [3.0, 3.5, True])
def test_characteristics_are_integers(value):
    for char, res_char, entry in ((value, 3, "char"), (0, value, "res_char")):
        with pytest.raises(ValueError) as info:
            ResidueSetting(char, res_char, None if char else LogAbs(-1))
        assert str(info.value) == f"{entry} is {value!r}, not an integer"
    assert ResidueSetting("3", 3).describe() == "equicharP:3"


def test_a_copy_of_neg_inf_is_minus_infinity_as_delta():
    import copy

    from wildskel.delta_morphism import DeltaMorphism, MetricDeltaMorphism
    from wildskel.genus_graph import GenusGraph

    g = GenusGraph({"a": 0, "l": 0}, {"e": ("a", "l")}, {"e": INF}, ["l"])
    m = DeltaMorphism(g, g, {"a": "a", "l": "l"}, {"e": "e"}, {"e": 1}, {"e": 0})
    setting = ResidueSetting.equichar(2)
    mm = MetricDeltaMorphism(m, {"a": ZERO, "l": copy.deepcopy(ZERO)}, setting)
    assert mm.delta == {"a": ZERO, "l": ZERO}
    two = DeltaMorphism(g, GenusGraph({"x": 0, "y": 0}, {"f": ("x", "y")}, {"f": INF}, ["y"]),
                        {"a": "x", "l": "y"}, {"e": "f"}, {"e": 2}, {"e": -1})
    mm = MetricDeltaMorphism(two, {"a": ZERO, "l": copy.deepcopy(NEG_INF)}, setting)
    assert mm.delta["l"] is NEG_INF


_SPELLINGS = {"inf": (INF, "inf", " inf "),
              "-inf": (NEG_INF, copy.deepcopy(NEG_INF), "-inf", " -inf ")}


def _spelled(call, entry, noun, infinity, sign):
    """``call``, once it has read ``sign`` as an int, a Fraction, text and a
    LogAbs alike, every spelling of ``infinity`` alike, and refused each
    spelling of another infinity as a value it cannot read."""

    def outcome(value):
        try:
            return call(value)
        except ValueError as exc:
            return type(exc), str(exc)

    def checked(value):
        numbers = [outcome(x) for x in (sign, Fraction(sign), str(sign), LogAbs(sign))]
        assert numbers == numbers[:1] * 4, numbers
        for spelled, spellings in _SPELLINGS.items():
            got = [outcome(s) for s in spellings]
            if spelled == infinity:
                assert got == got[:1] * len(got), got
            else:
                assert got == [(ValueError, f"Invalid literal for Fraction: {s.strip()!r}")
                               if type(s) is str else (ValueError, f"{entry} is {s!r}, not {noun}")
                               for s in spellings], got
        return call(value)

    return checked


def _refusing_entries():
    """``name -> (call of one value, message, noun, takes -inf)``: the entries of
    ``_entries``, graph lengths, ``MetricDeltaMorphism`` delta and the
    ``log_delta`` of a report, a restriction check and a witness; each also
    as ``<name> on infinities``, which first reads every spelling of both
    infinities (but ``ResidueSetting log_p``, whose None is no log_p:
    ``test_log_p_must_be_negative`` reads its spellings)."""
    from wildskel.annulus import DifferentReport, check_restriction, realize_triple
    from wildskel.delta_morphism import DeltaMorphism, MetricDeltaMorphism
    from wildskel.genus_graph import GenusGraph

    two = {"a": 0, "b": 0}
    line = GenusGraph(two, {"e": ("a", "b")}, {"e": 1})
    identity = DeltaMorphism(line, line, {"a": "a", "b": "b"}, {"e": "e"}, {"e": 1}, {"e": 0})
    tail = GenusGraph({"a": 0, "l": 0}, {"e": ("a", "l")}, {"e": INF}, ["l"])
    descending = DeltaMorphism(
        tail, GenusGraph({"x": 0, "y": 0}, {"f": ("x", "y")}, {"f": INF}, ["y"]),
        {"a": "x", "l": "y"}, {"e": "f"}, {"e": 2}, {"e": -1})
    setting, mixed = ResidueSetting.equichar(2), ResidueSetting.mixed(2, -1)
    # -inf belongs to series values (a vanishing term), log_j (j = 0), LogAbs, delta
    # and log_delta; as log_p it is a value that the rule refuses.  inf belongs to
    # lengths (a tail), breakpoints and the right end of a domain; on an inner
    # breakpoint or an edge that is no tail it is a value its place refuses
    takes = {"series value", "EllipticInput.of", "LogAbs", "mixed log_p", "ResidueSetting log_p",
             "delta", "delta at a leaf", "DifferentReport", "check_restriction", "realize_triple"}
    tails = {"breakpoint", "last breakpoint", "JSON breakpoint", "profile domain",
             "tropical domain", "graph length", "tail length"}
    entries = {name: (call, entry, "a rational", name in takes)
               for name, (call, entry, *_) in _entries().items()}
    entries["graph length"] = (lambda x: GenusGraph(two, {"e": ("a", "b")}, {"e": x}),
                               "lengths value of 'e'", "a rational or inf", False)
    entries["tail length"] = (
        lambda x: GenusGraph({"a": 0, "l": 0}, {"e": ("a", "l")}, {"e": x}, ["l"]),
        "lengths value of 'e'", "a rational or inf", False)
    entries["delta"] = (lambda x: MetricDeltaMorphism(identity, {"a": ZERO, "b": x}, setting),
                        "delta value of 'b'", "a rational or -inf", True)
    entries["delta at a leaf"] = (
        lambda x: MetricDeltaMorphism(descending, {"a": ZERO, "l": x}, setting).delta,
        "delta value of 'l'", "a rational or -inf", True)
    for name, call in (("DifferentReport", lambda x: DifferentReport(2, 3, x, -1)),
                       ("check_restriction", lambda x: check_restriction(2, 0, x, mixed)),
                       ("realize_triple", lambda x: realize_triple(2, -1, x, mixed))):
        entries[name] = (call, "log_delta", "a rational or -inf", True)
    signs = {name: (*row, 1)[2] for name, row in _entries().items()}
    for name, (call, entry, noun, takes_neg_inf) in list(entries.items()):
        if name != "ResidueSetting log_p":
            infinity = "-inf" if takes_neg_inf else "inf" if name in tails else None
            sign = signs.get(name, -1 if takes_neg_inf else 1)
            entries[f"{name} on infinities"] = (
                _spelled(call, entry, noun, infinity, sign), entry, noun, takes_neg_inf)
    return entries


@pytest.mark.parametrize("name", sorted(_refusing_entries()))
def test_unreadable_values_are_named(name):
    call, entry, noun, takes_neg_inf = _refusing_entries()[name]
    values = [[1], {}, Decimal("NaN"), Decimal("-Infinity")] + ([] if takes_neg_inf else [NEG_INF])
    if name != "ResidueSetting log_p":  # there None is no log_p: "requires log_p"
        values.append(None)
    for value in values:
        with pytest.raises(ValueError) as info:
            call(value)
        assert type(info.value) is ValueError
        assert str(info.value) == f"{entry} is {value!r}, not {noun}"


def test_echo_shows_a_memoryview_by_its_bytes():
    # its repr is an address, <memory at 0x...>, that changes from run to run
    views = memoryview(b"01"), memoryview(bytearray(b"01"))
    assert [echo(v) for v in views] == ["memoryview(b'01')"] * 2
    assert echo(memoryview(b"a" * 500)) == cut("memoryview(b'" + "a" * 500 + "')")
    released = memoryview(b"01")
    released.release()  # no bytes left to show: its repr, as before
    assert echo(released) == repr(released)
