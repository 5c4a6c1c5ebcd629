"""Multiplicity and different along the skeleton of an annulus.

A finite-support map ``i -> log|h_i|`` models a Laurent series ``h`` on
an annulus.  The reference point sits at ``log r = 0`` (radius one); the
series is normalized so that the constant term is dropped and
``max_i log|h_i| = 0``.  From the series one reads off:

* the multiplicity ``m`` (minimal exponent achieving the sup norm),
* the dominant derivative exponent ``n`` (minimal exponent with
  ``log|i*h_i|`` maximal),
* the different ``log delta = log|n*h_n|`` and its inward slope
  ``s = m - n``.

The triple ``(m, s, delta)`` obeys ``|m+s| >= delta >= |m|``, with
``s <= 0`` forced when the upper bound is attained and ``s >= 0`` when
the lower one is; :func:`check_restriction` tests the condition and
:func:`realize_triple` produces a witness series for any admissible
triple.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Tuple

from . import pmfunc
from .pmfunc import PMFunction
from .valuation import Frozen, LogAbs, Record, ResidueSetting, parse_rational


class ConstantSeriesError(ValueError):
    pass


class InseparableSeriesError(ValueError):
    """The derivative vanishes identically: the map is not generically etale."""


class InvalidModelError(ValueError):
    """Computed different exceeds one somewhere: not a covering model."""


class UnrealizableTripleError(ValueError):
    pass


class ValuedSeries(Frozen):
    """Finite-support map ``exponent -> log|coefficient|``.

    Coefficients with absolute value zero are simply absent, so every
    stored value is a finite rational.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Mapping[int, Fraction]):
        coeffs = {}
        for i, v in dict(coefficients).items():
            if isinstance(v, LogAbs):
                if v.is_neg_inf:
                    continue
                v = v.value
            coeffs[int(i)] = v if type(v) is Fraction else Fraction(v)
        if not coeffs:
            raise pmfunc.EmptySeriesError("series has empty support")
        super().__init__(coeffs)

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self.coefficients))

    def __getitem__(self, i: int) -> Fraction:
        return self.coefficients[i]

    def __hash__(self):
        return hash(tuple(sorted(self.coefficients.items())))

    def __repr__(self):
        terms = ", ".join(f"{i}: {v}" for i, v in sorted(self.coefficients.items()))
        return f"ValuedSeries({{{terms}}})"

    def to_text(self) -> str:
        """One ``exponent log_abs`` pair per line."""
        return "\n".join(f"{i} {v}" for i, v in sorted(self.coefficients.items()))

    @classmethod
    def from_text(cls, text: str) -> "ValuedSeries":
        coeffs: Dict[int, Fraction] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'exponent log_abs'")
            coeffs[int(parts[0])] = parse_rational(parts[1])
        return cls(coeffs)


class DifferentReport(Record):
    """Multiplicity, dominant derivative exponent, different and slope.

    ``slope_s`` is the slope of the different toward the inside of the
    annulus (increasing as the radius shrinks when positive); it always
    equals ``m - n``.
    """

    __slots__ = ("m", "n", "log_delta", "slope_s")

    def __init__(self, m: int, n: int, log_delta: LogAbs, slope_s: int):
        if log_delta > 0:
            raise ValueError("log_delta must be <= 0")
        if slope_s != m - n:
            raise ValueError("slope_s must equal m - n")
        super().__init__(m, n, log_delta, slope_s)


class Verdict(Frozen):
    __slots__ = ("ok", "reason")
    _defaults = {"reason": ""}

    @classmethod
    def violated(cls, reason: str) -> "Verdict":
        return cls(False, reason)


_PASSED = Verdict(True)  # immutable, so one instance serves every pass


def is_normalized(series: ValuedSeries) -> bool:
    return 0 not in series.coefficients and max(series.coefficients.values()) == 0


def normalize(series: ValuedSeries) -> ValuedSeries:
    """Drop the constant term and rescale so the sup norm is one."""
    coeffs = {i: v for i, v in series.coefficients.items() if i != 0}
    if not coeffs:
        raise ConstantSeriesError("series is constant after dropping exponent 0")
    top = max(coeffs.values())
    return ValuedSeries({i: v - top for i, v in coeffs.items()})


def _require_normalized(series: ValuedSeries) -> None:
    if not is_normalized(series):
        raise ValueError("series must be normalized (no constant term, sup = 1)")


def skeleton_image_law(series: ValuedSeries, at_log_r) -> Tuple[int, LogAbs]:
    """Dominant monomial law ``|x| = |h_m| |t|^m`` at a skeleton point.

    ``m`` is the minimal achieving exponent at ``at_log_r`` (the exponent
    that dominates just inward of the point); the degree of the induced
    map on the skeleton is ``|m|``.
    """
    _require_normalized(series)
    x = Fraction(at_log_r)
    best = max(v + i * x for i, v in series.coefficients.items())
    m = min(i for i, v in series.coefficients.items() if v + i * x == best)
    return m, LogAbs(series.coefficients[m])


def derivative(series: ValuedSeries, setting: ResidueSetting) -> ValuedSeries:
    """Term-wise derivative: ``log|i * h_i|`` placed at exponent ``i - 1``."""
    coeffs: Dict[int, Fraction] = {}
    for i, v in series.coefficients.items():
        scale = setting.int_abs(i)
        if scale.is_neg_inf:
            continue
        coeffs[i - 1] = scale.value + v
    if not coeffs:
        raise InseparableSeriesError(
            "derivative vanishes identically; the covering is inseparable"
        )
    return ValuedSeries(coeffs)


def different_profile(
    series: ValuedSeries, setting: ResidueSetting, domain
) -> PMFunction:
    """log delta along the skeleton: ``T(h') + x - T(h)`` on ``domain``.

    Raises :class:`InvalidModelError` if the result exceeds zero
    anywhere, since a covering has different at most one.
    """
    _require_normalized(series)
    deriv = derivative(series, setting)
    t_h = pmfunc.tropical_eval(series, domain)
    t_hp = pmfunc.tropical_eval(deriv, domain)
    profile = pmfunc.monomial_product(((t_hp, 1), (t_h, -1)), r_exponent=1)
    sup = profile.sup()
    if sup is pmfunc.INF or sup > 0:
        raise InvalidModelError(
            f"different exceeds one on {domain}; the series does not model "
            "a covering there"
        )
    return profile


def different_report(series: ValuedSeries, setting: ResidueSetting) -> DifferentReport:
    """Invariants at the reference point ``log r = 0``."""
    _require_normalized(series)
    m = min(i for i, v in series.coefficients.items() if v == 0)
    deriv = derivative(series, setting)
    # exponents shift by one under differentiation
    top = max(deriv.coefficients.values())
    n = min(j for j, v in deriv.coefficients.items() if v == top) + 1
    return DifferentReport(m=m, n=n, log_delta=LogAbs(top), slope_s=m - n)


def check_restriction(
    m: int, s: int, log_delta: LogAbs, setting: ResidueSetting
) -> Verdict:
    """Admissibility of a (multiplicity, slope, different) triple.

    The condition is ``|m+s| >= delta >= |m|`` together with ``s <= 0``
    when the first inequality is an equality and ``s >= 0`` when the
    second one is.  For residue characteristic two and ``m = 2 mod 4``
    a nonzero even slope is reported with a dedicated reason (it always
    also fails the base condition).
    """
    if m <= 0:
        raise ValueError("multiplicity m must be positive")
    d = log_delta._value  # the raw value: a Fraction, or None for -inf
    if d is not None and d > 0:
        raise ValueError("log_delta must be <= 0")
    if setting.res_char == 2 and m % 4 == 2 and s != 0 and s % 2 == 0:
        return Verdict.violated(
            f"even multiplicity {m} = 2 mod 4 admits only odd nonzero slopes "
            f"in residue characteristic 2, got s={s}"
        )
    upper = setting.int_abs(m + s)
    u = upper._value
    if d is not None and (u is None or u < d):
        return Verdict.violated(f"|m+s| = {upper} < log_delta = {log_delta}")
    lower = setting.int_abs(m)
    low = lower._value
    if low is not None and (d is None or d < low):
        return Verdict.violated(f"log_delta = {log_delta} < |m| = {lower}")
    if d == u and s > 0:
        return Verdict.violated(
            f"log_delta attains |m+s| = {upper}, which requires s <= 0, got s={s}"
        )
    if d == low and s < 0:
        return Verdict.violated(
            f"log_delta attains |m| = {lower}, which requires s >= 0, got s={s}"
        )
    return _PASSED


def realize_triple(
    m: int, s: int, log_delta: LogAbs, setting: ResidueSetting
) -> ValuedSeries:
    """A normalized series whose report is ``(m, m-s, log_delta, s)``.

    For ``s = 0`` the monomial ``t^m`` works; otherwise
    ``t^m + a t^{m-s}`` with ``log|a| = log_delta - |m-s|``.  All log
    values here are rational, so a witness always exists at the
    reference point (no irrational radius is ever needed).
    """
    verdict = check_restriction(m, s, log_delta, setting)
    if not verdict:
        raise UnrealizableTripleError(verdict.reason)
    if s == 0:
        return ValuedSeries({m: Fraction(0)})
    scale = setting.int_abs(m - s)
    coeff = log_delta - scale
    if coeff > 0:
        # cannot happen for admissible triples; guard against misuse
        raise UnrealizableTripleError(
            f"witness coefficient would have positive log {coeff}"
        )
    return ValuedSeries({m: Fraction(0), m - s: coeff.value})
