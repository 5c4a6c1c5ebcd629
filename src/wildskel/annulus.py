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

Representation.  A series is stored like a
:class:`~wildskel.pmfunc.PMFunction`: over the least common denominator
``D`` of its values, as ``(exponent, D * value)`` pairs sorted by
exponent.  ``D`` is minimal, so equal series store equal data.
Normalization, derivatives, reports, image laws, witnesses and the
slope restriction all run on these integers, and :func:`tropical_eval`
reads them directly; the report builds no derivative series, and the
profile sums the two envelopes as integer segment data into one validated
``PMFunction``.  Fractions are made only where a value leaves the module:
``coefficients``, ``to_text``, ``repr``, report values and
messages.  Each input has one reader: a series mapping ``pmfunc._read_series``,
``log_delta`` :func:`_read_log_delta` (for the report, the check and the
witness alike) and ``log|i|`` the setting's integer ``_int_abs_ratio``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Mapping, Sequence, Tuple

from . import pmfunc
from .pmfunc import PMFunction
from .valuation import (
    NEG_INF, Frozen, LogAbs, Record, ResidueSetting, as_int, as_ratio, echo, ratio_text, read_ratio
)


def _read_log_delta(log_delta):
    """``log_delta`` as ``(numerator, denominator)``, None for -inf; it is at most 0."""
    d = as_ratio(log_delta, "log_delta", None, "a rational or -inf", "-inf")
    if d is not None and d[0] > 0:
        raise ValueError("log_delta must be <= 0")
    return d


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

    Coefficients with absolute value zero (any spelling of ``-inf``) are
    simply absent, so every stored value is a finite rational.  The fields
    ``den`` and ``terms`` hold the integer form described in the module
    docstring.
    """

    __slots__ = ("den", "terms")

    def __init__(self, coefficients: Mapping[int, Fraction]):
        self._store(*pmfunc._read_series(coefficients, "-inf"))

    @classmethod
    def _from_scaled(cls, den: int, terms: Sequence[Tuple[int, int]]) -> "ValuedSeries":
        """The series of sorted ``(exponent, numerator)`` pairs over ``den``."""
        obj = cls.__new__(cls)
        obj._store(den, terms)
        return obj

    def _store(self, den: int, terms) -> None:
        g = gcd(den, *[n for _, n in terms])
        Frozen.__init__(self, den // g, tuple([(i, n // g) for i, n in terms]))

    @property
    def coefficients(self) -> Dict[int, Fraction]:
        """The map ``exponent -> log|coefficient|``, made afresh."""
        d = self.den
        return {i: Fraction(n, d) for i, n in self.terms}

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple([i for i, _ in self.terms])

    def __repr__(self):
        terms = ", ".join(f"{i}: {v}" for i, v in self.coefficients.items())
        return f"ValuedSeries({{{terms}}})"

    def to_text(self) -> str:
        """One ``exponent log_abs`` pair per line."""
        return "\n".join(f"{i} {v}" for i, v in self.coefficients.items())

    @classmethod
    def from_text(cls, text: str) -> "ValuedSeries":
        """Parse one ``exponent log_abs`` pair per line; ``#`` starts a
        comment.  An error names the line, and so does a repeated exponent."""
        coeffs: Dict[int, Fraction] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'exponent log_abs'")
            exponent, value = parts
            try:
                i = int(exponent)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: exponent {echo(exponent)} is not an integer"
                ) from None
            v = read_ratio(value, None, "line {id}: value {value} is not a rational", lineno)
            if i in coeffs:
                raise ValueError(f"line {lineno} repeats exponent {i}")
            coeffs[i] = Fraction(*v)
        return cls(coeffs)


class DifferentReport(Record):
    """Multiplicity, dominant derivative exponent, different and slope.

    ``slope_s`` is the slope of the different toward the inside of the
    annulus (increasing as the radius shrinks when positive); it always
    equals ``m - n``.  ``m``, ``n`` and ``slope_s`` are read as integers, and
    ``log_delta`` is stored as the ``LogAbs`` it reads.
    """

    __slots__ = ("m", "n", "log_delta", "slope_s")

    def __init__(self, m: int, n: int, log_delta, slope_s: int):
        m, n, slope_s = as_int(m, "m"), as_int(n, "n"), as_int(slope_s, "slope_s")
        d = _read_log_delta(log_delta)
        if slope_s != m - n:
            raise ValueError("slope_s must equal m - n")
        super().__init__(m, n, NEG_INF if d is None else LogAbs(Fraction(*d)), slope_s)


class Verdict(Frozen):
    __slots__ = ("ok", "reason")
    _defaults = {"reason": ""}


_PASSED = Verdict(True)  # immutable, so one instance serves every pass


def is_normalized(series: ValuedSeries) -> bool:
    terms = series.terms
    return all([i for i, _ in terms]) and max([n for _, n in terms]) == 0


def normalize(series: ValuedSeries) -> ValuedSeries:
    """Drop the constant term and rescale so the sup norm is one."""
    terms = [(i, n) for i, n in series.terms if i != 0]
    if not terms:
        raise ConstantSeriesError("series is constant after dropping exponent 0")
    top = max([n for _, n in terms])
    return ValuedSeries._from_scaled(series.den, [(i, n - top) for i, n in terms])


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
    p, q = as_ratio(at_log_r, "at_log_r")
    pd = p * series.den
    # (m, h_m) with h_m + m*x maximal, scaled by D*q; the minimal m wins a tie
    m, n = max(series.terms, key=lambda t: (t[1] * q + t[0] * pd, -t[0]))
    return m, LogAbs(Fraction(n, series.den))


def _surviving_terms(series: ValuedSeries, setting: ResidueSetting) -> list:
    """``(i, D * log|h_i|, a, b)`` with ``log|i| = a/b`` per term with ``|i| > 0``."""
    scales = [(i, n, setting._int_abs_ratio(i)) for i, n in series.terms]  # None for -inf
    kept = [(i, n, *r) for i, n, r in scales if r is not None]
    if not kept:
        raise InseparableSeriesError(
            "derivative vanishes identically; the covering is inseparable"
        )
    return kept


def derivative(series: ValuedSeries, setting: ResidueSetting) -> ValuedSeries:
    """Term-wise derivative: ``log|i * h_i|`` placed at exponent ``i - 1``."""
    kept = _surviving_terms(series, setting)
    den = lcm(series.den, *[b for *_, b in kept])
    k = den // series.den
    return ValuedSeries._from_scaled(
        den, [(i - 1, n * k + a * (den // b)) for i, n, a, b in kept]
    )


def different_profile(
    series: ValuedSeries, setting: ResidueSetting, domain
) -> PMFunction:
    """log delta along the skeleton: ``T(h') + x - T(h)`` on ``domain``.

    Raises :class:`InvalidModelError` if the result exceeds zero
    anywhere, since a covering has different at most one.
    """
    _require_normalized(series)
    deriv = derivative(series, setting)
    # both envelopes as segment data (D, xs, vs, slopes): no NewtonProfile is built
    t_h = pmfunc._envelope(series.den, series.terms, domain)[:4]
    t_hp = pmfunc._envelope(deriv.den, deriv.terms, domain)[:4]
    profile = pmfunc._merge(((*t_hp, 1), (*t_h, -1)), r_exponent=1)
    top = profile._sup_num()  # over the profile's denominator; None for +inf
    if top is None or top > 0:
        raise InvalidModelError(
            f"different exceeds one on {domain}; the series does not model "
            "a covering there"
        )
    return profile


def different_report(series: ValuedSeries, setting: ResidueSetting) -> DifferentReport:
    """Invariants at the reference point ``log r = 0``."""
    _require_normalized(series)
    # terms are sorted, so the first exponent found is the minimal one
    m = next(i for i, n in series.terms if n == 0)
    # the dominant derivative term has log|i| + log|h_i| = a/b + h/D
    # largest, that is (a*D + h*b) / b; the first one found wins a tie
    den, best = series.den, None
    for i, h, a, b in _surviving_terms(series, setting):
        key = a * den + h * b
        if best is None or key * best[2] > best[1] * b:
            best = (i, key, b)
    n, key, b = best
    return DifferentReport(m=m, n=n, log_delta=Fraction(key, b * den), slope_s=m - n)


def check_restriction(m: int, s: int, log_delta, setting: ResidueSetting) -> Verdict:
    """Admissibility of a (multiplicity, slope, different) triple.

    The condition is ``|m+s| >= delta >= |m|`` together with ``s <= 0``
    when the first inequality is an equality and ``s >= 0`` when the
    second one is.  For residue characteristic two and ``m = 2 mod 4``
    a nonzero even slope is reported with a dedicated reason (it always
    also fails the base condition).  ``m`` and ``s`` are read as integers
    and ``log_delta`` as a rational or ``-inf``.
    """
    m, s = as_int(m, "m"), as_int(s, "s")
    if m <= 0:
        raise ValueError("multiplicity m must be positive")
    d = _read_log_delta(log_delta)
    if setting.res_char == 2 and m % 4 == 2 and s != 0 and s % 2 == 0:
        return Verdict(
            False, f"even multiplicity {m} = 2 mod 4 admits only odd nonzero slopes "
            f"in residue characteristic 2, got s={s}"
        )
    # |m+s|, |m| and delta as integers over one denominator, None for -inf
    ru, rl = setting._int_abs_ratio(m + s), setting._int_abs_ratio(m)
    den = lcm(1 if ru is None else ru[1], 1 if rl is None else rl[1], 1 if d is None else d[1])
    u = None if ru is None else ru[0] * (den // ru[1])
    low = None if rl is None else rl[0] * (den // rl[1])
    d = None if d is None else d[0] * (den // d[1])
    if d is not None and (u is None or u < d):
        return Verdict(
            False, f"|m+s| = {setting.int_abs(m + s)} < log_delta = {ratio_text(d, den)}"
        )
    if low is not None and (d is None or d < low):
        return Verdict(False, f"log_delta = {ratio_text(d, den)} < |m| = {setting.int_abs(m)}")
    if d == u and s > 0:
        return Verdict(
            False, f"log_delta attains |m+s| = {setting.int_abs(m + s)}, which requires "
            f"s <= 0, got s={s}"
        )
    if d == low and s < 0:
        return Verdict(
            False, f"log_delta attains |m| = {setting.int_abs(m)}, which requires s >= 0, "
            f"got s={s}"
        )
    return _PASSED


def realize_triple(m: int, s: int, log_delta, setting: ResidueSetting) -> ValuedSeries:
    """A normalized series whose report is ``(m, m-s, log_delta, s)``.

    For ``s = 0`` the monomial ``t^m`` works; otherwise
    ``t^m + a t^{m-s}`` with ``log|a| = log_delta - |m-s|``.  All log
    values here are rational, so a finite ``log_delta`` has a witness at the
    reference point (no irrational radius is ever needed); ``-inf`` with
    ``s != 0`` has none (``a = 0``), an :class:`UnrealizableTripleError`.
    """
    m, s = as_int(m, "m"), as_int(s, "s")
    verdict = check_restriction(m, s, log_delta, setting)
    if not verdict:
        raise UnrealizableTripleError(verdict.reason)
    if s == 0:
        return ValuedSeries._from_scaled(1, [(m, 0)])
    d = _read_log_delta(log_delta)
    if d is None:
        raise UnrealizableTripleError(
            f"log_delta = -inf needs s = 0 (the witness would need a = 0), got s={s}"
        )
    # log|a| = log_delta - |m-s| over the denominator dq * b.  For an
    # admissible triple with s != 0, |m-s| is finite and at least delta:
    # |m-s| < delta would force |m+s| = |2m| = |2s| with delta in [|m|, |2m|],
    # which leaves only s = 0 in every setting.
    (dp, dq), (a, b) = d, setting._int_abs_ratio(m - s)
    return ValuedSeries._from_scaled(dq * b, sorted([(m, 0), (m - s, dp * b - a * dq)]))
