"""Piecewise monomial functions on an interval, in log coordinates.

A piecewise monomial function ``a * r^n`` becomes, after taking logs, a
piecewise linear function with integer slope ``n``.  This module stores
such functions exactly: rational breakpoints, rational values, integer
slopes.  The right end of the domain may be ``+inf`` (tails).

The tropical evaluation of a valued series ``h = sum_i h_i t^i`` is the
upper envelope ``x -> max_i (log|h_i| + i*x)``; it is convex, its slopes
are the exponents that dominate ``|h|`` on the corresponding radius
range, and ties between exponents are visible at the breakpoints.

Representation.  A function is stored over one common denominator ``D``,
the lcm of the reduced denominators of its finite breakpoints and left
values, as three tuples of integers: ``D * x_j`` for the finite
breakpoints, ``D * v_j`` for the value at the left end of each segment,
and the slopes.  A ``+inf`` right end is the case of as many finite
breakpoints as segments (a bounded domain has one more).  ``D`` is
minimal, so equal functions store equal data.  Validation, evaluation,
products, hulls and tie sets all run on these integers; a point ``p/q``
is placed among the breakpoints by comparing ``D*p // q`` with them.
Fractions are made only where a value leaves the module: ``domain``,
``breakpoints``, ``segments()``, ``value_at`` (one per call), ``sup``,
``to_json_dict``, ``repr`` and error messages.  A tropical evaluation
stores no achievers: each segment's achiever is its slope.  The annulus
different sums two envelopes as integer segment data (``_envelope``,
``_merge``) and builds one validated function, no ``NewtonProfile``.
:func:`_read_series` reads a series mapping, for ``ValuedSeries`` and :func:`tropical_eval`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping, Sequence  # isinstance is 3x faster than on typing's
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Tuple

from .valuation import (
    INF, ExtendedRational, as_int, as_ratio, echo, json_field, json_list, ratio_text,
    refused, scaled,
)


class OutOfDomainError(ValueError):
    pass


class DomainMismatchError(ValueError):
    pass


class EmptySeriesError(ValueError):
    pass


Domain = Tuple[Fraction, ExtendedRational]


def _over_common_denominator(ratios: Sequence[Tuple[int, int]]) -> Tuple[int, List[int]]:
    """The lcm of the denominators, and each ratio's numerator over it."""
    den = lcm(*[q for _, q in ratios])
    return den, [p * (den // q) for p, q in ratios]


def _domain_ends(domain) -> List[Tuple[int, int]]:
    """The finite ends of ``domain = (a, b)`` as ratios: ``[a]`` when
    ``b`` is ``+inf``, else ``[a, b]``."""
    a, b = domain
    ra, rb = as_ratio(a, "domain", 0), as_ratio(b, "domain", 1, infinity="inf")
    if rb is INF:
        return [ra]
    if rb[0] * ra[1] < ra[0] * rb[1]:
        raise ValueError(f"empty domain [{Fraction(*ra)}, {Fraction(*rb)}]")
    return [ra, rb]


class PMFunction:
    """A continuous piecewise linear function with integer slopes.

    Given by breakpoints ``a = x_0 < ... < x_k = b`` (``b`` may be
    ``+inf``) together with the value at the left endpoint and the slope
    of every segment, stored over one common denominator (see the module
    docstring).  Adjacent segments with equal slopes are merged, so
    equality of instances is equality of functions on a common domain.
    """

    __slots__ = ("_den", "_xs", "_vs", "_slopes")

    def __init__(
        self,
        breaks: Sequence[ExtendedRational],
        left_values: Sequence[Fraction],
        slopes: Sequence[int],
    ):
        for name, seq in ("breakpoints", breaks), ("left_values", left_values), ("slopes", slopes):
            # text is a Sequence, but of characters, not of values
            if not isinstance(seq, Sequence) or isinstance(seq, (str, bytes)):
                raise refused(seq, name, None, "a sequence")
        if len(breaks) < 2 or not len(left_values) == len(slopes) == len(breaks) - 1:
            raise ValueError("inconsistent segment data")
        finite = [as_ratio(x, "breakpoints", j, infinity="inf") for j, x in enumerate(breaks)]
        if INF in finite[:-1]:
            raise ValueError("only the final breakpoint may be infinite")
        finite = finite if finite[-1] is not INF else finite[:-1]
        values = [as_ratio(v, "left_values", j) for j, v in enumerate(left_values)]
        den, nums = _over_common_denominator(finite + values)
        slopes = [as_int(s, f"slope of segment {j}") for j, s in enumerate(slopes)]
        self._store(den, nums[: len(finite)], nums[len(finite) :], slopes)

    @classmethod
    def _from_scaled(cls, den: int, xs, vs, slopes) -> "PMFunction":
        """Validated instance from numerators over the denominator ``den``."""
        obj = cls.__new__(cls)
        obj._store(den, xs, vs, slopes)
        return obj

    def _store(self, den: int, xs, vs, slopes) -> None:
        """Check, merge and store segment data given over ``den``.

        ``xs`` are the finite breakpoints: one more than ``slopes`` on a
        bounded domain, as many on an unbounded one.
        """
        n = len(slopes)
        bounded = len(xs) > n
        if not (bounded and n == 1 and xs[0] == xs[1]):
            for x0, x1 in zip(xs, xs[1:]):
                if not x0 < x1:
                    raise ValueError("breakpoints must be strictly increasing")
        for j in range(n - 1):
            if vs[j] + slopes[j] * (xs[j + 1] - xs[j]) != vs[j + 1]:
                raise ValueError(
                    f"discontinuity at breakpoint {Fraction(xs[j + 1], den)}"
                )
        keep = [j for j in range(n) if j == 0 or slopes[j] != slopes[j - 1]]
        mx = [xs[j] for j in keep]
        if bounded:
            mx.append(xs[-1])
        mv = [vs[j] for j in keep]
        g = gcd(den, *mx, *mv)
        # tuples are built from lists: one grown from a generator is
        # resized, which strands a block on CPython's tuple free lists
        self._den = den // g
        self._xs = tuple([x // g for x in mx])
        self._vs = tuple([v // g for v in mv])
        self._slopes = tuple([slopes[j] for j in keep])

    @classmethod
    def constant(cls, domain, value) -> "PMFunction":
        return cls.line(domain, value, 0)

    @classmethod
    def line(cls, domain, left_value, slope: int) -> "PMFunction":
        ratios = _domain_ends(domain) + [as_ratio(left_value, "left_value")]
        den, nums = _over_common_denominator(ratios)
        return cls._from_scaled(den, nums[:-1], nums[-1:], [as_int(slope, "slope")])

    @property
    def _bounded(self) -> bool:
        return len(self._xs) > len(self._slopes)

    @property
    def domain(self) -> Domain:
        xs, d = self._xs, self._den
        return (Fraction(xs[0], d), Fraction(xs[-1], d) if self._bounded else INF)

    @property
    def breakpoints(self) -> Tuple[ExtendedRational, ...]:
        d = self._den
        finite = tuple([Fraction(x, d) for x in self._xs])
        return finite if self._bounded else finite + (INF,)

    def segments(self) -> Iterable[tuple]:
        """Yield (x_left, x_right, left_value, slope) per segment."""
        bks, d = self.breakpoints, self._den
        for j, (v, s) in enumerate(zip(self._vs, self._slopes)):
            yield (bks[j], bks[j + 1], Fraction(v, d), s)

    @property
    def is_degenerate(self) -> bool:
        return self._bounded and self._xs[0] == self._xs[-1]

    def _locate(self, x) -> Tuple[int, int, int]:
        """``(p, q, j)`` with ``x = p/q`` and ``j`` the rightmost segment
        whose left endpoint is <= x (``x == b`` uses the last segment)."""
        p, q = x.as_integer_ratio() if type(x) is Fraction else as_ratio(x, "point")
        xs, n = self._xs, len(self._slopes)
        pd = p * self._den
        if pd < xs[0] * q or (len(xs) > n and pd > xs[-1] * q):
            raise OutOfDomainError(f"{Fraction(p, q)} outside domain {self.domain}")
        # for integer x_j: x_j <= pd/q  iff  x_j <= pd // q
        j = bisect_right(xs, pd // q) - 1
        return p, q, j if j < n else n - 1

    def value_at(self, x) -> Fraction:
        # _locate inline: this is the hottest call of the annulus kernel
        p, q = x.as_integer_ratio() if type(x) is Fraction else as_ratio(x, "point")
        xs, n, d = self._xs, len(self._slopes), self._den
        pd = p * d
        if pd < xs[0] * q or (len(xs) > n and pd > xs[-1] * q):
            raise OutOfDomainError(f"{Fraction(p, q)} outside domain {self.domain}")
        j = bisect_right(xs, pd // q) - 1
        if j == n:
            j -= 1
        return Fraction(self._vs[j] * q + self._slopes[j] * (pd - xs[j] * q), d * q)

    def slope_at(self, x, direction: str) -> int:
        """Slope of the segment adjacent to ``x`` on the given side."""
        p, q, j = self._locate(x)
        if self.is_degenerate:
            raise OutOfDomainError("degenerate domain has no adjacent segments")
        xs, pd = self._xs, p * self._den
        if direction == "left":
            if xs[j] * q == pd:
                if j == 0:
                    raise OutOfDomainError(f"no segment left of {Fraction(p, q)}")
                return self._slopes[j - 1]
            return self._slopes[j]
        if direction == "right":
            if self._bounded and pd == xs[-1] * q:
                raise OutOfDomainError(f"no segment right of {Fraction(p, q)}")
            return self._slopes[j]
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")

    def mul(self, other: "PMFunction") -> "PMFunction":
        """Pointwise product in the multiplicative scale: sum of logs."""
        return monomial_product(((self, 1), (other, 1)))

    def pow(self, n: int) -> "PMFunction":
        """n-th power in the multiplicative scale: log values scale by n."""
        n = as_int(n, "exponent")
        return PMFunction._from_scaled(
            self._den, self._xs, [v * n for v in self._vs], [s * n for s in self._slopes]
        )

    def _sup_num(self):
        """The supremum over ``_den`` (a left value or the right end's), None for ``INF``."""
        xs, vs, slopes = self._xs, self._vs, self._slopes
        if len(xs) == len(slopes):
            return None if slopes[-1] > 0 else max(vs)
        return max(max(vs), vs[-1] + slopes[-1] * (xs[-1] - xs[-2]))

    def sup(self) -> ExtendedRational:
        """Supremum over the domain (``INF`` if unbounded above)."""
        best = self._sup_num()
        return INF if best is None else Fraction(best, self._den)

    def __eq__(self, other):
        if not isinstance(other, PMFunction):
            return NotImplemented
        return (
            self._den == other._den
            and self._xs == other._xs
            and self._vs == other._vs
            and self._slopes == other._slopes
        )

    def __hash__(self):
        return hash((self._den, self._xs, self._vs, self._slopes))

    def __repr__(self):
        parts = ", ".join(
            f"[{l},{r}]: {v}+{s}x" for l, r, v, s in self.segments()
        )
        return f"PMFunction({parts})"

    def to_json_dict(self) -> dict:
        d = self._den
        bks = [ratio_text(x, d) for x in self._xs] + ([] if self._bounded else ["inf"])
        return {
            "domain": [bks[0], bks[-1]],
            "breakpoints": bks,
            "segments": [
                {"left_value": ratio_text(v, d), "slope": s}
                for v, s in zip(self._vs, self._slopes)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PMFunction":
        """The function of a ``to_json_dict`` form; a fault is named in the
        graph loader's words (``segment 0 lacks key 'slope'``)."""
        if not isinstance(data, Mapping):
            raise ValueError("function is not an object")
        breaks = json_list(data, "breakpoints", "function")
        values, slopes = [], []
        for j, item in enumerate(json_list(data, "segments", "function")):
            if not isinstance(item, Mapping):
                raise ValueError(f"segments entry {echo(item)} is not an object")
            values.append(json_field(item, "left_value", f"segment {j}"))
            slopes.append(json_field(item, "slope", f"segment {j}"))
        return cls(breaks, values, slopes)


def monomial_product(
    factors: Sequence[Tuple[PMFunction, int]], r_exponent: int = 0
) -> PMFunction:
    """``prod_k f_k^(e_k) * r^c`` for ``factors = ((f_k, e_k), ...)``.

    In log coordinates this is ``x -> sum_k e_k * f_k(x) + c*x``.  It is
    built in one merge sweep over the breakpoints of all factors, which
    must share one domain, and validated once.
    """
    try:
        factors = tuple(factors)
    except TypeError:
        raise ValueError(
            f"factors is {echo(factors)}, not an iterable of (PMFunction, exponent) pairs"
        ) from None
    if not factors:
        raise ValueError("monomial_product needs at least one factor")
    parts, functions = [], []
    for k, factor in enumerate(factors):
        try:
            f, e = factor
        except (TypeError, ValueError):
            raise ValueError(
                f"factor {k} is {echo(factor)}, not a (PMFunction, exponent) pair"
            ) from None
        if not isinstance(f, PMFunction):
            raise ValueError(f"factor {k} is {echo(f)}, not a PMFunction")
        functions.append(f)
        parts.append((f._den, f._xs, f._vs, f._slopes, as_int(e, f"exponent of factor {k}")))
    r_exponent = as_int(r_exponent, "r_exponent")
    first = functions[0]
    d0, a0, b0, bounded = first._den, first._xs[0], first._xs[-1], first._bounded
    for f in functions[1:]:
        d, xs = f._den, f._xs
        if (
            f._bounded != bounded
            or xs[0] * d0 != a0 * d
            or (bounded and xs[-1] * d0 != b0 * d)
        ):
            raise DomainMismatchError(
                f"domains differ: {first.domain} vs {f.domain}"
            )
    return _merge(parts, r_exponent)


def _merge(parts, r_exponent: int) -> PMFunction:
    """The product of ``parts = ((den, xs, vs, slopes, e), ...)``, segment
    data on one domain, read as bounded or degenerate off the first part."""
    den = lcm(*[d for d, *_ in parts])
    scaled = []
    for d, xs, vs, ss, e in parts:
        k = den // d
        scaled.append(([x * k for x in xs], [v * k for v in vs], ss, e))
    cuts = sorted({x for xs, _, _, _ in scaled for x in xs})
    _, xs0, _, ss0, _ = parts[0]
    bounded = len(xs0) > len(ss0)
    if bounded and xs0[0] == xs0[-1]:
        cuts.append(cuts[0])
    starts = cuts[:-1] if bounded else cuts
    at = [0] * len(scaled)
    values, slopes = [], []
    for c in starts:
        v, s = r_exponent * c, r_exponent
        for k, (xs, vs, ss, e) in enumerate(scaled):
            j = at[k]
            while j + 1 < len(ss) and xs[j + 1] <= c:
                j += 1
            at[k] = j
            v += e * (vs[j] + ss[j] * (c - xs[j]))
            s += e * ss[j]
        values.append(v)
        slopes.append(s)
    return PMFunction._from_scaled(den, cuts, values, slopes)


class NewtonProfile(PMFunction):
    """Tropical evaluation of a valued series, with achiever bookkeeping.

    Besides the envelope itself, the profile reports which exponent
    realizes the maximum on each segment (its slope) and the exact tie
    set at any point (``achievers_at``).  Just left of a point the
    minimal achieving exponent dominates, just right the maximal one; the
    two sides of an annulus read opposite ones.
    The coefficients are kept as ``(exponent, numerator)`` pairs over a
    common denominator of their own.  Instances are built by
    :func:`tropical_eval`.
    """

    __slots__ = ("_cden", "_terms")

    @classmethod
    def _build(cls, den: int, xs, vs, slopes, cden: int, terms):
        """Validated profile over ``den`` with its terms over ``cden``."""
        obj = cls._from_scaled(den, xs, vs, slopes)
        obj._cden = cden
        obj._terms = tuple(terms)
        return obj

    @property
    def segment_achievers(self) -> Tuple[frozenset, ...]:
        return tuple([frozenset((s,)) for s in self._slopes])

    def achievers_at(self, x) -> frozenset:
        # every term, hull or not: a collinear middle term ties too
        p, q, _ = self._locate(x)
        c = p * self._cden
        best, ties = None, []
        for i, n in self._terms:
            k = n * q + i * c
            if best is None or k > best:
                best, ties = k, [i]
            elif k == best:
                ties.append(i)
        return frozenset(ties)


def _upper_hull(points: Sequence[Tuple[int, int]]) -> list:
    """Strict upper concave hull of points sorted by abscissa."""
    hull: list = []
    for p in points:
        while len(hull) >= 2:
            (a0, a1), (b0, b1) = hull[-2], hull[-1]
            if (b1 - a1) * (p[0] - a0) > (p[1] - a1) * (b0 - a0):
                break  # b strictly above the chord a--p
            hull.pop()
        hull.append(p)
    return hull


def _read_series(mapping, infinity: str | None) -> Tuple[int, List[Tuple[int, int]]]:
    """``(D, [(exponent, D * value), ...])`` by exponent: every key by :func:`as_int`,
    a repeat refused, then the values by :func:`as_ratio`, ``infinity`` a vanishing term."""
    given = dict(mapping)
    keys = [as_int(i, "series exponent") for i in given]
    if len(set(keys)) != len(keys):  # keys equal after int()
        repeat = next(i for n, i in enumerate(keys) if i in keys[:n])
        raise ValueError(f"series repeats exponent {repeat}")
    den, nums = scaled({i: as_ratio(v, "series", i, infinity=infinity)
                        for i, v in zip(keys, given.values())}, None)
    terms = sorted([t for t in nums.items() if t[1] is not None])
    if not terms:
        raise EmptySeriesError("series has empty support")
    return den, terms


def tropical_eval(series, domain) -> NewtonProfile:
    """Upper envelope ``x -> max_i (log|h_i| + i*x)`` on ``domain``.

    ``series`` is a :class:`~wildskel.annulus.ValuedSeries`, read in its
    integer form ``(den, terms)``, or a mapping read by :func:`_read_series`
    as ``ValuedSeries`` reads one, but with no ``-inf`` among its values.
    """
    if isinstance(series, Mapping):
        den, terms = _read_series(series, None)
    else:
        den, terms = series.den, series.terms
    return NewtonProfile._build(*_envelope(den, terms, domain))


def _envelope(den: int, terms, domain) -> tuple:
    """The envelope of the ``(exponent, numerator)`` pairs ``terms`` over
    ``den`` as segment data ``(D, xs, vs, slopes, L, pts)``: unreduced
    breakpoints, left values and slopes over ``D``, and the terms over ``L``."""
    ends = _domain_ends(domain)
    # values and domain ends over one denominator L
    big_l = lcm(den, *[q for _, q in ends])
    pts = [(i, n * (big_l // den)) for i, n in terms]
    lo_end, *hi = [p * (big_l // q) for p, q in ends]
    hi_end = hi[0] if hi else None

    if hi_end == lo_end:
        best = max(n + i * lo_end for i, n in pts)
        owner = min(i for i, n in pts if n + i * lo_end == best)
        return big_l, (lo_end, lo_end), (best,), (owner,), big_l, pts

    # hull point j is active between the crossings with its neighbours;
    # positions are kept as (num, den) in units of 1/L, clipped to [a, b]
    hull = _upper_hull(pts)
    bounds = [(lo_end, 1)]
    owners = []
    for j, (i, n) in enumerate(hull):
        if j + 1 < len(hull):
            i2, n2 = hull[j + 1]
            hi = (n - n2, i2 - i)
            if hi_end is not None and hi[0] > hi_end * hi[1]:
                hi = (hi_end, 1)
        else:
            hi = None if hi_end is None else (hi_end, 1)
        lo = bounds[-1]
        if hi is not None and hi[0] * lo[1] <= lo[0] * hi[1]:
            continue
        owners.append((i, n))
        if hi is None:
            break
        bounds.append(hi)
    m = lcm(*[q for _, q in bounds])
    xs = [p * (m // q) for p, q in bounds]
    vs = [n * m + i * x for (i, n), x in zip(owners, xs)]
    slopes = [i for i, _ in owners]
    return big_l * m, xs, vs, slopes, big_l, pts
