"""Exact log-scale absolute values.

Every absolute value in this library lives on a logarithmic scale: a
quantity ``|x|`` with ``x`` in ``[0, 1]`` is stored as the rational number
``log|x| <= 0``, and ``log 0`` is the distinguished value ``NEG_INF``.
Working in log scale turns piecewise monomial functions into piecewise
linear ones, and all identities become exact integer/rational checks.

The normalization of the scale is a free choice; by convention
``log|p| = -1`` unless the caller picks another negative rational.

Every outside value becomes a number here, exactly: :func:`as_int` reads
integers and :func:`as_ratio` rationals, a finite ``LogAbs`` as its value
and text through :func:`parse_ratio`.  An entry that reads an infinity
names it to :func:`as_ratio`, ``"inf"`` (a tail length, the last
breakpoint, the right end of a domain) or ``"-inf"`` (a ``LogAbs``,
``log_p``, a different, a series value), and every spelling of it is
``INF`` or None: the text with or without spaces, ``INF``, and
``NEG_INF`` or any copy.  Both readers refuse a float (inexact), a bool
(a number by accident), an infinity the entry does not read and what
``int()`` or ``Fraction()`` cannot take with one named error:
``series value of 1 is 0.1, not a rational``.  The loaders read their
text through :func:`read_ratio`, which names a fault by the loader's
message; a zero denominator names itself.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Tuple, Union

RationalLike = Union[int, str, Fraction]


class Frozen:
    """Base of the immutable value classes.

    A subclass names its fields once, as the public names in ``__slots__``;
    private slots (a decision cached at construction, say) are not fields.
    The constructor binds positional arguments to the fields in slot order
    and keyword arguments by name, with defaults from the class's
    ``_defaults`` dict; a surplus, repeated, unknown or missing argument is
    a ``TypeError``.  A class that checks or coerces its input keeps its own
    ``__init__`` and stores through ``super().__init__(...)``.  Attributes
    can be neither assigned nor deleted; equality, hash, repr and truth
    come from the fields, and instances equal only instances of the very
    same class.  An instance is as true as its ``ok`` field, and always
    true if its class has none.  A :class:`Record` also takes its JSON
    form from its fields.

    These are not dataclasses because of start-up cost: a frozen
    dataclass generates its methods as source text and ``exec``s it at
    every import, and ``import dataclasses`` loads ``inspect`` (with
    ``ast``, ``dis`` and ``tokenize``); together they dominated the
    start-up of every CLI call.
    """

    __slots__ = ()

    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        # each field slot's own setter stores past the refusing __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        # by index, not zip(): a zip costs more than the store of a few fields
        i = 0
        for value in args:
            setters[i](self, value)
            i += 1

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a keyword or short call, in slot order."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        rest = fields[len(args):]
        for key in kwargs:
            if key not in rest:
                what = "multiple values for" if key in fields else "an unexpected keyword"
                raise TypeError(f"{name}() got {what} argument {key!r}")
        given = {**cls._defaults, **kwargs}
        for field in rest:
            if field not in given:
                raise TypeError(f"{name}() missing required argument {field!r}")
        return [*args, *[given[field] for field in rest]]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the slots here, past the refusing __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            [f"{name}={getattr(self, name)!r}" for name in self._fields]
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __bool__(self) -> bool:
        return self.ok if "ok" in self._fields else True


class Record(Frozen):
    """A value class whose JSON form is its fields, in slot order.

    ``None``, bools, ints and strs stay as they are, a tuple becomes a
    list of its encoded items, a ``Fraction`` or ``LogAbs`` its ``str``,
    and a value with a ``to_json_dict`` method what that returns.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {name: _encode(getattr(self, name)) for name in self._fields}


_PLAIN = frozenset((type(None), bool, int, str))


def _encode(value):
    """The JSON form of one field value of a :class:`Record`."""
    cls = type(value)
    if cls in _PLAIN:
        return value
    if cls is tuple:
        return list(map(_encode, value))
    if cls is Fraction or cls is LogAbs:
        return str(value)
    render = getattr(value, "to_json_dict", None)
    if render is None:
        raise TypeError(f"a {cls.__name__} field has no JSON form")
    return render()


class LogAbs(Frozen):
    """A log-scale absolute value: an exact rational or ``-inf``.

    Instances are immutable and totally ordered, with ``NEG_INF`` below
    every finite value.
    """

    __slots__ = ("_value",)

    _value: Fraction | None

    def __init__(self, value: LogAbs | RationalLike):
        # Fractions are immutable, so an exact Fraction is shared, not copied
        if type(value) is not Fraction:
            value = as_ratio(value, "log value", infinity="-inf")
            value = None if value is None else Fraction(*value)  # None: -inf
        object.__setattr__(self, "_value", value)

    @property
    def is_neg_inf(self) -> bool:
        return self._value is None

    @property
    def value(self) -> Fraction:
        if self._value is None:
            raise ValueError("NEG_INF has no finite value")
        return self._value

    def _compare(self, other, op):
        if isinstance(other, LogAbs):
            b = other._value
        elif isinstance(other, (int, Fraction)):
            b = other
        else:
            return NotImplemented
        a = self._value
        if a is None or b is None:
            # NEG_INF (None) sorts below every rational
            return op(a is not None, b is not None)
        return op(a, b)

    def __eq__(self, other):
        return self._compare(other, operator.eq)

    def __hash__(self):
        # a finite value hashes as its Fraction, which it equals (NEG_INF: None)
        return hash(self._value)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    def __str__(self) -> str:
        return "-inf" if self._value is None else str(self._value)

    def __repr__(self) -> str:
        return f"LogAbs({self})"


ZERO = LogAbs(Fraction(0))


class _PlusInfinity:
    """Positive infinity, used for tail lengths and unbounded domains;
    compares above every rational."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("_PlusInfinity")

    def __add__(self, other):
        # a smoothing that merges a tail with a finite edge adds their lengths
        return self

    __radd__ = __add__

    def __repr__(self):
        return "inf"

    def __str__(self):
        return "inf"


INF = _PlusInfinity()

#: A finite rational or +infinity (edge lengths, domain endpoints).
ExtendedRational = Union[Fraction, _PlusInfinity]


def cut(text: str) -> str:
    """``text`` for a message, cut after 400 characters: the cap must stay
    above the longest message a golden pins (344 characters)."""
    more = len(text) - 400
    return text if more <= 0 else f"{text[:400]}... ({more} more characters)"


def echo(value) -> str:
    return cut(repr(value))


def refused(value, entry: str, key, noun: str) -> ValueError:
    """The error ``<entry> [value of <key>] is <value>, not <noun>`` of the
    public input ``entry``."""
    named = entry if key is None else f"{entry} value of {echo(key)}"
    return ValueError(f"{named} is {echo(value)}, not {noun}")


def json_field(data, key: str, entry: str):
    """``data[key]``, or a ValueError naming the entry that lacks the key."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{entry} lacks key {key!r}") from None


def json_list(data, key: str, entry: str) -> list:
    """``data[key]``, or a ValueError naming the entry when it lacks the key
    or the value is no list."""
    items = json_field(data, key, entry)
    if not isinstance(items, list):
        raise ValueError(f"{entry} {key} is not a list")
    return items


def as_int(value, entry: str, key=None) -> int:
    """``int()`` of ``value``, which must keep a number whole; a float, a bool
    and a value it cannot read or would round (``Fraction(3, 2)``) are refused."""
    if type(value) is int:
        return value
    try:
        n = None if isinstance(value, (bool, float)) else int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or (n != value and not isinstance(value, (str, bytes))):
        raise refused(value, entry, key, "an integer")
    return n


def as_ratio(value, entry: str, key=None, noun: str = "a rational", infinity: str | None = None):
    """``(numerator, denominator > 0)`` of ``value``: a text by :func:`parse_ratio`,
    a finite LogAbs by its value, else by ``Fraction()``.  Each spelling of
    ``infinity`` (``"inf"``: INF, ``"-inf"``: None) is read as it; a float, a
    bool, another infinity and what ``Fraction()`` cannot take (``None``,
    ``Decimal("inf")``) are refused."""
    cls = type(value)
    if cls is not Fraction and cls is not int:  # the common cases first
        if cls is str:
            return parse_ratio(value, infinity)
        if cls is LogAbs and value._value is not None:
            value = value._value
        elif (cls is LogAbs or value is INF) and str(value) == infinity:
            return None if cls is LogAbs else INF
        elif isinstance(value, (bool, float)):
            raise refused(value, entry, key, noun)
        else:
            try:
                value = Fraction(value)
            except (TypeError, ValueError, OverflowError):  # Decimal("NaN") is a ValueError
                raise refused(value, entry, key, noun) from None
    return value.as_integer_ratio()


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, with a zero denominator a ``ValueError`` too.

    So is a text whose numerator or denominator could have more digits
    than the interpreter converts to a string
    (``sys.get_int_max_str_digits()``), checked before any power of ten is
    built: the digits of the mantissa plus the exponent bound both.
    """
    limit = sys.get_int_max_str_digits()
    if limit and (len(text) > limit or "e" in text or "E" in text):
        mantissa, _, exponent = text.lower().partition("e")
        exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        bound = sum([c.isdecimal() for c in mantissa])
        if exponent.isdecimal():  # an exponent longer than the limit's exceeds it
            bound += int(exponent) if len(exponent) <= len(str(limit)) else limit
        if bound > limit:
            raise ValueError(f"{echo(text)} has more than {limit} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def parse_ratio(text: str, infinity: str | None):
    """INF or None for the stripped ``text`` equal to ``infinity`` (``"inf"``
    or ``"-inf"``), else its :func:`parse_rational` as a reduced ``(numerator,
    positive denominator)``; ``[-]digits[/digits]`` within the digit limit is
    read without a Fraction."""
    text = text.strip()
    if text == infinity:
        return INF if text == "inf" else None
    num, slash, den = text.partition("/")
    cap = sys.get_int_max_str_digits()
    digits = num[1:] if num[:1] == "-" else num
    if digits.isdecimal() and (den.isdecimal() or not slash) and not 0 < cap < len(text):
        p, q = int(num), int(den or 1)
        if q:
            g = gcd(p, q)
            return p // g, q // g
    return parse_rational(text).as_integer_ratio()


def read_ratio(text: str, infinity: str | None, fault: str, key):
    """:func:`parse_ratio` of the text a loader read at ``key``.  A text that
    is no rational is the ValueError ``fault``, formatted with ``{key}`` (the
    echoed key), ``{id}`` (the key as text) and ``{value}`` (the echoed text);
    a zero denominator names itself."""
    try:
        return parse_ratio(text, infinity)
    except ValueError as exc:
        if isinstance(exc.__context__, ZeroDivisionError):
            raise
        raise ValueError(fault.format(key=echo(key), id=cut(str(key)), value=echo(text))) from None


def scaled(ratios: dict, mark) -> Tuple[int, dict]:
    """``(D, {key: D * value})`` for ``(numerator, denominator)`` pairs or ``mark``."""
    den = lcm(*[r[1] for r in ratios.values() if r is not mark])
    return den, {k: r if r is mark else r[0] * (den // r[1]) for k, r in ratios.items()}


def ratio_text(x, den: int) -> str:
    """``str(Fraction(x, den))`` without the Fraction; ``inf``/``-inf`` for INF/None."""
    if x is None or x is INF:
        return "-inf" if x is None else "inf"
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


NEG_INF = LogAbs("-inf")  # log 0


#: Miller-Rabin with the first twelve primes as bases is exact below
#: 3.18e23 (Sorenson and Webster 2015), so for every admitted characteristic.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ResidueSetting(Frozen):
    """Characteristics of the base field and its residue field.

    The admissible pairs ``(char, res_char)`` are ``(0, 0)``
    (equicharacteristic zero), ``(0, p)`` (mixed characteristic, which
    carries the normalization ``log_p = log|p| < 0``) and ``(p, p)``
    (equicharacteristic ``p``).  The setting determines the absolute
    value of every integer via :meth:`int_abs`.  ``log_p`` is read as a
    rational (an int, a ``Fraction``, text or a ``LogAbs``; each spelling
    of ``-inf`` is ``NEG_INF``, which the rule refuses) and stored as a
    ``LogAbs``; the kind and the ``log_p`` ratio that ``int_abs`` reads are
    fixed at construction, in private slots.
    """

    __slots__ = ("char", "res_char", "log_p", "_kind", "_log_p_ratio")

    def __init__(
        self, char: int, res_char: int, log_p: LogAbs | RationalLike | None = None
    ):
        char, res_char = as_int(char, "char"), as_int(res_char, "res_char")
        if char >= 2**64 or res_char >= 2**64:
            raise ValueError(f"characteristic {max(char, res_char)} is not below 2^64")
        if char == 0 and res_char == 0:
            if log_p is not None:
                raise ValueError("equicharacteristic zero carries no log_p")
            kind = "equichar0"
        elif char == 0 and _is_prime(res_char):
            if log_p is None:
                raise ValueError("mixed characteristic requires log_p")
            ratio = as_ratio(log_p, "log_p", infinity="-inf")
            if ratio is None or ratio[0] >= 0:
                raise ValueError("log_p must be a strictly negative rational")
            log_p, kind = LogAbs(Fraction(*ratio)), "mixed"
        elif char == res_char and _is_prime(char):
            if log_p is not None:
                raise ValueError("equicharacteristic p carries no log_p")
            kind = "equicharp"
        else:
            raise ValueError(f"invalid characteristic pair ({char}, {res_char})")
        super().__init__(char, res_char, log_p)
        # decided once here, not on every int_abs call
        object.__setattr__(self, "_kind", kind)
        ratio = log_p._value.as_integer_ratio() if kind == "mixed" else None
        object.__setattr__(self, "_log_p_ratio", ratio)

    @classmethod
    def equichar_zero(cls) -> "ResidueSetting":
        return cls(0, 0)

    @classmethod
    def equichar(cls, p: int) -> "ResidueSetting":
        return cls(p, p)

    @classmethod
    def mixed(cls, p: int, log_p: RationalLike = Fraction(-1)) -> "ResidueSetting":
        return cls(0, p, LogAbs(log_p))

    @property
    def kind(self) -> str:
        return self._kind

    def int_abs(self, n: int) -> LogAbs:
        """log|n| for the integer ``n`` under this setting."""
        ratio = self._int_abs_ratio(n)
        if ratio is None:
            return NEG_INF
        return ZERO if ratio[0] == 0 else LogAbs(Fraction(*ratio))

    def _int_abs_ratio(self, n: int):
        """log|n| as ``(numerator, positive denominator)``, None for -inf."""
        if n == 0:
            return None
        kind = self._kind
        if kind == "equichar0":
            return 0, 1
        n = abs(n)
        p = self.res_char
        if kind == "equicharp":
            return None if n % p == 0 else (0, 1)
        vp = 0
        while n % p == 0:
            n //= p
            vp += 1
        a, b = self._log_p_ratio
        return a * vp, b

    def describe(self) -> str:
        if self.kind == "equichar0":
            return "equichar0"
        if self.kind == "equicharp":
            return f"equicharP:{self.char}"
        return f"mixed:{self.res_char}:{self.log_p}"

    @classmethod
    def parse(cls, text: str) -> "ResidueSetting":
        """Parse ``equichar0``, ``equicharP:p`` or ``mixed:p:logp``."""
        parts = text.strip().split(":")
        if parts[0] == "equichar0" and len(parts) == 1:
            return cls.equichar_zero()
        if parts[0] == "equicharP" and len(parts) == 2:
            return cls.equichar(as_int(parts[1], "p"))
        if parts[0] == "mixed" and len(parts) == 3:
            return cls(0, as_int(parts[1], "p"), parts[2])
        raise ValueError(f"cannot parse residue setting {text!r}")
