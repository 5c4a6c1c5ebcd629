"""Exact log-scale absolute values.

Every absolute value in this library lives on a logarithmic scale: a
quantity ``|x|`` with ``x`` in ``[0, 1]`` is stored as the rational number
``log|x| <= 0``, and ``log 0`` is the distinguished value ``NEG_INF``.
Working in log scale turns piecewise monomial functions into piecewise
linear ones, and all identities become exact integer/rational checks.

The normalization of the scale is a free choice; by convention
``log|p| = -1`` unless the caller picks another negative rational.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Union

RationalLike = Union[int, str, Fraction]


class LogAbs:
    """A log-scale absolute value: an exact rational or ``-inf``.

    Instances are immutable and totally ordered, with ``NEG_INF`` below
    every finite value.  Addition (product of absolute values) absorbs
    ``NEG_INF``; multiplication by an integer is exponentiation.
    """

    __slots__ = ("_value",)

    _value: Fraction | None

    def __init__(self, value: RationalLike):
        # Fractions are immutable, so an exact Fraction is shared, not copied
        if type(value) is not Fraction:
            value = Fraction(value)
        object.__setattr__(self, "_value", value)

    @classmethod
    def _make_neg_inf(cls) -> "LogAbs":
        obj = object.__new__(cls)
        object.__setattr__(obj, "_value", None)
        return obj

    @property
    def is_neg_inf(self) -> bool:
        return self._value is None

    @property
    def value(self) -> Fraction:
        if self._value is None:
            raise ValueError("NEG_INF has no finite value")
        return self._value

    def __setattr__(self, name, val):  # pragma: no cover - immutability guard
        raise AttributeError("LogAbs is immutable")

    def __setstate__(self, state):
        # copy and pickle restore the slot here, past the refusing __setattr__
        object.__setattr__(self, "_value", state[1]["_value"])

    @staticmethod
    def _coerce(other) -> "LogAbs":
        if isinstance(other, LogAbs):
            return other
        if isinstance(other, (int, Fraction)):
            return LogAbs(other)
        return NotImplemented

    def __add__(self, other) -> "LogAbs":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._value is None or other._value is None:
            return NEG_INF
        return LogAbs(self._value + other._value)

    __radd__ = __add__

    def __sub__(self, other) -> "LogAbs":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other._value is None:
            raise ValueError("cannot subtract NEG_INF")
        if self._value is None:
            return NEG_INF
        return LogAbs(self._value - other._value)

    def __mul__(self, k) -> "LogAbs":
        if not isinstance(k, (int, Fraction)):
            return NotImplemented
        if self._value is None:
            if k > 0:
                return NEG_INF
            raise ValueError("NEG_INF * k only defined for k > 0")
        return LogAbs(self._value * k)

    __rmul__ = __mul__

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
        return hash(("LogAbs", self._value))

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

    @classmethod
    def parse(cls, text: str) -> "LogAbs":
        """Parse ``"p/q"`` or ``"-inf"``."""
        text = text.strip()
        if text == "-inf":
            return NEG_INF
        return cls(Fraction(text))


NEG_INF = LogAbs._make_neg_inf()

ZERO = LogAbs(0)


class _PlusInfinity:
    """Positive infinity, used for tail lengths and unbounded domains.

    Compares above every rational; multiplication by a positive number
    and addition of a rational leave it unchanged.
    """

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

    def __mul__(self, k):
        if isinstance(k, _PlusInfinity) or k > 0:
            return self
        raise ValueError("INF * k only defined for k > 0")

    __rmul__ = __mul__

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "inf"

    def __str__(self):
        return "inf"


INF = _PlusInfinity()

#: A finite rational or +infinity (edge lengths, domain endpoints).
ExtendedRational = Union[Fraction, _PlusInfinity]


def parse_length(text: str) -> ExtendedRational:
    text = text.strip()
    if text == "inf":
        return INF
    return Fraction(text)


def format_length(x: ExtendedRational) -> str:
    return "inf" if x is INF else str(x)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Frozen:
    """Base of the immutable value classes.

    Attributes can be neither assigned nor deleted after ``__init__``,
    which sets each slot with ``object.__setattr__``.  Equality, hash and
    repr run over the fields: the public names in ``__slots__``, in
    order.  Private slots (a decision cached at construction, say) are
    not fields.  Instances equal only instances of the very same class.

    These are not dataclasses because of start-up cost: a frozen
    dataclass generates its methods as source text and ``exec``s it at
    every import, and ``import dataclasses`` loads ``inspect`` (with
    ``ast``, ``dis`` and ``tokenize``); together they dominated the
    start-up of every CLI call.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))

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


class ResidueSetting(Frozen):
    """Characteristics of the base field and its residue field.

    The admissible pairs ``(char, res_char)`` are ``(0, 0)``
    (equicharacteristic zero), ``(0, p)`` (mixed characteristic, which
    carries the normalization ``log_p = log|p| < 0``) and ``(p, p)``
    (equicharacteristic ``p``).  The setting determines the absolute
    value of every integer via :meth:`int_abs`.
    """

    __slots__ = ("char", "res_char", "log_p", "_kind")

    def __init__(self, char: int, res_char: int, log_p: LogAbs | None = None):
        if char == 0 and res_char == 0:
            if log_p is not None:
                raise ValueError("equicharacteristic zero carries no log_p")
            kind = "equichar0"
        elif char == 0 and _is_prime(res_char):
            if log_p is None:
                raise ValueError("mixed characteristic requires log_p")
            if log_p.is_neg_inf or log_p.value >= 0:
                raise ValueError("log_p must be a strictly negative rational")
            kind = "mixed"
        elif char == res_char and _is_prime(char):
            if log_p is not None:
                raise ValueError("equicharacteristic p carries no log_p")
            kind = "equicharp"
        else:
            raise ValueError(f"invalid characteristic pair ({char}, {res_char})")
        object.__setattr__(self, "char", char)
        object.__setattr__(self, "res_char", res_char)
        object.__setattr__(self, "log_p", log_p)
        # decided once here, not on every int_abs call
        object.__setattr__(self, "_kind", kind)

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
        if n == 0:
            return NEG_INF
        kind = self._kind
        if kind == "equichar0":
            return ZERO
        n = abs(n)
        p = self.res_char
        if kind == "equicharp":
            return NEG_INF if n % p == 0 else ZERO
        vp = 0
        while n % p == 0:
            n //= p
            vp += 1
        return self.log_p * vp if vp else ZERO

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
            return cls.equichar(int(parts[1]))
        if parts[0] == "mixed" and len(parts) == 3:
            return cls.mixed(int(parts[1]), Fraction(parts[2]))
        raise ValueError(f"cannot parse residue setting {text!r}")


def int_abs(setting: ResidueSetting, n: int) -> LogAbs:
    """Module-level alias for :meth:`ResidueSetting.int_abs`."""
    return setting.int_abs(n)
