"""The contract of the immutable value classes.

For each of the library's value classes: attributes can be neither
assigned nor deleted, equal instances compare and hash equal, an
instance never equals one of another class, there is no per-instance
``__dict__``, copy, deepcopy and pickle return an equal instance, and
``repr`` matches ``golden/values.json``, recorded when these classes
were frozen dataclasses (``rh-check`` prints ``Divisor`` reprs).  No
class defines its own truth: an instance is as true as its ``ok`` field.
The record classes, which only store their arguments, bind them like a
function signature over their fields.
"""

import copy
import json
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from wildskel.annulus import Verdict
from wildskel.delta_morphism import CertifyReport, wide_open_genus_check
from wildskel.genus_graph import Divisor
from wildskel.radial import StrictnessReport
from wildskel.special import Lengths, RootSubtree, SpecialCheck, SpecialType, _subtree_key
from wildskel.valuation import NEG_INF, ZERO, Frozen, LogAbs, Record, ResidueSetting

from tests.support import BUILDERS

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "values.json").read_text())

#: Classes with a dict field, which no hash can cover.
UNHASHABLE = {"BoundaryAnnotation", "RadialDescription"}

NAMES = sorted(BUILDERS)

#: The classes whose constructor only stores its arguments: they define no
#: ``__init__`` and take ``Frozen``'s, which binds to the fields in order.
RECORDS = sorted([
    "CertifyReport", "EdgeRadius", "RHDegreeReport", "RHDivisorReport",
    "RadialDescription", "SkeletonReport", "SpecialCheck", "StrictnessReport",
    "Verdict", "WideOpenReport",
])


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_has_a_builder():
    """A new value class joins the contract tests below by a BUILDERS entry.
    ``LogAbs`` has no public field (it equals numbers by design) and keeps
    its own tests."""
    classes = {
        sub.__name__
        for sub in _subclasses(Frozen)
        if sub.__module__.startswith("wildskel.") and sub._fields
    }
    assert classes == set(BUILDERS)


@pytest.mark.parametrize("name", NAMES)
def test_built_class_is_named(name):
    assert type(BUILDERS[name]()).__name__ == name


@pytest.mark.parametrize("name", NAMES)
def test_immutable(name):
    value = BUILDERS[name]()
    attrs = [a for a in type(value).__slots__ if not a.startswith("_")]
    assert attrs
    for attr in (*attrs, "not_a_field"):
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)
        assert repr(value) == before


@pytest.mark.parametrize("name", NAMES)
def test_no_instance_dict(name):
    value = BUILDERS[name]()
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("name", NAMES)
def test_equal_instances(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert a is not b
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", NAMES)
def test_never_equal_to_another_class(name):
    value = BUILDERS[name]()
    for other_name in NAMES:
        if other_name != name:
            other = BUILDERS[other_name]()
            assert value != other and other != value
    assert value != repr(value)
    assert value != tuple(getattr(value, a) for a in type(value).__slots__)


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", NAMES)
def test_copy_and_pickle_round_trip(name, how):
    value = BUILDERS[name]()
    again = ROUND_TRIPS[how](value)
    assert type(again) is type(value)
    assert again == value and repr(again) == repr(value)
    with pytest.raises(AttributeError):
        setattr(again, type(value).__slots__[0], None)


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_log_abs_copy_and_pickle_round_trip(how):
    for value in (LogAbs(Fraction(-2, 3)), NEG_INF):
        again = ROUND_TRIPS[how](value)
        assert again == value and again.is_neg_inf == value.is_neg_inf
    with pytest.raises(AttributeError):
        again._value = Fraction(1)


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_round_trips_keep_the_private_slots(how):
    """A copy keeps what construction stores once: the ``log_p`` ratio that
    a mixed setting's ``int_abs`` reads, and a subtree's sort key."""
    for setting in (ResidueSetting.mixed(2, Fraction(-2, 3)), ResidueSetting.parse("mixed:3:-5")):
        again = ROUND_TRIPS[how](setting)
        assert again == setting and hash(again) == hash(setting)
        assert [again.int_abs(n) for n in range(-9, 10)] == [
            setting.int_abs(n) for n in range(-9, 10)
        ]
    c = RootSubtree(1, (RootSubtree(0), RootSubtree(0)))
    trees = [RootSubtree(3, (RootSubtree(0), c, RootSubtree(0))), RootSubtree(3, (c, c)),
             RootSubtree(3), c, RootSubtree(0), RootSubtree(3, (RootSubtree(1), RootSubtree(1)))]
    copies = [ROUND_TRIPS[how](t) for t in trees]
    assert copies == trees and [hash(t) for t in copies] == [hash(t) for t in trees]
    order = sorted(range(len(trees)), key=lambda i: _subtree_key(trees[i]))
    assert sorted(range(len(copies)), key=lambda i: _subtree_key(copies[i])) == order
    # a copied child sorts among fresh ones as the original does
    assert RootSubtree(3, (copies[3], RootSubtree(0), RootSubtree(0))) == trees[0]


def test_log_abs_value_cannot_be_deleted():
    for value in (LogAbs(1), ZERO, NEG_INF):
        before = value._value
        try:
            with pytest.raises(AttributeError):
                del value._value
        finally:  # keep the shared constants intact for later tests
            object.__setattr__(value, "_value", before)
    assert LogAbs(1) == 1 and ZERO == 0 and NEG_INF < ZERO < LogAbs(1)
    assert NEG_INF.is_neg_inf and not ZERO.is_neg_inf


@pytest.mark.parametrize("name", NAMES)
def test_repr_golden(name):
    assert repr(BUILDERS[name]()) == GOLDEN[name]


@pytest.mark.parametrize("name", NAMES)
def test_truth_and_json_come_from_the_fields(name):
    """Truth is the ``ok`` field, if any; a record renders its fields."""
    cls = type(BUILDERS[name]())
    assert "__bool__" not in vars(cls)
    if issubclass(cls, Record) and "to_json_dict" not in vars(cls):
        assert list(BUILDERS[name]().to_json_dict()) == list(cls._fields)


def test_truth_follows_ok():
    assert not Verdict(False) and Verdict(True)
    assert not SpecialCheck(False, "r") and SpecialCheck(True)
    assert not CertifyReport(False, ()) and CertifyReport(True, ())
    assert not wide_open_genus_check([(2, 1)], 2, 1, 0)
    assert LogAbs(1) and NEG_INF and Lengths() and Divisor({})


def test_record_field_without_json_form():
    with pytest.raises(TypeError, match="a SpecialType field has no JSON form"):
        StrictnessReport(True, SpecialType("MSS")).to_json_dict()


def test_fields_differ_means_unequal():
    assert Verdict(True) != Verdict(False)
    assert Verdict(False, "a") != Verdict(False, "b")
    assert ResidueSetting.mixed(2, -1) != ResidueSetting.mixed(2, -2)
    assert Lengths(1) != Lengths(0, 1)
    assert StrictnessReport(True, "e2") != StrictnessReport(True, "e4")


def test_private_slot_outside_equality_and_repr():
    setting = ResidueSetting(0, 2, LogAbs(-1))
    assert setting.kind == "mixed"
    assert "_kind" not in repr(setting) and "kind" not in repr(setting)
    assert hash(setting) == hash((0, 2, LogAbs(-1)))


def test_keyword_construction_and_defaults():
    assert Verdict(ok=True) == Verdict(True, "")
    assert SpecialCheck(ok=False, reason="r").characteristic_class is None
    assert StrictnessReport(strict=False).witness_edge is None
    assert Lengths() == Lengths(0, 0, 0)
    assert RootSubtree(label=0).children == ()
    assert ResidueSetting(char=0, res_char=0).log_p is None


@pytest.mark.parametrize("name", RECORDS)
def test_record_binds_positional_and_keyword_arguments(name):
    value = BUILDERS[name]()
    cls = type(value)
    assert "__init__" not in vars(cls)
    fields = cls._fields
    values = [getattr(value, f) for f in fields]
    assert cls(*values) == value
    assert cls(**dict(zip(fields, values))) == value
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == value
    with pytest.raises(TypeError, match="positional"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'not_a_field'"):
        cls(*values, not_a_field=None)
    with pytest.raises(TypeError, match=f"multiple values for argument '{fields[0]}'"):
        cls(*values, **{fields[0]: values[0]})
    for field in fields:
        if field not in cls._defaults:
            others = {f: v for f, v in zip(fields, values) if f != field}
            with pytest.raises(TypeError, match=f"missing required argument '{field}'"):
                cls(**others)
