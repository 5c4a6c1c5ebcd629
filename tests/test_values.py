"""The contract of the immutable value classes.

For each of the library's value classes: attributes can be neither
assigned nor deleted, equal instances compare and hash equal, an
instance never equals one of another class, there is no per-instance
``__dict__``, copy, deepcopy and pickle return an equal instance, and
``repr`` matches ``golden/values.json``, recorded when these classes
were frozen dataclasses (``rh-check`` prints ``Divisor`` reprs).
"""

import copy
import json
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from wildskel.annulus import DifferentReport, ValuedSeries, Verdict
from wildskel.delta_morphism import (
    BoundaryAnnotation,
    CertifyReport,
    morphism_from_json_dict,
    wide_open_genus_check,
)
from wildskel.elliptic import EllipticInput, classify_elliptic
from wildskel.genus_graph import Divisor
from wildskel.pmfunc import PMFunction
from wildskel.radial import EdgeRadius, StrictnessReport, degree_p_locus
from wildskel.special import Lengths, RootSubtree, SpecialCheck, SpecialType
from wildskel.valuation import NEG_INF, LogAbs, ResidueSetting

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "values.json").read_text()
)


def _fixture(name):
    return morphism_from_json_dict(
        json.loads((FIXTURES / f"{name}.morphism.json").read_text())
    )


#: One builder per value class; each call makes a fresh, equal instance.
BUILDERS = {
    "ResidueSetting": lambda: ResidueSetting.mixed(2, -1),
    "ValuedSeries": lambda: ValuedSeries({1: 0, 2: Fraction(-1, 2)}),
    "DifferentReport": lambda: DifferentReport(2, 1, LogAbs(-1), 1),
    "Verdict": lambda: Verdict.violated("upper bound attained with s > 0"),
    "Divisor": lambda: Divisor({"a": 2, "b": -1, "c": 0}),
    "RHDivisorReport": lambda: _fixture("wb").rh_divisor_identity(),
    "RHDegreeReport": lambda: _fixture("wb").rh_degree_identity(),
    "BoundaryAnnotation": lambda: BoundaryAnnotation({"v": [(1, 0), (2, 1)]}),
    "CertifyReport": lambda: CertifyReport(False, (("v", 1, 2, 0, 1),)),
    "WideOpenReport": lambda: wide_open_genus_check([(2, 1)], 2, 0, 0),
    "SpecialType": lambda: SpecialType("MSS"),
    "RootSubtree": lambda: RootSubtree(1, (RootSubtree(0), RootSubtree(0))),
    "SpecialCheck": lambda: SpecialCheck(True, "", "wild"),
    "Lengths": lambda: Lengths(Fraction(1, 2), 1, Fraction(1, 6)),
    "EllipticInput": lambda: EllipticInput.of(ResidueSetting.equichar(2), -3),
    "SkeletonReport": lambda: classify_elliptic(
        EllipticInput.of(ResidueSetting.mixed(2, -1), -3)
    ),
    "EdgeRadius": lambda: EdgeRadius(
        PMFunction([Fraction(0), Fraction(1)], [Fraction(1)], [0]), 1
    ),
    "RadialDescription": lambda: degree_p_locus(_fixture("wb_metric"), 2),
    "StrictnessReport": lambda: StrictnessReport(True, "e2"),
}

#: Classes with a dict field, which no hash can cover.
UNHASHABLE = {"BoundaryAnnotation", "RadialDescription"}

NAMES = sorted(BUILDERS)


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


@pytest.mark.parametrize("name", NAMES)
def test_repr_golden(name):
    assert repr(BUILDERS[name]()) == GOLDEN[name]


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
