"""The package's public names: each one, read from the package, is its
module's own object, and each public definition has a reader.  That
importing the package loads no module is checked in a fresh interpreter,
in ``tests/test_cli.py``."""

import ast
import re
from collections import Counter
from importlib import import_module
from pathlib import Path

import pytest

import wildskel

ROOT = Path(__file__).resolve().parent.parent

#: the public names of ``wildskel``, by module, as the package imported them
#: eagerly before its exports became lazy
NAMES = {
    "valuation": ["INF", "NEG_INF", "ZERO", "LogAbs", "ResidueSetting"],
    "pmfunc": [
        "DomainMismatchError", "EmptySeriesError", "NewtonProfile", "OutOfDomainError",
        "PMFunction", "tropical_eval",
    ],
    "annulus": [
        "ConstantSeriesError", "DifferentReport", "InseparableSeriesError",
        "InvalidModelError", "UnrealizableTripleError", "ValuedSeries", "Verdict",
        "check_restriction", "derivative", "different_profile", "different_report",
        "is_normalized", "normalize", "realize_triple", "skeleton_image_law",
    ],
    "genus_graph": [
        "DisconnectedError", "Divisor", "GenusGraph", "MetricGenusGraph", "OrientedEdge",
    ],
    "delta_morphism": [
        "BoundaryAnnotation", "DeltaMorphism", "IllegalMoveError", "MetricDeltaMorphism",
        "NotProperError", "applicable_moves", "certify_skeleton", "contract_graph",
        "contract_morphism", "is_stable", "morphism_from_json_dict", "morphism_to_json_dict",
        "stabilize", "wide_open_genus_check",
    ],
    "special": [
        "LIFTABLE_TAGS", "SPECIAL_TAGS", "Lengths", "RootSubtree", "SpecialType",
        "UnclassifiableError", "UnliftableError", "bar_discriminator", "build_special",
        "classify_special", "enumerate_root_subtrees", "enumerate_special", "is_special",
        "metric_lengths", "metric_lift", "ramification_signature",
    ],
    "elliptic": [
        "EllipticInput", "InvalidSettingError", "SkeletonReport", "classify_elliptic",
        "log_256",
    ],
    "radial": [
        "EdgeRadius", "RadialDescription", "StrictnessReport", "WrongDegreeError",
        "degree_p_locus", "radial_vs_ball", "supersingular_witness",
    ],
}
EVERY_NAME = [(module, name) for module, names in NAMES.items() for name in names]


def test_all_lists_every_name_once():
    assert sorted(wildskel.__all__) == sorted(name for _, name in EVERY_NAME)
    assert len(set(wildskel.__all__)) == len(wildskel.__all__)


@pytest.mark.parametrize("module, name", EVERY_NAME, ids=[name for _, name in EVERY_NAME])
def test_each_name_is_its_modules_object(module, name):
    assert getattr(wildskel, name) is getattr(import_module(f"wildskel.{module}"), name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from wildskel import *", namespace)
    for module, name in EVERY_NAME:
        assert namespace[name] is getattr(import_module(f"wildskel.{module}"), name)


def test_dir_lists_every_name():
    assert {name for _, name in EVERY_NAME} <= set(dir(wildskel))
    assert "__version__" in dir(wildskel)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'wildskel' has no attribute 'nope'$"):
        wildskel.nope  # noqa: B018
    assert getattr(wildskel, "nope", None) is None


def _names(node) -> Counter:
    """How often each name is read, as an ``ast.Name`` or an ``ast.Attribute``, in ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def _public_definitions(tree):
    """``(qualified name, node)`` of each public top-level function and class
    of a module, and of each public method and property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def test_every_public_definition_has_a_reader():
    """Each public definition of ``src/wildskel`` is read in the package
    outside its own definition, in ``benchmark/*.py``, or named in backticks
    in README.md; a name no one reads goes."""
    modules = sorted((ROOT / "src" / "wildskel").glob("*.py"))
    trees = {p.stem: ast.parse(p.read_text()) for p in modules}
    package = sum(map(_names, trees.values()), Counter())
    benchmark = sum(
        (_names(ast.parse(p.read_text())) for p in (ROOT / "benchmark").glob("*.py")), Counter()
    )
    readme = {name for span in re.findall(r"`+([^`]+)`+", (ROOT / "README.md").read_text())
              for name in re.findall(r"[A-Za-z_]\w*", span)}
    unread = [
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, node in _public_definitions(tree)
        if package[node.name] <= _names(node)[node.name]
        and node.name not in benchmark and node.name not in readme
    ]
    assert unread == []
