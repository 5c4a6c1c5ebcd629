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


def _reads(node) -> Counter:
    """How often each name is read in ``node``: a bare name (``ast.Name``)
    as itself, an attribute (``ast.Attribute``) as ``.name``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else "." + n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def _public_definitions(tree):
    """``(qualified name, node, reads)`` of each public top-level function
    and class of a module, and of each public method and property of a
    public class.  ``reads`` are the ``_reads`` keys that read it: a bare
    name or an attribute (``pmfunc.line``) for a top-level definition, an
    attribute only for a method, so the builtin ``pow(a, d, n)`` reads no
    method ``pow``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, (node.name, "." + node.name)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item, ("." + item.name,)


def _unread(modules, outside: Counter, named) -> list:
    """The public definitions of ``modules`` (name -> ``ast`` tree) that the
    modules read nowhere outside the definition itself, that ``outside``
    (``_reads`` of other code) never reads and that ``named`` lacks."""
    package = sum(map(_reads, modules.values()), Counter())
    return [
        f"{module}.{qualified}"
        for module, tree in modules.items()
        for qualified, node, keys in _public_definitions(tree)
        if sum(package[k] - _reads(node)[k] + outside[k] for k in keys) == 0
        and node.name not in named
    ]


def _public_names_paragraph() -> set:
    """The names in the code spans of README.md's "Public names" paragraph,
    which says what needs each kept name."""
    text = (ROOT / "README.md").read_text()
    paragraph = re.search(r"^Public names\..*?\n\n", text, re.M | re.S).group()
    return {name for span in re.findall(r"`+([^`]+)`+", paragraph)
            for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_public_definition_has_a_reader():
    """Each public definition of ``src/wildskel`` is read in the package
    outside its own definition, in ``benchmark/*.py``, or named in the
    README's "Public names" paragraph; a name no one reads goes."""
    modules = {p.stem: ast.parse(p.read_text())
               for p in sorted((ROOT / "src" / "wildskel").glob("*.py"))}
    benchmark = sum(
        (_reads(ast.parse(p.read_text())) for p in (ROOT / "benchmark").glob("*.py")), Counter()
    )
    assert _unread(modules, benchmark, _public_names_paragraph()) == []


def test_a_method_is_read_only_through_an_attribute():
    # a method pow passed the guard when anything named pow was read
    module = ast.parse(
        "class Line:\n"
        "    def pow(self, n):\n"
        "        return n\n"
        "def square(n):\n"
        "    return pow(n, 2)\n"
        "square(Line())\n"
    )
    assert _unread({"synthetic": module}, Counter(), set()) == ["synthetic.Line.pow"]
    assert _unread({"synthetic": module}, Counter({".pow": 1}), set()) == []
    assert _unread({"synthetic": module}, Counter(), {"pow"}) == []
