"""Stable degree-two morphisms from genus one to genus zero.

The classification machinery: root subtrees (the rational trees that
can hang off a skeleton core, with their slope indices), the predicate
for a delta-morphism to be special, the twelve-type classification, and
metric lifting with its length constraints.

Each per-type fact is written once.  The shape of every type is in
``_SHAPES``; the tag names it.  A tag is a characteristic-class prefix
``T``/``M``/``W`` (tame, mixed, wild) followed by a reduction suffix:
``B`` bad (a loop), ``G`` good (a genus-one vertex), ``O`` ordinary
(valence two at the genus-one vertex), ``S``/``SS`` supersingular and
strongly supersingular, ``E``/``ES`` exceptional (never liftable).  The
type list, classification, liftability and inner slope classes are
derived from these two at import.

One multiset enumerator serves the search: it splits slope indices into
parts for root subtrees, and root subtrees into shapes.  The enumeration
tags each special candidate by the shape key it was built from;
:func:`classify_special` reads the shape back off a given morphism: its
trees hang off the genus-one vertex or off the cycle of multiplicity-one
edges.  The shape builder records the source only and derives the target
as its quotient, a tail's image a tail (by identity).  A root subtree
builds its sort key once, from its children's.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .delta_morphism import DeltaMorphism, MetricDeltaMorphism, is_stable
from .genus_graph import GenusGraph, OrientedEdge
from .valuation import INF, Frozen, Record, ResidueSetting, as_ratio, cut, ratio_text, scaled


class UnclassifiableError(ValueError):
    """The morphism passes the special checks but matches no known shape."""


class UnliftableError(ValueError):
    pass


#: The tag grammar: class prefix -> characteristic class, and reduction
#: suffix -> (reduction, fibre of the reduction).  The exceptional
#: suffixes carry neither; their types admit no metric lift.
_CLASS_BY_PREFIX = {"T": "tame", "M": "mixed", "W": "wild"}
_REDUCTION_BY_SUFFIX = {
    "B": ("bad", "n/a"),
    "G": ("good", "n/a"),
    "O": ("good", "ordinary"),
    "S": ("good", "supersingular"),
    "SS": ("good", "supersingular"),
    "E": (None, None),
    "ES": (None, None),
}


def setting_class(setting: ResidueSetting) -> str:
    """The characteristic class of a residue setting, read off ``|2|``.

    ``|2| = 1`` (residue characteristic not 2) is tame, ``|2| = 0``
    (characteristic 2) is wild, and ``0 < |2| < 1`` is mixed.
    """
    if setting.res_char != 2:
        return "tame"
    return "wild" if setting.char == 2 else "mixed"


class SpecialType(Frozen):
    __slots__ = ("tag",)

    def __init__(self, tag: str):
        if tag not in SPECIAL_TAGS:
            raise ValueError(f"unknown special type {tag!r}")
        super().__init__(tag)

    @property
    def characteristic_class(self) -> str:
        return _CLASS_BY_PREFIX[self.tag[0]]

    @property
    def reduction(self) -> Optional[str]:
        """``"good"`` or ``"bad"``; None for an exceptional type."""
        return _REDUCTION_BY_SUFFIX[self.tag[1:]][0]

    @property
    def reduction_fiber(self) -> Optional[str]:
        """``"ordinary"``, ``"supersingular"`` or ``"n/a"``; None if exceptional."""
        return _REDUCTION_BY_SUFFIX[self.tag[1:]][1]

    @property
    def liftable(self) -> bool:
        return self.reduction is not None

    def __str__(self):
        return self.tag


# -- root subtrees --------------------------------------------------------------


class RootSubtree(Frozen):
    """A rational tree hanging off a skeleton core.

    ``label`` is the slope of the different read toward the root on the
    edge connecting the tree to the core (equivalently minus the slope
    toward the leaves); the slope index of the tree is ``label + 1``.
    Empty ``children`` means the edge ends in a ramification leaf with
    ``R = label + 1``; otherwise the tree continues through a balanced
    genus-zero vertex with at least two child subtrees whose slope
    indices sum to the slope index of the tree.
    """

    __slots__ = ("label", "children", "_key")

    def __init__(self, label: int, children: Tuple["RootSubtree", ...] = ()):
        if label < 0:
            raise ValueError("labels are nonnegative (the different cannot grow "
                             "toward a ramification leaf)")
        if label != 0 and label % 2 == 0:
            raise ValueError(f"nonzero label {label} must be odd")
        kids = tuple(sorted(children, key=_subtree_key))
        super().__init__(label, kids)
        # the sort key, built once from the children's own
        object.__setattr__(self, "_key", (label, tuple([c._key for c in kids])))
        if kids:
            if len(kids) < 2:
                raise ValueError("an inner vertex needs at least two subtrees "
                                 "(a single one could be smoothed away)")
            if sum(c.slope_index for c in kids) != self.slope_index:
                raise ValueError(
                    "child slope indices must sum to the slope index "
                    f"({self.slope_index})"
                )

    @property
    def slope_index(self) -> int:
        return self.label + 1

    @property
    def is_leaf_edge(self) -> bool:
        return not self.children

    def leaf_r_values(self) -> Tuple[int, ...]:
        if self.is_leaf_edge:
            return (self.slope_index,)
        return tuple(
            sorted(r for c in self.children for r in c.leaf_r_values())
        )

    def describe(self) -> str:
        if self.is_leaf_edge:
            return f"{self.label}"
        inner = ",".join(c.describe() for c in self.children)
        return f"{self.label}({inner})"

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "slope_index": self.slope_index,
            "children": [c.to_json_dict() for c in self.children],
        }


def _subtree_key(t: RootSubtree):
    """``(label, keys of the children)``, stored at construction."""
    return t._key


#: The differential indices R of ramification leaves, which are also the
#: slope indices of trees, with the cap on the number of leaves of each
#: forced by the total sum of indices being four.
_LEAF_CAPS = {1: 4, 2: 2, 4: 1}


def _multisets(items: Sequence, weight: Callable, total: int) -> List[tuple]:
    """All multisets of ``items`` whose weights add to ``total``, each a
    tuple in the order of ``items``."""
    out = []

    def rec(start: int, remaining: int, chosen: list):
        if remaining == 0:
            out.append(tuple(chosen))
            return
        for i in range(start, len(items)):
            w = weight(items[i])
            if w <= remaining:
                rec(i, remaining - w, chosen + [items[i]])

    rec(0, total, [])
    return out


def _bodies(slope_index: int, leaf_r: int, budget: int) -> List[RootSubtree]:
    """All subtrees with the given index whose leaves all carry ``leaf_r``."""
    found: List[RootSubtree] = []
    if slope_index == leaf_r and budget >= 1:
        found.append(RootSubtree(slope_index - 1))
    for parts in _multisets(sorted(_LEAF_CAPS, reverse=True), lambda p: p, slope_index):
        if len(parts) < 2:
            continue
        options = [_bodies(p, leaf_r, budget) for p in parts]
        for combo in itertools.product(*options):
            if sum(len(c.leaf_r_values()) for c in combo) > budget:
                continue
            found.append(RootSubtree(slope_index - 1, tuple(combo)))
    unique = {t: None for t in found}
    return list(unique)


def enumerate_root_subtrees(max_leaves: int) -> List[RootSubtree]:
    """All root subtrees with at most ``max_leaves`` ramification leaves.

    Leaves within one tree all carry the same differential index R (the
    ramification points of a single covering do), R is one of 1, 2, 4,
    and at most 4/R leaves occur.  Slope indices of whole trees and of
    every hanging subtree are 1, 2 or 4, so that all slopes are odd or
    zero.
    """
    if max_leaves < 1:
        raise ValueError("max_leaves must be at least 1")
    trees: Dict[RootSubtree, None] = {}
    for leaf_r, cap in _LEAF_CAPS.items():
        budget = min(max_leaves, cap)
        for s in _LEAF_CAPS:
            for t in _bodies(s, leaf_r, budget):
                trees[t] = None
    return sorted(trees, key=_subtree_key)


# -- the special predicate --------------------------------------------------------


class SpecialCheck(Frozen):
    __slots__ = ("ok", "reason", "characteristic_class")
    _defaults = {"reason": "", "characteristic_class": None}


def _wild_vertices(m: DeltaMorphism) -> frozenset:
    ends, sdelta = m.source._ends, m._sdelta
    return frozenset([v for e in m.source.edge_ids if sdelta[e] for v in ends[e]])


def ramification_signature(m: DeltaMorphism) -> Tuple[int, ...]:
    return tuple(
        sorted(m.differential_index(v) for v in m.unbalanced_vertices())
    )


def is_special(m: DeltaMorphism) -> SpecialCheck:
    """Check the five defining conditions, reporting the first failure."""
    # (1) stable, degree two, genus 1 -> 0
    if not is_stable(m):
        return SpecialCheck(False, "violated(1): the morphism is contractible")
    if m.degree != 2:
        return SpecialCheck(False, f"violated(1): degree is {m.degree}, not 2")
    src = m.source
    if src.genus() != 1 or m.target.genus() != 0:
        return SpecialCheck(
            False,
            f"violated(1): genera are {src.genus()} -> "
            f"{m.target.genus()}, not 1 -> 0",
        )
    # (2) unbalanced vertices: genus-zero leaves, R > 0, multiplicity 2
    ram, indices, vmult = m.unbalanced_vertices(), m._indices, m.vertex_mult
    for v in ram:
        r = indices[v]
        if len(src._branches[v]) != 1:
            return SpecialCheck(
                False, f"violated(2): vertex {cut(v)} has R = {r} but is not a leaf"
            )
        if src._genus[v] != 0:
            return SpecialCheck(
                False, f"violated(2): leaf {cut(v)} has R = {r} and positive genus"
            )
        if r < 0:
            return SpecialCheck(False, f"violated(2): leaf {cut(v)} has R = {r} < 0")
        if vmult[v] != 2:
            return SpecialCheck(
                False,
                f"violated(2): leaf {cut(v)} has R = {r} but multiplicity "
                f"{vmult[v]}",
            )
    # (3) tame / mixed / wild trichotomy
    wild = _wild_vertices(m)
    if not wild:
        cls = "tame"
    elif wild.isdisjoint(ram):
        cls = "mixed"
    elif wild.issuperset(ram):
        cls = "wild"
    else:
        return SpecialCheck(
            False,
            "violated(3): ramification leaves are neither all tame nor all wild",
        )
    # (4) split edges carry slope zero
    mult, sdelta = m.mult, m._sdelta
    for e in src.edge_ids:
        if mult[e] == 1 and sdelta[e] != 0:
            return SpecialCheck(
                False, f"violated(4): split edge {cut(e)} has nonzero slope"
            )
    # (5) nonzero slopes are odd
    for e in src.edge_ids:
        s = sdelta[e]
        if s != 0 and s % 2 == 0:
            return SpecialCheck(
                False, f"violated(5): edge {cut(e)} has even nonzero slope {s}"
            )
    return SpecialCheck(True, "", cls)


def _class_coherent(m: DeltaMorphism, cls: str) -> bool:
    """Structural coherence of the characteristic class.

    In the mixed family every balanced vertex is wild, and in the wild
    family every vertex is wild.  A mixed shape violating this cannot
    carry a different function: a tame balanced vertex sits at the tail
    value while some other part of the shape forces a strictly larger
    value at the same vertex.  The enumeration uses this cut; the
    plain :func:`is_special` predicate does not.
    """
    wild = _wild_vertices(m)
    if cls == "mixed":
        return all(
            v in wild for v in m.source.vertices if m.differential_index(v) == 0
        )
    if cls == "wild":
        return wild == frozenset(m.source.vertices)
    return True


# -- building the shapes ------------------------------------------------------------


class _ShapeBuilder:
    """Accumulates the source of a degree-two morphism (optionally metric,
    all lengths and delta over one ``den``) shape by shape; :meth:`build`
    derives the target as its quotient."""

    def __init__(self, lengths: "Tuple[int, dict] | None" = None,
                 setting: ResidueSetting | None = None):
        metric = lengths is not None
        self.setting = setting
        self.genus: Dict[str, int] = {}
        self.edges: Dict[str, Tuple[str, str]] = {}
        self.edge_lengths: Optional[Dict[str, object]] = {} if metric else None
        self.leaves: List[str] = []
        self.emap: Dict[str, str] = {}
        self.mult: Dict[str, int] = {}
        self.sdelta: Dict[str, int] = {}
        self.delta: Optional[Dict[str, Optional[int]]] = {} if metric else None
        self.den, self.of_slope = lengths or (1, {})
        self._counter = 0

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def add_vertex(self, name: str, genus: int, delta: Optional[int] = 0) -> None:
        self.genus[name] = genus
        if self.delta is not None:
            self.delta[name] = delta

    def add_edge(self, name, u, v, n, sdelta_uv, length=None, target_edge=None):
        self.edges[name] = (u, v)
        self.mult[name] = n
        self.sdelta[name] = sdelta_uv
        self.emap[name] = target_edge = target_edge or name + "'"
        if self.edge_lengths is not None:
            self.edge_lengths[name] = length
        return target_edge

    def attach_tree(self, at: str, tree: RootSubtree) -> None:
        child = self._fresh("v")
        label = tree.label
        if self.delta is None:
            self.add_vertex(child, 0)
            self.add_edge(self._fresh("e"), at, child, 2, -label)
        elif tree.is_leaf_edge:
            self.add_vertex(child, 0, self.delta[at] if label == 0 else None)
            self.leaves.append(child)
            self.add_edge(self._fresh("e"), at, child, 2, -label, INF)
        else:
            l = self.of_slope[label]
            self.add_vertex(child, 0, self.delta[at] - label * l)
            self.add_edge(self._fresh("e"), at, child, 2, -label, l)
        for sub in tree.children:
            self.attach_tree(child, sub)

    def build(self) -> DeltaMorphism:
        """The morphism onto the quotient: ``v`` maps to ``v'`` of genus zero,
        ``e`` to ``e'`` unless it named another image, and ``e'`` has length
        ``n * l``."""
        vmap = {v: v + "'" for v in self.genus}
        own = [e for e, e2 in self.emap.items() if e2 == e + "'"]
        lengths = self.edge_lengths
        target_lengths = None if lengths is None else {  # a tail's image is a tail
            e + "'": l if (l := lengths[e]) is INF else self.mult[e] * l for e in own
        }
        source = GenusGraph._from_normal(
            self.genus, self.edges, self.den, lengths, self.leaves
        )
        target = GenusGraph._from_normal(
            dict.fromkeys(vmap.values(), 0),
            {e + "'": tuple(map(vmap.get, self.edges[e])) for e in own},
            self.den,
            target_lengths,
            [v + "'" for v in self.leaves],
        )
        return DeltaMorphism._from_normal(
            source, target, vmap, self.emap, self.mult, self.sdelta,
            self.den, self.delta, self.setting,
        )


_0L = RootSubtree(0)
_1L = RootSubtree(1)
_3L = RootSubtree(3)
_1C = RootSubtree(1, (_0L, _0L))

#: Source shape of each type, in listing order: ("loop", per-side trees)
#: or ("genus1", trees).  The one shape table; the tables below derive
#: from it.  Trees are in ``_subtree_key`` order, as the search builds
#: them, so ``build_special`` assigns the ids ``enumerate_special`` does.
_SHAPES: Dict[str, tuple] = {
    "TB": ("loop", ((_0L, _0L), (_0L, _0L))),
    "MB": ("loop", ((_1C,), (_1C,))),
    "WB": ("loop", ((_1L,), (_1L,))),
    "TG": ("genus1", (_0L, _0L, _0L, _0L)),
    "MO": ("genus1", (_1C, _1C)),
    "WO": ("genus1", (_1L, _1L)),
    "MS": ("genus1", (RootSubtree(3, (_1C, _1C)),)),
    "WS": ("genus1", (RootSubtree(3, (_1L, _1L)),)),
    "MSS": ("genus1", (RootSubtree(3, (_0L, _0L, _0L, _0L)),)),
    "WSS": ("genus1", (_3L,)),
    "ME": ("genus1", (_0L, _0L, _1C)),
    "MES": ("genus1", (RootSubtree(3, (_1C, _0L, _0L)),)),
}

SPECIAL_TAGS: Tuple[str, ...] = tuple(_SHAPES)

LIFTABLE_TAGS: Tuple[str, ...] = tuple(
    t for t in SPECIAL_TAGS if SpecialType(t).liftable
)


def _trees_key(trees) -> Tuple[str, ...]:
    return tuple(t.describe() for t in sorted(trees, key=_subtree_key))


def _shape_key(kind: str, data) -> tuple:
    """Canonical key of a ("loop", sides) or ("genus1", trees) shape."""
    if kind == "loop":
        return kind, tuple(sorted(_trees_key(side) for side in data))
    return kind, _trees_key(data)


def _inner_slopes(kind: str, data) -> Tuple[int, ...]:
    """Slope classes of inner edges: 0 for the loop, and the label of every
    tree that continues through an inner vertex."""
    stack = [t for side in data for t in side] if kind == "loop" else list(data)
    found = {0} if kind == "loop" else set()
    while stack:
        tree = stack.pop()
        if tree.children:
            found.add(tree.label)
            stack.extend(tree.children)
    return tuple(sorted(found))


#: Classification: the inverse of ``_SHAPES`` under the canonical key.
_TAG_BY_SHAPE = {_shape_key(*shape): tag for tag, shape in _SHAPES.items()}

#: Which slope classes have inner edges, per type.
_INNER_SLOPES = {tag: _inner_slopes(*shape) for tag, shape in _SHAPES.items()}


def _tag_of(kind: str, data) -> str:
    """The tag of a shape; UnclassifiableError if it is none of the twelve."""
    key = _shape_key(kind, data)
    tag = _TAG_BY_SHAPE.get(key)
    if tag is None:
        reduction = "bad" if kind == "loop" else "good"
        raise UnclassifiableError(f"unknown {reduction}-reduction shape {key[1]}")
    return tag


def _build(kind: str, data, lengths: "Tuple[int, dict] | None" = None,
           setting: ResidueSetting | None = None) -> DeltaMorphism:
    """Build a ("loop", sides) or ("genus1", trees) shape, metric with
    ``(den, {slope class: length numerator})``."""
    builder = _ShapeBuilder(lengths, setting)
    if kind == "loop":
        builder.add_vertex("t", 0)
        builder.add_vertex("s", 0)
        l0 = builder.of_slope.get(0)
        loop_target = builder.add_edge("a", "t", "s", 1, 0, l0)
        builder.add_edge("b", "t", "s", 1, 0, l0, target_edge=loop_target)
        for core, trees in zip(("t", "s"), data):
            for tree in trees:
                builder.attach_tree(core, tree)
    else:
        builder.add_vertex("r", 1)
        for tree in data:
            builder.attach_tree("r", tree)
    return builder.build()


def build_special(tag: str) -> DeltaMorphism:
    """The canonical combinatorial representative of a special type."""
    return _build(*_SHAPES[SpecialType(tag).tag])


# -- enumeration and classification ---------------------------------------------------


def _homogeneous(tree_multiset: Sequence[RootSubtree]) -> bool:
    rs = [r for t in tree_multiset for r in t.leaf_r_values()]
    if len(set(rs)) != 1:
        return False
    r = rs[0]
    return r in _LEAF_CAPS and len(rs) <= _LEAF_CAPS[r]


def _candidate_shapes():
    inventory = enumerate_root_subtrees(4)
    # good reduction: trees hang on the genus-one vertex, indices sum to 4
    for combo in _multisets(inventory, lambda t: t.slope_index, 4):
        if _homogeneous(combo):
            yield ("genus1", combo)
    # bad reduction: two sides of the loop, indices sum to 2 on each;
    # distinct multisets are distinct tuples, so each unordered pair once
    sides = _multisets(inventory, lambda t: t.slope_index, 2)
    for a, b in itertools.combinations_with_replacement(sides, 2):
        if _homogeneous(a + b):
            yield ("loop", (a, b))


def enumerate_special() -> List[Tuple[SpecialType, DeltaMorphism]]:
    """Exhaustive search for special morphisms, up to isomorphism.

    Candidates are assembled from the root-subtree inventory (at most
    four ramification leaves, homogeneous differential indices), run
    through :func:`is_special` and the class-coherence cut, and tagged
    by the shape they were built from.
    """
    results: Dict[str, DeltaMorphism] = {}
    for kind, data in _candidate_shapes():
        m = _build(kind, data)
        check = is_special(m)
        if not check or not _class_coherent(m, check.characteristic_class):
            continue
        # no tag twice: the candidates' shape keys are distinct, and
        # _TAG_BY_SHAPE gives the twelve keys of _SHAPES twelve tags
        results[_tag_of(kind, data)] = m
    return [
        (SpecialType(tag), results[tag]) for tag in SPECIAL_TAGS if tag in results
    ]


def _extract_tree(m: DeltaMorphism, branch: OrientedEdge) -> RootSubtree:
    e, forward = branch
    src, s = m.source, m._sdelta[e]
    child = src._ends[e][forward]  # the head: "to" when forward
    sub = [_extract_tree(m, b) for b in src._branches[child] if b[0] != e]
    return RootSubtree(-s if forward else s, tuple(sub))  # minus sdelta(branch)


def classify_special(m: DeltaMorphism) -> SpecialType:
    """Match a special morphism against the twelve shapes.

    Trees hang off the genus-one vertex, or off the two ends of the cycle,
    and only the shape can miss the twelve: :func:`is_special` settles the
    rest (``tests/test_core_invariants.py`` gives the argument and searches
    for a counterexample).  The source has genus ``1 = h1 + sum of genera``,
    so one vertex has genus one and there is no cycle, or none has and there
    is one.  Stability makes the cycle a double edge between two vertices,
    its edges the only split ones, and each tree a :class:`RootSubtree`.
    """
    check = is_special(m)
    if not check:
        raise ValueError(f"not special: {check.reason}")
    src = m.source
    genus1 = [v for v in src.vertices if src._genus[v] == 1]
    if genus1:
        kind, roots, cycle = "genus1", genus1, ()
    else:
        kind = "loop"
        cycle = [e for e in src.edge_ids if m.mult[e] == 1]
        roots = sorted({v for e in cycle for v in src._ends[e]})
    data = [
        [_extract_tree(m, b) for b in src._branches[v] if b[0] not in cycle]
        for v in roots
    ]
    return SpecialType(_tag_of(kind, data[0] if kind == "genus1" else data))


# -- metric lifting -----------------------------------------------------------------


class Lengths(Record):
    """Inner edge lengths per slope class (tails are always infinite)."""

    __slots__ = ("l0", "l1", "l3")

    def __init__(
        self,
        l0: Fraction = Fraction(0),
        l1: Fraction = Fraction(0),
        l3: Fraction = Fraction(0),
    ):
        values = []
        for name, val in (("l0", l0), ("l1", l1), ("l3", l3)):
            val = val if type(val) is Fraction else Fraction(*as_ratio(val, name))
            if val.numerator < 0:
                raise ValueError(f"{name} must be nonnegative")
            values.append(val)
        super().__init__(*values)


def metric_lift(
    tag_or_type, lengths: Lengths, setting: ResidueSetting
) -> MetricDeltaMorphism:
    """Lift a special type to a metric morphism with the given lengths.

    Tails are infinite; inner edges of slope ``i`` get length ``l_i``,
    which must be positive exactly for the slope classes the shape
    contains, and in the mixed case must satisfy
    ``sum_i i*l_i = -log|2|``.  The two exceptional types never lift.
    """
    t = SpecialType(str(tag_or_type))  # str of a SpecialType is its tag
    tag = t.tag
    if not t.liftable:
        raise UnliftableError(f"{tag} is exceptional and admits no metric lift")

    cls = t.characteristic_class
    setting_cls = setting_class(setting)
    if cls != setting_cls:
        raise UnliftableError(
            f"{tag} is a {cls} type but the setting is {setting_cls}"
        )

    ratios = zip((0, 1, 3), (lengths.l0, lengths.l1, lengths.l3))
    den, of_slope = scaled({i: l.as_integer_ratio() for i, l in ratios}, None)
    inner = _INNER_SLOPES[tag]
    for slope in (0, 1, 3):
        have = of_slope[slope]
        if slope in inner and have <= 0:
            raise UnliftableError(
                f"{tag} has inner edges of slope {slope}; l{slope} must be positive"
            )
        if slope not in inner and have != 0:
            raise UnliftableError(
                f"{tag} has no inner edges of slope {slope}; l{slope} must be 0"
            )
    if cls == "mixed":
        weighted, (a, b) = of_slope[1] + 3 * of_slope[3], setting._int_abs_ratio(2)
        if weighted * b != -a * den:
            raise UnliftableError(
                f"mixed lengths must satisfy l1 + 3*l3 = {ratio_text(-a, b)}, "
                f"got {ratio_text(weighted, den)}"
            )
    # the prechecks are complete: delta falls from 0 at the root by label *
    # length to |2| at every tail (0 tame, -inf wild, -l1 - 3*l3 mixed), and
    # each (n, slope, delta) triple is admissible (tests/test_core_invariants.py)
    return _build(*_SHAPES[tag], (den, of_slope), setting)


def metric_lengths(mm: MetricDeltaMorphism) -> Lengths:
    """Read the per-slope-class inner edge lengths off a metric morphism.

    Inner edges of the same absolute slope must agree in length (true
    for every special metric morphism).
    """
    found: Dict[int, int] = {}  # numerators over the source's denominator
    src, sdelta = mm.source, mm._sdelta
    for e in src.edge_ids:
        length = src._lengths[e]
        if length is INF:
            continue
        slope = abs(sdelta[e])
        if slope in found and found[slope] != length:
            raise ValueError(
                f"inner edges of slope {slope} have different lengths"
            )
        found[slope] = length
    return Lengths(*[Fraction(found.get(i, 0), src._den) for i in (0, 1, 3)])


def bar_discriminator(lengths: Lengths, setting: ResidueSetting) -> SpecialType:
    """Separate the mixed H-shapes by the bar length ``4*l1 + l0``.

    Longer than ``-log|16|`` means a loop survives (MB), equality is the
    ordinary case (MO), shorter is supersingular (MS).
    """
    if setting_class(setting) != "mixed":
        raise ValueError("the bar discriminator applies to the mixed case only")
    bar = 4 * lengths.l1 + lengths.l0
    threshold = -4 * setting.int_abs(2).value
    if bar > threshold:
        return SpecialType("MB")
    if bar == threshold:
        return SpecialType("MO")
    return SpecialType("MS")
