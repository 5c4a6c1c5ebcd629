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
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .delta_morphism import (
    DeltaMorphism,
    MetricDeltaMorphism,
    applicable_moves,
    with_delta,
)
from .genus_graph import GenusGraph, OrientedEdge
from .valuation import INF, NEG_INF, Frozen, LogAbs, ResidueSetting, ZERO


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
        object.__setattr__(self, "tag", tag)

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

    __slots__ = ("label", "children")

    def __init__(self, label: int, children: Tuple["RootSubtree", ...] = ()):
        if label < 0:
            raise ValueError("labels are nonnegative (the different cannot grow "
                             "toward a ramification leaf)")
        if label != 0 and label % 2 == 0:
            raise ValueError(f"nonzero label {label} must be odd")
        kids = tuple(sorted(children, key=_subtree_key))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", kids)
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

    @property
    def leaf_count(self) -> int:
        return len(self.leaf_r_values())

    @property
    def vertex_count(self) -> int:
        """Vertices added by attaching this tree (root excluded)."""
        return 1 + sum(c.vertex_count for c in self.children)

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
    return (t.label, tuple(_subtree_key(c) for c in t.children))


#: The differential indices R of ramification leaves, which are also the
#: slope indices of trees, with the cap on the number of leaves of each
#: forced by the total sum of indices being four.
_LEAF_CAPS = {1: 4, 2: 2, 4: 1}


def _partitions(total: int, parts: Iterable[int], minimum_parts: int):
    """Multisets (weakly decreasing tuples) of allowed parts summing to total."""
    out = set()

    def rec(remaining, chosen, max_part):
        if remaining == 0:
            if len(chosen) >= minimum_parts:
                out.add(tuple(chosen))
            return
        for p in parts:
            if p <= max_part and p <= remaining:
                rec(remaining - p, chosen + [p], p)

    rec(total, [], max(parts) if parts else 0)
    return sorted(out, reverse=True)


def _bodies(slope_index: int, leaf_r: int, budget: int) -> List[RootSubtree]:
    """All subtrees with the given index whose leaves all carry ``leaf_r``."""
    found: List[RootSubtree] = []
    if slope_index == leaf_r and budget >= 1:
        found.append(RootSubtree(slope_index - 1))
    for parts in _partitions(slope_index, _LEAF_CAPS, 2):
        options = [_bodies(p, leaf_r, budget) for p in parts]
        for combo in itertools.product(*options):
            if sum(c.leaf_count for c in combo) > budget:
                continue
            try:
                found.append(RootSubtree(slope_index - 1, tuple(combo)))
            except ValueError:
                continue
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

    def __init__(
        self, ok: bool, reason: str = "", characteristic_class: Optional[str] = None
    ):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "characteristic_class", characteristic_class)

    def __bool__(self):
        return self.ok


def _wild_vertices(m: DeltaMorphism) -> frozenset:
    return frozenset(
        v
        for v in m.source.vertices
        if any(m.sdelta(b) != 0 for b in m.source.branches(v))
    )


def ramification_signature(m: DeltaMorphism) -> Tuple[int, ...]:
    return tuple(
        sorted(m.differential_index(v) for v in m.unbalanced_vertices())
    )


def is_special(m: DeltaMorphism) -> SpecialCheck:
    """Check the five defining conditions, reporting the first failure."""
    # (1) stable, degree two, genus 1 -> 0
    if applicable_moves(m):
        return SpecialCheck(False, "violated(1): the morphism is contractible")
    if m.degree != 2:
        return SpecialCheck(False, f"violated(1): degree is {m.degree}, not 2")
    if m.source.genus() != 1 or m.target.genus() != 0:
        return SpecialCheck(
            False,
            f"violated(1): genera are {m.source.genus()} -> "
            f"{m.target.genus()}, not 1 -> 0",
        )
    # (2) unbalanced vertices: genus-zero leaves, R > 0, multiplicity 2
    for v in m.source.vertices:
        r = m.differential_index(v)
        if r == 0:
            continue
        if not m.source.is_leaf(v):
            return SpecialCheck(
                False, f"violated(2): vertex {v} has R = {r} but is not a leaf"
            )
        if m.source.genus_of(v) != 0:
            return SpecialCheck(
                False, f"violated(2): leaf {v} has R = {r} and positive genus"
            )
        if r < 0:
            return SpecialCheck(False, f"violated(2): leaf {v} has R = {r} < 0")
        if m.vertex_mult[v] != 2:
            return SpecialCheck(
                False,
                f"violated(2): leaf {v} has R = {r} but multiplicity "
                f"{m.vertex_mult[v]}",
            )
    # (3) tame / mixed / wild trichotomy
    wild = _wild_vertices(m)
    ram = set(m.unbalanced_vertices())
    if not wild:
        cls = "tame"
    elif ram.isdisjoint(wild):
        cls = "mixed"
    elif ram <= wild:
        cls = "wild"
    else:
        return SpecialCheck(
            False,
            "violated(3): ramification leaves are neither all tame nor all wild",
        )
    # (4) split edges carry slope zero
    for e in m.source.edge_ids:
        if m.mult[e] == 1 and m.sdelta_stored(e) != 0:
            return SpecialCheck(
                False, f"violated(4): split edge {e} has nonzero slope"
            )
    # (5) nonzero slopes are odd
    for e in m.source.edge_ids:
        s = m.sdelta_stored(e)
        if s != 0 and s % 2 == 0:
            return SpecialCheck(
                False, f"violated(5): edge {e} has even nonzero slope {s}"
            )
    return SpecialCheck(True, characteristic_class=cls)


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
    """Accumulates a degree-two morphism (optionally metric) shape by shape."""

    def __init__(self, metric: bool, lengths: "Lengths | None" = None,
                 setting: ResidueSetting | None = None):
        self.lengths = lengths
        self.setting = setting
        self.src_genus: Dict[str, int] = {}
        self.src_edges: Dict[str, Tuple[str, str]] = {}
        self.src_lengths: Optional[Dict[str, object]] = {} if metric else None
        self.src_leaves: List[str] = []
        self.tgt_genus: Dict[str, int] = {}
        self.tgt_edges: Dict[str, Tuple[str, str]] = {}
        self.tgt_lengths: Optional[Dict[str, object]] = {} if metric else None
        self.tgt_leaves: List[str] = []
        self.vmap: Dict[str, str] = {}
        self.emap: Dict[str, str] = {}
        self.mult: Dict[str, int] = {}
        self.sdelta: Dict[str, int] = {}
        self.delta: Optional[Dict[str, LogAbs]] = {} if metric else None
        self._counter = 0

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def add_vertex(self, name: str, genus: int, delta: LogAbs = ZERO) -> str:
        self.src_genus[name] = genus
        self.tgt_genus[name + "'"] = genus if genus == 0 else 0
        self.vmap[name] = name + "'"
        if self.delta is not None:
            self.delta[name] = delta
        return name

    def add_edge(self, name, u, v, n, sdelta_uv, length=None, target_edge=None):
        self.src_edges[name] = (u, v)
        self.mult[name] = n
        self.sdelta[name] = sdelta_uv
        if target_edge is None:
            target_edge = name + "'"
            self.tgt_edges[target_edge] = (self.vmap[u], self.vmap[v])
            if self.tgt_lengths is not None:
                self.tgt_lengths[target_edge] = n * length
        self.emap[name] = target_edge
        if self.src_lengths is not None:
            self.src_lengths[name] = length
        return target_edge

    def attach_tree(self, at: str, tree: RootSubtree) -> None:
        child = self._fresh("v")
        label = tree.label
        if self.delta is None:
            self.add_vertex(child, 0)
            self.add_edge(self._fresh("e"), at, child, 2, -label)
        elif tree.is_leaf_edge:
            self.add_vertex(child, 0, self.delta[at] if label == 0 else NEG_INF)
            self.src_leaves.append(child)
            self.tgt_leaves.append(child + "'")
            self.add_edge(self._fresh("e"), at, child, 2, -label, INF)
        else:
            l = self.lengths.of_slope(label)
            self.add_vertex(child, 0, self.delta[at] + Fraction(-label) * l)
            self.add_edge(self._fresh("e"), at, child, 2, -label, l)
        for sub in tree.children:
            self.attach_tree(child, sub)

    def build(self) -> DeltaMorphism:
        source = GenusGraph(
            self.src_genus, self.src_edges, self.src_lengths, self.src_leaves
        )
        target = GenusGraph(
            self.tgt_genus, self.tgt_edges, self.tgt_lengths, self.tgt_leaves
        )
        m = DeltaMorphism(
            source, target, self.vmap, self.emap, self.mult, self.sdelta
        )
        return with_delta(m, self.delta, self.setting)


_0L = RootSubtree(0)
_1L = RootSubtree(1)
_3L = RootSubtree(3)
_1C = RootSubtree(1, (_0L, _0L))

#: Source shape of each type, in listing order: ("loop", per-side trees)
#: or ("genus1", trees).  The one shape table; the tables below derive
#: from it.
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
    "ME": ("genus1", (_1C, _0L, _0L)),
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


def _build(kind: str, data, lengths: "Lengths | None" = None,
           setting: ResidueSetting | None = None) -> DeltaMorphism:
    """Build a ("loop", sides) or ("genus1", trees) shape, metric with lengths."""
    builder = _ShapeBuilder(lengths is not None, lengths, setting)
    if kind == "loop":
        builder.add_vertex("t", 0)
        builder.add_vertex("s", 0)
        l0 = None if lengths is None else lengths.l0
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


def _multisets_with_index_sum(trees: Sequence[RootSubtree], total: int):
    """All multisets of trees whose slope indices add to ``total``."""
    out = []

    def rec(start: int, remaining: int, chosen: list):
        if remaining == 0:
            out.append(tuple(chosen))
            return
        for i in range(start, len(trees)):
            s = trees[i].slope_index
            if s <= remaining:
                rec(i, remaining - s, chosen + [trees[i]])

    rec(0, total, [])
    return out


def _homogeneous(tree_multiset: Sequence[RootSubtree]) -> bool:
    rs = [r for t in tree_multiset for r in t.leaf_r_values()]
    if len(set(rs)) != 1:
        return False
    r = rs[0]
    return r in _LEAF_CAPS and len(rs) <= _LEAF_CAPS[r]


def _candidate_shapes():
    inventory = enumerate_root_subtrees(4)
    # good reduction: trees hang on the genus-one vertex, indices sum to 4
    for combo in _multisets_with_index_sum(inventory, 4):
        if _homogeneous(combo):
            yield ("genus1", tuple(combo))
    # bad reduction: two sides of the loop, indices sum to 2 on each
    sides = [
        tuple(c) for c in _multisets_with_index_sum(inventory, 2)
    ]
    seen = set()
    for a, b in itertools.product(sides, repeat=2):
        key = tuple(sorted((tuple(map(_subtree_key, a)), tuple(map(_subtree_key, b)))))
        if key in seen:
            continue
        seen.add(key)
        if _homogeneous(a + b):
            yield ("loop", (a, b))


def enumerate_special() -> List[Tuple[SpecialType, DeltaMorphism]]:
    """Exhaustive search for special morphisms, up to isomorphism.

    Candidates are assembled from the root-subtree inventory (at most
    four ramification leaves, homogeneous differential indices), run
    through :func:`is_special` and the class-coherence cut, and returned
    as the twelve classified types.
    """
    results: Dict[str, DeltaMorphism] = {}
    for kind, data in _candidate_shapes():
        m = _build(kind, data)
        check = is_special(m)
        if not check:
            continue
        if not _class_coherent(m, check.characteristic_class):
            continue
        tag = classify_special(m).tag
        if tag in results:
            raise AssertionError(f"duplicate special type {tag}")
        results[tag] = m
    return [
        (SpecialType(tag), results[tag]) for tag in SPECIAL_TAGS if tag in results
    ]


def _two_core(g: GenusGraph) -> Tuple[frozenset, frozenset]:
    """Vertices and edges left after iterated leaf stripping."""
    verts = set(g.vertices)
    edges = {e: g.endpoints(e) for e in g.edge_ids}
    changed = True
    while changed:
        changed = False
        for v in sorted(verts):
            deg = sum(
                (1 if u == v else 0) + (1 if w == v else 0)
                for u, w in edges.values()
            )
            if deg <= 1:
                verts.remove(v)
                for e in [e for e, (u, w) in edges.items() if v in (u, w)]:
                    del edges[e]
                changed = True
    return frozenset(verts), frozenset(edges)


def _extract_tree(m: DeltaMorphism, parent: str, branch: OrientedEdge) -> RootSubtree:
    if m.mult[branch.edge] != 2:
        raise UnclassifiableError(
            f"tree edge {branch.edge} has multiplicity {m.mult[branch.edge]}"
        )
    label = -m.sdelta(branch)
    child = m.source.head(branch)
    sub = []
    for b in m.source.branches(child):
        if b.edge == branch.edge:
            continue
        sub.append(_extract_tree(m, child, b))
    try:
        return RootSubtree(label, tuple(sub))
    except ValueError as exc:
        raise UnclassifiableError(str(exc)) from exc


def classify_special(m: DeltaMorphism) -> SpecialType:
    """Match a special morphism against the twelve shapes."""
    check = is_special(m)
    if not check:
        raise ValueError(f"not special: {check.reason}")
    genus1 = [v for v in m.source.vertices if m.source.genus_of(v) == 1]
    h1 = m.source.h1()
    if genus1 and h1 == 0:
        root = genus1[0]
        kind = "genus1"
        data = [_extract_tree(m, root, b) for b in m.source.branches(root)]
    elif not genus1 and h1 == 1:
        core_verts, core_edges = _two_core(m.source)
        if len(core_verts) != 2 or len(core_edges) != 2:
            raise UnclassifiableError(
                "the cycle is not a two-vertex double edge"
            )
        kind = "loop"
        data = [
            [
                _extract_tree(m, v, b)
                for b in m.source.branches(v)
                if b.edge not in core_edges
            ]
            for v in sorted(core_verts)
        ]
    else:
        raise UnclassifiableError(
            "neither a genus-one vertex with trees nor a loop with trees"
        )
    key = _shape_key(kind, data)
    tag = _TAG_BY_SHAPE.get(key)
    if tag is None:
        reduction = "bad" if kind == "loop" else "good"
        raise UnclassifiableError(f"unknown {reduction}-reduction shape {key[1]}")
    return SpecialType(tag)


# -- metric lifting -----------------------------------------------------------------


class Lengths(Frozen):
    """Inner edge lengths per slope class (tails are always infinite)."""

    __slots__ = ("l0", "l1", "l3")

    def __init__(
        self,
        l0: Fraction = Fraction(0),
        l1: Fraction = Fraction(0),
        l3: Fraction = Fraction(0),
    ):
        for name, val in (("l0", l0), ("l1", l1), ("l3", l3)):
            val = Fraction(val)
            if val < 0:
                raise ValueError(f"{name} must be nonnegative")
            object.__setattr__(self, name, val)

    def of_slope(self, slope: int) -> Fraction:
        return {0: self.l0, 1: self.l1, 3: self.l3}[slope]

    def to_json_dict(self) -> dict:
        return {"l0": str(self.l0), "l1": str(self.l1), "l3": str(self.l3)}


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

    inner = _INNER_SLOPES[tag]
    for slope in (0, 1, 3):
        have = lengths.of_slope(slope)
        if slope in inner and have <= 0:
            raise UnliftableError(
                f"{tag} has inner edges of slope {slope}; l{slope} must be positive"
            )
        if slope not in inner and have != 0:
            raise UnliftableError(
                f"{tag} has no inner edges of slope {slope}; l{slope} must be 0"
            )
    if cls == "mixed":
        weighted = lengths.l1 + 3 * lengths.l3
        log2 = setting.int_abs(2).value
        if weighted != -log2:
            raise UnliftableError(
                f"mixed lengths must satisfy l1 + 3*l3 = {-log2}, got {weighted}"
            )
    try:
        return _build(*_SHAPES[tag], lengths, setting)
    except ValueError as exc:  # pragma: no cover - the prechecks are complete
        raise UnliftableError(str(exc)) from exc


def metric_lengths(mm: MetricDeltaMorphism) -> Lengths:
    """Read the per-slope-class inner edge lengths off a metric morphism.

    Inner edges of the same absolute slope must agree in length (true
    for every special metric morphism).
    """
    found: Dict[int, Fraction] = {}
    src = mm.source
    for e in src.edge_ids:
        if src.is_tail(e):
            continue
        slope = abs(mm.sdelta_stored(e))
        length = src.length(e)
        if slope in found and found[slope] != length:
            raise ValueError(
                f"inner edges of slope {slope} have different lengths"
            )
        found[slope] = length
    return Lengths(
        l0=found.get(0, Fraction(0)),
        l1=found.get(1, Fraction(0)),
        l3=found.get(3, Fraction(0)),
    )


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
