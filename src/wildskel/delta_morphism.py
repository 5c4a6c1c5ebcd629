"""Proper edge-weighted graph morphisms with a different-slope datum.

An n-morphism is a graph map with positive integer multiplicities on
edges, locally constant multiplicity at vertices and constant global
rank (the degree).  A delta-morphism additionally carries an oriented
integer function ``sdelta`` on source edges, modelling the slope of the
different along each edge.  When source and target are metric graphs
(both or neither), it may also carry the different itself: a
log-different value ``delta`` per source vertex, in a residue
``setting``.  Such a morphism is a :class:`MetricDeltaMorphism`; every
operation, contraction included, keeps the metric data when present.

The bookkeeping revolves around the differential slope index
``S_e = -sdelta(e) + n_e - 1`` and the per-vertex balance
``R_v = chi(v) - sum of S over branches``; the canonical divisor of the
source then decomposes as ``K = pullback(K') + R + Delta`` and the
degrees give ``2g - 2 = deg * (2g' - 2) + sum R_v``.
"""

from __future__ import annotations

from collections.abc import Mapping  # isinstance is 3x faster than on typing's
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .annulus import check_restriction
from .genus_graph import Divisor, GenusGraph, OrientedEdge
from .pmfunc import PMFunction
from .valuation import INF, Frozen, LogAbs, ResidueSetting


class NotProperError(ValueError):
    pass


class IllegalMoveError(ValueError):
    pass


class NMorphism:
    """A proper morphism of genus graphs with edge multiplicities.

    Validated on construction: incidence compatibility, local constancy
    of multiplicity at every vertex (which defines ``vertex_mult``), and
    constancy of the global rank (the ``degree``).  Both graphs must be
    connected, and both metric or both plain.
    """

    def __init__(
        self,
        source: GenusGraph,
        target: GenusGraph,
        vertex_map: Mapping[str, str],
        edge_map: Mapping[str, str],
        mult: Mapping[str, int],
    ):
        if source.is_metric != target.is_metric:
            raise ValueError("source and target must both be metric or both plain")
        self.source = source
        self.target = target
        self.vertex_map = {str(k): str(v) for k, v in vertex_map.items()}
        self.edge_map = {str(k): str(v) for k, v in edge_map.items()}
        self.mult = {str(k): int(v) for k, v in mult.items()}
        self._validate_maps()
        if not source.is_connected() or not target.is_connected():
            raise NotProperError("properness requires connected graphs")
        self.vertex_mult: Dict[str, int] = {
            v: self._local_mult(v) for v in source.vertices
        }
        self.degree = self._global_degree()

    # -- validation -------------------------------------------------------

    def _validate_maps(self) -> None:
        for v in self.source.vertices:
            if self.vertex_map.get(v) not in self.target.vertices:
                raise NotProperError(f"vertex {v} is not mapped to a target vertex")
        for e in self.source.edge_ids:
            e2 = self.edge_map.get(e)
            if e2 not in self.target.edge_ids:
                raise NotProperError(f"edge {e} is not mapped to a target edge")
            u, v = self.source.endpoints(e)
            img = tuple(sorted((self.vertex_map[u], self.vertex_map[v])))
            if img != tuple(sorted(self.target.endpoints(e2))):
                raise NotProperError(f"edge {e} violates incidence under the map")
            if self.mult.get(e, 0) < 1:
                raise NotProperError(f"edge {e} needs a positive multiplicity")

    def branch_image(self, oe: OrientedEdge) -> OrientedEdge:
        """Image branch; loops map slot-to-slot (from->from, to->to)."""
        e2 = self.edge_map[oe.edge]
        u2, v2 = self.target.endpoints(e2)
        if u2 == v2:
            return OrientedEdge(e2, oe.forward)
        w = self.vertex_map[self.source.source(oe)]
        if w == u2:
            return OrientedEdge(e2, True)
        if w == v2:
            return OrientedEdge(e2, False)
        raise NotProperError(f"branch of {oe.edge} has no image branch")

    def _local_mult(self, v: str) -> int:
        v2 = self.vertex_map[v]
        target_branches = self.target.branches(v2)
        if not target_branches:
            # isolated target vertex; treat an isolated fiber point as
            # multiplicity one (single-point local behaviour)
            if self.source.branches(v):
                raise NotProperError(f"vertex {v} maps onto an isolated vertex")
            return 1
        sums = {b2: 0 for b2 in target_branches}
        for b in self.source.branches(v):
            sums[self.branch_image(b)] += self.mult[b.edge]
        values = set(sums.values())
        if len(values) != 1 or 0 in values:
            raise NotProperError(
                f"multiplicity is not locally constant at vertex {v}: {sums}"
            )
        return values.pop()

    def _global_degree(self) -> int:
        fibers: Dict[str, int] = {v2: 0 for v2 in self.target.vertices}
        for v in self.source.vertices:
            fibers[self.vertex_map[v]] += self.vertex_mult[v]
        values = set(fibers.values())
        if len(values) != 1 or 0 in values:
            raise NotProperError(f"global rank is not constant: {fibers}")
        return values.pop()

    # -- divisors ----------------------------------------------------------

    def pullback(self, d: Divisor) -> Divisor:
        return Divisor(
            {
                v: d.coefficient(self.vertex_map[v]) * self.vertex_mult[v]
                for v in self.source.vertices
            }
        )

    def __repr__(self):
        return (
            f"{type(self).__name__}(degree {self.degree}: "
            f"{self.source!r} -> {self.target!r})"
        )


class DeltaMorphism(NMorphism):
    """An n-morphism together with the oriented slope function sdelta.

    ``delta`` and ``setting`` are ``None`` unless the morphism is a
    :class:`MetricDeltaMorphism`.
    """

    delta: Optional[Dict[str, LogAbs]] = None
    setting: Optional[ResidueSetting] = None

    def __init__(
        self,
        source: GenusGraph,
        target: GenusGraph,
        vertex_map: Mapping[str, str],
        edge_map: Mapping[str, str],
        mult: Mapping[str, int],
        sdelta: Mapping[str, int],
    ):
        super().__init__(source, target, vertex_map, edge_map, mult)
        self._sdelta = {str(e): int(s) for e, s in sdelta.items()}
        for e in self.source.edge_ids:
            if e not in self._sdelta:
                raise ValueError(f"edge {e} has no sdelta value")

    def sdelta(self, oe: OrientedEdge) -> int:
        """Slope along the oriented edge; odd under orientation reversal."""
        s = self._sdelta[oe.edge]
        return s if oe.forward else -s

    def sdelta_stored(self, e: str) -> int:
        return self._sdelta[e]

    # -- metric data -------------------------------------------------------

    def _attach_delta(
        self, delta: Mapping[str, LogAbs], setting: ResidueSetting
    ) -> None:
        """Store and validate the different values of a metric morphism.

        Checks the dilation rule ``length(phi(e)) = n_e * length(e)``,
        linearity of the different along finite edges, the boundary rule
        ``delta = |n|`` at infinite leaves, and the admissibility of every
        (multiplicity, slope, different) triple at both ends of every edge.
        """
        src = self.source
        if not src.is_metric:
            raise ValueError("metric delta-morphisms require metric graphs")
        self.setting = setting
        self.delta = {}
        for v in src.vertices:
            if v not in delta:
                raise ValueError(f"vertex {v} has no delta value")
            d = delta[v]
            self.delta[v] = d if isinstance(d, LogAbs) else LogAbs(d)
        for v, d in self.delta.items():
            if d > 0:
                raise ValueError(f"delta at {v} must be <= 0, got {d}")
            if d.is_neg_inf and v not in src.infinite_leaves:
                raise ValueError(
                    f"delta vanishes at {v}, which is not an infinite leaf"
                )
        for e in src.edge_ids:
            n = self.mult[e]
            u, v = src.endpoints(e)
            l = src.length(e)
            target_l = self.target.length(self.edge_map[e])
            if target_l != n * l:
                raise ValueError(
                    f"dilation fails on edge {e}: {target_l} != {n} * {l}"
                )
            s_uv = self.sdelta(OrientedEdge(e, True))
            du, dv = self.delta[u], self.delta[v]
            if l is INF:
                leaf, inner, s_out, d_leaf, d_inner = (
                    (v, u, s_uv, dv, du)
                    if v in src.infinite_leaves
                    else (u, v, -s_uv, du, dv)
                )
                expected = setting.int_abs(n)
                if d_leaf != expected:
                    raise ValueError(
                        f"delta at infinite leaf {leaf} must be |{n}| = "
                        f"{expected}, got {d_leaf}"
                    )
                if s_out > 0:
                    raise ValueError(
                        f"delta would exceed one along the tail {e}"
                    )
                if s_out == 0 and d_leaf != d_inner:
                    raise ValueError(
                        f"delta is not constant along the slope-zero tail {e}"
                    )
                if s_out < 0 and not d_leaf.is_neg_inf:
                    raise ValueError(
                        f"delta must vanish at the end of the descending tail {e}"
                    )
            else:
                if du.is_neg_inf or dv.is_neg_inf:
                    raise ValueError(f"finite edge {e} has a vanishing endpoint")
                if dv != du + Fraction(s_uv) * l:
                    raise ValueError(
                        f"delta is not linear along edge {e}: "
                        f"{dv} != {du} + {s_uv} * {l}"
                    )
            for vert, slope in ((u, s_uv), (v, -s_uv)):
                verdict = check_restriction(n, slope, self.delta[vert], setting)
                if not verdict:
                    raise ValueError(
                        f"edge {e} fails the slope restriction at {vert}: "
                        f"{verdict.reason}"
                    )

    def delta_profile(self, e: str) -> PMFunction:
        """log delta along edge ``e`` in arc length from its finite end."""
        src = self.source
        u, v = src.endpoints(e)
        s = self.sdelta(OrientedEdge(e, True))
        if self.delta[u].is_neg_inf:
            u, v, s = v, u, -s
        if self.delta[u].is_neg_inf:
            raise ValueError(f"edge {e} has no finite endpoint value")
        return PMFunction.line((Fraction(0), src.length(e)), self.delta[u].value, s)

    # -- indices -----------------------------------------------------------

    def slope_index(self, oe: OrientedEdge) -> int:
        return -self.sdelta(oe) + self.mult[oe.edge] - 1

    def chi(self, v: str) -> int:
        g = self.source.genus_of(v)
        g2 = self.target.genus_of(self.vertex_map[v])
        return 2 * g - 2 - self.vertex_mult[v] * (2 * g2 - 2)

    def differential_index(self, v: str) -> int:
        return self.chi(v) - sum(
            self.slope_index(b) for b in self.source.branches(v)
        )

    def ramification_divisor(self) -> Divisor:
        return Divisor(
            {v: self.differential_index(v) for v in self.source.vertices}
        )

    def delta_divisor(self) -> Divisor:
        return Divisor(
            {
                v: sum(-self.sdelta(b) for b in self.source.branches(v))
                for v in self.source.vertices
            }
        )

    def unbalanced_vertices(self) -> Tuple[str, ...]:
        return tuple(
            v for v in self.source.vertices if self.differential_index(v) != 0
        )

    # -- Riemann-Hurwitz -----------------------------------------------------

    def rh_divisor_identity(self) -> "RHDivisorReport":
        k = self.source.canonical_divisor()
        pk = self.pullback(self.target.canonical_divisor())
        r = self.ramification_divisor()
        d = self.delta_divisor()
        mism = tuple(
            v
            for v in self.source.vertices
            if k.coefficient(v)
            != pk.coefficient(v) + r.coefficient(v) + d.coefficient(v)
        )
        return RHDivisorReport(
            ok=not mism,
            canonical=k,
            pullback_canonical=pk,
            ramification=r,
            delta=d,
            mismatched_vertices=mism,
        )

    def rh_degree_identity(self) -> "RHDegreeReport":
        lhs = 2 * self.source.genus() - 2
        r_sum = sum(
            self.differential_index(v) for v in self.source.vertices
        )
        rhs = self.degree * (2 * self.target.genus() - 2) + r_sum
        return RHDegreeReport(
            ok=lhs == rhs, lhs=lhs, rhs=rhs, degree=self.degree, r_sum=r_sum
        )


class RHDivisorReport(Frozen):
    __slots__ = (
        "ok",
        "canonical",
        "pullback_canonical",
        "ramification",
        "delta",
        "mismatched_vertices",
    )

    def __init__(
        self,
        ok: bool,
        canonical: Divisor,
        pullback_canonical: Divisor,
        ramification: Divisor,
        delta: Divisor,
        mismatched_vertices: Tuple[str, ...],
    ):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "pullback_canonical", pullback_canonical)
        object.__setattr__(self, "ramification", ramification)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "mismatched_vertices", mismatched_vertices)

    def __bool__(self):
        return self.ok

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "canonical": self.canonical.to_json_dict(),
            "pullback_canonical": self.pullback_canonical.to_json_dict(),
            "ramification": self.ramification.to_json_dict(),
            "delta": self.delta.to_json_dict(),
            "mismatched_vertices": list(self.mismatched_vertices),
        }


class RHDegreeReport(Frozen):
    __slots__ = ("ok", "lhs", "rhs", "degree", "r_sum")

    def __init__(self, ok: bool, lhs: int, rhs: int, degree: int, r_sum: int):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "r_sum", r_sum)

    def __bool__(self):
        return self.ok

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "degree": self.degree,
            "r_sum": self.r_sum,
        }


# -- contractions ------------------------------------------------------------


def contract_graph(g: GenusGraph, move: Tuple[str, str]) -> GenusGraph:
    """Apply a contraction move to a genus graph.

    ``move`` is ``("leaf", v)`` (remove a genus-zero leaf and its edge)
    or ``("smooth", v)`` (remove a genus-zero valence-two vertex,
    merging its two edges; lengths add in the metric case).
    """
    kind, v = move
    if kind not in ("leaf", "smooth"):
        raise IllegalMoveError(f"unknown move kind {kind!r}")
    if v not in g.vertices:
        raise IllegalMoveError(f"no vertex {v}")
    if kind == "leaf":
        if g.genus_of(v) != 0:
            raise IllegalMoveError(f"leaf {v} has positive genus")
        if not g.is_leaf(v):
            raise IllegalMoveError(f"vertex {v} is not a leaf")
        reason = _isolates_infinite_leaf(g, v)
        if reason:
            raise IllegalMoveError(reason)
    else:
        if g.genus_of(v) != 0:
            raise IllegalMoveError(f"vertex {v} has positive genus")
        branches = g.branches(v)
        if len(branches) != 2:
            raise IllegalMoveError(f"vertex {v} does not have valence 2")
        if branches[0].edge == branches[1].edge:
            raise IllegalMoveError(f"cannot smooth the loop vertex {v}")
    return _contract(g, kind, (v,))


def _contract(g: GenusGraph, kind: str, vertices: Iterable[str]) -> GenusGraph:
    """Remove the given leaves, or smooth the given valence-two vertices.

    The caller has checked the move.  A smoothed vertex's two edges merge
    into the one with the smaller id, running between the two far ends;
    lengths add.  Metric data is kept.
    """
    vertices = set(vertices)
    genera = {w: g.genus_of(w) for w in g.vertices if w not in vertices}
    edges = {e: g.endpoints(e) for e in g.edge_ids}
    lengths = {e: g.length(e) for e in g.edge_ids} if g.is_metric else None
    for v in sorted(vertices):
        if kind == "leaf":
            (b,) = g.branches(v)
            del edges[b.edge]
            if lengths is not None:
                del lengths[b.edge]
            continue
        b1, b2 = g.branches(v)
        new_edge = min(b1.edge, b2.edge)
        del edges[b1.edge]
        del edges[b2.edge]
        edges[new_edge] = (g.head(b1), g.head(b2))
        if lengths is not None:
            l = lengths.pop(b1.edge) + lengths.pop(b2.edge)
            lengths[new_edge] = l
    leaves = g.infinite_leaves & genera.keys()
    return GenusGraph(genera, edges, lengths, infinite_leaves=leaves)


def _isolates_infinite_leaf(g: GenusGraph, leaf: str) -> Optional[str]:
    """Why removing ``leaf`` would leave an invalid graph, if it would.

    The neighbour of the leaf loses its edge; an infinite leaf left with
    valence zero is no leaf.
    """
    (b,) = g.branches(leaf)
    w = g.head(b)
    if w in g.infinite_leaves:
        return f"removing leaf {leaf} would isolate the infinite leaf {w}"
    return None


def _morphism_leaf_conditions(m: DeltaMorphism, v2: str) -> Optional[str]:
    if v2 not in m.target.vertices:
        return f"no target vertex {v2}"
    if m.target.genus_of(v2) != 0:
        return f"target vertex {v2} has positive genus"
    if not m.target.is_leaf(v2):
        return f"target vertex {v2} is not a leaf"
    reason = _isolates_infinite_leaf(m.target, v2)
    if reason:
        return reason
    if len(m.target.edge_ids) == 1 and m.degree > 1:
        # collapsing the target to a point leaves the fiber
        # multiplicities of a degree > 1 morphism undetermined
        return "cannot contract the last target edge at degree > 1"
    for v in m.source.vertices:
        if m.vertex_map[v] != v2:
            continue
        if not m.source.is_leaf(v):
            return f"fiber vertex {v} is not a leaf"
        reason = _isolates_infinite_leaf(m.source, v)
        if reason:
            return reason
        if m.source.genus_of(v) != 0:
            return f"fiber vertex {v} has positive genus"
        if m.differential_index(v) != 0:
            return f"fiber vertex {v} has R = {m.differential_index(v)} != 0"
    return None


def _morphism_smooth_conditions(m: DeltaMorphism, v2: str) -> Optional[str]:
    if v2 not in m.target.vertices:
        return f"no target vertex {v2}"
    if m.target.genus_of(v2) != 0:
        return f"target vertex {v2} has positive genus"
    branches = m.target.branches(v2)
    if len(branches) != 2:
        return f"target vertex {v2} does not have valence 2"
    if branches[0].edge == branches[1].edge:
        return f"target vertex {v2} is a loop vertex"
    for v in m.source.vertices:
        if m.vertex_map[v] != v2:
            continue
        if m.source.genus_of(v) != 0:
            return f"fiber vertex {v} has positive genus"
        if m.source.valence(v) != 2:
            return f"fiber vertex {v} does not have valence 2"
        if m.differential_index(v) != 0:
            return f"fiber vertex {v} has R = {m.differential_index(v)} != 0"
        b1, b2 = m.source.branches(v)
        if b1.edge == b2.edge:
            return f"fiber vertex {v} is a loop vertex"
        if m.mult[b1.edge] != m.mult[b2.edge]:
            return f"fiber vertex {v} joins edges of different multiplicity"
        if m.sdelta(-b1) != m.sdelta(b2):
            return f"sdelta is discontinuous through fiber vertex {v}"
    return None


def contract_morphism(m: DeltaMorphism, move: Tuple[str, str]) -> DeltaMorphism:
    """Apply a contraction move, specified by a target vertex.

    ``("leaf", v')`` removes the genus-zero target leaf ``v'`` and its
    whole fiber (every fiber vertex must be a genus-zero leaf with
    ``R = 0``); ``("smooth", v')`` removes a genus-zero valence-two
    target vertex whose fiber vertices all have genus zero, valence two
    and ``R = 0``, merging edges upstairs and downstairs.  The merged
    source edges must agree in multiplicity and carry a continuous
    sdelta; this holds automatically for balanced fibers but is checked
    explicitly.  Lengths add on merged edges, and the delta values of
    the surviving vertices are kept.
    """
    kind, v2 = move
    conditions = {
        "leaf": _morphism_leaf_conditions,
        "smooth": _morphism_smooth_conditions,
    }.get(kind)
    if conditions is None:
        raise IllegalMoveError(f"unknown move kind {kind!r}")
    reason = conditions(m, v2)
    if reason:
        raise IllegalMoveError(reason)
    target = contract_graph(m.target, move)
    fiber = [v for v in m.source.vertices if m.vertex_map[v] == v2]
    source = _contract(m.source, kind, fiber)
    edge_map = {e: m.edge_map[e] for e in source.edge_ids}
    sdelta = {e: m.sdelta_stored(e) for e in source.edge_ids}
    if kind == "smooth":
        merged_target_edge = min(b.edge for b in m.target.branches(v2))
        for v in fiber:
            # the merged edge keeps the smaller id, that of the first
            # branch ``a``, and now runs from the far end of ``a``
            a, _ = m.source.branches(v)
            edge_map[a.edge] = merged_target_edge
            sdelta[a.edge] = m.sdelta(-a)
    delta = None if m.delta is None else {v: m.delta[v] for v in source.vertices}
    return with_delta(
        DeltaMorphism(
            source,
            target,
            {v: m.vertex_map[v] for v in source.vertices},
            edge_map,
            {e: m.mult[e] for e in source.edge_ids},
            sdelta,
        ),
        delta,
        m.setting,
    )


def applicable_moves(m: DeltaMorphism) -> Tuple[Tuple[str, str], ...]:
    moves = []
    for v2 in m.target.vertices:
        if _morphism_leaf_conditions(m, v2) is None:
            moves.append(("leaf", v2))
        if _morphism_smooth_conditions(m, v2) is None:
            moves.append(("smooth", v2))
    return tuple(moves)


def stabilize(m: DeltaMorphism) -> DeltaMorphism:
    """Contract until no move applies; the result is stable."""
    while True:
        moves = applicable_moves(m)
        if not moves:
            return m
        m = contract_morphism(m, moves[0])


def is_stable(m: DeltaMorphism) -> bool:
    return not applicable_moves(m)


# -- metric delta-morphisms ---------------------------------------------------


class MetricDeltaMorphism(DeltaMorphism):
    """A delta-morphism of metric genus graphs with different values.

    Takes over the already validated combinatorial data of ``morphism``
    and validates ``delta`` against it (see ``DeltaMorphism._attach_delta``).
    """

    def __init__(
        self,
        morphism: DeltaMorphism,
        delta: Mapping[str, LogAbs],
        setting: ResidueSetting,
    ):
        vars(self).update(vars(morphism))
        self._attach_delta(delta, setting)

    @property
    def morphism(self) -> "MetricDeltaMorphism":
        return self


def with_delta(
    m: DeltaMorphism,
    delta: Optional[Mapping[str, LogAbs]],
    setting: Optional[ResidueSetting],
) -> DeltaMorphism:
    """``m`` itself without delta values, else the metric morphism over it."""
    return m if delta is None else MetricDeltaMorphism(m, delta, setting)


# -- skeleton certificates -----------------------------------------------------


class BoundaryAnnotation(Frozen):
    """Off-graph branch data: per vertex, a list of (n, sdelta) pairs.

    ``sdelta`` is the slope of the different along the branch, oriented
    away from the graph.
    """

    __slots__ = ("branches",)

    def __init__(self, branches: Mapping[str, Tuple[Tuple[int, int], ...]]):
        data = {}
        for v, items in dict(branches).items():
            pairs = tuple((int(n), int(s)) for n, s in items)
            for n, _ in pairs:
                if n < 1:
                    raise ValueError(f"off-graph branch at {v} needs n >= 1")
            data[str(v)] = pairs
        object.__setattr__(self, "branches", data)

    def items(self):
        return self.branches.items()


class CertifyReport(Frozen):
    __slots__ = ("ok", "violations")

    def __init__(
        self, ok: bool, violations: Tuple[Tuple[str, int, int, int, int], ...]
    ):
        object.__setattr__(self, "ok", ok)
        # (vertex, branch index, n, sdelta, slope index) per failing branch
        object.__setattr__(self, "violations", violations)

    def __bool__(self):
        return self.ok

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {
                    "vertex": v,
                    "branch": i,
                    "n": n,
                    "sdelta": s,
                    "slope_index": si,
                }
                for v, i, n, s, si in self.violations
            ],
        }


def certify_skeleton(
    m, boundary: BoundaryAnnotation, ram_in_vertices: bool
) -> CertifyReport:
    """Local trivialization test for a subgraph to be a skeleton.

    Passes iff the ramification locus sits in the vertices and every
    annotated off-graph branch has slope index ``-sdelta + n - 1 = 0``.
    """
    source = m.source if isinstance(m, NMorphism) else m
    violations = []
    for v, pairs in sorted(boundary.items()):
        if v not in source.vertices:
            raise ValueError(f"annotation mentions unknown vertex {v}")
        for i, (n, s) in enumerate(pairs):
            index = -s + n - 1
            if index != 0:
                violations.append((v, i, n, s, index))
    ok = ram_in_vertices and not violations
    return CertifyReport(ok=ok, violations=tuple(violations))


class WideOpenReport(Frozen):
    __slots__ = ("ok", "lhs", "rhs", "solved_genus", "disc_criterion")

    def __init__(
        self,
        ok: bool,
        lhs: int,
        rhs: int,
        solved_genus: Fraction,
        disc_criterion: bool,
    ):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "solved_genus", solved_genus)
        object.__setattr__(self, "disc_criterion", disc_criterion)

    def __bool__(self):
        return self.ok

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "solved_genus": str(self.solved_genus),
            "disc_criterion": self.disc_criterion,
        }


def wide_open_genus_check(
    infinity: Sequence[Tuple[int, int]],
    degree: int,
    g_source: int,
    g_target: int,
    ram: Iterable[int] = (),
    morphism: Optional[DeltaMorphism] = None,
) -> WideOpenReport:
    """Genus identity for a wide open domain covering.

    ``infinity`` lists the branches at infinity as (n, sdelta) pairs or
    as a :class:`BoundaryAnnotation`; ``ram`` gives the differential
    indices of interior ramification points (a morphism may be passed
    instead, contributing its unbalanced vertices).  Evaluates
    ``2g - 2 - degree*(2g' - 2) = sum R + sum (2n_v - 2 - S_v)`` and
    reports the open-disc criterion: a single branch at infinity with
    slope index zero and no ramification forces genus zero.
    """
    if isinstance(infinity, BoundaryAnnotation):
        infinity = [pair for _, items in infinity.items() for pair in items]
    pairs = [(int(n), int(s)) for n, s in infinity]
    r_values = [int(r) for r in ram]
    if morphism is not None:
        r_values.extend(
            morphism.differential_index(v) for v in morphism.unbalanced_vertices()
        )
    lhs = 2 * g_source - 2 - degree * (2 * g_target - 2)
    slope_indices = [-s + n - 1 for n, s in pairs]
    rhs = sum(r_values) + sum(
        2 * n - 2 - si for (n, _), si in zip(pairs, slope_indices)
    )
    solved = Fraction(
        rhs + 2 + degree * (2 * g_target - 2), 2
    )
    disc = (
        len(pairs) == 1
        and all(si == 0 for si in slope_indices)
        and not r_values
    )
    return WideOpenReport(
        ok=lhs == rhs,
        lhs=lhs,
        rhs=rhs,
        solved_genus=solved,
        disc_criterion=disc,
    )


# -- serialization --------------------------------------------------------------


def morphism_to_json_dict(m: DeltaMorphism) -> dict:
    """JSON form of a morphism; ``delta`` and ``setting`` when metric."""
    data = {
        "source": m.source.to_json_dict(),
        "target": m.target.to_json_dict(),
        "vertex_map": {v: m.vertex_map[v] for v in m.source.vertices},
        "edge_map": {e: m.edge_map[e] for e in m.source.edge_ids},
        "n": {e: m.mult[e] for e in m.source.edge_ids},
        "sdelta": {e: m.sdelta_stored(e) for e in m.source.edge_ids},
    }
    if m.delta is not None:
        data["delta"] = {v: str(d) for v, d in sorted(m.delta.items())}
        data["setting"] = m.setting.describe()
    return data


def morphism_from_json_dict(data: Mapping) -> DeltaMorphism:
    """Parse a morphism file; delta values make it metric."""
    if not isinstance(data, Mapping):
        raise ValueError("morphism is not an object")
    for key in ("source", "target", "vertex_map", "edge_map", "n", "sdelta", "delta"):
        if key in data and not isinstance(data[key], Mapping):
            raise ValueError(f"morphism {key} is not an object")
    m = DeltaMorphism(
        GenusGraph.from_json_dict(data["source"]),
        GenusGraph.from_json_dict(data["target"]),
        data["vertex_map"],
        data["edge_map"],
        _parse_values(data, "n", int, (int, float, str), "a number"),
        _parse_values(data, "sdelta", int, (int, float, str), "a number"),
    )
    delta = setting = None
    if "delta" in data:
        if "setting" not in data:
            raise ValueError("delta values require a residue setting")
        if not isinstance(data["setting"], str):
            raise ValueError(f"morphism setting {data['setting']!r} is not a string")
        setting = ResidueSetting.parse(data["setting"])
        delta = _parse_values(data, "delta", LogAbs.parse, str, "a string")
    return with_delta(m, delta, setting)


def _parse_values(data: Mapping, key: str, parse, kinds, expected: str) -> dict:
    """``parse`` applied to each value of the object ``data[key]``."""
    out = {}
    for k, value in data[key].items():
        if not isinstance(value, kinds):
            raise ValueError(
                f"morphism {key} value of {k!r} is {value!r}, not {expected}"
            )
        out[k] = parse(value)
    return out
