"""Proper edge-weighted graph morphisms with a different-slope datum.

One class, :class:`DeltaMorphism`, holds a graph map with positive
integer multiplicities on edges, locally constant multiplicity at
vertices and constant global rank (the degree), and an oriented integer
function ``sdelta`` on source edges, the slope of the different along
each edge.  It indexes its ``fibers`` (target vertex -> source vertices)
once, for the contraction moves.  Source and target are metric graphs
both or neither; when they are, lengths dilate, ``length(phi(e)) = n_e *
length(e)`` on every source edge, and the core checks that whichever entry
builds the morphism.  A metric morphism may also carry the different
itself: a log-different value ``delta`` per source vertex, in a residue
``setting``.  Such a morphism is a :class:`MetricDeltaMorphism`; every
operation, contraction included, keeps the metric data when present.

Contraction works on one mutable working copy; ``stabilize`` is a
worklist that after a move at ``v'`` re-examines only the target
neighbours of ``v'``.  Legal moves keep ``R_v`` and ``delta`` at every
surviving vertex, so only the final morphism is built and validated.
The valence of ``v'`` fixes the one kind of move it may have (a leaf
move needs valence one, a smoothing two), so only that kind is tried.
A move rule that fails returns the rule and its operands, and only
``contract_graph`` and ``contract_morphism`` format them, when they raise.

The bookkeeping revolves around the differential slope index
``S_e = -sdelta(e) + n_e - 1`` and the per-vertex balance
``R_v = chi(v) - sum of S over branches``; the canonical divisor of the
source then decomposes as ``K = pullback(K') + R + Delta`` and the
degrees give ``2g - 2 = deg * (2g' - 2) + sum R_v``.  The core's sweep
over the edges sums only ``n`` per branch and ``Delta_v = -sum of
sdelta(b)`` over the branches ``b`` at ``v``; its loop over the source
vertices tests local constancy on those branch sums, fills ``fibers`` and
sets ``R_v = chi(v) - Delta_v - sum of n_b + val(v)`` from the same sums,
so ``R`` does not lean on the constancy verdict.

Representation.  Finite ``delta`` values are integer numerators over one
minimal denominator per morphism (``None`` for ``-inf``), like the graph
lengths; every metric check compares integers (dilation as
``l' * D = n * l * D'``, and a tail with a tail by identity, ``INF``), and
``delta``, JSON and messages make ``LogAbs``.
"""

from __future__ import annotations

from collections.abc import Mapping  # isinstance is 3x faster than on typing's
from fractions import Fraction
from itertools import takewhile
from math import gcd
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .annulus import check_restriction
from .genus_graph import Divisor, GenusGraph, OrientedEdge
from .pmfunc import PMFunction
from .valuation import (
    INF, NEG_INF, Frozen, LogAbs, Record, ResidueSetting, as_int, as_ratio, cut, echo,
    json_field, ratio_text, read_ratio, refused, scaled,
)


class NotProperError(ValueError):
    pass


class IllegalMoveError(ValueError):
    pass


def _check_kind(source: GenusGraph, target: GenusGraph) -> None:
    if source.is_metric != target.is_metric:
        raise ValueError("source and target must both be metric or both plain")


class DeltaMorphism:
    """A proper morphism of genus graphs with multiplicities and sdelta.

    Validated on construction: both graphs metric or both plain,
    incidence, connectedness, local constancy of multiplicity (which
    defines ``vertex_mult``), constant global rank (the ``degree``; the
    ``fibers`` index is built here), an sdelta value on every edge and,
    last, when both graphs are metric, dilation on every edge.
    Only the source is searched for connectedness: if every fiber is
    nonempty and covers each branch at its target vertex, the connected
    source maps onto the target, which is connected too; so the target is
    searched only before naming a local-constancy or rank fault.
    The differential indices are computed here too, once: the edge sweep
    sums ``n`` per branch and ``Delta``, and the constancy loop sets
    ``R_v = chi(v) - Delta_v - sum of n_b + val(v)`` and fills ``fibers``.
    ``delta`` and ``setting`` are ``None`` unless the morphism is a
    :class:`MetricDeltaMorphism`.  Only the constructor and the loader
    coerce the four maps; they, the contractions and the shape builder
    enter one validating core, ``_store``, followed on the same object by
    ``_attach_delta`` when there are delta values.  The loader and both
    public constructors then refuse a key that names no source vertex or
    edge (``_known_ids``).
    """

    _delta: Optional[Dict[str, Optional[int]]] = None  # over _delta_den, None for -inf
    _delta_den = 1
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
        _check_kind(source, target)  # before any map is read
        maps = [_as_ids(vertex_map, "vertex_map"), _as_ids(edge_map, "edge_map")]
        for name, given in ("mult", mult), ("sdelta", sdelta):
            maps.append({str(k): as_int(v, name, k) for k, v in given.items()})
        self._store(source, target, *maps)
        _known_ids(self, None, _ARGUMENTS)

    @classmethod
    def _from_normal(
        cls, source, target, vertex_map, edge_map, mult, sdelta, den=1, delta=None, setting=None
    ):
        """The core entry of normal-form data; ``delta`` values (numerators
        over ``den``, None for -inf) make a :class:`MetricDeltaMorphism`."""
        _check_kind(source, target)
        m = object.__new__(cls if delta is None else MetricDeltaMorphism)
        m._store(source, target, vertex_map, edge_map, mult, sdelta)
        if delta is not None:
            m._attach_delta(den, delta, setting)
        return m

    def _store(self, source, target, vertex_map, edge_map, mult, sdelta) -> None:
        """The core past ``_check_kind``: check and keep the normal-form maps."""
        self.source = source
        self.target = target
        self.vertex_map = vmap = vertex_map
        self.edge_map = edge_map
        self.mult = mult
        genus2 = target._genus
        for v in source.vertices:
            if vmap.get(v) not in genus2:
                raise NotProperError(f"vertex {cut(v)} is not mapped to a target vertex")
        # one sweep over the edges checks them, sums n per source vertex and
        # image branch, and adds up Delta_v = -sum of sdelta(b) over the
        # branches b at v; the branch at v runs against e.  A target edge that
        # is not a loop has one branch at each end, so its id keys the branch;
        # a target loop has two at its vertex, keyed (e2, forward): an edge
        # over it maps from->from.  A source loop adds 2n to the sums, 0 to Delta
        sums: Dict[str, dict] = {v: {} for v in source.vertices}
        self._delta_coefficients = d = dict.fromkeys(source.vertices, 0)
        ends, target_ends, missing = source._ends, target._ends, None
        for e in source.edge_ids:
            e2 = edge_map.get(e)
            if e2 not in target_ends:
                raise NotProperError(f"edge {cut(e)} is not mapped to a target edge")
            u, v = ends[e]
            a, b = vmap[u], vmap[v]
            u2, v2 = target_ends[e2]
            if u2 != v2:
                incident = a == u2 and b == v2 or a == v2 and b == u2
                key_u = key_v = e2
            else:
                incident = a == u2 == b
                key_u, key_v = (e2, True), (e2, False)
            if not incident:
                raise NotProperError(f"edge {cut(e)} violates incidence under the map")
            n = mult.get(e, 0)
            if n < 1:
                raise NotProperError(f"edge {cut(e)} needs a positive multiplicity")
            at_u, at_v = sums[u], sums[v]
            at_u[key_u] = at_u.get(key_u, 0) + n
            at_v[key_v] = at_v.get(key_v, 0) + n
            s = sdelta.get(e)
            if s is None:  # raised after the properness checks
                missing = e if missing is None else missing
                continue
            d[u] -= s
            d[v] += s
        if not source.is_connected():
            raise NotProperError("properness requires connected graphs")
        # R_v = chi(v) - sum of S_b = chi(v) - Delta_v - sum of n_b + val(v),
        # chi(v) = 2g - 2 - vertex_mult * (2g' - 2); the n_b are the branch
        # sums the constancy test reads, so R does not lean on its verdict
        self.vertex_mult = vmult = {}
        self._indices = r = {}
        fibers: Dict[str, list] = {v2: [] for v2 in target.vertices}
        ranks = dict.fromkeys(target.vertices, 0)
        genus, branches, branches2 = source._genus, source._branches, target._branches
        for v in source.vertices:
            v2, counts = vmap[v], sums[v]
            # counts has an entry for each branch at v2 that an edge at v
            # covers; every branch needs one, and all the same sum; an
            # isolated fiber point (no branches) has multiplicity one
            totals = counts.values()
            if totals:
                k = max(totals)
                constant = len(counts) == len(branches2[v2]) and min(totals) == k
            else:
                k, constant = 1, not branches2[v2]
            if not constant:
                if not target.is_connected():
                    raise NotProperError("properness requires connected graphs")
                loops = {e2 for e2, (u2, w2) in target_ends.items() if u2 == w2}
                found = {  # the named form only here, for the message
                    OrientedEdge(*b): counts.get(b if b[0] in loops else b[0], 0)
                    for b in branches2[v2]
                }
                raise NotProperError(
                    f"multiplicity is not locally constant at vertex {cut(v)}: {echo(found)}"
                )
            vmult[v] = k
            ranks[v2] += k
            fibers[v2].append(v)
            r[v] = (2 * genus[v] - 2 - k * (2 * genus2[v2] - 2) - d[v] - sum(totals)
                    + len(branches[v]))
        self.fibers = {v2: tuple(vs) for v2, vs in fibers.items()}
        values = set(ranks.values())
        if len(values) != 1 or 0 in values:
            if not target.is_connected():
                raise NotProperError("properness requires connected graphs")
            raise NotProperError(f"global rank is not constant: {echo(ranks)}")
        target._connected = True  # the image of the source (see the class docstring)
        self.degree = values.pop()
        if missing is not None:
            raise ValueError(f"edge {cut(missing)} has no sdelta value")
        self._sdelta = sdelta
        if source._lengths is not None:  # dilation: l(phi(e)) * D = n * l(e) * D'
            lengths, lengths2 = source._lengths, target._lengths
            den, den2 = source._den, target._den
            for e in source.edge_ids:
                l, l2 = lengths[e], lengths2[edge_map[e]]
                if l is INF or l2 is INF:  # a tail dilates only onto a tail
                    if l is l2:
                        continue
                elif l2 * den == mult[e] * l * den2:
                    continue
                raise ValueError(
                    f"dilation fails on edge {cut(e)}: {ratio_text(l2, den2)} != "
                    f"{mult[e]} * {ratio_text(l, den)}"
                )

    def sdelta(self, oe: OrientedEdge) -> int:
        """Slope along the oriented edge, or along a plain ``(edge, forward)``;
        odd under orientation reversal."""
        s = self._sdelta[oe[0]]
        return s if oe[1] else -s

    # -- divisors ----------------------------------------------------------

    def pullback(self, d: Divisor) -> Divisor:
        """``f^* d``; a vertex of ``d`` that is not a target vertex is a ValueError."""
        coefficients, vertices = d.coefficients, self.target._genus
        if not coefficients.keys() <= vertices.keys():
            v = next(v for v in coefficients if v not in vertices)
            raise ValueError(f"divisor vertex {cut(v)} is not a target vertex")
        vmap, get = self.vertex_map, coefficients.get  # vertex_mult is in vertex order
        return Divisor._from_normal(
            {v: c for v, k in self.vertex_mult.items() if (c := get(vmap[v], 0) * k)}
        )

    def __repr__(self):
        return (
            f"{type(self).__name__}(degree {self.degree}: "
            f"{self.source!r} -> {self.target!r})"
        )

    # -- metric data -------------------------------------------------------

    @property
    def delta(self) -> Optional[Dict[str, LogAbs]]:
        """log delta per source vertex, made afresh; None without delta values."""
        d, den = self._delta, self._delta_den
        return None if d is None else {
            v: NEG_INF if x is None else LogAbs(Fraction(x, den)) for v, x in d.items()
        }

    def _attach_delta(self, den: int, delta: Mapping, setting) -> None:
        """Store and validate delta, numerators over ``den`` (None for -inf),
        on a morphism ``_store`` has checked: linearity along finite edges,
        ``delta = |n|`` at infinite leaves and the admissibility of the
        (multiplicity, slope, different) triple at both ends of every edge,
        each distinct triple checked once, with the edges in order."""
        src = self.source
        if not src.is_metric:
            raise ValueError("metric delta-morphisms require metric graphs")
        self.setting = setting
        try:
            raw = {v: delta[v] for v in src.vertices}
        except KeyError:
            v = next(v for v in src.vertices if v not in delta)
            raise ValueError(f"vertex {cut(v)} has no delta value") from None
        g = gcd(den, *[x for x in raw.values() if x is not None])
        if g != 1:
            den //= g
            raw = {v: None if x is None else x // g for v, x in raw.items()}
        self._delta_den, self._delta = den, raw
        leaves = src.infinite_leaves
        for v, x in raw.items():
            if x is not None and x > 0:
                raise ValueError(
                    f"delta at {cut(v)} must be <= 0, got {ratio_text(x, den)}"
                )
            if x is None and v not in leaves:
                raise ValueError(
                    f"delta vanishes at {cut(v)}, which is not an infinite leaf"
                )
        checked = {}  # (n, slope, delta) -> verdict; bounded by the morphism
        mult, ends, sdelta, lengths = self.mult, src._ends, self._sdelta, src._lengths
        for e in src.edge_ids:
            n, (u, v), l, s_uv = mult[e], ends[e], lengths[e], sdelta[e]
            if l is INF:
                leaf, inner, s_out = (v, u, s_uv) if v in leaves else (u, v, -s_uv)
                x, expected = raw[leaf], setting._int_abs_ratio(n)
                if (x is None) != (expected is None) or (
                    x is not None and x * expected[1] != expected[0] * den
                ):
                    raise ValueError(
                        f"delta at infinite leaf {cut(leaf)} must be |{n}| = "
                        f"{setting.int_abs(n)}, got {ratio_text(x, den)}"
                    )
                if s_out > 0:
                    raise ValueError(
                        f"delta would exceed one along the tail {cut(e)}"
                    )
                if s_out == 0 and raw[leaf] != raw[inner]:
                    raise ValueError(
                        f"delta is not constant along the slope-zero tail {cut(e)}"
                    )
                if s_out < 0 and raw[leaf] is not None:
                    raise ValueError(
                        f"delta must vanish at the end of the descending tail {cut(e)}"
                    )
            # both ends are finite: -inf is only at infinite leaves (the vertex
            # loop above), and every edge at one is a tail (GenusGraph._store)
            elif (raw[v] - raw[u]) * src._den != s_uv * l * den:
                raise ValueError(
                    f"delta is not linear along edge {cut(e)}: "
                    f"{ratio_text(raw[v], den)} != {ratio_text(raw[u], den)} + "
                    f"{s_uv} * {ratio_text(l, src._den)}"
                )
            for vert, slope in ((u, s_uv), (v, -s_uv)):
                x = raw[vert]
                verdict = checked.get((n, slope, x))
                if verdict is None:  # an integer is its own value over den 1
                    d = NEG_INF if x is None else x if den == 1 else Fraction(x, den)
                    verdict = checked[n, slope, x] = check_restriction(n, slope, d, setting)
                if not verdict:
                    raise ValueError(
                        f"edge {cut(e)} fails the slope restriction at {cut(vert)}: "
                        f"{verdict.reason}"
                    )

    def delta_profile(self, e: str) -> PMFunction:
        """log delta along edge ``e`` in arc length from its finite end."""
        return self._line(e, 1)

    def _line(self, e: str, sign: int) -> PMFunction:
        """``sign * log delta`` along ``e`` from its finite end, made in integers."""
        (u, v), s, delta = self.source._ends[e], self._sdelta[e], self._delta
        if delta is None:
            raise ValueError("morphism has no delta values")
        if delta[u] is None:
            u, s = v, -s
        if delta[u] is None:
            raise ValueError(f"edge {cut(e)} has no finite endpoint value")
        l, ld, dd = self.source._lengths[e], self.source._den, self._delta_den
        xs = [0] if l is INF else [0, l * dd]  # over ld * dd, reduced by the core
        return PMFunction._from_scaled(ld * dd, xs, [sign * delta[u] * ld], [sign * s])

    # -- indices -----------------------------------------------------------

    def slope_index(self, oe: OrientedEdge) -> int:
        return -self.sdelta(oe) + self.mult[oe[0]] - 1

    def chi(self, v: str) -> int:
        g = self.source.genus_of(v)
        g2 = self.target.genus_of(self.vertex_map[v])
        return 2 * g - 2 - self.vertex_mult[v] * (2 * g2 - 2)

    def differential_index(self, v: str) -> int:
        """``R_v = chi(v) - sum of slope_index`` over the branches at ``v``."""
        return self._indices[v]

    def ramification_divisor(self) -> Divisor:
        return Divisor._from_normal({v: r for v, r in self._indices.items() if r})

    def delta_divisor(self) -> Divisor:
        return Divisor._from_normal({v: d for v, d in self._delta_coefficients.items() if d})

    def unbalanced_vertices(self) -> Tuple[str, ...]:
        return tuple(v for v, r in self._indices.items() if r != 0)

    # -- Riemann-Hurwitz -----------------------------------------------------

    def rh_divisor_identity(self) -> "RHDivisorReport":
        # one sweep in source vertex order (vertex_mult's) fills the four
        # divisors' normal forms and the mismatches; each Divisor is built once
        src, tgt, vmap = self.source, self.target, self.vertex_map
        genus, branches, genus2 = src._genus, src._branches, tgt._genus
        k2 = {v2: len(bs) + 2 * genus2[v2] - 2 for v2, bs in tgt._branches.items()}
        indices, deltas = self._indices, self._delta_coefficients
        k, pk, r, d, mism = {}, {}, {}, {}, []
        for v, m in self.vertex_mult.items():
            kv, pkv = len(branches[v]) + 2 * genus[v] - 2, k2[vmap[v]] * m
            rv, dv = indices[v], deltas[v]
            if kv:
                k[v] = kv
            if pkv:
                pk[v] = pkv
            if rv:
                r[v] = rv
            if dv:
                d[v] = dv
            if kv != pkv + rv + dv:
                mism.append(v)
        new = Divisor._from_normal
        # positional: built on every checked morphism, skips keyword binding
        return RHDivisorReport(not mism, new(k), new(pk), new(r), new(d), tuple(mism))

    def rh_degree_identity(self) -> "RHDegreeReport":
        lhs = 2 * self.source.genus() - 2
        r_sum = sum(self._indices.values())
        rhs = self.degree * (2 * self.target.genus() - 2) + r_sum
        return RHDegreeReport(lhs == rhs, lhs, rhs, self.degree, r_sum)


class RHDivisorReport(Record):
    __slots__ = (
        "ok",
        "canonical",
        "pullback_canonical",
        "ramification",
        "delta",
        "mismatched_vertices",
    )


class RHDegreeReport(Record):
    __slots__ = ("ok", "lhs", "rhs", "degree", "r_sum")


# -- contractions ------------------------------------------------------------


class _WorkingGraph:
    """A mutable copy of a graph's ``_genus`` (also ``vertices``, for ``in``),
    ``_ends`` and ``_branches``, which the move rules read as a GenusGraph's;
    a branch is a plain ``(edge, forward)`` pair, as there."""

    def __init__(self, g: GenusGraph):
        self.vertices = self._genus = dict(g._genus)
        self._ends = dict(g._ends)
        self._branches = {v: list(bs) for v, bs in g._branches.items()}
        self.den, self.lengths = g._den, None if g._lengths is None else dict(g._lengths)
        self.infinite_leaves = g.infinite_leaves

    def head(self, b: Tuple[str, bool]) -> str:
        return self._ends[b[0]][b[1]]

    def contract(self, kind: str, v: str) -> Tuple[str, bool]:
        """Remove the leaf ``v`` or smooth ``v`` (a checked move); return the
        branch at ``v`` along the removed edge, or along the smaller of two merged
        edges, which keeps its id and runs between their far ends; lengths add."""
        del self.vertices[v]
        if kind == "leaf":
            (a,) = (gone,) = self._branches.pop(v)
            self._branches[self.head(a)].remove((a[0], not a[1]))
        else:
            a, gone = sorted(self._branches.pop(v))
            x, y = self.head(a), self.head(gone)
            for w, old, forward in ((x, a, True), (y, gone, False)):
                branches = self._branches[w]
                branches[branches.index((old[0], not old[1]))] = (a[0], forward)
            self._ends[a[0]] = (x, y)
        del self._ends[gone[0]]
        if self.lengths is not None:
            length = self.lengths.pop(gone[0])
            if gone is not a:
                self.lengths[a[0]] += length
        return a

    def reverse(self, e: str) -> None:
        """Swap the stored ends of the edge ``e``; its branches turn with them."""
        x, y = self._ends[e]
        self._ends[e] = (y, x)
        for w in {x, y}:
            self._branches[w] = [(e, not b[1]) if b[0] == e else b for b in self._branches[w]]

    def graph(self) -> GenusGraph:
        leaves = self.infinite_leaves.intersection(self.vertices)
        return GenusGraph._from_normal(
            self._genus, self._ends, self.den, self.lengths, leaves
        )


class _WorkingMorphism:
    """A mutable copy of a morphism that the move rules read like a DeltaMorphism;
    fibers, multiplicities, indices and delta are read off the original."""

    sdelta = DeltaMorphism.sdelta

    def __init__(self, m: DeltaMorphism):
        self.original = m
        self.degree, self.fibers, self.mult = m.degree, m.fibers, m.mult
        self.differential_index = m.differential_index
        self.source, self.target = _WorkingGraph(m.source), _WorkingGraph(m.target)
        self.edge_map, self._sdelta = dict(m.edge_map), dict(m._sdelta)

    def contract(self, kind: str, v2: str) -> None:
        merged = self.target.contract(kind, v2)
        for v in self.fibers[v2]:
            a = self.source.contract(kind, v)
            if kind == "smooth":  # a's edge is the merged one, from a's far end
                e, e2 = a[0], merged[0]
                s = self.sdelta((e, not a[1]))
                x2, y2 = self.target._ends[e2]
                if x2 == y2 and self.edge_map[e] != e2:
                    # a loop maps slot to slot, so run along the kept target edge
                    self.source.reverse(e)
                    s = -s
                self.edge_map[e] = e2
                self._sdelta[e] = s

    def result(self) -> DeltaMorphism:
        """The contracted morphism, built and validated once, on the copy's own dicts."""
        m, vertices, edges = self.original, self.source._genus, self.source._ends
        return DeltaMorphism._from_normal(
            self.source.graph(),
            self.target.graph(),
            {v: m.vertex_map[v] for v in vertices},
            {e: self.edge_map[e] for e in edges},
            {e: m.mult[e] for e in edges},
            {e: self._sdelta[e] for e in edges},
            m._delta_den,
            None if m._delta is None else {v: m._delta[v] for v in vertices},
            m.setting,
        )


def contract_graph(g: GenusGraph, move: Tuple[str, str]) -> GenusGraph:
    """Apply a contraction move to a genus graph.

    ``move`` is ``("leaf", v)`` (remove a genus-zero leaf and its edge)
    or ``("smooth", v)`` (remove a genus-zero valence-two vertex,
    merging its two edges; lengths add in the metric case).
    """
    kind, v = move
    failed = _vertex_obstruction(g, kind, v, "vertex")
    if failed:
        raise IllegalMoveError(_reason(*failed))
    work = _WorkingGraph(g)
    work.contract(kind, v)
    return work.graph()


def _reason(rule: str, noun: Optional[str], v, x) -> str:
    """The message of a failed move rule, formatted only by a caller that
    raises.  A rule returns ``(rule, noun, v, x)``: its message template, the
    noun naming the vertex, the vertex (shown cut) and one more operand or
    None (shown as given, or as the id ``w``, cut)."""
    return rule.format(noun=noun, v=cut(str(v)), x=x, w=cut(x) if type(x) is str else x)


def _vertex_obstruction(g, kind: str, v: str, noun: str) -> Optional[tuple]:
    """The rule by which ``g`` admits no ``kind`` move at ``v`` (named ``noun``),
    with its operands (``_reason``); None when there is a move.

    The graph rules, shared by graph, target and fiber vertices (of a
    working copy, too).  An infinite leaf whose neighbour is removed would
    be left at valence 0.
    """
    if kind not in ("leaf", "smooth"):
        return "unknown move kind {x!r}", None, None, kind
    if v not in g.vertices:
        return "no {noun} {v}", noun, v, None
    if g._genus[v] != 0:
        return "{noun} {v} has positive genus", noun, v, None
    branches = g._branches[v]
    if kind == "leaf":
        if len(branches) != 1:
            return "{noun} {v} is not a leaf", noun, v, None
        w = g.head(branches[0])
        if w in g.infinite_leaves:
            return "removing leaf {v} would isolate the infinite leaf {w}", noun, v, w
    else:
        if len(branches) != 2:
            return "{noun} {v} does not have valence 2", noun, v, None
        if branches[0][0] == branches[1][0]:
            return "{noun} {v} is a loop vertex", noun, v, None
    return None


def _move_obstruction(m, kind: str, v2: str) -> Optional[tuple]:
    """The rule by which ``m`` admits no ``kind`` move at the target vertex
    ``v2``, with its operands (``_reason``); None when there is a move.

    The graph rules on ``v2`` and on each fiber vertex, then the morphism
    rules; ``m`` may be a working copy.
    """
    failed = _vertex_obstruction(m.target, kind, v2, "target vertex")
    if failed:
        return failed
    if kind == "leaf" and len(m.target._ends) == 1 and m.degree > 1:
        # collapsing the target to a point leaves the fiber
        # multiplicities of a degree > 1 morphism undetermined
        return "cannot contract the last target edge at degree > 1", None, None, None
    for v in m.fibers[v2]:
        failed = _vertex_obstruction(m.source, kind, v, "fiber vertex")
        if failed:
            return failed
        # a smoothed fiber vertex has one edge over each target branch, both of
        # multiplicity vertex_mult; R_v = sdelta(b1) + sdelta(b2) = 0 is continuity
        r = m.differential_index(v)
        if r != 0:
            return "fiber vertex {v} has R = {x} != 0", None, v, r
    return None


def contract_morphism(m: DeltaMorphism, move: Tuple[str, str]) -> DeltaMorphism:
    """Apply a contraction move, specified by a target vertex.

    ``("leaf", v')`` removes the target leaf ``v'`` and its whole fiber
    of leaves; ``("smooth", v')`` removes the valence-two target vertex
    ``v'`` and its fiber of valence-two vertices, merging edges upstairs
    and downstairs.  All of them need genus zero, and the fiber ``R = 0``;
    an illegal move raises ``IllegalMoveError`` naming the broken rule.
    Lengths add on merged edges, and surviving vertices keep their delta.
    """
    kind, v2 = move
    failed = _move_obstruction(m, kind, v2)
    if failed:
        raise IllegalMoveError(_reason(*failed))
    work = _WorkingMorphism(m)
    work.contract(kind, v2)
    return work.result()


_KINDS = {1: "leaf", 2: "smooth"}


def _legal_kind(m, v2: str) -> Optional[str]:
    """The kind of the legal move at ``v2``, if any; its valence fixes it (``_KINDS``)."""
    kind = _KINDS.get(len(m.target._branches[v2]))
    return kind if kind and _move_obstruction(m, kind, v2) is None else None


def _legal_moves(m: DeltaMorphism) -> Iterator[Tuple[str, str]]:
    for v2 in m.target.vertices:
        kind = _legal_kind(m, v2)
        if kind:
            yield kind, v2


def applicable_moves(m: DeltaMorphism) -> Tuple[Tuple[str, str], ...]:
    return tuple(_legal_moves(m))


def stabilize(m: DeltaMorphism) -> DeltaMorphism:
    """Contract until no move applies; the result is stable.

    Target vertices are examined smallest first, leaf before smoothing,
    so the moves are those of taking the first of ``applicable_moves``.
    """
    first = next(_legal_moves(m), None)
    if first is None:
        return m
    work = _WorkingMorphism(m)
    kind, v2 = first  # legal on the copy too: it holds the same data
    pending = {w for w in m.target.vertices if w > v2}
    while True:
        if kind:
            pending |= {work.target.head(b) for b in work.target._branches[v2]}
            work.contract(kind, v2)
        if not pending:
            return work.result()
        v2 = min(pending)
        pending.remove(v2)
        kind = _legal_kind(work, v2)


def is_stable(m: DeltaMorphism) -> bool:
    """Whether no move applies; stops at the first legal move."""
    return next(_legal_moves(m), None) is None


# -- metric delta-morphisms ---------------------------------------------------


class MetricDeltaMorphism(DeltaMorphism):
    """A delta-morphism of metric genus graphs with different values.

    The core checks the graphs and maps of ``morphism`` on this object,
    dilation included as for every metric pair, then validates ``delta``
    against them (see ``DeltaMorphism._attach_delta``).
    """

    def __init__(
        self,
        morphism: DeltaMorphism,
        delta: Mapping[str, LogAbs],
        setting: ResidueSetting,
    ):
        source, target = morphism.source, morphism.target
        _check_kind(source, target)
        self._store(
            source, target, morphism.vertex_map, morphism.edge_map, morphism.mult,
            morphism._sdelta,
        )
        ratios = {}  # in the core's order, up to the first vertex it misses
        for v in takewhile(delta.__contains__, source.vertices if source.is_metric else ()):
            ratios[v] = as_ratio(delta[v], "delta", v, "a rational or -inf", "-inf")
        self._attach_delta(*scaled(ratios, None), setting)
        _known_ids(self, delta, _ARGUMENTS)

    @property
    def morphism(self) -> "MetricDeltaMorphism":
        return self


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
            pairs = tuple(
                (as_int(n, "off-graph n", v), as_int(s, "off-graph sdelta", v)) for n, s in items
            )
            for n, _ in pairs:
                if n < 1:
                    raise ValueError(f"off-graph branch at {cut(str(v))} needs n >= 1")
            data[str(v)] = pairs
        super().__init__(data)


class CertifyReport(Frozen):
    # violations: (vertex, branch index, n, sdelta, slope index) per failing branch
    __slots__ = ("ok", "violations")

    def to_json_dict(self) -> dict:
        keys = ("vertex", "branch", "n", "sdelta", "slope_index")
        violations = [dict(zip(keys, v)) for v in self.violations]
        return {"ok": self.ok, "violations": violations}


def certify_skeleton(
    m: DeltaMorphism, boundary: BoundaryAnnotation, ram_in_vertices: bool
) -> CertifyReport:
    """Local trivialization test for a subgraph to be a skeleton.

    Passes iff the ramification locus sits in the vertices and every
    annotated off-graph branch has slope index ``-sdelta + n - 1 = 0``.
    """
    violations = []
    for v, pairs in sorted(boundary.branches.items()):
        if v not in m.source._genus:
            raise ValueError(f"annotation mentions unknown vertex {cut(v)}")
        for i, (n, s) in enumerate(pairs):
            index = -s + n - 1
            if index != 0:
                violations.append((v, i, n, s, index))
    ok = ram_in_vertices and not violations
    return CertifyReport(ok=ok, violations=tuple(violations))


class WideOpenReport(Record):
    __slots__ = ("ok", "lhs", "rhs", "solved_genus", "disc_criterion")


def wide_open_genus_check(
    infinity: Sequence[Tuple[int, int]],
    degree: int,
    g_source: int,
    g_target: int,
    ram: Iterable[int] = (),
) -> WideOpenReport:
    """Genus identity for a wide open domain covering.

    ``infinity`` lists the branches at infinity as (n, sdelta) pairs or
    as a :class:`BoundaryAnnotation`; ``ram`` gives the differential
    indices of interior ramification points.  Evaluates
    ``2g - 2 - degree*(2g' - 2) = sum R + sum (2n_v - 2 - S_v)`` and
    reports the open-disc criterion: a single branch at infinity with
    slope index zero and no ramification forces genus zero.
    """
    if isinstance(infinity, BoundaryAnnotation):
        infinity = [pair for _, items in infinity.branches.items() for pair in items]
    pairs = [
        (as_int(n, "infinity n", f"branch {k}"), as_int(s, "infinity sdelta", f"branch {k}"))
        for k, (n, s) in enumerate(infinity)
    ]
    for k, (n, _) in enumerate(pairs):
        if n < 1:
            raise ValueError(f"branch {k} at infinity needs n >= 1")
    r_values = [as_int(r, "ram", f"point {k}") for k, r in enumerate(ram)]
    degree, g_source, g_target = (
        as_int(degree, "degree"), as_int(g_source, "g_source"), as_int(g_target, "g_target")
    )
    lhs = 2 * g_source - 2 - degree * (2 * g_target - 2)
    slope_indices = [-s + n - 1 for n, s in pairs]
    rhs = sum(r_values) + sum(2 * n - 2 - si for (n, _), si in zip(pairs, slope_indices))
    solved = Fraction(rhs + 2 + degree * (2 * g_target - 2), 2)
    disc = slope_indices == [0] and not r_values
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
        "sdelta": {e: m._sdelta[e] for e in m.source.edge_ids},
    }
    if m._delta is not None:
        den = m._delta_den
        data["delta"] = {v: ratio_text(x, den) for v, x in sorted(m._delta.items())}
        data["setting"] = m.setting.describe()
    return data


def morphism_from_json_dict(data: Mapping) -> DeltaMorphism:
    """Parse a morphism file; delta values make it metric.  An entry whose
    key names no source vertex or edge is an error, checked last."""
    if type(data) is not dict and not isinstance(data, Mapping):
        raise ValueError("morphism is not an object")
    for key in ("source", "target", "vertex_map", "edge_map", "n", "sdelta", "delta"):
        value = data.get(key, {})
        if type(value) is not dict and not isinstance(value, Mapping):
            raise ValueError(f"morphism {key} is not an object")
    load = GenusGraph.from_json_dict
    source = load(json_field(data, "source", "morphism"), "source graph")
    target = load(json_field(data, "target", "morphism"), "target graph")
    # the class first, so the core's faults come before those of setting and delta
    m = (MetricDeltaMorphism if "delta" in data else DeltaMorphism)._from_normal(
        source,
        target,
        _as_ids(json_field(data, "vertex_map", "morphism"), "morphism vertex_map"),
        _as_ids(json_field(data, "edge_map", "morphism"), "morphism edge_map"),
        _parse_ints(data, "n"),
        _parse_ints(data, "sdelta"),
    )
    delta = None
    if "delta" in data:
        if "setting" not in data:
            raise ValueError("delta values require a residue setting")
        if not isinstance(data["setting"], str):
            raise ValueError(f"morphism setting {echo(data['setting'])} is not a string")
        setting = ResidueSetting.parse(data["setting"])
        delta, fault = {}, "morphism delta value of {key} is {value}, not a rational or -inf"
        for k, text in json_field(data, "delta", "morphism").items():
            if not isinstance(text, str):
                raise refused(text, "morphism delta", k, "a string")
            delta[str(k)] = read_ratio(text, "-inf", fault, k)
        m._attach_delta(*scaled(delta, None), setting)
    _known_ids(m, delta, _ENTRIES)
    return m


#: How the constructors' arguments and the loader's entries name the
#: vertex_map, edge_map, multiplicities, sdelta and delta.
_ARGUMENTS = ("vertex_map", "edge_map", "mult", "sdelta", "delta")
_ENTRIES = tuple(f"morphism {key}" for key in ("vertex_map", "edge_map", "n", "sdelta", "delta"))


def _known_ids(m: DeltaMorphism, delta: Optional[Mapping], names: Sequence[str]) -> None:
    """Refuse a map key that names no source vertex or edge: the check that
    the loader and the public constructors make last.  Every source id has
    an entry by now, so a longer map names an id the source lacks.  ``delta``
    is the mapping given (None without one); ``names`` name the five maps."""
    vertices, edges = m.source._genus, m.source._ends
    given = m.vertex_map, m.edge_map, m.mult, m._sdelta, delta
    for name, keys, ids in zip(names, given, (vertices, edges, edges, edges, vertices)):
        if keys is not None and len(keys) != len(ids):
            unknown = next(k for k in keys if k not in ids)
            kind = "vertex" if ids is vertices else "edge"
            raise ValueError(f"{name} names unknown {kind} {echo(unknown)}")


def _as_ids(given: Mapping, entry: str) -> Dict[str, str]:
    """``given`` keyed by str, each value an id: a string or an integer."""
    out = {}
    for k, v in given.items():
        if type(v) is not str:
            if type(v) is not int:
                raise refused(v, entry, k, "a string or an integer")
            v = str(v)
        out[k if type(k) is str else str(k)] = v
    return out


def _parse_ints(data: Mapping, key: str) -> dict:
    """The integers of the object ``data[key]`` (numbers or their text), keyed by str."""
    out = {}
    for k, value in json_field(data, key, "morphism").items():
        if type(value) is int and type(k) is str:  # an exact int needs no int()
            out[k] = value
            continue
        if not isinstance(value, (int, float, str)):
            raise refused(value, f"morphism {key}", k, "a number")
        out[str(k)] = as_int(value, f"morphism {key}", k)
    return out
