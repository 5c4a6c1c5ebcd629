"""Finite genus graphs, with optional metric data, and divisors.

A genus graph is a finite multigraph (loops and parallel edges allowed)
with a nonnegative genus attached to every vertex; its genus is
``h^1 + sum of vertex genera``.  A graph may carry metric data: a length
in ``(0, inf]`` per edge, where infinite length is reserved for tails
ending in marked genus-zero infinite leaves.  Metric graphs are
instances of :class:`MetricGenusGraph`; every operation reads the metric
fields when they are present.
"""

from __future__ import annotations

from collections.abc import Mapping  # isinstance is 3x faster than on typing's
from fractions import Fraction
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from .valuation import INF, ExtendedRational, Frozen, format_length, parse_length


class DisconnectedError(ValueError):
    pass


class OrientedEdge(NamedTuple):
    """An edge with a direction; ``forward`` follows the stored (from, to)."""

    edge: str
    forward: bool

    def __neg__(self) -> "OrientedEdge":
        return OrientedEdge(self.edge, not self.forward)


class GenusGraph:
    """Immutable multigraph with per-vertex genus and optional lengths.

    ``lengths`` (one per edge) makes the graph metric: an edge has length
    ``inf`` exactly when one of its endpoints is a marked infinite leaf,
    and infinite leaves have genus zero and valence one.  A graph built
    with lengths is a :class:`MetricGenusGraph`.
    """

    def __new__(cls, genera, edges, lengths=None, infinite_leaves=()):
        if cls is GenusGraph and lengths is not None:
            cls = MetricGenusGraph
        return super().__new__(cls)

    def __getnewargs__(self):
        # copy and pickle pass these to __new__, then restore __dict__
        return (self._genus, self._ends, self._lengths)

    def __init__(
        self,
        genera: Mapping[str, int],
        edges: Mapping[str, Tuple[str, str]],
        lengths: Optional[Mapping[str, ExtendedRational]] = None,
        infinite_leaves: Iterable[str] = (),
    ):
        self._genus: Dict[str, int] = {str(v): int(g) for v, g in genera.items()}
        for v, g in self._genus.items():
            if g < 0:
                raise ValueError(f"vertex {v} has negative genus")
        self._ends: Dict[str, Tuple[str, str]] = {}
        for e, (u, v) in edges.items():
            u, v = str(u), str(v)
            if u not in self._genus or v not in self._genus:
                raise ValueError(f"edge {e} has an endpoint outside the vertex set")
            self._ends[str(e)] = (u, v)
        self.vertices: Tuple[str, ...] = tuple(sorted(self._genus))
        self.edge_ids: Tuple[str, ...] = tuple(sorted(self._ends))
        out: Dict[str, list] = {v: [] for v in self.vertices}
        for e in self.edge_ids:
            a, b = self._ends[e]
            out[a].append(OrientedEdge(e, True))
            out[b].append(OrientedEdge(e, False))
        self._branches: Dict[str, Tuple[OrientedEdge, ...]] = {
            v: tuple(bs) for v, bs in out.items()
        }
        self._lengths: Optional[Dict[str, ExtendedRational]] = None
        self.infinite_leaves: frozenset = frozenset(str(v) for v in infinite_leaves)
        if lengths is None:
            if self.infinite_leaves:
                raise ValueError("infinite leaves require edge lengths")
            return
        self._lengths = {}
        for e in self.edge_ids:
            if e not in lengths:
                raise ValueError(f"edge {e} has no length")
            l = lengths[e]
            if l is not INF:
                l = Fraction(l)
                if l <= 0:
                    raise ValueError(f"edge {e} has nonpositive length {l}")
            self._lengths[e] = l
        for v in self.infinite_leaves:
            if v not in self._genus:
                raise ValueError(f"infinite leaf {v} is not a vertex")
            if self.genus_of(v) != 0:
                raise ValueError(f"infinite leaf {v} must have genus 0")
            if not self.is_leaf(v):
                raise ValueError(f"infinite leaf {v} must have valence 1")
        for e in self.edge_ids:
            u, v = self._ends[e]
            is_tail = u in self.infinite_leaves or v in self.infinite_leaves
            if is_tail != (self._lengths[e] is INF):
                raise ValueError(
                    f"edge {e} must have infinite length iff it is a tail"
                )

    # -- basic structure ------------------------------------------------

    def genus_of(self, v: str) -> int:
        return self._genus[v]

    def endpoints(self, e: str) -> Tuple[str, str]:
        return self._ends[e]

    def is_loop(self, e: str) -> bool:
        u, v = self._ends[e]
        return u == v

    def source(self, oe: OrientedEdge) -> str:
        u, v = self._ends[oe.edge]
        return u if oe.forward else v

    def head(self, oe: OrientedEdge) -> str:
        u, v = self._ends[oe.edge]
        return v if oe.forward else u

    def branches(self, v: str) -> Tuple[OrientedEdge, ...]:
        """Oriented edges leaving ``v``; a loop contributes two."""
        return self._branches.get(v, ())

    def valence(self, v: str) -> int:
        return len(self.branches(v))

    def is_leaf(self, v: str) -> bool:
        return self.valence(v) == 1

    def neighbors(self, v: str) -> Tuple[str, ...]:
        return tuple(sorted({self.head(b) for b in self.branches(v)}))

    def is_connected(self) -> bool:
        verts = self.vertices
        if not verts:
            return True
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            v = stack.pop()
            for w in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(verts)

    # -- metric data -----------------------------------------------------

    @property
    def is_metric(self) -> bool:
        return self._lengths is not None

    def length(self, e: str) -> ExtendedRational:
        return self._lengths[e]

    def is_tail(self, e: str) -> bool:
        return self._lengths[e] is INF

    # -- invariants ------------------------------------------------------

    def h1(self) -> int:
        if not self.is_connected():
            raise DisconnectedError("h^1 is defined for connected graphs")
        return len(self._ends) - len(self._genus) + 1

    def genus(self) -> int:
        return self.h1() + sum(self._genus.values())

    def canonical_divisor(self) -> "Divisor":
        return Divisor(
            {v: self.valence(v) + 2 * self.genus_of(v) - 2 for v in self.vertices}
        )

    # -- misc -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GenusGraph):
            return NotImplemented
        return (
            self._genus == other._genus
            and self._ends == other._ends
            and self._lengths == other._lengths
            and self.infinite_leaves == other.infinite_leaves
        )

    def __hash__(self):
        lengths = self._lengths
        if lengths is not None:
            lengths = tuple(sorted(lengths.items()))
        return hash(
            (
                tuple(sorted(self._genus.items())),
                tuple(sorted(self._ends.items())),
                lengths,
                self.infinite_leaves,
            )
        )

    def __repr__(self):
        return (
            f"{type(self).__name__}({len(self._genus)} vertices, "
            f"{len(self._ends)} edges)"
        )

    def to_json_dict(self) -> dict:
        edges = []
        for e in self.edge_ids:
            item = {"id": e, "from": self._ends[e][0], "to": self._ends[e][1]}
            if self.is_metric:
                item["length"] = format_length(self._lengths[e])
            edges.append(item)
        data = {
            "vertices": [
                {"id": v, "genus": self._genus[v]} for v in self.vertices
            ],
            "edges": edges,
        }
        if self.infinite_leaves:
            data["infinite_leaves"] = sorted(self.infinite_leaves)
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "GenusGraph":
        if not isinstance(data, Mapping):
            raise ValueError("graph is not an object")
        for key in ("vertices", "edges"):
            if not isinstance(data[key], list):
                raise ValueError(f"graph {key} is not a list")
            for item in data[key]:
                if not isinstance(item, Mapping):
                    raise ValueError(f"{key} entry {item!r} is not an object")
        infinite_leaves = data.get("infinite_leaves", [])
        if not isinstance(infinite_leaves, list):
            raise ValueError("graph infinite_leaves is not a list")
        genera = {v["id"]: v.get("genus", 0) for v in data["vertices"]}
        edges = {e["id"]: (e["from"], e["to"]) for e in data["edges"]}
        lengths = None
        if any("length" in e for e in data["edges"]) or infinite_leaves:
            lengths = {}
            for e in data["edges"]:
                if not isinstance(e["length"], str):
                    raise ValueError(
                        f"edge {e['id']} length {e['length']!r} is not a string"
                    )
                lengths[e["id"]] = parse_length(e["length"])
        return GenusGraph(genera, edges, lengths, infinite_leaves=infinite_leaves)


class MetricGenusGraph(GenusGraph):
    """A genus graph built with edge lengths."""

    def __init__(
        self,
        genera: Mapping[str, int],
        edges: Mapping[str, Tuple[str, str]],
        lengths: Mapping[str, ExtendedRational],
        infinite_leaves: Iterable[str] = (),
    ):
        super().__init__(genera, edges, lengths, infinite_leaves)


class Divisor(Frozen):
    """Formal integer combination of vertices."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Mapping[str, int]):
        object.__setattr__(
            self,
            "coefficients",
            {str(v): int(c) for v, c in dict(coefficients).items() if c != 0},
        )

    def coefficient(self, v: str) -> int:
        return self.coefficients.get(v, 0)

    def degree(self) -> int:
        return sum(self.coefficients.values())

    def __add__(self, other: "Divisor") -> "Divisor":
        coeffs = dict(self.coefficients)
        for v, c in other.coefficients.items():
            coeffs[v] = coeffs.get(v, 0) + c
        return Divisor(coeffs)

    def __sub__(self, other: "Divisor") -> "Divisor":
        coeffs = dict(self.coefficients)
        for v, c in other.coefficients.items():
            coeffs[v] = coeffs.get(v, 0) - c
        return Divisor(coeffs)

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(tuple(sorted(self.coefficients.items())))

    def __repr__(self):
        if not self.coefficients:
            return "Divisor(0)"
        terms = " + ".join(
            f"{c}*{v}" for v, c in sorted(self.coefficients.items())
        )
        return f"Divisor({terms})"

    def to_json_dict(self) -> dict:
        return {v: c for v, c in sorted(self.coefficients.items())}
