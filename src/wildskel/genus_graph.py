"""Finite genus graphs, with optional metric data, and divisors.

A genus graph is a finite multigraph (loops and parallel edges allowed)
with a nonnegative genus attached to every vertex; its genus is
``h^1 + sum of vertex genera``.  A graph may carry metric data: a length
in ``(0, inf]`` per edge, where infinite length is reserved for tails
ending in marked genus-zero infinite leaves.  Metric graphs are
instances of :class:`MetricGenusGraph`; every operation reads the metric
fields when they are present.  Graphs are the sources and targets of the
one morphism class, ``delta_morphism.DeltaMorphism``, which indexes the
``fibers`` over target vertices.  In JSON, ids (of entries, edge ends and
infinite leaves) are strings or integers and a genus is an integer; every
id is keyed by its ``str()``, so ``1`` beside ``"1"`` is an error.  Only the
public constructors and the loaders coerce (ids to ``str``, numbers to
``int``), refusing a float or a bool for an id, a genus or a length; they
and the library's own constructions enter one validating core with ``str``
ids, ``int`` values and plain dicts, which it keeps.  The loader walks each
list once, yet raises faults in stage order (entries and ids, the
``infinite_leaves`` type and entries, genera, endpoints, lengths, the
core's checks, repeated ids): a later stage's only once the earlier pass.
The core checks the lengths in one pass over the edges, and the fault of
the tail rule it finds there waits until the infinite leaves are checked.

Representation.  Lengths are integer numerators over one minimal
denominator per graph (``INF`` for a tail, which every check tests by
identity), as a ``PMFunction`` stores its values; :meth:`GenusGraph.length`
makes the Fraction a caller reads.  A divisor keeps only its nonzero
coefficients, keyed by vertex id in sorted order, so
``Divisor.coefficients`` iterates in that order and the JSON form, the
repr and the hash read it without sorting; equality is that of the dicts,
as before.  A branch is stored as the plain pair ``(edge, forward)``, each
vertex's in edge-id order, and every reader inside the library takes that
pair; :class:`OrientedEdge` is the public named form, which
:meth:`GenusGraph.branches` makes and which equals and hashes like the pair.
"""

from __future__ import annotations

from collections.abc import Mapping  # isinstance is 3x faster than on typing's
from fractions import Fraction
from itertools import takewhile
from math import gcd
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from .valuation import (
    INF, ExtendedRational, Frozen, as_int, as_ratio, cut, echo, json_field, json_list, ratio_text,
    read_ratio, scaled,
)


class DisconnectedError(ValueError):
    pass


def as_id(value, entry: str) -> str:
    """An id: a string, or an integer through ``str()``; anything else, a
    bool or a float included, is a ValueError naming ``entry``."""
    if type(value) is str:
        return value
    if type(value) is not int:
        raise ValueError(f"{entry} {echo(value)} is not a string or an integer")
    return str(value)


class OrientedEdge(NamedTuple):
    """An edge with a direction; ``forward`` follows the stored (from, to).

    The public named form of a branch.  A graph stores its branches as plain
    ``(edge, forward)`` pairs, which an OrientedEdge equals and hashes like,
    and makes this form only where a caller reads one (``branches``)."""

    edge: str
    forward: bool


def _repeated_id(entry: str, kind: str, ids: Iterable) -> None:
    """Raise the error for two ``ids`` that are equal after ``str()``."""
    ids = list(map(str, ids))
    ident = next(i for n, i in enumerate(ids) if i in ids[:n])
    raise ValueError(f"{entry} repeats {kind} id {echo(ident)}")


def _check_ends(genus: Mapping[str, int], ends: Iterable) -> None:
    """Every genus nonnegative and both ends of each ``(e, (u, v))`` vertices."""
    for v, g in genus.items():
        if g < 0:
            raise ValueError(f"vertex {cut(v)} has negative genus")
    for e, (u, v) in ends:
        if u not in genus or v not in genus:
            raise ValueError(f"edge {cut(e)} has an endpoint outside the vertex set")


class GenusGraph:
    """Immutable multigraph with per-vertex genus and optional lengths.

    ``lengths`` (one per edge) makes the graph metric: an edge has length
    ``inf`` exactly when one of its endpoints is a marked infinite leaf,
    and infinite leaves have genus zero and valence one.  A graph built
    with lengths is a :class:`MetricGenusGraph`.
    """

    def __new__(cls, genera=None, edges=None, lengths=None, infinite_leaves=()):
        # copy and pickle call this with no arguments, then restore __dict__
        if cls is GenusGraph and lengths is not None:
            cls = MetricGenusGraph
        return super().__new__(cls)

    def __init__(
        self,
        genera: Mapping[str, int],
        edges: Mapping[str, Tuple[str, str]],
        lengths: Optional[Mapping[str, ExtendedRational]] = None,
        infinite_leaves: Iterable[str] = (),
    ):
        genus = {str(v): as_int(g, "genera", v) for v, g in genera.items()}
        if len(genus) != len(genera):
            _repeated_id("graph", "vertex", genera)
        ends = {str(e): _edge_ends(e, u, v) for e, (u, v) in edges.items()}
        if len(ends) != len(edges):
            # the checks before this one also see the entries a repeat hides
            _check_ends(genus, ((e, _edge_ends(e, u, v)) for e, (u, v) in edges.items()))
            _repeated_id("graph", "edge", edges)
        ratios = {}  # in the core's order, up to the first length it rejects
        for e in takewhile((lengths or {}).__contains__, sorted(ends)):
            ratios[e] = l = as_ratio(lengths[e], "lengths", e, "a rational or inf", "inf")
            if l is not INF and l[0] <= 0:
                break
        den, lengths = scaled(ratios, INF) if lengths is not None else (1, None)
        leaves = [as_id(v, "graph infinite_leaves entry") for v in infinite_leaves]
        self._store(genus, ends, den, lengths, leaves)

    @classmethod
    def _from_normal(cls, genus, ends, den, lengths, infinite_leaves) -> "GenusGraph":
        g = cls.__new__(cls, lengths=lengths)
        g._store(genus, ends, den, lengths, infinite_leaves)
        return g

    def _store(self, genus, ends, den, lengths, infinite_leaves) -> None:
        """The core: all checks but repeated ids; it keeps ``genus`` and ``ends``,
        and ``lengths`` when ``den`` is already minimal."""
        self._genus: Dict[str, int] = genus
        self._ends: Dict[str, Tuple[str, str]] = ends
        self.vertices: Tuple[str, ...] = tuple(sorted(genus))
        self.edge_ids: Tuple[str, ...] = tuple(sorted(ends))
        if min(genus.values(), default=0) < 0:
            _check_ends(genus, ends.items())  # raises the first fault in order
        out: Dict[str, list] = {v: [] for v in self.vertices}
        try:
            for e in self.edge_ids:
                a, b = ends[e]
                out[a].append((e, True))
                out[b].append((e, False))
        except KeyError:  # an end outside the vertex set
            _check_ends(genus, ends.items())
        # plain (edge, forward) pairs, in edge-id order; branches() names them
        self._branches: Dict[str, Tuple[Tuple[str, bool], ...]] = {
            v: tuple(bs) for v, bs in out.items()
        }
        self._connected: Optional[bool] = None  # set by is_connected, once
        self._lengths, self._den = None, 1  # numerators over _den, INF for a tail
        self.infinite_leaves: frozenset = frozenset(infinite_leaves)
        leaves = self.infinite_leaves
        if lengths is None:
            if leaves:
                raise ValueError("infinite leaves require edge lengths")
            return
        # one pass raises a missing or nonpositive length in edge order and
        # keeps the first edge that breaks the tail rule for after the leaves
        not_tail = None
        for e in self.edge_ids:
            l = lengths.get(e)
            if l is None:
                raise ValueError(f"edge {cut(e)} has no length")
            if l is INF:
                if not_tail is None:
                    u, v = ends[e]
                    if u not in leaves and v not in leaves:
                        not_tail = e
            elif l <= 0:
                raise ValueError(
                    f"edge {cut(e)} has nonpositive length {ratio_text(l, den)}"
                )
            elif not_tail is None:
                u, v = ends[e]
                if u in leaves or v in leaves:
                    not_tail = e
        g = gcd(den, *[l for l in lengths.values() if l is not INF])
        self._den = den // g
        self._lengths = lengths if g == 1 else {
            e: l if l is INF else l // g for e, l in lengths.items()
        }
        for v in leaves:
            if v not in genus:
                raise ValueError(f"infinite leaf {cut(v)} is not a vertex")
            if genus[v] != 0:
                raise ValueError(f"infinite leaf {cut(v)} must have genus 0")
            if len(self.branches(v)) != 1:  # benchmark/test_benchmark.py counts it
                raise ValueError(f"infinite leaf {cut(v)} must have valence 1")
        if not_tail is not None:
            raise ValueError(
                f"edge {cut(not_tail)} must have infinite length iff it is a tail"
            )

    # -- basic structure ------------------------------------------------

    def genus_of(self, v: str) -> int:
        return self._genus[v]

    def endpoints(self, e: str) -> Tuple[str, str]:
        return self._ends[e]

    def head(self, oe: OrientedEdge) -> str:
        """The vertex ``oe`` runs into; ``oe`` may be a plain ``(edge, forward)``."""
        u, v = self._ends[oe[0]]
        return v if oe[1] else u

    def branches(self, v: str) -> Tuple[OrientedEdge, ...]:
        """Oriented edges leaving ``v``, made from the stored pairs; a loop
        contributes two, and a vertex the graph lacks none."""
        new = tuple.__new__  # skips the namedtuple's Python-level __new__
        return tuple([new(OrientedEdge, b) for b in self._branches.get(v, ())])

    def valence(self, v: str) -> int:
        return len(self._branches.get(v, ()))

    def is_connected(self) -> bool:
        if self._connected is None:
            ends, seen = self._ends, set(self.vertices[:1])
            stack = list(seen)
            while stack:
                for e, forward in self._branches[stack.pop()]:
                    w = ends[e][forward]  # the head: "to" when forward
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            self._connected = len(seen) == len(self.vertices)
        return self._connected

    # -- metric data -----------------------------------------------------

    @property
    def is_metric(self) -> bool:
        return self._lengths is not None

    def length(self, e: str) -> ExtendedRational:
        l = self._lengths[e]
        return l if l is INF else Fraction(l, self._den)

    # -- invariants ------------------------------------------------------

    def h1(self) -> int:
        if not self.is_connected():
            raise DisconnectedError("h^1 is defined for connected graphs")
        return len(self._ends) - len(self._genus) + 1

    def genus(self) -> int:
        return self.h1() + sum(self._genus.values())

    def canonical_divisor(self) -> "Divisor":
        """``K_v = valence + 2g - 2``; ``_branches`` is in vertex order."""
        genus = self._genus
        return Divisor._from_normal(
            {v: k for v, bs in self._branches.items() if (k := len(bs) + 2 * genus[v] - 2)}
        )

    # -- misc -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GenusGraph):
            return NotImplemented
        return (
            self._genus == other._genus
            and self._ends == other._ends
            and self._lengths == other._lengths
            and self._den == other._den
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
                self._den,
                self.infinite_leaves,
            )
        )

    def __repr__(self):
        return (
            f"{type(self).__name__}({len(self._genus)} vertices, "
            f"{len(self._ends)} edges)"
        )

    def to_json_dict(self) -> dict:
        edges, ends, lengths = [], self._ends, self._lengths
        for e in self.edge_ids:
            item = {"id": e, "from": ends[e][0], "to": ends[e][1]}
            if lengths is not None:
                item["length"] = ratio_text(lengths[e], self._den)
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
    def from_json_dict(cls, data: Mapping, entry: str = "graph") -> "GenusGraph":
        """Parse a graph; errors name it ``entry``, e.g. ``source graph``."""
        if type(data) is not dict and not isinstance(data, Mapping):
            raise ValueError(f"{entry} is not an object")
        # one walk per list; the stages keep their order (entries and ids,
        # the infinite_leaves type, genera, endpoints, lengths), so the first
        # fault of a later stage is raised only once the earlier ones pass
        vertices, genera, bad_genus = json_list(data, "vertices", entry), {}, None
        for item in vertices:
            v = item.get("id") if type(item) is dict else None
            if type(v) is not str:
                v = _entry_id(item, "vertices")
            g = genera[v] = item.get("genus", 0)
            if type(g) is not int and bad_genus is None:  # not a float, not a bool
                bad_genus = f"vertex {cut(v)} genus {echo(g)} is not an integer"
        edges, lengths, metric = json_list(data, "edges", entry), {}, False
        ends, bad_ends, bad_length = {}, None, None
        for item in edges:
            e = item.get("id") if type(item) is dict else None
            if type(e) is not str:
                e = _entry_id(item, "edges")
            try:
                u, v = item["from"], item["to"]
            except KeyError:  # named below
                u = v = None
            if type(u) is str and type(v) is str:
                ends[e] = u, v
            elif bad_ends is None:
                try:
                    ends[e] = _json_ends(item, e)
                except ValueError:
                    bad_ends = item, e
            if "length" in item:  # a missing one is a fault once the graph is metric
                metric = True
                try:
                    lengths[e] = _parse_length(item["length"], e)
                except ValueError:
                    bad_length = bad_length or (item, e)
            elif bad_length is None:
                bad_length = item, e
        infinite_leaves = data.get("infinite_leaves", [])
        if not isinstance(infinite_leaves, list):
            raise ValueError(f"{entry} infinite_leaves is not a list")
        leaves = [as_id(v, f"{entry} infinite_leaves entry") for v in infinite_leaves]
        if bad_genus is not None:
            raise ValueError(bad_genus)
        if bad_ends is not None:
            _json_ends(*bad_ends)  # raises as it did in the walk
        metric = metric or bool(infinite_leaves)
        if metric and bad_length is not None:
            item, e = bad_length
            _parse_length(json_field(item, "length", f"edge {cut(e)}"), e)  # raises
        lengths = scaled(lengths, INF) if metric else (1, None)
        g = GenusGraph._from_normal(genera, ends, *lengths, leaves)
        # keyed by str(), a repeated id, also 1 beside "1", keeps only the
        # last entry and leaves fewer vertices or edges
        for kind, kept, items in ("vertex", genera, vertices), ("edge", ends, edges):
            if len(kept) != len(items):
                _repeated_id(entry, kind, [item["id"] for item in items])
        return g


def _entry_id(item, key: str) -> str:
    """The id of a ``key`` entry, which must be an object with an ``id``."""
    if type(item) is not dict and not isinstance(item, Mapping):
        raise ValueError(f"{key} entry {echo(item)} is not an object")
    if "id" not in item:
        raise ValueError(f"{key} entry {echo(item)} lacks key 'id'")
    return as_id(item["id"], f"{key} entry id")


def _edge_ends(e, u, v) -> Tuple[str, str]:
    """The ends ``u`` (from) and ``v`` (to) of the edge ``e`` as ids."""
    if type(u) is str and type(v) is str:
        return u, v
    name = f"edge {cut(str(e))}"
    return as_id(u, f"{name} from"), as_id(v, f"{name} to")


def _json_ends(item: Mapping, e: str) -> Tuple[str, str]:
    """The ends of the edge entry ``item``, whose id is ``e``."""
    name = f"edge {cut(e)}"  # json_field names the missing key
    return _edge_ends(e, json_field(item, "from", name), json_field(item, "to", name))


def _parse_length(length, e: str):
    """The length text of edge ``e`` as a reduced pair, or INF."""
    if not isinstance(length, str):
        raise ValueError(f"edge {cut(e)} length {echo(length)} is not a string")
    return read_ratio(length, "inf", "edge {id} length {value} is not a rational or inf", e)


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
    """Formal integer combination of vertices, zeros dropped; a coefficient
    that is not an ``int`` or two ids equal after ``str()`` are a ValueError.

    ``coefficients`` is the normal form: a ``str -> int`` dict with no zeros
    and its keys in sorted order, so the JSON form, the repr and the hash
    read it as it is."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Mapping[str, int]):
        given, coeffs = dict(coefficients), {}
        for v, c in given.items():
            if type(c) is not int:  # int() would truncate a float, take a bool or a str
                raise ValueError(
                    f"divisor coefficient of vertex {cut(str(v))} is {echo(c)}, not an integer"
                )
            coeffs[str(v)] = c
        if len(coeffs) != len(given):
            _repeated_id("divisor", "vertex", given)
        super().__init__({v: c for v, c in sorted(coeffs.items()) if c})

    @classmethod
    def _from_normal(cls, coefficients: Dict[str, int]) -> "Divisor":
        """The divisor of a dict in normal form, which it keeps; nothing is checked."""
        d = cls.__new__(cls)
        cls._setters[0](d, coefficients)  # the one field
        return d

    def coefficient(self, v) -> int:
        """The coefficient of ``v``, an id as the constructor reads one."""
        return self.coefficients.get(as_id(v, "divisor vertex"), 0)

    def degree(self) -> int:
        return sum(self.coefficients.values())

    def __add__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        coeffs = dict(self.coefficients)
        for v, c in other.coefficients.items():
            coeffs[v] = coeffs.get(v, 0) + c
        return Divisor._from_normal({v: c for v, c in sorted(coeffs.items()) if c})

    def __sub__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        return self + Divisor._from_normal({v: -c for v, c in other.coefficients.items()})

    def __hash__(self):
        return hash(tuple(self.coefficients.items()))

    def __repr__(self):
        if not self.coefficients:
            return "Divisor(0)"
        terms = " + ".join(f"{c}*{v}" for v, c in self.coefficients.items())
        return f"Divisor({terms})"

    def to_json_dict(self) -> dict:
        return dict(self.coefficients)
