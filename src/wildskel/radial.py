"""Radial sets: the topological ramification locus of degree-p covers.

For a degree-``p`` cover the locus is a radial set around the wild part
of the skeleton: from each point ``x`` of the center, intervals of
length ``-log delta(x) / (p - 1)`` hang downward.  The description is
kept intensional: the center graph plus the radius as an exact
piecewise linear function per edge.  The radial set can be strictly
smaller than the metric neighborhood of the same radius; that happens
exactly when the radius drops along some edge faster than arc length.
"""

from __future__ import annotations

from fractions import Fraction

from .delta_morphism import MetricDeltaMorphism
from .genus_graph import GenusGraph
from .special import metric_lift
from .valuation import Frozen, Record, as_int


class WrongDegreeError(ValueError):
    pass


class EdgeRadius(Record):
    """Radius along one center edge: ``(-log delta) / denominator``.

    The numerator is stored as an exact piecewise linear function in arc
    length from the finite end of the edge; the denominator is ``p-1``.
    """

    __slots__ = ("neg_log_delta", "denominator")

    def value_at(self, x) -> Fraction:
        return self.neg_log_delta.value_at(x) / self.denominator


class RadialDescription(Frozen):
    __slots__ = ("center", "radii", "denominator")

    def radius_at(self, edge: str, x) -> Fraction:
        return self.radii[edge].value_at(x)

    def to_json_dict(self) -> dict:
        return {
            "center_graph": self.center.to_json_dict(),
            "per_edge_radius": {
                e: r.to_json_dict() for e, r in sorted(self.radii.items())
            },
            "denominator": self.denominator,
        }


class StrictnessReport(Record):
    __slots__ = ("strict", "witness_edge")
    _defaults = {"witness_edge": None}


def degree_p_locus(mm: MetricDeltaMorphism, p: int) -> RadialDescription:
    """Radial description of the ramification locus of a degree-p cover.

    The center is the subgraph where the cover has multiplicity ``p``
    (elsewhere the cover splits); the radius there is
    ``-log delta / (p - 1)``.
    """
    p = as_int(p, "p")  # a float or a bool equal to the degree is no p
    if mm.degree != p:
        raise WrongDegreeError(f"morphism has degree {mm.degree}, expected {p}")
    if p < 2:  # the radius divides by p - 1
        raise ValueError(f"p must be at least 2, got {p}")
    if mm._delta is None:
        raise ValueError("morphism has no delta values")
    src, mult, vmult = mm.source, mm.mult, mm.vertex_mult
    ends, lengths = src._ends, src._lengths
    edges = [e for e in src.edge_ids if mult[e] == p]
    verts = {v for e in edges for v in ends[e]}
    verts.update([v for v in src.vertices if vmult[v] == p])
    center = GenusGraph._from_normal(
        {v: src._genus[v] for v in verts},
        {e: ends[e] for e in edges},
        src._den,
        {e: lengths[e] for e in edges},
        src.infinite_leaves & verts,
    )
    radii = {e: EdgeRadius(mm._line(e, -1), p - 1) for e in edges}
    return RadialDescription(center, radii, p - 1)


def radial_vs_ball(r: RadialDescription) -> StrictnessReport:
    """Compare the radial set with the metric ball of the same radius.

    Strict inclusion happens iff the radius decreases at rate greater
    than one along some edge direction, i.e. some segment slope of
    ``-log delta`` exceeds ``p - 1`` in absolute value.  A rate of
    exactly one is still an equality.
    """
    for e in sorted(r.radii):
        er = r.radii[e]
        if any(abs(s) > er.denominator for s in er.neg_log_delta._slopes):
            return StrictnessReport(True, e)
    return StrictnessReport(False, None)


def supersingular_witness(report) -> bool:
    """Whether the skeleton carries a slope-3 edge of the different.

    True exactly for supersingular reduction, as the report's fibre
    says.  Cross-checked in two independent ways on the lifted metric
    morphism: a direct scan for a slope-3 edge, and strictness of the
    radial set against the metric ball.
    """
    by_type = report.reduction_fiber == "supersingular"
    mm = metric_lift(report.type, report.lengths, report.setting)
    by_scan = any(abs(mm.sdelta((e, True))) == 3 for e in mm.source.edge_ids)
    by_radial = radial_vs_ball(degree_p_locus(mm, 2)).strict
    if not (by_type == by_scan == by_radial):
        raise AssertionError(
            f"witness disagreement for {report.type.tag}: type={by_type} "
            f"scan={by_scan} radial={by_radial}"
        )
    return by_type
