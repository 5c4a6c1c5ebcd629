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
from typing import Mapping, Optional

from .delta_morphism import MetricDeltaMorphism
from .genus_graph import GenusGraph, MetricGenusGraph
from .pmfunc import PMFunction
from .special import metric_lift
from .valuation import Frozen


class WrongDegreeError(ValueError):
    pass


class EdgeRadius(Frozen):
    """Radius along one center edge: ``(-log delta) / denominator``.

    The numerator is stored as an exact piecewise linear function in arc
    length from the finite end of the edge; the denominator is ``p-1``.
    """

    __slots__ = ("neg_log_delta", "denominator")

    def __init__(self, neg_log_delta: PMFunction, denominator: int):
        object.__setattr__(self, "neg_log_delta", neg_log_delta)
        object.__setattr__(self, "denominator", denominator)

    def value_at(self, x) -> Fraction:
        return self.neg_log_delta.value_at(x) / self.denominator

    def to_json_dict(self) -> dict:
        return {
            "neg_log_delta": self.neg_log_delta.to_json_dict(),
            "denominator": self.denominator,
        }


class RadialDescription(Frozen):
    __slots__ = ("center", "radii", "denominator")

    def __init__(
        self,
        center: MetricGenusGraph,
        radii: Mapping[str, EdgeRadius],
        denominator: int,
    ):
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "denominator", denominator)

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


class StrictnessReport(Frozen):
    __slots__ = ("strict", "witness_edge")

    def __init__(self, strict: bool, witness_edge: Optional[str] = None):
        object.__setattr__(self, "strict", strict)
        object.__setattr__(self, "witness_edge", witness_edge)

    def to_json_dict(self) -> dict:
        return {"strict": self.strict, "witness_edge": self.witness_edge}


def degree_p_locus(mm: MetricDeltaMorphism, p: int) -> RadialDescription:
    """Radial description of the ramification locus of a degree-p cover.

    The center is the subgraph where the cover has multiplicity ``p``
    (elsewhere the cover splits); the radius there is
    ``-log delta / (p - 1)``.
    """
    if mm.degree != p:
        raise WrongDegreeError(f"morphism has degree {mm.degree}, expected {p}")
    src = mm.source
    edges = [e for e in src.edge_ids if mm.mult[e] == p]
    verts = {v for e in edges for v in src.endpoints(e)}
    verts.update(v for v in src.vertices if mm.vertex_mult[v] == p)
    center = GenusGraph(
        {v: src.genus_of(v) for v in verts},
        {e: src.endpoints(e) for e in edges},
        {e: src.length(e) for e in edges},
        infinite_leaves=src.infinite_leaves & verts,
    )
    radii = {
        e: EdgeRadius(mm.delta_profile(e).pow(-1), p - 1) for e in edges
    }
    return RadialDescription(center=center, radii=radii, denominator=p - 1)


def radial_vs_ball(r: RadialDescription) -> StrictnessReport:
    """Compare the radial set with the metric ball of the same radius.

    Strict inclusion happens iff the radius decreases at rate greater
    than one along some edge direction, i.e. some segment slope of
    ``-log delta`` exceeds ``p - 1`` in absolute value.  A rate of
    exactly one is still an equality.
    """
    for e in sorted(r.radii):
        er = r.radii[e]
        for _, _, _, slope in er.neg_log_delta.segments():
            if abs(slope) > er.denominator:
                return StrictnessReport(strict=True, witness_edge=e)
    return StrictnessReport(strict=False)


def supersingular_witness(report, p: int = 2) -> bool:
    """Whether the skeleton carries a slope-3 edge of the different.

    True exactly for supersingular reduction, as the report's fibre
    says.  Cross-checked in two independent ways on the lifted metric
    morphism: a direct scan for a slope-3 edge, and strictness of the
    radial set against the metric ball.
    """
    if p != 2:
        raise ValueError("the witness is specific to degree-two covers")
    by_type = report.reduction_fiber == "supersingular"
    mm = metric_lift(report.type, report.lengths, report.setting)
    by_scan = any(abs(mm.sdelta_stored(e)) == 3 for e in mm.source.edge_ids)
    by_radial = radial_vs_ball(degree_p_locus(mm, p)).strict
    if not (by_type == by_scan == by_radial):
        raise AssertionError(
            f"witness disagreement for {report.type.tag}: type={by_type} "
            f"scan={by_scan} radial={by_radial}"
        )
    return by_type
