"""wildskel: exact calculus of the different function on skeletons.

Genus graphs with Riemann-Hurwitz bookkeeping for slope-decorated
morphisms, Newton-profile computation of the different on annuli,
classification of stable degree-two skeletons, reduction types of
genus-one double covers, and radial descriptions of degree-p
ramification loci.  All arithmetic is exact.

The public names in ``_EXPORTS`` are importable from the package, each
loaded from its module on first use: ``import wildskel`` imports no
submodule.
"""

from importlib import import_module

#: module: the public names the package takes from it
_EXPORTS = {
    "valuation": "INF NEG_INF ZERO LogAbs ResidueSetting",
    "pmfunc": "DomainMismatchError EmptySeriesError NewtonProfile OutOfDomainError PMFunction "
              "tropical_eval",
    "annulus": "ConstantSeriesError DifferentReport InseparableSeriesError InvalidModelError "
               "UnrealizableTripleError ValuedSeries Verdict check_restriction derivative "
               "different_profile different_report is_normalized normalize realize_triple "
               "skeleton_image_law",
    "genus_graph": "DisconnectedError Divisor GenusGraph MetricGenusGraph OrientedEdge",
    "delta_morphism": "BoundaryAnnotation DeltaMorphism IllegalMoveError MetricDeltaMorphism "
                      "NotProperError applicable_moves certify_skeleton contract_graph "
                      "contract_morphism is_stable morphism_from_json_dict "
                      "morphism_to_json_dict stabilize wide_open_genus_check",
    "special": "LIFTABLE_TAGS SPECIAL_TAGS Lengths RootSubtree SpecialType UnclassifiableError "
               "UnliftableError bar_discriminator build_special classify_special "
               "enumerate_root_subtrees enumerate_special is_special metric_lengths metric_lift "
               "ramification_signature",
    "elliptic": "EllipticInput InvalidSettingError SkeletonReport classify_elliptic log_256",
    "radial": "EdgeRadius RadialDescription StrictnessReport WrongDegreeError degree_p_locus "
              "radial_vs_ball supersingular_witness",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """The public ``name``, read from its module (imported on first use).
    Nothing is cached here, so a name rebound in its module, as
    ``benchmark/tracer.py`` does while installed, reads as rebound."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
