"""wildskel: exact calculus of the different function on skeletons.

Genus graphs with Riemann-Hurwitz bookkeeping for slope-decorated
morphisms, Newton-profile computation of the different on annuli,
classification of stable degree-two skeletons, reduction types of
genus-one double covers, and radial descriptions of degree-p
ramification loci.  All arithmetic is exact.
"""

from .valuation import INF, NEG_INF, ZERO, LogAbs, ResidueSetting
from .pmfunc import (
    DomainMismatchError,
    EmptySeriesError,
    NewtonProfile,
    OutOfDomainError,
    PMFunction,
    tropical_eval,
)
from .annulus import (
    ConstantSeriesError,
    DifferentReport,
    InseparableSeriesError,
    InvalidModelError,
    UnrealizableTripleError,
    ValuedSeries,
    Verdict,
    check_restriction,
    derivative,
    different_profile,
    different_report,
    is_normalized,
    normalize,
    realize_triple,
    skeleton_image_law,
)
from .genus_graph import (
    DisconnectedError,
    Divisor,
    GenusGraph,
    MetricGenusGraph,
    OrientedEdge,
)
from .delta_morphism import (
    BoundaryAnnotation,
    DeltaMorphism,
    IllegalMoveError,
    MetricDeltaMorphism,
    NotProperError,
    applicable_moves,
    certify_skeleton,
    contract_graph,
    contract_morphism,
    is_stable,
    morphism_from_json_dict,
    morphism_to_json_dict,
    stabilize,
    wide_open_genus_check,
)
from .special import (
    LIFTABLE_TAGS,
    SPECIAL_TAGS,
    Lengths,
    RootSubtree,
    SpecialType,
    UnclassifiableError,
    UnliftableError,
    bar_discriminator,
    build_special,
    classify_special,
    enumerate_root_subtrees,
    enumerate_special,
    is_special,
    metric_lengths,
    metric_lift,
    ramification_signature,
)
from .elliptic import (
    EllipticInput,
    InvalidSettingError,
    SkeletonReport,
    classify_elliptic,
    log_256,
)
from .radial import (
    EdgeRadius,
    RadialDescription,
    StrictnessReport,
    WrongDegreeError,
    degree_p_locus,
    radial_vs_ball,
    supersingular_witness,
)

__version__ = "0.1.0"
