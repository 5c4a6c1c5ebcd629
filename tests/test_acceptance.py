"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (run with ``pytest -s``
to see them); a failure surfaces as a normal assertion error.
"""

import random
import time
from fractions import Fraction
from math import lcm

from wildskel.annulus import (
    ConstantSeriesError,
    InseparableSeriesError,
    ValuedSeries,
    check_restriction,
    derivative,
    different_profile,
    different_report,
    normalize,
    realize_triple,
)
from wildskel.delta_morphism import (
    BoundaryAnnotation,
    MetricDeltaMorphism,
    certify_skeleton,
)
from wildskel.elliptic import EllipticInput, classify_elliptic
from wildskel.genus_graph import Divisor
from wildskel.pmfunc import PMFunction, tropical_eval
from wildskel.radial import degree_p_locus, supersingular_witness
from wildskel.special import (
    LIFTABLE_TAGS,
    SPECIAL_TAGS,
    Lengths,
    UnliftableError,
    bar_discriminator,
    enumerate_root_subtrees,
    enumerate_special,
    metric_lift,
    _ShapeBuilder,
)
from wildskel.valuation import LogAbs, ResidueSetting

from tests.support import (
    MIXED2,
    TAME0,
    WILD2,
    kummer_segment,
    random_proper_delta_morphism,
    random_valued_series,
    setting_for,
)

_corpus_cache = []


def _corpus():
    if not _corpus_cache:
        rng = random.Random(20240)
        _corpus_cache.extend(
            random_proper_delta_morphism(rng) for _ in range(10_000)
        )
    return _corpus_cache


def _report(num: int, text: str) -> None:
    print(f"[criterion {num:02d}] PASS  {text}")


def test_criterion_01_combinatorial_rh():
    t0 = time.time()
    corpus = _corpus()
    for m in corpus:
        assert len(m.source.vertices) <= 12
        assert m.rh_divisor_identity().ok
        assert m.rh_degree_identity().ok
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    _report(1, f"10000 morphisms, both identities exact ({elapsed:.2f}s)")


def test_criterion_02_divisor_degrees():
    rng = random.Random(77)
    for m in _corpus():
        assert m.delta_divisor().degree() == 0
        d = Divisor({v: rng.randint(-3, 3) for v in m.target.vertices})
        assert m.pullback(d).degree() == m.degree * d.degree()
    _report(2, "deg Delta = 0 and deg pullback = deg * deg on the corpus")


def test_criterion_03_root_subtrees():
    t0 = time.time()
    trees = enumerate_root_subtrees(4)
    assert len(trees) == 8

    def all_labels(t):
        yield t.label
        for c in t.children:
            yield from all_labels(c)

    for t in trees:
        # (ii) slopes toward the leaves are nonpositive: labels >= 0
        assert all(l >= 0 for l in all_labels(t))
        # (iii) the leaf indices sum to the slope index
        assert sum(t.leaf_r_values()) == t.slope_index
        # (i) every edge has multiplicity two: attach the tree to a
        # genus-one root and inspect the built morphism
        builder = _ShapeBuilder()
        builder.add_vertex("r", 1)
        builder.attach_tree("r", t)
        m = builder.build()
        assert all(m.mult[e] == 2 for e in m.source.edge_ids)
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    _report(3, f"exactly 8 subtree classes, all three conditions ({elapsed:.2f}s)")


def _valid_lengths(tag: str) -> Lengths:
    return {
        "TB": Lengths(l0=Fraction(1)),
        "MB": Lengths(l0=Fraction(2), l1=Fraction(1)),
        "WB": Lengths(l0=Fraction(1)),
        "TG": Lengths(),
        "MO": Lengths(l1=Fraction(1)),
        "WO": Lengths(),
        "MS": Lengths(l1=Fraction(1, 2), l3=Fraction(1, 6)),
        "WS": Lengths(l3=Fraction(1, 2)),
        "MSS": Lengths(l3=Fraction(1, 3)),
        "WSS": Lengths(),
        "ME": Lengths(),
        "MES": Lengths(),
    }[tag]


def test_criterion_04_twelve_special_types():
    pairs = enumerate_special()
    assert [t.tag for t, _ in pairs] == list(SPECIAL_TAGS)
    allowed = {(4,), (2, 2), (1, 1, 1, 1)}
    for t, m in pairs:
        sig = tuple(
            sorted(m.differential_index(v) for v in m.unbalanced_vertices())
        )
        assert sig in allowed, (t.tag, sig)
    lifted = []
    for t, _ in pairs:
        setting = setting_for(t.tag)
        try:
            metric_lift(t, _valid_lengths(t.tag), setting)
            lifted.append(t.tag)
        except UnliftableError:
            pass
    assert sorted(lifted) == sorted(LIFTABLE_TAGS)
    assert set(SPECIAL_TAGS) - set(lifted) == {"ME", "MES"}
    _report(4, "12 classes, prescribed signatures, 10 liftable + ME/MES not")


def test_criterion_05_metric_constraints():
    rng = random.Random(505)
    mixed_types = ["MB", "MO", "MS", "MSS"]
    discriminated = 0
    for _ in range(1000):
        tag = rng.choice(mixed_types)
        # random positive lengths on the slope classes the shape has
        l0 = Fraction(rng.randint(1, 24), rng.randint(1, 4)) if tag == "MB" else Fraction(0)
        l1 = (
            Fraction(rng.randint(1, 24), rng.randint(12, 24))
            if tag in ("MB", "MO", "MS")
            else Fraction(0)
        )
        l3 = (
            Fraction(rng.randint(1, 24), rng.randint(24, 48))
            if tag in ("MS", "MSS")
            else Fraction(0)
        )
        if rng.random() < 0.5:
            # repair to an exactly-valid assignment
            if tag == "MSS":
                l3 = Fraction(1, 3)
            elif tag == "MS":
                l1 = Fraction(rng.randint(1, 11), 12)
                l3 = (1 - l1) / 3
            else:
                l1 = Fraction(1)
        lengths = Lengths(l0=l0, l1=l1, l3=l3)
        valid = l1 + 3 * l3 == Fraction(1)
        try:
            mm = metric_lift(tag, lengths, MIXED2)
            accepted = True
            # the constructor itself revalidates field by field
            MetricDeltaMorphism(mm.morphism, mm.delta, mm.setting)
        except UnliftableError:
            accepted = False
        assert accepted == valid, (tag, lengths)
        if accepted and tag in ("MB", "MO", "MS"):
            assert bar_discriminator(lengths, MIXED2).tag == tag
            discriminated += 1
    assert discriminated > 100
    _report(5, f"1000 pairs accept iff sum i*l_i = -log|2|; "
               f"{discriminated} bar recoveries")


def test_criterion_06_annulus_oracle():
    t0 = time.time()
    settings = [TAME0, MIXED2, WILD2]
    rng = random.Random(606)
    grid_den = 25
    grid_nums = list(range(-50, 0))  # x = k/25 in [-2, 0)
    domain = (Fraction(-2), Fraction(1))
    count = 0
    while count < 10_000:
        raw = random_valued_series(rng)
        try:
            series = normalize(raw)
        except ConstantSeriesError:
            continue
        setting = settings[count % 3]
        try:
            prof = different_profile(series, setting, domain)
            deriv = derivative(series, setting)
        except InseparableSeriesError:
            continue
        count += 1
        # independent oracle: per-term max with common-denominator integers
        c, dc = series.coefficients, deriv.coefficients
        den = lcm(
            *[v.denominator for v in c.values()],
            *[v.denominator for v in dc.values()],
            1,
        )
        c_int = [(i, int(v * den)) for i, v in c.items()]
        d_int = [(i, int(v * den)) for i, v in dc.items()]
        for xn in grid_nums:
            m1 = max(vn * grid_den + i * xn * den for i, vn in d_int)
            m2 = max(vn * grid_den + i * xn * den for i, vn in c_int)
            brute = Fraction(m1 + xn * den - m2, grid_den * den)
            assert prof.value_at(Fraction(xn, grid_den)) == brute
        # every one-sided segment triple is admissible
        envelope = tropical_eval(series, domain)
        a, b = prof.domain
        for x0 in prof.breakpoints:
            value = LogAbs(prof.value_at(x0))
            if x0 > a:
                m = abs(min(envelope.achievers_at(x0)))
                assert check_restriction(
                    m, -prof.slope_at(x0, "left"), value, setting
                ).ok
            if x0 < b:
                m = abs(max(envelope.achievers_at(x0)))
                assert check_restriction(
                    m, prof.slope_at(x0, "right"), value, setting
                ).ok
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    _report(6, f"10000 series x 50 grid points exact, all triples pass "
               f"({elapsed:.2f}s)")


def test_criterion_07_kummer_reproduction():
    for p, log_p in ((2, Fraction(-1)), (3, Fraction(-1)), (5, Fraction(-1, 2))):
        setting = ResidueSetting.mixed(p, log_p)
        prof = different_profile(ValuedSeries({p: 0}), setting, (-1, 0))
        assert prof == PMFunction.constant((-1, 0), log_p)
        rep = different_report(ValuedSeries({p: 0}), setting)
        assert (rep.m, rep.n, rep.log_delta, rep.slope_s) == (
            p,
            p,
            LogAbs(log_p),
            0,
        )
        # radial locus of a degree-p segment model with constant different
        desc = degree_p_locus(kummer_segment(p, log_p), p)
        expected = -log_p / (p - 1)
        for k in range(5):
            assert desc.radius_at("e", Fraction(k, 4)) == expected
    _report(7, "constant |p| different and radius -log|p|/(p-1), exact")


def test_criterion_08_elliptic_table():
    settings = [TAME0, ResidueSetting.equichar(3), MIXED2,
                ResidueSetting.mixed(2, Fraction(-2, 3)), WILD2]
    seen = set()
    for setting in settings:
        two = setting.int_abs(2)
        log2 = None if (two == 0 or two.is_neg_inf) else two.value
        scan = [Fraction(k, 10) for k in range(-130, 70)]
        assert len(scan) == 200
        for log_j in scan:
            rep = classify_elliptic(EllipticInput.of(setting, log_j))
            seen.add(rep.type.tag)
            tag = rep.type.tag
            # exact length formulas
            if tag.endswith("B"):
                assert rep.lengths.l0 == log_j / 2
            if tag == "MB" or tag == "MO":
                assert rep.lengths.l1 == -log2
            if tag == "MS":
                assert rep.lengths.l1 == log_j / 8 - log2
                assert rep.lengths.l3 == -log_j / 24
            if tag == "MSS":
                assert rep.lengths.l3 == -log2 / 3
            if tag == "WS":
                assert rep.lengths.l3 == -log_j / 24
            if tag in ("MO", "MS", "MSS"):
                assert rep.lengths.l1 + 3 * rep.lengths.l3 == -log2
            assert supersingular_witness(rep) == (
                tag in ("MS", "MSS", "WS", "WSS")
            )
        rep = classify_elliptic(EllipticInput.j_zero(setting))
        seen.add(rep.type.tag)
        assert supersingular_witness(rep) == (rep.type.tag in ("MSS", "WSS"))
    assert seen == set(LIFTABLE_TAGS), seen
    # the worked example
    rep = classify_elliptic(EllipticInput.of(MIXED2, Fraction(-4)))
    assert rep.type.tag == "MS"
    assert rep.lengths.l1 == Fraction(1, 2)
    assert rep.lengths.l3 == Fraction(1, 6)
    _report(8, "all ten cases over 200-point scans, exact lengths and witnesses")


def test_criterion_09_skeleton_certificate():
    mm = metric_lift("WB", Lengths(l0=Fraction(1)), WILD2)
    leaves = sorted(mm.source.infinite_leaves)
    good = BoundaryAnnotation({leaf: ((2, 1),) for leaf in leaves})
    assert certify_skeleton(mm, good, ram_in_vertices=True).ok
    for flip in leaves:
        bad = BoundaryAnnotation(
            {leaf: ((2, 0 if leaf == flip else 1),) for leaf in leaves}
        )
        report = certify_skeleton(mm, bad, ram_in_vertices=True)
        assert not report.ok
        assert report.violations == ((flip, 0, 2, 0, 1),)
    _report(9, "trivializing branches pass; each single flip fails with witness")


def test_criterion_10_realize_report_roundtrip():
    settings = [TAME0, MIXED2, ResidueSetting.mixed(3, Fraction(-1, 2)),
                WILD2, ResidueSetting.equichar(3)]
    values = [Fraction(-1, 2), Fraction(-1), Fraction(-2), Fraction(-7, 3)]
    checked = 0
    for setting in settings:
        for m in range(1, 9):
            for k in list(range(-4, 0)) + list(range(1, 10)):
                for c in values:
                    coeffs = {m: Fraction(0)}
                    if k != m:
                        coeffs[k] = c
                    try:
                        series = normalize(ValuedSeries(coeffs))
                        rep = different_report(series, setting)
                    except (ConstantSeriesError, InseparableSeriesError):
                        continue
                    realized = realize_triple(
                        rep.m, rep.slope_s, rep.log_delta, setting
                    )
                    assert different_report(realized, setting) == rep
                    checked += 1
    assert checked > 1000
    _report(10, f"report-level round trip exact on {checked} "
                "monomial/binomial series")
