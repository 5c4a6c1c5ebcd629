"""Facts the validating core establishes, which the library reads instead of
re-deriving.

- The cycle of a special morphism with bad reduction is the set of its
  multiplicity-one edges (``classify_special``).  The leaf-stripping walk
  the classifier used before stays here as the reference, ``_two_core``.
- A fiber vertex that a smoothing removes joins two edges of equal
  multiplicity with a continuous sdelta (``_move_obstruction``).
- The valence of a target vertex fixes the one move kind it may have: a
  leaf move needs valence one and a smoothing valence two.  The search
  that tried both kinds at every target vertex stays here as the
  reference, ``_two_kind_moves``.
- A seeded search mutates one or two ``n`` or ``sdelta`` entries of the
  twelve special fixtures and meets every reason of ``is_special`` that
  such a mutation can reach.  It cannot reach these:

  - ``violated(1)`` for genera: ``n`` and ``sdelta`` do not change a genus.
  - ``violated(2)`` for a leaf's multiplicity: every fiber of the twelve
    shapes is one vertex, so a proper mutant has ``vertex_mult`` equal to
    its degree everywhere, and a degree other than 2 fails earlier.  A
    change of ``n`` is improper, or changes the degree of ``WSS``.
  - ``violated(5)``: a change of ``sdelta`` by ``d`` on an edge moves ``R``
    by ``+d`` and ``-d`` at its ends.  On a tree, two changes keep every
    inner vertex balanced only as a transfer between two tails at one
    vertex; their labels, the negated slopes, keep their sum, stay
    nonnegative (a leaf has ``R = label + 1 > 0``) and, for ``(3)`` to
    pass, nonzero beside other wild leaves.  An even label then needs a
    sum of at least 3, and no pair of tails has one.  On the loop a
    transfer runs around the cycle, over the split edges, and ``(4)``
    fails first.
  - ``classify_special``'s two ``UnclassifiableError`` branches and the two
    errors of ``_extract_tree``.  A special source has genus one, so it has
    a genus-one vertex and ``h1 = 0`` or none and ``h1 = 1``.  The mutants
    keep their graphs, so the multiplicity-one edges of a proper loop
    mutant are its two loop edges.  A tree edge of multiplicity other than
    2 breaks local constancy at the genus-one vertex.  At an inner tree
    vertex ``R`` is the slope index minus the children's, so a label sum
    that fails, a single child, a negative or an even label each fail
    ``is_special`` or stability first.
"""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from wildskel.delta_morphism import (
    NotProperError,
    _move_obstruction,
    applicable_moves,
    contract_morphism,
    is_stable,
    morphism_from_json_dict,
    morphism_to_json_dict,
    stabilize,
)
from wildskel.genus_graph import GenusGraph
from wildskel.special import (
    LIFTABLE_TAGS,
    SPECIAL_TAGS,
    Lengths,
    SpecialType,
    build_special,
    classify_special,
    is_special,
    metric_lift,
)
from wildskel.valuation import ResidueSetting

from tests.support import (
    NON_TAME_SETTINGS,
    random_metric_delta_morphism,
    random_proper_delta_morphism,
    stabilize_corpus,
    subdivide_metric,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _two_core(g: GenusGraph):
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


def _reaches_loop_branch(m) -> bool:
    src = m.source
    return bool(is_special(m)) and src.h1() == 1 and not any(
        src.genus_of(v) for v in src.vertices
    )


def _core_matches(m) -> bool:
    cycle = frozenset(e for e in m.source.edge_ids if m.mult[e] == 1)
    ends = frozenset(v for e in cycle for v in m.source.endpoints(e))
    return _two_core(m.source) == (ends, cycle)


#: Residue settings of each characteristic class.
SETTINGS = {
    "tame": ("equichar0", "equicharP:3", "mixed:3:-1"),
    "mixed": ("mixed:2:-1", "mixed:2:-2/3"),
    "wild": ("equicharP:2",),
}


def length_choices(tag: str, setting: ResidueSetting):
    """Valid lengths of a lift: two choices wherever the type leaves one free."""
    two = setting.int_abs(2)
    w = Fraction(0) if two.is_neg_inf else -two.value  # -log|2| > 0 when mixed
    loop = [Lengths(l0=1), Lengths(l0=Fraction(7, 3))]
    return {
        "TB": loop,
        "WB": loop,
        "MB": [Lengths(l0=2, l1=w), Lengths(l0=Fraction(1, 2), l1=w)],
        "MS": [Lengths(l1=w / 2, l3=w / 6), Lengths(l1=w / 4, l3=w / 4)],
        "WS": [Lengths(l3=Fraction(2, 3)), Lengths(l3=Fraction(1, 2))],
        "MO": [Lengths(l1=w)],
        "MSS": [Lengths(l3=w / 3)],
        "TG": [Lengths()],
        "WO": [Lengths()],
        "WSS": [Lengths()],
    }[tag]


def lifts():
    for tag in LIFTABLE_TAGS:
        for text in SETTINGS[SpecialType(tag).characteristic_class]:
            setting = ResidueSetting.parse(text)
            for lengths in length_choices(tag, setting):
                yield tag, metric_lift(tag, lengths, setting)


#: Each reason of ``is_special`` that a mutation of ``n`` or ``sdelta`` reaches.
REASONS = {
    "contractible": r"violated\(1\): the morphism is contractible",
    "degree": r"violated\(1\): degree is \d+, not 2",
    "inner": r"violated\(2\): vertex \S+ has R = -?\d+ but is not a leaf",
    "genus": r"violated\(2\): leaf \S+ has R = -?\d+ and positive genus",
    "negative": r"violated\(2\): leaf \S+ has R = -\d+ < 0",
    "class": r"violated\(3\): ramification leaves are neither all tame nor all wild",
    "split": r"violated\(4\): split edge \S+ has nonzero slope",
}


@pytest.fixture(scope="module")
def search():
    """The seeded mutants: the first message of each reason met, and every
    special mutant with the tag of the fixture it came from."""
    bases = {
        tag: json.loads((FIXTURES / f"{tag.lower()}.morphism.json").read_text())
        for tag in SPECIAL_TAGS
    }
    rng = random.Random(14)
    first, specials = {}, []
    for _ in range(3000):
        tag = rng.choice(SPECIAL_TAGS)
        data = json.loads(json.dumps(bases[tag]))
        key, d = rng.choice(("n", "sdelta", "sdelta")), rng.choice((-2, -1, 1, 2))
        for step in range(rng.randint(1, 2)):  # a second change keeps the first's sum
            data[key][rng.choice(sorted(data[key]))] += d if step == 0 else -d
        try:
            m = morphism_from_json_dict(data)
        except NotProperError:
            continue
        check = is_special(m)
        if check:
            specials.append((tag, m))
            continue
        (name,) = [k for k, p in REASONS.items() if re.fullmatch(p, check.reason)]
        first.setdefault(name, check.reason)
    return first, specials


def test_search_meets_every_reachable_reason(search):
    first, _ = search
    assert first == {
        "contractible": "violated(1): the morphism is contractible",
        "degree": "violated(1): degree is 1, not 2",
        "inner": "violated(2): vertex v3 has R = 2 but is not a leaf",
        "genus": "violated(2): leaf r has R = -2 and positive genus",
        "negative": "violated(2): leaf v5 has R = -1 < 0",
        "class": "violated(3): ramification leaves are neither all tame nor all wild",
        "split": "violated(4): split edge a has nonzero slope",
    }


def test_special_mutants_keep_their_type(search):
    _, specials = search
    assert len(specials) > 300
    assert {tag for tag, _ in specials} == set(SPECIAL_TAGS)
    for tag, m in specials:
        assert classify_special(m).tag == tag


def test_loop_core_is_the_multiplicity_one_edges(search):
    cases = [(tag, build_special(tag)) for tag in SPECIAL_TAGS]
    cases += [
        (path.name, morphism_from_json_dict(json.loads(path.read_text())))
        for path in sorted(FIXTURES.glob("*.morphism.json"))
    ]
    cases += list(lifts()) + search[1]
    reached = {name for name, m in cases if _reaches_loop_branch(m)}
    assert {"TB", "MB", "WB", "wb_metric.morphism.json"} <= reached
    for name, m in cases:
        if _reaches_loop_branch(m):
            assert _core_matches(m), name


def test_lifts_in_every_setting_classify_back():
    seen = set()
    for tag, mm in lifts():
        assert classify_special(mm).tag == tag
        seen.add(tag)
    assert seen == set(LIFTABLE_TAGS)


def _smoothable(g, v) -> bool:
    branches = g.branches(v)
    return g.genus_of(v) == 0 and len(branches) == 2 and branches[0].edge != branches[1].edge


def _smoothing_faults(m):
    """``(checked, faults)``: fiber vertices that a smoothing would remove, and
    those of them whose two edges differ in ``n`` or break sdelta."""
    checked, faults = 0, []
    for v2 in m.target.vertices:
        if not _smoothable(m.target, v2):
            continue
        for v in m.fibers[v2]:
            if not _smoothable(m.source, v) or m.differential_index(v) != 0:
                continue
            checked += 1
            b1, b2 = m.source.branches(v)
            if m.mult[b1.edge] != m.mult[b2.edge] or m.sdelta(-b1) != m.sdelta(b2):
                faults.append(v)
    return checked, faults


def test_smoothed_fiber_vertices_join_equal_continuous_edges():
    """On ``stabilize_corpus`` and on each morphism its moves pass through,
    and on 2,000 random morphisms."""
    total = 0
    for group, m in stabilize_corpus():
        while True:
            checked, faults = _smoothing_faults(m)
            assert faults == [], group
            total += checked
            moves = applicable_moves(m)
            if not moves:
                break
            m = contract_morphism(m, moves[0])
    rng = random.Random(3)
    random_total = 0
    for _ in range(2000):
        checked, faults = _smoothing_faults(random_proper_delta_morphism(rng))
        assert faults == []
        random_total += checked
    assert total > 500 and random_total > 0


def _two_kind_moves(m):
    """The legal moves, found by trying both kinds at every target vertex,
    smallest first, leaf before smoothing."""
    return tuple(
        (kind, v2)
        for v2 in m.target.vertices
        for kind in ("leaf", "smooth")
        if _move_obstruction(m, kind, v2) is None
    )


def _move_corpus():
    yield from stabilize_corpus()
    rng = random.Random(71)
    for _ in range(500):
        yield "random_proper_seed71", random_proper_delta_morphism(rng, 6)
    for name in NON_TAME_SETTINGS:
        rng, setting = random.Random(f"moves-{name}"), ResidueSetting.parse(name)
        for _ in range(25):
            mm = random_metric_delta_morphism(rng, setting)
            if any(not mm.target.is_loop(e) for e in mm.target.edge_ids):
                yield f"subdivided_random_metric_{name}", subdivide_metric(rng, mm)


def test_one_kind_per_target_vertex_finds_the_moves_of_both():
    """``applicable_moves``, ``is_stable`` and ``stabilize`` agree with the
    reference on every morphism of the corpus and of its first-move walk
    (``stabilize`` takes the first applicable move each time)."""
    walked = moved = 0
    for group, m in _move_corpus():
        expected = morphism_to_json_dict(stabilize(m))
        while True:
            moves = _two_kind_moves(m)
            assert applicable_moves(m) == moves, group
            assert is_stable(m) == (not moves), group
            walked += 1
            if not moves:
                break
            m = contract_morphism(m, moves[0])
            moved += 1
        assert morphism_to_json_dict(m) == expected, group
    assert walked > 4000 and moved > 500
