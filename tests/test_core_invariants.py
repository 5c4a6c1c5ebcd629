"""Facts the validating core establishes, which the library reads instead of
re-deriving.

- The cycle of a special morphism with bad reduction is the set of its
  multiplicity-one edges (``classify_special``).  The leaf-stripping walk
  the classifier used before stays here as the reference, ``_two_core``.
- ``classify_special`` reads a shape off every special morphism; it has no
  other failure.  The source has genus ``1 = h1 + sum of genera``, so one
  vertex has genus one and ``h1 = 0``, or none has and ``h1 = 1``.  The
  target is a tree, and stability gives the rest:

  - Every split (multiplicity-one) edge is on the cycle.  The two edges
    over a target edge must disconnect the source, since each side of the
    target has a nonempty preimage; so both are bridges or both are on
    the cycle (a cycle crosses a cut an even number of times).  Two bridges
    leave three pieces, so one side of the target lies under two
    degree-one sheets, each a copy of that side.  Their edges are split, of
    slope zero (condition 4), so a vertex there has ``R = 2g``; a
    genus-one vertex would be an unbalanced non-leaf or a leaf of positive
    genus (condition 2), so all have genus zero and ``R = 0``.  A target
    leaf on that side then admits a leaf move, unless the target is that
    one edge: then the middle vertex has genus one, valence two and
    ``R = 4``, against condition 2.
  - The cycle is a double edge between two vertices.  A cycle vertex of
    multiplicity one has only split edges, so only its two cycle edges,
    and ``R = 0``, and its target vertex has valence two: a smoothing
    applies.  So each cycle vertex has multiplicity two, its two cycle
    edges lie over one target edge, and the cycle is those two edges.
  - So every tree edge has multiplicity two, and every tree is a
    ``RootSubtree``.  With ``label`` the slope toward the root, a tree
    vertex has ``R = label + 1 - sum of (label + 1) over its children``.
    A leaf with ``R = 0`` admits a leaf move (its target vertex is a leaf
    with it as the whole fiber, on a target of more than one edge), so a
    leaf has ``label >= 0``; an inner vertex is balanced (condition 2), so
    its children's slope indices sum to its own, it has at least two
    children (one child makes a smoothing) and ``label >= 1``; nonzero
    labels are odd (condition 5).

  ``test_special_morphisms_have_the_classified_structure`` checks these
  facts with its own oracle on every special morphism of the corpora and
  of a seeded search over degree-two covers of random trees.
- ``metric_lift`` builds every liftable type once its prechecks pass: on
  the shape builder's output dilation, linearity, the tail values ``|2|``
  and the slope restriction hold (``test_metric_lift_builds_...``).
- The twelve shapes of ``_SHAPES`` are every stable special morphism:
  ``tests/test_census.py`` builds every degree-two cover of a tree of at
  most eight vertices and finds each special one isomorphic to
  ``build_special`` of its tag, or the incoherent loop.  ``_TAG_BY_SHAPE``
  has twelve keys, so each tag is read off one shape.
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
  The tests of ``tests/test_special.py`` reach both ``violated(2)`` for a
  leaf's multiplicity and ``violated(5)``, on morphisms of their own.
"""

import json
import random
import re
from fractions import Fraction

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
from wildskel.delta_morphism import DeltaMorphism, MetricDeltaMorphism
from wildskel.special import (
    _SHAPES,
    _TAG_BY_SHAPE,
    LIFTABLE_TAGS,
    SPECIAL_TAGS,
    Lengths,
    SpecialType,
    build_special,
    classify_special,
    enumerate_root_subtrees,
    is_special,
    metric_lengths,
    metric_lift,
)
from wildskel.valuation import ResidueSetting

from tests.support import (
    FIXTURES,
    NON_TAME_SETTINGS,
    random_metric_delta_morphism,
    random_proper_delta_morphism,
    stabilize_corpus,
    subdivide_metric,
)


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
            into = m.sdelta((b1.edge, not b1.forward))  # b1 read toward v
            if m.mult[b1.edge] != m.mult[b2.edge] or into != m.sdelta(b2):
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
            if any(len(set(mm.target.endpoints(e))) == 2 for e in mm.target.edge_ids):
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


# -- the facts classify_special and metric_lift rely on ------------------------


def test_shape_table_and_inventory_have_distinct_keys():
    inventory = enumerate_root_subtrees(4)
    assert len({t.describe() for t in inventory}) == len(inventory)
    assert len(_TAG_BY_SHAPE) == len(_SHAPES) == 12


def _structure_fault(m):
    """Why ``m`` lacks the structure ``classify_special`` reads, or None:
    one genus-one vertex on a tree, or a double edge of the split edges
    between two vertices; tree edges of multiplicity two; and at each tree
    vertex, with labels the negated slopes away from the roots, a leaf of
    label >= 0 or an inner vertex of at least two children whose slope
    indices sum to its own, nonzero labels odd."""
    src = m.source
    genus1 = [v for v in src.vertices if src.genus_of(v)]
    split = sorted(e for e in src.edge_ids if m.mult[e] == 1)
    if genus1:
        if (len(genus1), src.genus_of(genus1[0]), src.h1(), split) != (1, 1, 0, []):
            return "genus-one vertex"
        roots = genus1
    else:
        ends = {frozenset(src.endpoints(e)) for e in split}
        if src.h1() != 1 or len(split) != 2 or len(ends) != 1 or len(next(iter(ends))) != 2:
            return "cycle"
        roots = sorted(next(iter(ends)))
    stack = [(b, v) for v in roots for b in src.branches(v) if b.edge not in split]
    while stack:
        b, parent = stack.pop()
        child = src.head(b)
        kids = [c for c in src.branches(child) if c.edge != b.edge]
        label = -m.sdelta(b)
        if m.mult[b.edge] != 2 or (label % 2 == 0 and label != 0):
            return f"tree edge {b.edge}"
        if not kids and label < 0:
            return f"leaf {child}"
        if kids and (len(kids) < 2 or sum(1 - m.sdelta(c) for c in kids) != label + 1):
            return f"inner vertex {child}"
        stack += [(c, child) for c in kids]
    return None


def _double_cover(rng):
    """A seeded degree-two cover of a random tree, None if improper or of
    genus above one.  Each target vertex has one fiber vertex (``v3``, of
    multiplicity two) or two (``v3a``, ``v3b``); an edge between two single
    fiber vertices is one edge of multiplicity two or, at times, a double
    edge of split ones.  Split edges have slope zero (condition 4).  The
    labels balance every inner tree vertex, the root mostly too, and some
    are moved by one or two, so stability and balance both fail at times."""
    k = rng.randint(2, 9)
    parent = {i: rng.choice((0, rng.randrange(i), rng.randrange(i))) for i in range(1, k)}
    split = [rng.random() < 0.3 for _ in range(k)]
    fiber = {i: [f"v{i}a", f"v{i}b"] if split[i] else [f"v{i}"] for i in range(k)}
    ends, emap, mult, sdelta, labels = {}, {}, {}, {}, {}
    for i in range(k - 1, 0, -1):
        p, e2 = parent[i], f"e{i}'"
        if split[i] or split[p] or rng.random() < 0.2:
            for e, a, b in ((f"e{i}a", fiber[p][0], fiber[i][0]),
                            (f"e{i}b", fiber[p][-1], fiber[i][-1])):
                ends[e], emap[e], mult[e], sdelta[e] = (a, b), e2, 1, 0
            continue
        kids = [j for j in labels if parent[j] == i]
        inner = any(parent[j] == i for j in parent)
        label = sum(labels[j] + 1 for j in kids) - 1 if inner else rng.choice((-1, 0, 0, 0, 1, 1, 3))
        if rng.random() < 0.15:
            label += rng.choice((-2, -1, 1, 2))
        labels[i] = label
        ends[f"e{i}"], emap[f"e{i}"], mult[f"e{i}"] = (fiber[p][0], fiber[i][0]), e2, 2
    genus = {v: 0 for vs in fiber.values() for v in vs}
    h1 = len(ends) - len(genus) + 1
    leaves = [j for j in labels if parent[j] == 0 and all(parent[x] != j for x in parent)]
    if not split[0] and leaves and rng.random() < 0.7:  # balance the root
        j = rng.choice(leaves)
        labels[j] += (4 if h1 == 0 else 2) - sum(labels[x] + 1 for x in labels if parent[x] == 0)
    sdelta.update({f"e{j}": -label for j, label in labels.items()})
    if h1 == 0:
        genus[rng.choice(["v0"] * 6 * (not split[0]) + sorted(genus))] = 1
    elif h1 != 1:
        return None
    target = GenusGraph(
        {f"v{i}'": 0 for i in range(k)},
        {f"e{i}'": (f"v{p}'", f"v{i}'") for i, p in parent.items()},
    )
    vmap = {v: f"v{i}'" for i, vs in fiber.items() for v in vs}
    try:
        return DeltaMorphism(GenusGraph(genus, ends), target, vmap, emap, mult, sdelta)
    except NotProperError:  # a source in two pieces
        return None


def test_special_morphisms_have_the_classified_structure(search):
    """On every special morphism of the corpora, the fixtures, the lifts and
    their stabilized subdivisions, ``stabilize_corpus`` stabilized, the
    mutation search and 8,000 seeded degree-two covers, the facts hold and
    ``classify_special`` returns."""
    corpus = [("shape", build_special(tag)) for tag in SPECIAL_TAGS]
    corpus += [(p.name, morphism_from_json_dict(json.loads(p.read_text())))
               for p in sorted(FIXTURES.glob("*.morphism.json"))]
    corpus += list(lifts()) + search[1]
    corpus += [(group, stabilize(m)) for group, m in stabilize_corpus()]
    rng, covers = random.Random(29), []
    for i in range(8000):
        m = _double_cover(rng)
        if m is not None:
            covers.append(("double cover", m))
    near = 0  # covers with a split edge off a double edge, all rejected
    tags = set()
    for group, m in corpus + covers:
        if not is_special(m):
            near += group == "double cover" and _structure_fault(m) in ("genus-one vertex", "cycle")
            continue
        assert _structure_fault(m) is None, group
        tags.add(classify_special(m).tag)
        if group == "double cover":
            tags.add("cover " + classify_special(m).tag)
    assert tags >= set(SPECIAL_TAGS) | {"cover WB", "cover WO", "cover WSS"}
    assert near > 1000


#: Residue settings of each characteristic class for the random lifts.
LIFT_SETTINGS = {
    "tame": ("equichar0", "equicharP:3", "equicharP:5", "mixed:3:-1/2", "mixed:7:-5"),
    "mixed": ("mixed:2:-1", "mixed:2:-2/3", "mixed:2:-7/4"),
    "wild": ("equicharP:2",),
}


def _random_lengths(rng, tag, setting):
    """Random admissible lengths of ``tag``: positive exactly on its inner
    slope classes, ``l1 + 3*l3 = -log|2|`` when mixed."""
    def positive():
        return Fraction(rng.randint(1, 40), rng.randint(1, 9))

    w = -setting.int_abs(2).value if tag[0] == "M" else None
    t = Fraction(rng.randint(1, 11), 12)
    return {
        "TB": lambda: Lengths(l0=positive()),
        "WB": lambda: Lengths(l0=positive()),
        "MB": lambda: Lengths(l0=positive(), l1=w),
        "MO": lambda: Lengths(l1=w),
        "MS": lambda: Lengths(l1=w * t, l3=w * (1 - t) / 3),
        "MSS": lambda: Lengths(l3=w / 3),
        "WS": lambda: Lengths(l3=positive()),
        "TG": Lengths,
        "WO": Lengths,
        "WSS": Lengths,
    }[tag]()


def test_metric_lift_builds_for_random_admissible_lengths():
    rng, built = random.Random(43), 0
    for tag in LIFTABLE_TAGS:
        names = list(LIFT_SETTINGS[SpecialType(tag).characteristic_class])
        if tag[0] == "M":  # and a random log_p
            names.append(f"mixed:2:-{rng.randint(1, 30)}/{rng.randint(1, 7)}")
        for name in names:
            setting = ResidueSetting.parse(name)
            for _ in range(10):
                lengths = _random_lengths(rng, tag, setting)
                mm = metric_lift(tag, lengths, setting)
                assert isinstance(mm, MetricDeltaMorphism)
                assert metric_lengths(mm) == lengths
                assert classify_special(mm).tag == tag
                built += 1
    assert built == 10 * (2 * 5 + 4 * 4 + 4 * 1)

