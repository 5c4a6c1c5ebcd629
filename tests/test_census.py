"""A census of degree-two covers of trees: every stable special morphism on a
tree of at most eight vertices is one of the twelve shapes of ``_SHAPES``,
or the incoherent loop.

``tests.support.special_census`` builds every degree-two cover of genus
one, of a free tree of at most eight vertices, that is balanced away from
its ramification leaves: each target vertex whole or split, each edge over
two whole vertices single or doubled, a fan between a whole and a split
vertex, straight or crossed between two split ones, the genus placed so
that ``h1 + sum of genera = 1``, and the slopes forced by the choice of
``R`` in {0, 1, 2, 4} at each leaf of genus 0 and multiplicity 2.  Covers
that admit a contraction move are skipped before they are built (six
target vertices give the same special covers without that pruning).  Of
these covers ``is_special`` passes 24, counted with their labels, so a
shape that a symmetry of its tree moves is counted once per position.

22 of them classify, and all twelve tags occur.  Each of the 22 is
isomorphic to ``build_special`` of its tag, by a code written here
(colour refinement, then every order of the vertices that stay tied),
which reads none of the classifier's own machinery.  The other 2 are one
shape, a loop with two tame tails on one side and a mixed cherry on the
other, which ``classify_special`` refuses.  That loop is expected: it
passes the five conditions of ``is_special``, but its characteristic
class is incoherent.  In the mixed family every balanced vertex is wild,
and in the wild family every vertex is wild.  A mixed shape that breaks
this carries no different function: its tame balanced vertex sits at the
tail value, while the other part of the shape forces a strictly larger
value at the same vertex.  The census shows only that this loop is the
one special cover outside the twelve; whether ``is_special`` should cut it
is not decided here.

At nine and ten target vertices the census builds no cover beyond those
of eight, and so finds nothing new.
"""

import time
from collections import Counter

import pytest

from wildskel.delta_morphism import morphism_from_json_dict, morphism_to_json_dict
from wildskel.special import (
    SPECIAL_TAGS, UnclassifiableError, _0L, _1C, _build, build_special, classify_special,
)

from tests.support import free_trees, special_census

INCOHERENT = "unknown bad-reduction shape (('0', '0'), ('1(0,0)',))"


def _refine(colour: dict, nbrs: dict) -> dict:
    """Colour refinement to the stable partition.  Colours are ranks of
    sorted signatures, so they do not depend on the ids."""
    while True:
        sig = {x: (c, tuple(sorted((label, colour[y]) for label, y in nbrs[x])))
               for x, c in colour.items()}
        rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        refined = {x: rank[s] for x, s in sig.items()}
        if len(rank) == len(set(colour.values())):
            return refined
        colour = refined


def _least_code(colour: dict, nbrs: dict, labels: dict, arcs: list) -> tuple:
    """The least code over every way to break the ties of ``colour``: refine,
    then give each vertex of the first tied class a colour of its own."""
    colour = _refine(colour, nbrs)
    sizes = Counter(colour.values())
    tied = min((c for c, n in sizes.items() if n > 1), default=None)
    if tied is None:
        return (tuple(sorted((colour[x], label) for x, label in labels.items())),
                tuple(sorted((colour[a], label, colour[b]) for a, label, b in arcs)))
    return min(
        _least_code({x: 2 * c + (x != y) for x, c in colour.items()}, nbrs, labels, arcs)
        for y in colour if colour[y] == tied
    )


def encoding(m) -> tuple:
    """A code that two plain morphisms share iff they are isomorphic.

    The vertices and edges of both graphs are the nodes, labelled by side,
    kind, genus and ``n``.  An edge points at each of its ends with the
    slope read away from that end, so reversing an edge with its ``sdelta``
    changes nothing, and each source vertex and edge points at its image.
    """
    labels, arcs = {}, []
    for side, g in (("source", m.source), ("target", m.target)):
        for v in g.vertices:
            labels[side, "v", v] = (side, "vertex", g.genus_of(v))
        for e in g.edge_ids:
            labels[side, "e", e] = (side, "edge", m.mult[e] if side == "source" else 0)
            s = m.sdelta((e, True)) if side == "source" else 0
            u, w = g.endpoints(e)
            arcs += [((side, "e", e), ("end", s), (side, "v", u)),
                     ((side, "e", e), ("end", -s), (side, "v", w))]
    arcs += [(("source", "v", v), ("over", 0), ("target", "v", v2))
             for v, v2 in m.vertex_map.items()]
    arcs += [(("source", "e", e), ("over", 0), ("target", "e", e2))
             for e, e2 in m.edge_map.items()]
    nbrs = {x: [] for x in labels}
    for a, label, b in arcs:
        nbrs[a].append(((label, "out"), b))
        nbrs[b].append(((label, "in"), a))
    rank = {label: i for i, label in enumerate(sorted(set(labels.values())))}
    return _least_code({x: rank[label] for x, label in labels.items()}, nbrs, labels, arcs)


@pytest.fixture(scope="module")
def census():
    start = time.perf_counter()
    found = special_census(8)
    return found, time.perf_counter() - start


def test_free_trees_up_to_isomorphism():
    counts = Counter(len(edges) + 1 for edges in free_trees(8))
    assert [counts[k] for k in range(1, 9)] == [1, 1, 1, 2, 3, 6, 11, 23]


def test_the_census_runs_in_ten_seconds(census):
    found, seconds = census
    assert found.trees == 48
    assert seconds < 10


def test_every_special_cover_is_one_of_the_twelve_or_the_incoherent_loop(census):
    found, _ = census
    assert len(found.specials) == 24
    twelve = {tag: encoding(build_special(tag)) for tag in SPECIAL_TAGS}
    loop = encoding(_build("loop", ((_0L, _0L), (_1C,))))
    tags, refused = [], []
    for m in found.specials:
        try:
            tag = classify_special(m).tag
        except UnclassifiableError as exc:
            refused.append(str(exc))
            assert encoding(m) == loop
            continue
        tags.append(tag)
        assert encoding(m) == twelve[tag], tag
    assert len(tags) == 22 and set(tags) == set(SPECIAL_TAGS)
    assert refused == [INCOHERENT, INCOHERENT]


def test_pruning_skips_no_special_cover():
    pruned, unpruned = special_census(6), special_census(6, prune=False)
    assert unpruned.candidates > pruned.candidates
    assert len(pruned.specials) == 16
    assert ([morphism_to_json_dict(m) for m in pruned.specials]
            == [morphism_to_json_dict(m) for m in unpruned.specials])


def test_the_encoding_ignores_ids_and_tells_the_twelve_apart():
    codes = [encoding(build_special(tag)) for tag in SPECIAL_TAGS]
    assert len(set(codes)) == 12
    # rename every id and reverse every edge, negating its sdelta
    doc = morphism_to_json_dict(build_special("MES"))
    for side in ("source", "target"):
        for v in doc[side]["vertices"]:
            v["id"] = "x" + v["id"]
        for e in doc[side]["edges"]:
            e["id"], e["from"], e["to"] = "y" + e["id"], "x" + e["to"], "x" + e["from"]
    doc["vertex_map"] = {"x" + v: "x" + v2 for v, v2 in doc["vertex_map"].items()}
    doc["edge_map"] = {"y" + e: "y" + e2 for e, e2 in doc["edge_map"].items()}
    doc["n"] = {"y" + e: n for e, n in doc["n"].items()}
    doc["sdelta"] = {"y" + e: -s for e, s in doc["sdelta"].items()}
    assert encoding(morphism_from_json_dict(doc)) == codes[SPECIAL_TAGS.index("MES")]
