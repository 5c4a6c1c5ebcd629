"""Which fault the loaders and cores name first, when a document has two.

Each row of the tables holds two faults from adjacent stages of the
read path, the later stage's fault usually in an earlier entry, so a
loader that raised a fault as soon as it met it would name the wrong one.
The stages of a graph are: entries and ids (vertices, then edges), the
``infinite_leaves`` type, genera, endpoints, lengths, the core's checks
(negative genus, endpoints in the vertex set, lengths, infinite leaves)
and last the repeated ids (vertices, edges, then infinite leaves).  A
morphism adds: its maps, ``n`` and ``sdelta`` values, the kind of its
graphs, the core's properness checks (a missing sdelta after the rank),
delta and its setting, and last the keys that name no source vertex or
edge.

A connected source over a disconnected target always leaves a fiber
empty; with a local-constancy fault, an empty fiber or a missing sdelta
beside it, the loader and the public constructor name the connectivity.
"""

import pytest

from wildskel.delta_morphism import morphism_from_json_dict
from wildskel.genus_graph import GenusGraph

from tests.support import (
    DELETE,
    DISCONNECTED_TARGET_CASES,
    E,
    V,
    _constructed,
    _edited,
    _graph,
    _morphism,
    load_mutations,
    messages_under_hash_seed,
)

GRAPH_CASES = {
    "vertex entry before edge entry": (
        False, [(V, 1, "b"), (E, 0, ["a", "b"])],
        "vertices entry 'b' is not an object",
    ),
    "vertex id before missing edges": (
        False, [(V, 1, "id", 1.5), (E, DELETE)],
        "vertices entry id 1.5 is not a string or an integer",
    ),
    "missing edges before genus": (
        False, [(V, 0, "genus", 1.5), (E, DELETE)],
        "graph lacks key 'edges'",
    ),
    "edge id before genus of an earlier vertex": (
        False, [(V, 0, "genus", 1.5), (E, 1, "id", [1])],
        "edges entry id [1] is not a string or an integer",
    ),
    "edge id before infinite_leaves type": (
        False, [(E, 1, "id", None), ("infinite_leaves", "a")],
        "edges entry id None is not a string or an integer",
    ),
    "infinite_leaves type before genus": (
        False, [("infinite_leaves", "a"), (V, 0, "genus", True)],
        "graph infinite_leaves is not a list",
    ),
    "genus before endpoints": (
        False, [(V, 1, "genus", "0"), (E, 0, "from", DELETE)],
        "vertex b genus '0' is not an integer",
    ),
    "genus before lengths": (
        True, [(V, 1, "genus", None), (E, 0, "length", "x")],
        "vertex b genus None is not an integer",
    ),
    "genus before an end that is not an id": (
        False, [(V, 1, "genus", 0.5), (E, 0, "from", 1.5)],
        "vertex b genus 0.5 is not an integer",
    ),
    "an end that is not an id before lengths": (
        True, [(E, 0, "length", "x"), (E, 1, "to", None)],
        "edge f to None is not a string or an integer",
    ),
    "missing from before a to that is not an id": (
        False, [(E, 0, "from", DELETE), (E, 0, "to", True)],
        "edge e lacks key 'from'",
    ),
    "a leaf that is not an id before genus": (
        True, [(V, 0, "genus", None), ("infinite_leaves", [["b"]])],
        "graph infinite_leaves entry ['b'] is not a string or an integer",
    ),
    "endpoints of a later edge before lengths": (
        True, [(E, 0, "length", "x"), (E, 1, "to", DELETE)],
        "edge f lacks key 'to'",
    ),
    "endpoints of a later edge before a missing length": (
        True, [(E, 0, "length", DELETE), (E, 1, "from", DELETE)],
        "edge f lacks key 'from'",
    ),
    "a missing length is a lengths fault": (
        False, [(E, 1, "length", "1")],
        "edge e lacks key 'length'",
    ),
    "infinite leaves make a graph metric": (
        False, [("infinite_leaves", ["a"])],
        "edge e lacks key 'length'",
    ),
    "length type before negative genus": (
        True, [(V, 0, "genus", -1), (E, 1, "length", 2)],
        "edge f length 2 is not a string",
    ),
    "zero denominator before an outside endpoint": (
        True, [(E, 0, "from", "zz"), (E, 1, "length", "1/0")],
        "'1/0' has a zero denominator",
    ),
    "missing length before a nonpositive one": (
        True, [(E, 0, "length", "0"), (E, 1, "length", DELETE)],
        "edge f lacks key 'length'",
    ),
    "negative genus before an outside endpoint": (
        False, [(V, 1, "genus", -1), (E, 0, "to", "zz")],
        "vertex b has negative genus",
    ),
    "outside endpoints in file order": (
        False, [(E, 0, "id", "z"), (E, 0, "from", "q"), (E, 1, "to", "r")],
        "edge z has an endpoint outside the vertex set",
    ),
    "outside endpoint before repeated vertex": (
        False, [(V, "+", {"id": "a", "genus": 0}), (E, 0, "to", "zz")],
        "edge e has an endpoint outside the vertex set",
    ),
    "negative genus beside a repeated vertex": (
        False, [(V, "+", {"id": "b", "genus": -1}), (V, "+", {"id": "a", "genus": 0})],
        "vertex b has negative genus",
    ),
    "nonpositive length before leaves": (
        True, [(E, 1, "length", "-1"), ("infinite_leaves", ["zz"])],
        "edge f has nonpositive length -1",
    ),
    "nonpositive length on a later edge before a tail fault": (
        True, [(E, 0, "length", "inf"), (E, 1, "length", "-1")],
        "edge f has nonpositive length -1",
    ),
    "leaf genus before the tail fault of an earlier edge": (
        True, [(V, 1, "genus", 1), ("infinite_leaves", ["b"])],
        "infinite leaf b must have genus 0",
    ),
    "leaf not a vertex before the tail rule": (
        True, [("infinite_leaves", ["zz"])],
        "infinite leaf zz is not a vertex",
    ),
    "leaf valence before the tail rule": (
        True, [("infinite_leaves", ["b"])],
        "infinite leaf b must have valence 1",
    ),
    "repeated vertex before repeated edge": (
        False, [(V, "+", {"id": "a", "genus": 0}), (E, "+", {"id": "e", "from": "a", "to": "b"})],
        "graph repeats vertex id 'a'",
    ),
    "integer id repeats its string": (
        False, [(E, "+", {"id": "1", "from": "a", "to": "b"}), (E, "+", {"id": 1, "from": "a", "to": "b"})],
        "graph repeats edge id '1'",
    ),
    "the tail rule before a repeated leaf": (
        True, [(V, "+", {"id": "c", "genus": 0}), (E, "+", {"id": "g", "from": "a", "to": "c", "length": "1"}),
               ("infinite_leaves", ["c", "c"])],
        "edge g must have infinite length iff it is a tail",
    ),
    "repeated edge before repeated leaf": (
        True, [(V, "+", {"id": "c", "genus": 0}), (E, "+", {"id": "g", "from": "a", "to": "c", "length": "inf"}),
               (E, "+", {"id": "e", "from": "a", "to": "b", "length": "1"}), ("infinite_leaves", ["c", "c"])],
        "graph repeats edge id 'e'",
    ),
    "integer leaf repeats its string": (
        True, [(V, "+", {"id": "1", "genus": 0}), (E, "+", {"id": "g", "from": "a", "to": 1, "length": "inf"}),
               ("infinite_leaves", [1, "1"])],
        "graph repeats infinite leaf id '1'",
    ),
}

MORPHISM_CASES = {
    "source graph before target graph": (
        False, [("source", V, 0, "genus", 1.5), ("target", E, DELETE)],
        "vertex a genus 1.5 is not an integer",
    ),
    "target graph before maps": (
        False, [("target", V, DELETE), ("vertex_map", DELETE)],
        "target graph lacks key 'vertices'",
    ),
    "vertex_map before n": (
        False, [("vertex_map", DELETE), ("n", "e", 1.5)],
        "morphism lacks key 'vertex_map'",
    ),
    "edge_map before n": (
        False, [("edge_map", DELETE), ("n", "e", "x")],
        "morphism lacks key 'edge_map'",
    ),
    "a vertex_map value that is not an id before edge_map": (
        False, [("vertex_map", "b", 1.5), ("edge_map", DELETE)],
        "morphism vertex_map value of 'b' is 1.5, not a string or an integer",
    ),
    "an edge_map value that is not an id before n": (
        False, [("edge_map", "f", None), ("n", "e", "x")],
        "morphism edge_map value of 'f' is None, not a string or an integer",
    ),
    "n before sdelta": (
        False, [("n", "f", 1.5), ("sdelta", "e", True)],
        "morphism n value of 'f' is 1.5, not an integer",
    ),
    "sdelta before kind": (
        False, [("sdelta", "e", 0.5), ("target", E, 0, "length", "1"), ("target", E, 1, "length", "1")],
        "morphism sdelta value of 'e' is 0.5, not an integer",
    ),
    "kind before the core": (
        False, [("target", E, 0, "length", "1"), ("target", E, 1, "length", "1"), ("vertex_map", "a", "zz")],
        "source and target must both be metric or both plain",
    ),
    "unmapped vertex before unmapped edge": (
        False, [("vertex_map", "b", "zz"), ("edge_map", "e", "zz")],
        "vertex b is not mapped to a target vertex",
    ),
    "edges in sorted order": (
        False, [("edge_map", "f", "zz"), ("n", "e", 0)],
        "edge e needs a positive multiplicity",
    ),
    "multiplicity of a later edge before a missing sdelta": (
        False, [("sdelta", "e", DELETE), ("n", "f", 0)],
        "edge f needs a positive multiplicity",
    ),
    "connectivity before a missing sdelta": (
        False, [("source", V, "+", {"id": "c", "genus": 0}), ("vertex_map", "c", "A"), ("sdelta", "e", DELETE)],
        "properness requires connected graphs",
    ),
    "local constancy before a missing sdelta": (
        False, [("n", "e", 2), ("sdelta", "f", DELETE)],
        "multiplicity is not locally constant at vertex a: "
        "{OrientedEdge(edge='E', forward=True): 2, OrientedEdge(edge='F', forward=True): 1}",
    ),
    "missing sdelta in sorted order": (
        False, [("sdelta", "f", DELETE), ("sdelta", "e", DELETE)],
        "edge e has no sdelta value",
    ),
    "missing sdelta before delta without setting": (
        False, [("sdelta", "e", DELETE), ("delta", {"a": "0", "b": "0"})],
        "edge e has no sdelta value",
    ),
    "delta without setting before unknown keys": (
        False, [("n", "zz", 1), ("delta", {"a": "0", "b": "0"})],
        "delta values require a residue setting",
    ),
    "dilation before unknown keys": (
        True, [("source", E, 0, "length", "7"), ("n", "zz", 1)],
        "dilation fails on edge e: 1 != 1 * 7",
    ),
    "unknown keys in key order": (
        False, [("sdelta", "zz", 0), ("vertex_map", "zz", "A")],
        "morphism vertex_map names unknown vertex 'zz'",
    ),
}


def _first_message(load, doc) -> str:
    with pytest.raises(ValueError) as info:
        load(doc)
    return str(info.value)


@pytest.mark.parametrize("name", sorted(GRAPH_CASES))
def test_graph_loader_names_the_earlier_stage(name):
    metric, edits, message = GRAPH_CASES[name]
    assert _first_message(GenusGraph.from_json_dict, _edited(_graph(metric), edits)) == message


@pytest.mark.parametrize("name", sorted(MORPHISM_CASES))
def test_morphism_loader_names_the_earlier_stage(name):
    metric, edits, message = MORPHISM_CASES[name]
    assert _first_message(morphism_from_json_dict, _edited(_morphism(metric), edits)) == message


@pytest.mark.parametrize("load", [morphism_from_json_dict, _constructed], ids=["loader", "constructor"])
@pytest.mark.parametrize("name", sorted(DISCONNECTED_TARGET_CASES))
def test_a_disconnected_target_is_named_first(name, load):
    doc = _edited(_morphism(), DISCONNECTED_TARGET_CASES[name])
    assert _first_message(load, doc) == "properness requires connected graphs"


def test_constructor_names_an_edge_without_a_length():
    """The loader names a missing length itself; only the core's check
    reaches a public constructor's lengths."""
    with pytest.raises(ValueError, match="^edge f has no length$"):
        GenusGraph({"a": 0, "b": 0}, {"e": ("a", "b"), "f": ("a", "b")}, {"e": 1})


def _faulty_leaf_graphs():
    """Graphs whose infinite leaves have two or three faults: leaves that
    are no vertex, of genus 1 or of valence 0 or 2, alone and mixed; each as
    constructor arguments and as a document."""
    genera = {"c": 0, "a": 0, "g": 1, "h": 1, "k": 1, "p": 0, "q": 0}
    edges = {"e1": ["c", "a"], "e2": ["c", "g"], "e3": ["c", "h"], "e4": ["c", "k"],
             "e5": ["c", "p"], "e6": ["p", "a"]}
    for leaves in (["y", "x"], ["x", "y", "z"], ["z", "y", "x"], ["h", "g"], ["k", "h", "g"],
                   ["q", "p"], ["q", "x", "g"], ["p", "h", "y"]):
        lengths = {e: "inf" if set(ends) & set(leaves) else "1" for e, ends in edges.items()}
        yield "graph", [genera, edges, lengths, leaves]
        yield "load graph", {
            "vertices": [{"id": v, "genus": g} for v, g in genera.items()],
            "edges": [{"id": e, "from": u, "to": v, "length": lengths[e]}
                      for e, (u, v) in edges.items()],
            "infinite_leaves": leaves,
        }


def test_messages_do_not_depend_on_the_hash_seed():
    """Two interpreters with different hash seeds name the same fault of
    every graph with several faulty infinite leaves, of the documents of the
    tables above and of 200 mutated morphism documents."""
    faulty = [
        *_faulty_leaf_graphs(),
        *(("load graph", _edited(_graph(metric), edits))
          for metric, edits, _ in GRAPH_CASES.values()),
        *(("load morphism", _edited(_morphism(metric), edits))
          for metric, edits, _ in MORPHISM_CASES.values()),
    ]
    cases = faulty + [("load morphism", doc) for doc in load_mutations(3, 200)]
    first = messages_under_hash_seed(0, cases)
    assert len(first) == len(cases) and all(first[:len(faulty)])
    assert messages_under_hash_seed(1, cases) == first
