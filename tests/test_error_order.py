"""Which fault the loaders and cores name first, when a document has two.

Each row of ``GRAPH_CASES`` and ``MORPHISM_CASES`` (``tests/support.py``,
which ``tools/same_outputs.py`` records too) holds two faults from
adjacent stages of the read path, the later stage's fault usually in an
earlier entry, so a loader that raised a fault as soon as it met it would
name the wrong one.
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
    DISCONNECTED_TARGET_CASES,
    GRAPH_CASES,
    MORPHISM_CASES,
    _constructed,
    _edited,
    _graph,
    _morphism,
    load_mutations,
    messages_under_hash_seed,
)


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
