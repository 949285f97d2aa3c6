from __future__ import annotations

import json

import pytest

from knitgraph import (
    DirectedKnitGraph,
    EdgeColor,
    GraphDocument,
    SchemaError,
    YarnGraph,
    all_fixtures,
    export_dot,
    parse_document,
    parse_json,
    serialize_json,
    underlying_knitting_graph,
)

B, U = EdgeColor.BLUE, EdgeColor.UNCOLORED


def test_round_trip_fixtures():
    for f in all_fixtures():
        meta = {"k": f.k, "threads": [list(t) for t in f.cover]}
        doc = GraphDocument(f.graph, f.layout, meta)
        assert parse_document(serialize_json(doc)) == doc
        assert parse_document(serialize_json(GraphDocument(f.yarn))).graph == f.yarn


def test_round_trip_random_graphs(rng):
    from conftest import random_dag

    for _ in range(1000):
        g = random_dag(rng, rng.randint(0, 50), rng.random() * 0.3)
        colors = [B, EdgeColor.RED, EdgeColor.PURPLE, U]
        g = DirectedKnitGraph(
            g.n, tuple((s, d, rng.choice(colors)) for s, d, _ in g.edges)
        )
        assert parse_json(serialize_json(g)) == g


def test_round_trip_random_yarn(rng):
    for _ in range(200):
        n = rng.randint(2, 20)
        arcs = []
        for _ in range(rng.randint(0, 30)):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v:
                arcs.append((u, v))
        y = YarnGraph(n, tuple(arcs))
        assert parse_json(serialize_json(y)) == y


def test_missing_n_is_schema_error():
    with pytest.raises(SchemaError):
        parse_json(b'{"directed": true, "edges": []}')


def test_bad_color_is_schema_error():
    with pytest.raises(SchemaError):
        parse_json(
            b'{"n": 2, "directed": true, "edges": [{"src": 0, "dst": 1, "color": "green"}]}'
        )


@pytest.mark.parametrize(
    "layout, message",
    [
        ('{"0": [0, 0]}', "vertex 1 has no position"),
        ('{"0": [0, 0], "1": [0, 1], "2": [1, 0]}', "vertex id 2 out of range"),
        ('{"0": [0, 0], "-1": [0, 1]}', "vertex id -1 out of range"),
    ],
)
def test_layout_must_cover_exactly_the_vertices(layout, message):
    doc = '{"n": 2, "directed": true, "edges": [], "layout": %s}' % layout
    with pytest.raises(SchemaError, match=message):
        parse_document(doc)


def test_invalid_json_reports_line():
    with pytest.raises(SchemaError, match="line"):
        parse_json(b"{not json")


def test_layout_round_trip_keeps_fractions():
    kfb_doc = parse_document(
        serialize_json(
            GraphDocument(all_fixtures()[2].graph, all_fixtures()[2].layout, {})
        )
    )
    assert kfb_doc.layout == all_fixtures()[2].layout


def test_dot_chain():
    g = DirectedKnitGraph(3, ((0, 1, B), (1, 2, B)))
    dot = export_dot(g)
    assert dot.startswith("digraph")
    assert dot.count("->") == 2
    assert dot.count("color=blue") == 2
    assert "  0;" in dot and "  2;" in dot


def test_dot_undirected_and_yarn():
    g = DirectedKnitGraph(2, ((0, 1, B),))
    und = export_dot(underlying_knitting_graph(g))
    assert und.startswith("graph") and "--" in und
    yarn = export_dot(YarnGraph(2, ((0, 1), (1, 0))))
    assert yarn.count("->") == 2 and "color=gray" in yarn


def test_serialized_form_is_valid_schema():
    f = all_fixtures()[0]
    doc = json.loads(serialize_json(GraphDocument(f.graph, f.layout, {"k": 1})))
    assert set(doc) <= {"n", "directed", "multigraph", "edges", "layout", "meta"}
    assert all(set(e) == {"src", "dst", "color"} for e in doc["edges"])
