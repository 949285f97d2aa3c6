from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest

from knitgraph import (
    DirectedKnitGraph,
    EdgeColor,
    GraphDocument,
    MAX_VERTICES,
    SchemaError,
    YarnGraph,
    all_fixtures,
    export_dot,
    parse_document,
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
        assert parse_document(serialize_json(g)).graph == g


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
        assert parse_document(serialize_json(y)).graph == y


def test_missing_n_is_schema_error():
    with pytest.raises(SchemaError):
        parse_document(b'{"directed": true, "edges": []}')


def test_bad_color_is_schema_error():
    with pytest.raises(SchemaError):
        parse_document(
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


@pytest.mark.parametrize("key", [" 2", "02", "+2", "2 ", "0_2"])
def test_layout_refuses_an_alias_of_a_vertex_id(key):
    # int() reads each key as 2; taken as such, it would move vertex 2
    doc = '{"n": 3, "directed": true, "edges": [], "layout": {"0": [0, 0], "1": [0, 1], "2": [0, 2], "%s": [5, 7]}}' % key
    with pytest.raises(SchemaError, match=re.escape(f"vertex id '{key}' must be written '2'")):
        parse_document(doc)


@pytest.mark.parametrize(
    "col, shown", [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf")]
)
def test_layout_refuses_a_non_finite_column(col, shown):
    doc = '{"n": 2, "directed": true, "edges": [], "layout": {"0": [0, 0], "1": [0, %s]}}' % col
    with pytest.raises(SchemaError, match=rf"layout\[1\]: column must be finite, found {shown}$"):
        parse_document(doc)


def test_invalid_json_reports_line():
    with pytest.raises(SchemaError, match="line"):
        parse_document(b"{not json")


def test_invalid_utf8_is_schema_error():
    with pytest.raises(SchemaError, match="invalid utf-8 at byte 1"):
        parse_document(b'{\xff}')


def test_layout_round_trip_keeps_fractions():
    kfb_doc = parse_document(
        serialize_json(
            GraphDocument(all_fixtures()[2].graph, all_fixtures()[2].layout, {})
        )
    )
    assert kfb_doc.layout == all_fixtures()[2].layout


@pytest.mark.parametrize("col", [Fraction(1, 2), Fraction(3, 5), Fraction(-7, 4)])
def test_layout_column_with_an_exact_spelling_round_trips(col):
    doc = GraphDocument(DirectedKnitGraph(2, ((0, 1, B),)), {0: (0, 0), 1: (1, col)}, {})
    assert parse_document(serialize_json(doc)).layout[1] == (1, col)


def test_layout_column_without_an_exact_spelling_is_refused():
    # 1/3 would be written as 0.3333333333333333 and read back as a different column
    layout = {0: (0, 0), 1: (1, Fraction(1, 3))}
    doc = GraphDocument(DirectedKnitGraph(2, ((0, 1, B),)), layout, {})
    with pytest.raises(ValueError, match=r"^layout\[1\]: column 1/3 cannot be written exactly$"):
        serialize_json(doc)


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


def _doc(edges, meta=None, **top):
    return json.dumps({"n": 3, "directed": True, "edges": edges, "meta": meta, **top})


@pytest.mark.parametrize("multigraph", [False, True])
@pytest.mark.parametrize("color", [[], {}, ["blue"]])
def test_unhashable_color_is_schema_error(color, multigraph):
    doc = _doc([{"src": 0, "dst": 1, "color": color}], multigraph=multigraph)
    with pytest.raises(SchemaError, match=r"edges\[0\]: unknown color"):
        parse_document(doc)


@pytest.mark.parametrize(
    "bad_edge, message",
    [
        (5, "expected an object"),
        ({"dst": 1}, "missing field 'src'"),
        ({"src": 0}, "missing field 'dst'"),
        ({"src": True, "dst": 1}, "field 'src' must be int"),
        ({"src": 0, "dst": 1.0}, "field 'dst' must be int"),
        ({"src": 0, "dst": 1, "color": "green"}, "unknown color 'green'"),
        ({"src": 0, "dst": 1, "color": True}, "unknown color True"),
    ],
)
def test_edge_errors_name_the_first_bad_edge(bad_edge, message):
    edges = [{"src": 0, "dst": 1, "color": "blue"}, bad_edge, {"src": 9}]
    with pytest.raises(SchemaError, match=r"^edges\[1\]: " + message):
        parse_document(_doc(edges))


@pytest.mark.parametrize("multigraph", [False, True])
def test_undirected_document_is_schema_error(multigraph):
    # checked right after the field is read, before any edge is looked at
    for edges in ([{"src": 0, "dst": 1}], [{"src": 0}]):
        with pytest.raises(SchemaError, match="^top level: 'directed' must be true$"):
            parse_document(_doc(edges, directed=False, multigraph=multigraph))
    with pytest.raises(SchemaError, match="field 'directed' must be bool"):
        parse_document(_doc([], directed=0))


def test_multigraph_color_error_comes_after_edge_errors():
    edges = [{"src": 0, "dst": 1, "color": "blue"}, {"src": 1}]
    with pytest.raises(SchemaError, match="missing field 'dst'"):
        parse_document(_doc(edges, multigraph=True))
    with pytest.raises(SchemaError, match="must not carry colors"):
        parse_document(_doc(edges[:1], multigraph=True))


@pytest.mark.parametrize("k", ["x", "q", True, False, -1, 1.0, [1], {}])
@pytest.mark.parametrize("multigraph", [False, True])
def test_meta_k_must_be_a_non_negative_int(k, multigraph):
    with pytest.raises(SchemaError, match="meta: 'k' must be a non-negative int"):
        parse_document(_doc([], {"k": k}, multigraph=multigraph))


@pytest.mark.parametrize(
    "threads, message",
    [
        (5, "'threads' must be a list"),
        ("012", "'threads' must be a list"),
        ({"0": [0]}, "'threads' must be a list"),
        ([0, 1, 2], r"threads\[0\]: expected a list"),
        ([[0, 1], "2"], r"threads\[1\]: expected a list"),
        ([[0, "a"]], r"threads\[0\]: 'a' is not a vertex id"),
        ([[True]], r"threads\[0\]: True is not a vertex id"),
        ([[0], [3]], r"threads\[1\]: 3 is not a vertex id for n=3"),
        ([[-1]], r"threads\[0\]: -1 is not a vertex id"),
        ([[1.0]], r"threads\[0\]: 1.0 is not a vertex id"),
    ],
)
def test_meta_threads_must_be_lists_of_vertex_ids(threads, message):
    with pytest.raises(SchemaError, match="meta.*" + message):
        parse_document(_doc([], {"threads": threads}))


@pytest.mark.parametrize("meta", [[], 0, False, ""], ids=repr)
def test_falsy_meta_that_is_not_an_object_is_schema_error(meta):
    # only a missing meta or null reads as no metadata
    with pytest.raises(SchemaError, match="^meta: expected an object$"):
        parse_document(_doc([], meta))


def test_meta_k_and_threads_accepted():
    for meta in ({"k": 0, "threads": [[0, 1], [2], []]}, {"k": None, "threads": None}, {"k": 7},
                 {"multi_orientation": True}, {"multi_orientation": False},
                 {"multi_orientation": None}):
        assert parse_document(_doc([], meta)).meta == meta
    yarn = parse_document(_doc([{"src": 0, "dst": 1}], {"k": 2}, multigraph=True))
    assert yarn.graph.yarn_count_hint == 2


@pytest.mark.parametrize("multigraph", [False, True])
def test_n_outside_zero_to_the_cap_is_schema_error(multigraph):
    # only cap + 1: the check comes before any O(n) list is built
    for n in (-1, MAX_VERTICES + 1):
        message = rf"^top level: n must be in \[0, 1000000\], found {n}$"
        with pytest.raises(SchemaError, match=message):
            parse_document(_doc([], n=n, multigraph=multigraph))

