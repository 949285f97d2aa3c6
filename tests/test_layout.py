from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dag
from knitgraph import (
    BlueCrossingError,
    ComplexityClass,
    DegenerateLayoutError,
    DirectedKnitGraph,
    EdgeColor,
    GraphDocument,
    KnittingGraph,
    NotPlanarLayoutError,
    NotSingleThreadError,
    RedRule,
    UncoloredPresentError,
    all_fixtures,
    cable_width,
    check_simple_knittable,
    classify_complexity,
    count_rows,
    crossing_graph,
    gen_brioche_maximal,
    gen_stitch_fixture,
    gen_stockinette,
    is_planar,
    serialize_json,
    topological_sort,
    underlying_knitting_graph,
)
from knitgraph import cli
from knitgraph import layout as layout_module
from knitgraph.layout import CrossingGraph, row_layers

B, R, P, U = EdgeColor.BLUE, EdgeColor.RED, EdgeColor.PURPLE, EdgeColor.UNCOLORED


def _point(layout, v):
    """Vertex v at (x=col, y=row) in `Fraction`s, unscaled."""
    row, col = layout[v]
    return (Fraction(col), Fraction(row))


def _orient(a, b, c):
    val = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (val > 0) - (val < 0)


def _on_segment(a, b, p):
    """p collinear with ab assumed; is p within the closed box of ab?"""
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _proper_crossing(a, b, c, d):
    """Interior intersection point of segments ab and cd, or None.

    Collinear overlap raises; touching at a shared coordinate is handled by
    the callers' vertex checks.
    """
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)
    if o1 == 0 and o2 == 0:
        # collinear: overlapping segments are a degenerate drawing
        if _on_segment(a, b, c) or _on_segment(a, b, d) or _on_segment(c, d, a):
            raise DegenerateLayoutError(c, "collinear overlapping edges")
        return None
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        # strict crossing; solve for the intersection point exactly
        denom = (b[0] - a[0]) * (d[1] - c[1]) - (b[1] - a[1]) * (d[0] - c[0])
        t = ((c[0] - a[0]) * (d[1] - c[1]) - (c[1] - a[1]) * (d[0] - c[0])) / denom
        return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
    return None


def _crossing_graph_bruteforce(g, layout):
    """Reference crossing graph: every vertex against every edge and every
    edge pair against every other, in `Fraction` arithmetic."""
    if isinstance(g, KnittingGraph):
        pairs = list(g.edges)
    else:
        pairs = [(s, d) for s, d, _ in g.edges]
    points = {}
    seen_points = {}
    vertices = {v for e in pairs for v in e} | set(range(g.n))
    for v in vertices:
        if v not in layout:
            raise DegenerateLayoutError(None, f"vertex {v} missing from layout")
        p = _point(layout, v)
        if p in seen_points:
            raise DegenerateLayoutError(p, "two vertices share a position")
        seen_points[p] = v
        points[v] = p

    # a vertex inside a non-incident edge makes sides ill-defined
    for u, w in pairs:
        a, b = points[u], points[w]
        for v, p in points.items():
            if v in (u, w):
                continue
            if _orient(a, b, p) == 0 and _on_segment(a, b, p) and p not in (a, b):
                raise DegenerateLayoutError(p, f"vertex {v} lies on edge {(u, w)}")

    links = []
    meeting = {}
    for i in range(len(pairs)):
        u1, w1 = pairs[i]
        a, b = points[u1], points[w1]
        for j in range(i + 1, len(pairs)):
            u2, w2 = pairs[j]
            if {u1, w1} & {u2, w2}:
                continue
            cross = _proper_crossing(a, b, points[u2], points[w2])
            if cross is not None:
                links.append((i, j))
                edges_here = meeting.setdefault(cross, set())
                edges_here.update((i, j))
                if len(edges_here) > 2:
                    raise DegenerateLayoutError(cross, "three edges concurrent")
    return CrossingGraph(tuple(pairs), tuple(links))


def _outcome(crossings, g, layout):
    try:
        cg = crossings(g, layout)
    except DegenerateLayoutError as exc:
        return ("error", type(exc), str(exc), exc.point)
    return ("ok", cg.edge_pairs, cg.links)


def assert_matches_oracle(g, layout):
    expected = _outcome(_crossing_graph_bruteforce, g, layout)
    assert _outcome(crossing_graph, g, layout) == expected
    return expected


def complete_graph(n):
    return KnittingGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def test_planarity_obstructions():
    assert not is_planar(complete_graph(5))
    k33 = KnittingGraph(6, tuple((i, 3 + j) for i in range(3) for j in range(3)))
    assert not is_planar(k33)


def test_planarity_accepts_fixtures_and_trees():
    assert is_planar(underlying_knitting_graph(gen_stockinette(3, 3).graph))
    tree = KnittingGraph(5, ((0, 1), (0, 2), (1, 3), (1, 4)))
    assert is_planar(tree)
    assert is_planar(KnittingGraph(1, ()))


def test_planarity_of_a_directed_graph_is_that_of_its_underlying_graph(rng):
    graphs = [f.graph for f in all_fixtures()]
    graphs += [gen_brioche_maximal(14).graph, gen_stockinette(6, 7, round=True).graph]
    # at n <= 9 most of these stay under the Euler bound, planar or not,
    # so networkx decides them
    graphs += [random_dag(rng, rng.randint(1, 9), rng.choice([0.3, 0.6, 0.8])) for _ in range(60)]
    # colored edges, as a witness carries them
    graphs += [
        DirectedKnitGraph(g.n, tuple((s, d, (B, R, P)[(s + d) % 3]) for s, d, _ in g.edges))
        for g in graphs[-20:]
    ]
    answers = [is_planar(g) for g in graphs]
    assert answers == [is_planar(underlying_knitting_graph(g)) for g in graphs]
    assert True in answers and False in answers


def test_crossing_graph_stockinette_is_empty():
    f = gen_stockinette(3, 3)
    assert crossing_graph(f.graph, f.layout).links == ()


def test_crossing_graph_c1b_single_pair():
    f = gen_stitch_fixture("c1b")
    cg = crossing_graph(f.graph, f.layout)
    assert len(cg.links) == 1
    i, j = cg.links[0]
    assert {cg.edge_pairs[i], cg.edge_pairs[j]} == {(5, 9), (6, 10)}


def test_crossing_graph_brioche_diagonals():
    f = gen_brioche_maximal(6)
    cg = crossing_graph(f.graph, f.layout)
    counts = {}
    for i, j in cg.links:
        counts[i] = counts.get(i, 0) + 1
        counts[j] = counts.get(j, 0) + 1
    lay = f.layout
    for idx, (u, v) in enumerate(cg.edge_pairs):
        diagonal = lay[u][0] != lay[v][0] and lay[u][1] != lay[v][1]
        assert counts.get(idx, 0) == (1 if diagonal else 0)


def test_crossing_graph_invariant_under_translation_scaling():
    f = gen_stitch_fixture("c1b")
    base = crossing_graph(f.graph, f.layout).links
    moved = {
        v: (row + 7, col * Fraction(3, 2) + 5) for v, (row, col) in f.layout.items()
    }
    # rows are ints in the schema; scale columns only and shift rows
    moved = {v: (row, col) for v, (row, col) in moved.items()}
    assert crossing_graph(f.graph, moved).links == base


def test_crossing_graph_degenerate_duplicate_points():
    g = DirectedKnitGraph(2, ((0, 1, B),))
    with pytest.raises(DegenerateLayoutError):
        crossing_graph(g, {0: (0, Fraction(0)), 1: (0, Fraction(0))})


def test_crossing_graph_degenerate_vertex_on_edge():
    g = DirectedKnitGraph(3, ((0, 1, B), (1, 2, B)))
    layout = {0: (0, Fraction(0)), 1: (0, Fraction(2)), 2: (0, Fraction(1))}
    with pytest.raises(DegenerateLayoutError):
        crossing_graph(g, layout)


def test_crossing_graph_missing_vertex():
    g = DirectedKnitGraph(2, ((0, 1, B),))
    with pytest.raises(DegenerateLayoutError):
        crossing_graph(g, {0: (0, Fraction(0))})


COLUMNS = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([2, 3, 7])),
    st.sampled_from([Fraction("0.6"), Fraction("-1.4"), 0.6, -2.5]),
)
FAULTS = [None, "duplicate", "on_edge", "collinear", "concurrent", "missing"]


@st.composite
def drawings(draw):
    """A small straight-line drawing on a fractional grid, undirected or
    colored, with one degeneracy planted on purpose unless the fault is
    None. Random positions are often degenerate on their own as well."""
    n = draw(st.integers(0, 8))
    layout = {v: (draw(st.integers(-3, 3)), draw(COLUMNS)) for v in range(n)}
    candidates = [(u, w) for u in range(n) for w in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
    edges = {e for e, k in zip(candidates, keep) if k}
    fault = draw(st.sampled_from(FAULTS))
    vs = draw(st.permutations(range(n)))
    r, c = draw(st.integers(-2, 2)), Fraction(draw(COLUMNS))
    dr, dc = draw(st.sampled_from([(0, 1), (1, 0), (1, 1), (1, -2), (1, Fraction(1, 3))]))
    if fault == "duplicate" and n >= 2:
        layout[vs[1]] = layout[vs[0]]
    elif fault == "on_edge" and n >= 3:
        # vs[2] at the midpoint of the edge vs[0]-vs[1]
        for k in range(3):
            layout[vs[k]] = (r + (2 * dr if k == 1 else dr if k == 2 else 0),
                             c + (2 * dc if k == 1 else dc if k == 2 else 0))
        edges.add(tuple(sorted(vs[:2])))
    elif fault == "collinear" and n >= 4:
        # four points on one line; edges 0-2 and 1-3 overlap
        for k in range(4):
            layout[vs[k]] = (r + k * dr, c + k * dc)
        edges |= {tuple(sorted((vs[0], vs[2]))), tuple(sorted((vs[1], vs[3])))}
    elif fault == "concurrent" and n >= 6:
        # three edges through (r, c), none of them ending there
        for k, (sr, sc) in enumerate([(0, 1), (1, 0), (1, 1)]):
            near, far = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            layout[vs[2 * k]] = (r - near * sr, c - near * sc)
            layout[vs[2 * k + 1]] = (r + far * sr, c + far * sc)
            edges.add(tuple(sorted((vs[2 * k], vs[2 * k + 1]))))
    elif fault == "missing" and n >= 1:
        del layout[vs[0]]
    edges = sorted(edges)
    if draw(st.booleans()):
        return KnittingGraph(n, tuple(edges)), layout
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    colors = draw(st.lists(st.sampled_from([B, R, P, U]), min_size=len(edges), max_size=len(edges)))
    arcs = tuple(
        (w, u, col) if flip else (u, w, col)
        for (u, w), flip, col in zip(edges, flips, colors)
    )
    return DirectedKnitGraph(n, arcs), layout


@st.composite
def convex_drawings(draw):
    """A dense graph with its vertices on the parabola row = column^2, so
    no three are collinear: the drawing crosses, is degenerate only where
    three edges meet, and most such graphs are not planar, which
    `drawings()` seldom gives."""
    n = draw(st.integers(5, 8))
    xs = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n, unique=True))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    dropped = draw(st.lists(st.sampled_from(pairs), max_size=n // 2))
    edges = tuple(p for p in pairs if p not in dropped)
    return KnittingGraph(n, edges), {v: (x * x, Fraction(x)) for v, x in enumerate(xs)}


@settings(max_examples=600, deadline=None)
@given(drawings())
def test_crossing_graph_matches_bruteforce_on_random_drawings(drawing):
    assert_matches_oracle(*drawing)


def test_crossing_graph_matches_bruteforce_on_fixtures():
    from knitgraph import all_fixtures

    pieces = [f for f in all_fixtures() if f.layout is not None]
    pieces += [gen_stockinette(6, 7), gen_brioche_maximal(8), gen_brioche_maximal(10)]
    for f in pieces:
        assert assert_matches_oracle(f.graph, f.layout)[0] == "ok", f.name
        # the same drawing sheared by a fractional column offset per row
        sheared = {v: (row, col + Fraction(row, 7)) for v, (row, col) in f.layout.items()}
        assert_matches_oracle(f.graph, sheared)


def _candidate_pairs_oracle(pairs, points):
    """`layout._candidate_pairs` as it was before the sweep carried each
    edge's ends and first band in its band entry: a new active list per
    entry, both first bands looked up per pair. The oracle of the sweep."""
    band_of_row = {y: k for k, y in enumerate(sorted({p[1] for p in points}))}
    bands = [[] for _ in band_of_row]
    first_band = []
    for i, (u, w) in enumerate(pairs):
        (ax, ay), (bx, by) = points[u], points[w]
        k0, k1 = sorted((band_of_row[ay], band_of_row[by]))
        first_band.append(k0)
        entry = (min(ax, bx), max(ax, bx), i)
        for k in range(k0, k1 + 1):
            bands[k].append(entry)
    out = []
    for k, band in enumerate(bands):
        band.sort()
        active = []
        for entry in band:
            x0, _x1, j = entry
            active = [a for a in active if a[1] >= x0]
            u, w = pairs[j]
            for _a0, _a1, i in active:
                shared = u in pairs[i] or w in pairs[i]
                if not shared and k == max(first_band[i], first_band[j]):
                    out.append((i, j) if i < j else (j, i))
            active.append(entry)
    out.sort()
    return out


def assert_sweep_matches_oracle(g, layout):
    """The sweep on the input `crossing_graph` gives it: every edge, then
    each vertex as a one-point edge. A vertex the drawing leaves out sits
    at the origin, so every drawing gives a full set of points."""
    points, _sx = layout_module._scaled_points(
        [layout.get(v, (0, 0)) for v in range(g.n)]
    )
    pairs = [edge[:2] for edge in g.edges] + [(v, v) for v in range(g.n)]
    assert layout_module._candidate_pairs(pairs, points) == _candidate_pairs_oracle(pairs, points)


@settings(max_examples=300, deadline=None)
@given(st.one_of(drawings(), convex_drawings()))
def test_candidate_pairs_match_the_old_sweep_on_random_drawings(drawing):
    assert_sweep_matches_oracle(*drawing)


def test_candidate_pairs_match_the_old_sweep_on_pieces():
    pieces = [f for f in all_fixtures() if f.layout is not None]
    pieces += [gen_stockinette(40, 40, round=False), gen_brioche_maximal(60)]
    for f in pieces:
        assert_sweep_matches_oracle(f.graph, f.layout)
        sheared = {v: (row, col + Fraction(row, 7)) for v, (row, col) in f.layout.items()}
        assert_sweep_matches_oracle(f.graph, sheared)


def test_crossing_graph_degenerate_error_points():
    """Each planted fault is reported with its point in layout coordinates."""
    # Two stars of three concurrent edges: edges 0, 3, 5 meet at (0, 1/2)
    # and edges 1, 2, 4 at (0, 5). The first star is found first in pair
    # order although its two crossings have determinants of unequal size
    # and opposite sign.
    stars = {
        0: (0, 0), 1: (0, 1), 6: (-1, Fraction(1, 2)), 7: (1, Fraction(1, 2)),
        10: (2, Fraction(-1, 2)), 11: (-2, Fraction(3, 2)),
        2: (0, 4), 3: (0, 6), 4: (-1, 5), 5: (1, 5), 8: (-1, 4), 9: (1, 6),
    }
    g = KnittingGraph(12, tuple((2 * k, 2 * k + 1) for k in range(6)))
    with pytest.raises(DegenerateLayoutError, match="three edges concurrent") as info:
        crossing_graph(g, stars)
    assert info.value.point == (Fraction(1, 2), Fraction(0))
    assert assert_matches_oracle(g, stars)[0] == "error"

    on_edge = {0: (0, Fraction(1, 3)), 1: (2, Fraction(1)), 2: (1, Fraction(2, 3))}
    g = KnittingGraph(3, ((0, 1),))
    with pytest.raises(DegenerateLayoutError, match="vertex 2 lies on edge") as info:
        crossing_graph(g, on_edge)
    assert info.value.point == (Fraction(2, 3), Fraction(1))

    # vertex 5 inside edge 0 and vertex 4 inside edge 1: the first edge is
    # named, although the later edge holds the smaller vertex
    two_on_edges = {0: (0, 0), 1: (0, 4), 2: (2, 0), 3: (2, 4), 4: (2, 2), 5: (0, 2)}
    g = KnittingGraph(6, ((0, 1), (2, 3)))
    with pytest.raises(DegenerateLayoutError, match=r"vertex 5 lies on edge \(0, 1\)") as info:
        crossing_graph(g, two_on_edges)
    assert info.value.point == (Fraction(2), Fraction(0))
    assert assert_matches_oracle(g, two_on_edges)[0] == "error"

    # a duplicate before the first missing vertex wins, as in vertex order
    g = KnittingGraph(4, ())
    layout = {0: (0, Fraction(1)), 1: (0, Fraction(1)), 3: (0, Fraction(2))}
    with pytest.raises(DegenerateLayoutError, match="share a position") as info:
        crossing_graph(g, layout)
    assert info.value.point == (Fraction(1), Fraction(0))
    layout = {0: (0, Fraction(1)), 2: (0, Fraction(1)), 3: (0, Fraction(2))}
    with pytest.raises(DegenerateLayoutError, match="vertex 1 missing") as info:
        crossing_graph(g, layout)
    assert info.value.point is None


@pytest.mark.parametrize(
    "g, layout, message",
    [
        (
            KnittingGraph(6, ((0, 1), (2, 3), (4, 5))),
            {0: (0, 0), 1: (2, 1), 2: (0, 1), 3: (2, 0), 4: (1, 0), 5: (1, 1)},
            "degenerate layout at row 1, column 1/2: three edges concurrent",
        ),
        (
            KnittingGraph(3, ((0, 1),)),
            {0: (0, 0), 1: (2, 1), 2: (1, Fraction(1, 2))},
            "degenerate layout at row 1, column 1/2: vertex 2 lies on edge (0, 1)",
        ),
        (
            KnittingGraph(2, ()),
            {0: (0, Fraction(1, 2)), 1: (0, Fraction(1, 2))},
            "degenerate layout at row 0, column 1/2: two vertices share a position",
        ),
        (
            KnittingGraph(2, ()),
            {0: (0, 0)},
            "degenerate layout: vertex 1 missing from layout",
        ),
    ],
    ids=["concurrent", "vertex-on-edge", "shared-position", "missing-vertex"],
)
def test_degenerate_layout_message_reads_row_then_column(g, layout, message):
    # the message follows the file's [row, column] order; `.point` stays (x, y)
    with pytest.raises(DegenerateLayoutError) as info:
        crossing_graph(g, layout)
    assert str(info.value) == message


def test_cable_width_plane_drawing():
    f = gen_stockinette(4, 4)
    assert cable_width(f.graph, f.layout) == 0


def test_cable_width_c1b():
    f = gen_stitch_fixture("c1b")
    assert cable_width(f.graph, f.layout) == 1


def test_cable_width_brioche_40():
    f = gen_brioche_maximal(40)
    assert cable_width(f.graph, f.layout) == 1


def test_crossing_graph_components_count_links_per_component():
    # components {0, 1, 2} with 2 links, {3, 4} with 1 and {5} with none
    cg = CrossingGraph(tuple((v, v + 1) for v in range(6)), ((0, 1), (1, 2), (3, 4)))
    assert cg.max_component_links() == 2
    # {0, 3} with 1 link and {1, 4, 6} with 3, whatever the link order
    cg = CrossingGraph(tuple((v, v + 1) for v in range(7)), ((4, 6), (1, 6), (0, 3), (1, 4)))
    assert cg.max_component_links() == 3
    assert CrossingGraph(((0, 1),), ()).max_component_links() == 0
    assert CrossingGraph((), ()).max_component_links() == 0


def test_cable_width_blue_crossing_rejected():
    # a purple arc is a thread step too, so it may cross no thread arc
    layout = {
        0: (0, Fraction(0)),
        1: (1, Fraction(1)),
        2: (1, Fraction(0)),
        3: (0, Fraction(1)),
    }
    for first, second in ((B, B), (P, B), (B, P), (P, P)):
        g = DirectedKnitGraph(4, ((0, 1, first), (2, 3, second)))
        with pytest.raises(BlueCrossingError):
            cable_width(g, layout)


def test_classify_fixture_expectations():
    from knitgraph import all_fixtures

    for f in all_fixtures():
        report = classify_complexity(f.graph, f.layout, f.rule)
        assert report.complexity is f.expected_class, f.name
        # a crossing-free layout proves planarity without the networkx test
        planar = is_planar(underlying_knitting_graph(f.graph))
        assert report.planar == planar, f.name
        assert classify_complexity(f.graph, None, f.rule).planar == planar, f.name


def test_classify_reads_the_colors_once(monkeypatch):
    calls = []
    colors = DirectedKnitGraph.colors

    def counted(self):
        calls.append(self)
        return colors(self)

    monkeypatch.setattr(DirectedKnitGraph, "colors", counted)
    uncolored = gen_stockinette(3, 3)
    uncolored = DirectedKnitGraph(9, tuple((s, d, U) for s, d, _ in uncolored.graph.edges))
    for f in all_fixtures():
        for layout in (f.layout, None):
            calls.clear()
            classify_complexity(f.graph, layout, f.rule)
            assert len(calls) == 1, f.name
    for layout in (gen_stockinette(3, 3).layout, None):
        calls.clear()
        with pytest.raises(UncoloredPresentError):
            classify_complexity(uncolored, layout)
        assert len(calls) == 1


def test_classify_star_stitch_like_is_class1():
    # planar, valid thread, but the hub passes through two and is passed by two
    g = DirectedKnitGraph(
        7,
        (
            (0, 1, B), (1, 2, B), (2, 3, B), (3, 4, B), (4, 5, B), (5, 6, B),
            (0, 3, R), (1, 3, R), (3, 5, R), (3, 6, R),
        ),
    )
    for rule in (RedRule.STRICT, RedRule.EXTENDED):
        report = classify_complexity(g, None, rule)
        assert report.complexity is ComplexityClass.CLASS1
        assert report.planar


def test_classify_nonplanar_is_class2():
    k5_directed = DirectedKnitGraph(
        5, tuple((i, j, R) for i in range(5) for j in range(i + 1, 5))
    )
    report = classify_complexity(k5_directed)
    assert report.complexity is ComplexityClass.CLASS2
    assert not report.planar


def test_classify_class3_from_metadata():
    f = gen_stockinette(3, 3, round=True)
    report = classify_complexity(f.graph, None, multi_orientation=True)
    assert report.complexity is ComplexityClass.CLASS3


def test_crossing_flags_partition():
    # only blue-blue crossings: red flag clear (1a), blue flag set (not 1b)
    g = DirectedKnitGraph(5, ((0, 1, B), (2, 3, B), (3, 4, R)))
    layout = {
        0: (0, Fraction(0)),
        1: (1, Fraction(1)),
        2: (1, Fraction(0)),
        3: (0, Fraction(1)),
        4: (0, Fraction(2)),
    }
    report = classify_complexity(g, layout)
    assert report.complexity is ComplexityClass.CLASS2
    assert report.crossings_on_blue and not report.crossings_on_red
    # brioche: only red-red crossings
    f = gen_brioche_maximal(6)
    report = classify_complexity(f.graph, f.layout, f.rule)
    assert report.crossings_on_red and not report.crossings_on_blue


def test_mixed_crossing_reads_both_edge_colors():
    # one blue and one red edge cross, the blue one first or second in
    # edge order: a cable of width 1 that sets both flags
    layout = {
        0: (0, Fraction(0)),
        1: (1, Fraction(1)),
        2: (1, Fraction(0)),
        3: (0, Fraction(1)),
    }
    for first, second in ((B, R), (R, B)):
        g = DirectedKnitGraph(4, ((0, 1, first), (2, 3, second)))
        assert cable_width(g, layout) == 1
        report = classify_complexity(g, layout)
        assert report.crossings_on_blue and report.crossings_on_red


def test_count_rows_flat_family():
    for r in range(1, 9):
        for c in (2, 3, 5):
            f = gen_stockinette(r, c)
            assert count_rows(f.graph, f.cover, f.layout) == r


def test_count_rows_single_row():
    f = gen_stockinette(1, 6)
    assert count_rows(f.graph, f.cover, f.layout) == 1


def test_count_rows_kfb():
    f = gen_stitch_fixture("kfb")
    assert count_rows(f.graph, f.cover, f.layout) == 3
    assert count_rows(f.graph, f.cover, None) == 3


def test_count_rows_needs_single_thread():
    f = gen_brioche_maximal(6)
    with pytest.raises(NotSingleThreadError):
        count_rows(f.graph, f.cover, f.layout)


def test_count_rows_rejects_nonplanar():
    g = DirectedKnitGraph(
        5, tuple((i, j, B if j == i + 1 else R) for i in range(5) for j in range(i + 1, 5))
    )
    with pytest.raises(NotPlanarLayoutError):
        count_rows(g, (tuple(range(5)),), None)


def _polar_drawing(r, c):
    """Round r x c with row i on the circle of radius 100 (i + 1) and
    column j at angle 2 pi j / c, rounded to ints: a plane drawing."""
    return {
        i * c + j: (round(100 * (i + 1) * math.sin(2 * math.pi * j / c)),
                    round(100 * (i + 1) * math.cos(2 * math.pi * j / c)))
        for i in range(r) for j in range(c)
    }


@pytest.mark.parametrize("r, c", [(3, 4), (4, 6), (6, 7)])
def test_count_rows_round_is_the_same_drawn_or_not(r, c):
    # the grid drawing crosses itself on the graph's planar cylinder; the
    # polar one is plane. Rows are a property of the graph and its thread.
    f = gen_stockinette(r, c, round=True)
    grid = {v: (v // c, v % c) for v in range(r * c)}
    polar = _polar_drawing(r, c)
    assert crossing_graph(f.graph, grid).links
    assert crossing_graph(f.graph, polar).links == ()
    for drawn in (None, grid, polar):
        assert count_rows(f.graph, f.cover, drawn) == r


def _count_rows_networkx(g, cover, layout=None):
    """`count_rows` as it was before a drawing could prove planarity: the
    networkx test on every call. The oracle of its refusal order and its
    count. A degenerate drawing is refused first, by the brute-force
    crossing graph, as every command that reads a drawing refuses it; then
    an uncolored arc, a cover of other than one thread and a cycle, each
    before the planarity test. The count is the loop layering, drawn or
    not."""
    if layout is not None:
        _crossing_graph_bruteforce(g, layout)
    if U in g.colors():
        raise UncoloredPresentError()
    thread = layout_module.single_thread(cover)
    topological_sort(g)
    if not is_planar(underlying_knitting_graph(g)):
        raise NotPlanarLayoutError()
    if not thread:
        return 0
    return row_layers(g, thread)[-1] + 1


def _rows_outcome(count, g, cover, layout):
    try:
        return "ok", count(g, cover, layout)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), exc.args


@settings(max_examples=600, deadline=None)
@given(st.one_of(drawings(), convex_drawings()), st.data())
def test_count_rows_matches_networkx_oracle_on_random_drawings(drawing, data):
    # degenerate drawings raise; crossing and non-planar ones fall back to
    # networkx, and `convex_drawings()` gives the crossing drawings of
    # non-planar graphs that `drawings()` seldom does
    g, layout = drawing
    if isinstance(g, KnittingGraph):
        g = DirectedKnitGraph(g.n, tuple((u, w, R) for u, w in g.edges))
    cover = (tuple(data.draw(st.permutations(range(g.n)))),)
    outcomes = []
    for drawn in (layout, None):
        outcomes.append(_rows_outcome(count_rows, g, cover, drawn))
        assert outcomes[-1] == _rows_outcome(_count_rows_networkx, g, cover, drawn)
    # a drawing never changes the count; it can only be refused
    assert outcomes[0] == outcomes[1] or outcomes[0][0] is DegenerateLayoutError


def _planar_command(g, layout, path):
    """`planar --json` on g and its drawing, in process: the verdict, or
    "degenerate" when it refuses the drawing. Columns are written scaled
    to ints by the LCM of their denominators, which keeps every crossing
    and every fault, since a file cannot hold a column such as 1/3."""
    if layout is not None:
        sx = math.lcm(*(Fraction(c).denominator for _r, c in layout.values()))
        layout = {v: (r, Fraction(c) * sx) for v, (r, c) in layout.items()}
    path.write_bytes(serialize_json(GraphDocument(g, layout)))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["planar", "--json", str(path)])
    if code == 2:
        assert err.getvalue().startswith("error: degenerate layout"), err.getvalue()
        return "degenerate"
    verdict = json.loads(out.getvalue())["planar"]
    assert (code, err.getvalue()) == (0 if verdict else 1, "")
    return verdict


@settings(max_examples=300, deadline=None)
@given(drawing=st.one_of(drawings(), convex_drawings()))
def test_classify_and_planar_agree_with_networkx_on_random_drawings(
    drawing, tmp_path_factory
):
    # a crossing-free drawing proves planarity without networkx; every
    # other drawing, and no drawing, must leave the answer to it
    g, layout = drawing
    g = DirectedKnitGraph(g.n, tuple((*edge[:2], R) for edge in g.edges))
    path = tmp_path_factory.getbasetemp() / "planar-drawing.json"
    for drawn in (layout, None):
        try:
            if drawn is not None:
                _crossing_graph_bruteforce(g, drawn)
            expected = is_planar(g)
        except DegenerateLayoutError:
            expected = "degenerate"
        try:
            classified = classify_complexity(g, drawn).planar
        except DegenerateLayoutError:
            classified = "degenerate"
        assert classified == expected
        # the schema refuses a drawing that leaves a vertex out before
        # `planar` reads it, so only a full drawing goes to the command
        if drawn is None or len(drawn) == g.n:
            assert _planar_command(g, drawn, path) == expected


def test_count_rows_matches_networkx_oracle_on_fixtures():
    from knitgraph import all_fixtures

    pieces = list(all_fixtures()) + [gen_stockinette(6, 7), gen_brioche_maximal(8)]
    for f in pieces:
        for cover in (f.cover, (tuple(v for t in f.cover for v in t),)):
            assert _rows_outcome(count_rows, f.graph, cover, f.layout) == _rows_outcome(
                _count_rows_networkx, f.graph, cover, f.layout
            ), f.name


def test_simplicity_stockinette():
    for f in (gen_stockinette(3, 3), gen_stockinette(4, 5), gen_stockinette(3, 3, round=False)):
        report = check_simple_knittable(f.graph, f.cover)
        assert report.swaps == 0
        assert report.layout is not None
        # the induced drawing is plane
        assert crossing_graph(f.graph, report.layout).links == ()


def test_simplicity_c1b_swaps_once():
    f = gen_stitch_fixture("c1b")
    report = check_simple_knittable(f.graph, f.cover)
    assert report.swaps == 1
    assert report.layout is None


def test_simplicity_trivial_thread():
    g = DirectedKnitGraph(3, ((0, 1, B), (1, 2, B)))
    report = check_simple_knittable(g, ((0, 1, 2),))
    assert report.swaps == 0
    assert report.layout is not None


def test_simplicity_round_is_not_simple():
    f = gen_stockinette(3, 3, round=True)
    assert check_simple_knittable(f.graph, f.cover).swaps > 0


def _check_simple_knittable_quadratic(g, cover):
    """`check_simple_knittable` as it was before it counted per band: every
    chord against every later chord in the sorted list, O(c^2). The oracle
    of the per-band count."""
    thread = layout_module.single_thread(cover)
    pos = {v: i for i, v in enumerate(thread)}
    rows = row_layers(g, thread)
    row_of = {v: rows[i] for i, v in enumerate(thread)}
    chords = []
    for src, dst, color in g.edges:
        if color is not R:
            continue
        a, b = sorted((pos[src], pos[dst]))
        band = (min(row_of[src], row_of[dst]), max(row_of[src], row_of[dst]))
        chords.append((a, b, band))
    chords.sort()
    swaps = 0
    for i in range(len(chords)):
        a, b, band = chords[i]
        for j in range(i + 1, len(chords)):
            c, d, band2 = chords[j]
            if band2 == band and a < c < b < d:
                swaps += 1
    if swaps:
        return swaps, None
    members = {}
    for i, v in enumerate(thread):
        members.setdefault(rows[i], []).append(v)
    layout = {}
    for row, vs in members.items():
        for offset, v in enumerate(vs):
            layout[v] = (row, Fraction(offset if row % 2 == 0 else len(vs) - 1 - offset))
    return 0, layout


@st.composite
def _threaded_graphs(draw):
    """A simple digraph on n <= 14 vertices in blue, red and purple, with
    one thread through every vertex in a random order."""
    n = draw(st.integers(1, 14))
    candidates = [(u, w) for u in range(n) for w in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
    edges = []
    for (u, w), k in zip(candidates, keep):
        if k:
            color = draw(st.sampled_from([B, R, R, R, P]))
            edges.append((w, u, color) if draw(st.booleans()) else (u, w, color))
    thread = tuple(draw(st.permutations(range(n))))
    return DirectedKnitGraph(n, tuple(edges)), (thread,)


def _simplicity_outcome(g, cover):
    report = check_simple_knittable(g, cover)
    return report.swaps, report.layout


@settings(max_examples=400, deadline=None)
@given(_threaded_graphs())
def test_simplicity_swaps_match_quadratic_oracle(case):
    assert _simplicity_outcome(*case) == _check_simple_knittable_quadratic(*case)


def test_simplicity_swaps_match_quadratic_oracle_on_pieces():
    pieces = list(all_fixtures())
    for rows, cols in ((2, 3), (5, 7), (12, 12), (20, 20)):
        pieces += [gen_stockinette(rows, cols), gen_stockinette(rows, cols, round=True)]
    for f in pieces:
        cover = (tuple(v for t in f.cover for v in t),)
        assert _simplicity_outcome(f.graph, cover) == (
            _check_simple_knittable_quadratic(f.graph, cover)
        ), f.name


def test_random_grid_subgraphs_planar(rng):
    for _ in range(100):
        r, c = rng.randint(2, 6), rng.randint(2, 6)
        edges = []
        for i in range(r):
            for j in range(c):
                v = i * c + j
                if j + 1 < c and rng.random() < 0.8:
                    edges.append((v, v + 1))
                if i + 1 < r and rng.random() < 0.8:
                    edges.append((v, v + c))
        assert is_planar(KnittingGraph(r * c, tuple(edges)))


def test_class0_fixture_invariants():
    """Every generated class-0 fixture: planar, crossing-free drawing,
    simple embedding, and the expected row count. Round pieces are
    generated without a drawing, so they are checked on the abstract
    clauses only; `test_count_rows_round_is_the_same_drawn_or_not` gives
    them a plane one."""
    from knitgraph import all_fixtures

    expected_rows = {
        "knit": 3, "yo": 3, "kfb": 3, "k2tog": 3,
        "stockinette-flat-2x3": 2, "stockinette-flat-4x5": 4,
        "stockinette-round-3x3": 3, "stockinette-round-4x4": 4,
    }
    for f in all_fixtures():
        if f.expected_class is not ComplexityClass.CLASS0:
            continue
        assert is_planar(underlying_knitting_graph(f.graph)), f.name
        assert count_rows(f.graph, f.cover, f.layout) == expected_rows[f.name], f.name
        if f.layout is not None:
            assert cable_width(f.graph, f.layout) == 0, f.name
            assert check_simple_knittable(f.graph, f.cover).layout is not None, f.name
