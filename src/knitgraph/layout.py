"""Geometric and structural analysis over a drawing of the graph:
planarity, segment crossings, cable width, complexity classes, row
counting, and the zero-interleaving simplicity test.

A layout maps each vertex to (row, column); rows are integers and columns
exact rationals. Every test below runs on one int drawing: the columns
(and any fractional rows) scaled by the LCM of their denominators, so
every orientation test is exact on Python ints. The crossing graph tests
only the edge pairs whose bounding boxes overlap, found by a sweep over
row bands and x intervals. Vertices join the same sweep as one-point
edges, so one search finds every vertex-edge and edge-edge incidence. On
knit layouts, where edges are short, that is O((n + m) log(n + m)) plus
the number of overlapping pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    BlueCrossingError,
    DegenerateLayoutError,
    NotPlanarLayoutError,
    NotSingleThreadError,
)
from .feasibility import RedRule, check_coloring, thread_paths
from .graphs import (
    LOOP_COLORS,
    THREAD_COLORS,
    DirectedKnitGraph,
    EdgeColor,
    KnittingGraph,
    component_labels,
)
from .serialize import Layout


def is_planar(g: DirectedKnitGraph | KnittingGraph) -> bool:
    """Exact planarity of the graph with directions and colors dropped; the
    Euler bound m <= 3n-6 prunes dense graphs first.

    A knit graph has at most one edge per vertex pair, so its edge count is
    that of its underlying simple graph.
    """
    if g.n >= 3 and g.m > 3 * g.n - 6:
        return False
    # imported on first use, so a command that never gets here does not load it
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(g.n))
    graph.add_edges_from(edge[:2] for edge in g.edges)
    ok, _embedding = nx.check_planarity(graph, counterexample=False)
    return ok


def is_planar_with_layout(g: DirectedKnitGraph, layout: Layout | None) -> bool:
    """Planarity of g, read from its drawing when that settles it.

    A non-degenerate drawing without crossings is a plane straight-line
    drawing, so it proves g planar; without one, `is_planar` decides.
    """
    if layout is not None:
        try:
            if not crossing_graph(g, layout).links:
                return True
        except DegenerateLayoutError:
            pass
    return is_planar(g)


@dataclass(frozen=True)
class CrossingGraph:
    """Edges of the drawing as nodes, proper segment crossings as links.

    Node i is edge i of the graph, in its edge order.
    """

    edge_pairs: tuple[tuple[int, int], ...]
    links: tuple[tuple[int, int], ...]  # index pairs into edge_pairs, i < j

    def components(self) -> list[tuple[set[int], int]]:
        """(node set, link count) per connected component, ordered by
        smallest node."""
        labels = component_labels(len(self.edge_pairs), self.links)
        comps: list[set[int]] = [set() for _ in range(max(labels, default=-1) + 1)]
        for i, label in enumerate(labels):
            comps[label].add(i)
        link_counts = [0] * len(comps)
        for i, _j in self.links:
            link_counts[labels[i]] += 1
        return list(zip(comps, link_counts))

    def max_component_links(self) -> int:
        return max((links for _c, links in self.components()), default=0)


def _orient(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int]) -> int:
    val = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (val > 0) - (val < 0)


def _scaled_points(
    positions: list[tuple[int, Fraction]],
) -> tuple[list[tuple[int, int]], tuple[int, int]]:
    """The int drawing: (x, y) per position, with columns times sx and rows
    times sy, the LCMs of their denominators, and the scale (sx, sy).

    Scaling each axis by a positive factor keeps every orientation sign,
    betweenness and intersection, so every test of this module runs on
    ints; points go back to layout coordinates only for an error report.
    """
    # ints and Fractions carry their numerator and denominator already;
    # only other numbers, such as floats, are converted
    xs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for _r, c in positions]
    ys = [r if isinstance(r, (int, Fraction)) else Fraction(r) for r, _c in positions]
    sx = math.lcm(*(x.denominator for x in xs))
    sy = math.lcm(*(y.denominator for y in ys))
    points = [
        (x.numerator * (sx // x.denominator), y.numerator * (sy // y.denominator))
        for x, y in zip(xs, ys)
    ]
    return points, (sx, sy)


def _unscale(
    p: tuple[int, int], scale: tuple[int, int], den: int = 1
) -> tuple[Fraction, Fraction]:
    return (Fraction(p[0], scale[0] * den), Fraction(p[1], scale[1] * den))


def _candidate_pairs(
    pairs: list[tuple[int, int]], points: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Edge index pairs (i < j), ascending, whose closed bounding boxes
    overlap and that share no vertex: the only pairs that can cross,
    overlap or touch. An edge may be a single point (v, v).

    Every edge joins in the band of each row from its lower to its upper
    end row. Closed y ranges over the same rows overlap exactly when the
    two edges share a band, and the first band they share is the upper of
    their lower rows; a pair is taken there only, so it is listed once.
    Within a band, an x-interval sweep pairs the edges whose closed x
    ranges overlap.
    """
    band_of_row = {y: k for k, y in enumerate(sorted({p[1] for p in points}))}
    bands: list[list[tuple[int, int, int]]] = [[] for _ in band_of_row]
    first_band: list[int] = []
    for i, (u, w) in enumerate(pairs):
        (ax, ay), (bx, by) = points[u], points[w]
        k0, k1 = sorted((band_of_row[ay], band_of_row[by]))
        first_band.append(k0)
        entry = (min(ax, bx), max(ax, bx), i)
        for k in range(k0, k1 + 1):
            bands[k].append(entry)
    out: list[tuple[int, int]] = []
    for k, band in enumerate(bands):
        band.sort()
        active: list[tuple[int, int, int]] = []
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


def crossing_graph(
    g: DirectedKnitGraph | KnittingGraph, layout: Layout
) -> CrossingGraph:
    """All proper pairwise crossings of the straight-line drawing.

    Degenerate drawings are rejected: duplicate vertex positions, a vertex
    in the interior of a non-incident edge (which is also how overlapping
    collinear edges show), or three edges through one non-vertex point.
    The first such fault, in vertex order, then (edge, vertex) order, then
    edge-pair order, is the one raised, with its point in layout
    coordinates.

    Coordinates are scaled to ints first (see `_scaled_points`), so every
    test is exact without `Fraction` arithmetic. Orientation tests run only
    on the pairs whose bounding boxes overlap (`_candidate_pairs`), with
    each vertex swept along as a one-point edge. On a knit layout, where
    each edge spans at most a row or two and a few columns, this costs
    O((n + m) log(n + m)) plus the number of overlapping pairs, instead of
    O(m * n + m^2). An edge spanning r rows joins O(r) bands, so a drawing
    of long edges across many rows degrades towards the quadratic bound.
    """
    if isinstance(g, KnittingGraph):
        pairs = list(g.edges)
    else:
        pairs = [(s, d) for s, d, _ in g.edges]
    missing = next((v for v in range(g.n) if v not in layout), g.n)
    points, scale = _scaled_points([layout[v] for v in range(missing)])
    # a duplicate before the first missing vertex is reported first
    taken: set[tuple[int, int]] = set()
    for p in points:
        if p in taken:
            raise DegenerateLayoutError(_unscale(p, scale), "two vertices share a position")
        taken.add(p)
    if missing < g.n:
        raise DegenerateLayoutError(None, f"vertex {missing} missing from layout")
    # Vertex v joins the sweep as the one-point edge m + v, so a candidate
    # (i, m + v) is a vertex in the closed box of edge i, and on the edge
    # exactly when collinear with it; candidates come in (edge, vertex)
    # order, so the first such pair is the fault to report.
    m = len(pairs)
    candidates = _candidate_pairs(pairs + [(v, v) for v in range(g.n)], points)
    for i, j in candidates:
        if j >= m:
            (u, w), v = pairs[i], j - m
            if _orient(points[u], points[w], points[v]) == 0:
                raise DegenerateLayoutError(
                    _unscale(points[v], scale), f"vertex {v} lies on edge {(u, w)}"
                )

    links: list[tuple[int, int]] = []
    meeting: dict[tuple[int, int, int], set[int]] = {}
    for i, j in candidates:
        if j >= m:
            continue
        (u1, w1), (u2, w2) = pairs[i], pairs[j]
        a, b, c, d = points[u1], points[w1], points[u2], points[w2]
        o1 = _orient(a, b, c)
        o2 = _orient(a, b, d)
        # Collinear edges (o1 == o2 == 0) that meet would put a vertex on
        # an edge or share a position, both rejected above.
        if o1 == o2 or 0 in (o1, o2):
            continue
        o3 = _orient(c, d, a)
        o4 = _orient(c, d, b)
        if o3 == o4 or 0 in (o3, o4):
            continue
        # strict crossing at (x / den, y / den), kept in lowest terms
        den = (b[0] - a[0]) * (d[1] - c[1]) - (b[1] - a[1]) * (d[0] - c[0])
        t = (c[0] - a[0]) * (d[1] - c[1]) - (c[1] - a[1]) * (d[0] - c[0])
        x = a[0] * den + t * (b[0] - a[0])
        y = a[1] * den + t * (b[1] - a[1])
        if den < 0:
            x, y, den = -x, -y, -den
        common = math.gcd(x, y, den)
        cross = (x // common, y // common, den // common)
        links.append((i, j))
        edges_here = meeting.setdefault(cross, set())
        edges_here.update((i, j))
        if len(edges_here) > 2:
            raise DegenerateLayoutError(
                _unscale(cross[:2], scale, cross[2]), "three edges concurrent"
            )
    return CrossingGraph(tuple(pairs), tuple(links))


def cable_width(g: DirectedKnitGraph, layout: Layout) -> int:
    """Largest link count among crossing-graph components of the drawing.

    Thread edges (blue and purple) must be pairwise non-crossing.
    """
    cg = crossing_graph(g, layout)
    edges = g.edges
    for i, j in cg.links:
        if edges[i][2] in THREAD_COLORS and edges[j][2] in THREAD_COLORS:
            raise BlueCrossingError((i, j))
    return cg.max_component_links()


class ComplexityClass(Enum):
    CLASS0 = "class0"
    CLASS1 = "class1"
    CLASS2 = "class2"
    CLASS3 = "class3"


@dataclass(frozen=True)
class ComplexityReport:
    complexity: ComplexityClass
    planar: bool
    crossings_on_red: bool
    crossings_on_blue: bool


def classify_complexity(
    g: DirectedKnitGraph,
    layout: Layout | None = None,
    rule: RedRule = RedRule.STRICT,
    *,
    multi_orientation: bool = False,
) -> ComplexityReport:
    """Knitting complexity of a fully colored graph.

    Declared multi-layer orientation metadata forces class 3. A drawing
    with crossings is class 2 (cables, brioche), as is a non-planar graph.
    Otherwise the graph is class 0 when every stitch configuration is
    admissible for its thread position, and class 1 when only planarity
    holds.
    """
    crossings_red = False
    crossings_blue = False
    has_crossings = False
    if layout is not None:
        cg = crossing_graph(g, layout)
        edges = g.edges
        for i, j in cg.links:
            involved = {edges[i][2], edges[j][2]}
            if involved & LOOP_COLORS:
                crossings_red = True
            if involved & THREAD_COLORS:
                crossings_blue = True
        has_crossings = bool(cg.links)
    # crossing_graph rejects every degenerate drawing, so a layout without
    # crossings is a plane straight-line drawing: the graph is planar
    planar = (layout is not None and not has_crossings) or is_planar(g)

    if multi_orientation:
        cls = ComplexityClass.CLASS3
    elif has_crossings or not planar:
        cls = ComplexityClass.CLASS2
    elif _class0_configs_ok(g, rule):
        cls = ComplexityClass.CLASS0
    else:
        cls = ComplexityClass.CLASS1
    return ComplexityReport(cls, planar, crossings_red, crossings_blue)


def _class0_configs_ok(g: DirectedKnitGraph, rule: RedRule) -> bool:
    if EdgeColor.UNCOLORED in g.colors():
        return False
    paths, problems = thread_paths(g)
    if problems:
        return False
    return check_coloring(g, len(paths), rule).valid


def _thread_of(cover) -> tuple[int, ...]:
    if len(cover) != 1:
        raise NotSingleThreadError(len(cover))
    return tuple(cover[0])


def _count_rows_by_sides(
    g: DirectedKnitGraph, thread: tuple[int, ...], layout: Layout
) -> int:
    """Side-switch row count: classify each outgoing loop edge as left or
    right of the local thread direction; every switch, including the very
    first signal after cast-on, opens a row."""
    points, _scale = _scaled_points([layout[v] for v in range(g.n)])
    out_adj = g.out_adj()
    changes = 0
    side = 0
    for i, v in enumerate(thread):
        nxt = thread[i + 1] if i + 1 < len(thread) else None
        # the thread direction b - a, with v at a or at b, so the side of
        # the loop vector w - v is orient(a, b, w)
        if nxt is not None:
            a, b = points[v], points[nxt]
        elif i > 0:
            a, b = points[thread[i - 1]], points[v]
        else:
            continue  # one-stitch thread: no direction, one row
        for w, _color in out_adj[v]:  # heads ascending, as the edges are sorted
            if w == nxt:
                continue  # thread edge, not a loop
            s = _orient(a, b, points[w])
            if s == 0:
                continue  # ambiguous: keep the current row
            if s != side:
                changes += 1
                side = s
    return 1 + changes


def row_layers(g: DirectedKnitGraph, thread: tuple[int, ...]) -> list[int]:
    """Row index per thread position: a stitch sits one row above the
    stitches it passes through, and rows never decrease along the thread."""
    loop_parents: dict[int, list[int]] = {v: [] for v in thread}
    for src, dst, color in g.edges:
        if color in LOOP_COLORS and dst in loop_parents:
            loop_parents[dst].append(src)
    rows_by_vertex: dict[int, int] = {}
    rows: list[int] = []
    for v in thread:
        row = rows[-1] if rows else 0
        for u in loop_parents[v]:
            if u in rows_by_vertex:
                row = max(row, rows_by_vertex[u] + 1)
        rows_by_vertex[v] = row
        rows.append(row)
    return rows


def count_rows(
    g: DirectedKnitGraph, cover, layout: Layout | None = None
) -> int:
    """Number of knit rows of a single-thread planar piece.

    With a drawing, rows come from side switches of outgoing loop edges
    along the thread; without one, from the loop layering (each stitch one
    row above its loop parents). Stitches with no loop edges keep the
    current row in both schemes. Planarity is read as in
    `is_planar_with_layout`.
    """
    thread = _thread_of(cover)
    if not is_planar_with_layout(g, layout):
        raise NotPlanarLayoutError()
    if not thread:
        return 0
    if layout is not None:
        return _count_rows_by_sides(g, thread, layout)
    return row_layers(g, thread)[-1] + 1


@dataclass(frozen=True)
class SimplicityReport:
    """Interleaving count of loop edges, plus the induced plane drawing
    when the count is zero."""

    swaps: int
    layout: Layout | None


def check_simple_knittable(g: DirectedKnitGraph, cover) -> SimplicityReport:
    """Zero-interleaving test along a single thread.

    Loop edges within one row band must be nested or parallel in thread
    order; each strictly interleaved pair (a < c < b < d) counts as one
    swap. With zero swaps the boustrophedon grid drawing is returned.
    """
    thread = _thread_of(cover)
    pos = {v: i for i, v in enumerate(thread)}
    rows = row_layers(g, thread)
    row_of = {v: rows[i] for i, v in enumerate(thread)}

    chords: list[tuple[int, int, tuple[int, int]]] = []
    for src, dst, color in g.edges:
        if color is not EdgeColor.RED:
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
            if band2 != band:
                continue
            if a < c < b < d:
                swaps += 1

    if swaps:
        return SimplicityReport(swaps, None)

    layout: Layout = {}
    members: dict[int, list[int]] = {}
    for i, v in enumerate(thread):
        members.setdefault(rows[i], []).append(v)
    for row, vs in members.items():
        for offset, v in enumerate(vs):
            col = offset if row % 2 == 0 else len(vs) - 1 - offset
            layout[v] = (row, Fraction(col))
    return SimplicityReport(0, layout)
