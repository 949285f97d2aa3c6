"""Geometric and structural analysis over a drawing of the graph:
planarity, segment crossings, cable width, complexity classes, row
counting, and the zero-interleaving simplicity test.

A layout maps each vertex to (row, column); rows are integers and columns
exact rationals. Every test below runs on one int drawing: the columns
scaled by the LCM of their denominators, so every orientation test is
exact on Python ints. The crossing graph tests only the edge pairs whose
bounding boxes overlap, found by a sweep over row bands and x intervals.
Vertices join the same sweep as one-point edges, so one search finds
every vertex-edge and edge-edge incidence. On knit layouts, where edges
are short, that is O((n + m) log(n + m)) plus the number of overlapping
pairs.
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
    UncoloredPresentError,
)
from .feasibility import RedRule, check_coloring
from .graphs import (
    LOOP_COLORS,
    THREAD_COLORS,
    DirectedKnitGraph,
    EdgeColor,
    KnittingGraph,
    component_labels,
    topological_sort,
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


def is_planar_drawn(g: DirectedKnitGraph, cg: CrossingGraph | None) -> bool:
    """Planarity of g, read from the crossing graph of its drawing when
    that settles it; cg is None when g has no drawing.

    `crossing_graph` refuses every degenerate drawing, so a drawing without
    crossings is a plane straight-line drawing and proves g planar; with
    crossings, or without a drawing, `is_planar` decides.
    """
    return (cg is not None and not cg.links) or is_planar(g)


@dataclass(frozen=True)
class CrossingGraph:
    """Edges of the drawing as nodes, proper segment crossings as links.

    Node i is edge i of the graph, in its edge order.
    """

    edge_pairs: tuple[tuple[int, int], ...]
    links: tuple[tuple[int, int], ...]  # index pairs into edge_pairs, i < j

    def max_component_links(self) -> int:
        """Largest link count of a connected component, 0 without links."""
        labels = component_labels(len(self.edge_pairs), self.links)
        link_counts = [0] * len(labels)
        for i, _j in self.links:
            link_counts[labels[i]] += 1
        return max(link_counts, default=0)


def _orient(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int]) -> int:
    val = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (val > 0) - (val < 0)


def _scaled_points(
    positions: list[tuple[int, int | Fraction]],
) -> tuple[list[tuple[int, int]], int]:
    """The int drawing and its column scale sx: (x, y) per position, x the
    column times sx, the LCM of the column denominators, and y the row,
    which the schema already makes an int.

    Scaling an axis by a positive factor keeps every orientation sign,
    betweenness and intersection, so every test of this module runs on
    ints; points go back to layout coordinates only for an error report.
    """
    # ints and Fractions carry their numerator and denominator already;
    # only other numbers, such as floats, are converted
    xs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for _r, c in positions]
    sx = math.lcm(*(x.denominator for x in xs))
    points = [
        (x.numerator * (sx // x.denominator), r) for x, (r, _c) in zip(xs, positions)
    ]
    return points, sx


def _unscale(p: tuple[int, int], sx: int, den: int = 1) -> tuple[Fraction, Fraction]:
    return (Fraction(p[0], sx * den), Fraction(p[1], den))


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
    ranges overlap: one pass per entry over the live list drops the
    entries that end left of it and pairs it with the rest.
    """
    band_of_row = {y: k for k, y in enumerate(sorted({p[1] for p in points}))}
    xs = [x for x, _y in points]
    band_of = [band_of_row[y] for _x, y in points]
    bands: list[list[tuple[int, int, int, int, int, int]]] = [[] for _ in band_of_row]
    for i, (u, w) in enumerate(pairs):
        ax, bx, k0, k1 = xs[u], xs[w], band_of[u], band_of[w]
        if k0 > k1:
            k0, k1 = k1, k0
        # i is unique, so a band sorts by (x0, x1, i) and never further
        entry = (ax, bx, i, u, w, k0) if ax <= bx else (bx, ax, i, u, w, k0)
        # most edges lie in one band; a range per edge costs more than this test
        if k0 == k1:
            bands[k0].append(entry)
        else:
            for k in range(k0, k1 + 1):
                bands[k].append(entry)
    out: list[tuple[int, int]] = []
    for k, band in enumerate(bands):
        band.sort()
        live: list[tuple[int, int, int, int, int, int]] = []
        for entry in band:
            x0, _x1, j, u, w, kj = entry
            kept = []
            for other in live:  # (x0, x1, i, u, w, first band), read by index
                if other[1] < x0:
                    continue
                kept.append(other)
                # both first bands are <= k here, so k is the larger of
                # them exactly when it is one of them
                if (kj == k or other[5] == k) and (
                    u != other[3] and u != other[4] and w != other[3] and w != other[4]
                ):
                    i = other[2]
                    out.append((i, j) if i < j else (j, i))
            kept.append(entry)
            live = kept
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
    pairs = [edge[:2] for edge in g.edges]
    missing = next((v for v in range(g.n) if v not in layout), g.n)
    points, sx = _scaled_points([layout[v] for v in range(missing)])
    # a duplicate before the first missing vertex is reported first
    taken: set[tuple[int, int]] = set()
    for p in points:
        if p in taken:
            raise DegenerateLayoutError(_unscale(p, sx), "two vertices share a position")
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
                    _unscale(points[v], sx), f"vertex {v} lies on edge {(u, w)}"
                )

    links: list[tuple[int, int]] = []
    meeting: dict[tuple[int, int, int], set[int]] = {}
    for i, j in candidates:
        if j >= m:
            continue
        (u1, w1), (u2, w2) = pairs[i], pairs[j]
        (ax, ay), (bx, by) = points[u1], points[w1]
        (cx, cy), (dx, dy) = points[u2], points[w2]
        # the orientation signs of c and d against ab, then of a and b
        # against cd, as `_orient` would give them: a product >= 0 means
        # equal signs or a zero. Collinear edges (both zero) that meet
        # would put a vertex on an edge or share a position, both
        # rejected above.
        ex, ey = bx - ax, by - ay
        if (ex * (cy - ay) - ey * (cx - ax)) * (ex * (dy - ay) - ey * (dx - ax)) >= 0:
            continue
        fx, fy = dx - cx, dy - cy
        if (fx * (ay - cy) - fy * (ax - cx)) * (fx * (by - cy) - fy * (bx - cx)) >= 0:
            continue
        # strict crossing at (x / den, y / den), kept in lowest terms
        den = ex * fy - ey * fx
        t = (cx - ax) * fy - (cy - ay) * fx
        x = ax * den + t * ex
        y = ay * den + t * ey
        if den < 0:
            x, y, den = -x, -y, -den
        common = math.gcd(x, y, den)
        cross = (x // common, y // common, den // common)
        links.append((i, j))
        edges_here = meeting.setdefault(cross, set())
        edges_here.update((i, j))
        if len(edges_here) > 2:
            raise DegenerateLayoutError(
                _unscale(cross[:2], sx, cross[2]), "three edges concurrent"
            )
    return CrossingGraph(tuple(pairs), tuple(links))


def _colored_drawing(g: DirectedKnitGraph, layout: Layout | None) -> CrossingGraph | None:
    """The crossing graph of g's drawing, or None without one: the gate of
    `cable_width` and `count_rows`, which read colors as well as a drawing.

    The commands that read a drawing refuse bad input in one order, each
    check once: a degenerate drawing raises DegenerateLayoutError, then an
    uncolored arc raises UncoloredPresentError, then (`count_rows` only) a
    cover of other than one thread raises NotSingleThreadError and a cycle
    NotADagError, and only then may a planarity test run.
    `classify_complexity` keeps the order without this gate, leaving the
    colors to `check_coloring`, so it reads them once.
    """
    cg = None if layout is None else crossing_graph(g, layout)
    if EdgeColor.UNCOLORED in g.colors():
        raise UncoloredPresentError()
    return cg


def cable_width(g: DirectedKnitGraph, layout: Layout) -> int:
    """Largest link count among crossing-graph components of the drawing.

    Thread edges (blue and purple) must be pairwise non-crossing. Bad
    input is refused as `_colored_drawing` orders it: an uncolored arc
    hides whether a crossing is between threads.
    """
    cg = _colored_drawing(g, layout)
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
    Otherwise the graph is class 0 when its coloring passes
    `check_coloring` for any thread count, and class 1 when only planarity
    holds. Bad input is refused in the order `_colored_drawing` states.
    """
    cg = None if layout is None else crossing_graph(g, layout)
    coloring = check_coloring(g, None, rule)  # refuses an uncolored arc
    planar = is_planar_drawn(g, cg)
    links = () if cg is None else cg.links
    crossed = {g.edges[k][2] for link in links for k in link}

    if multi_orientation:
        cls = ComplexityClass.CLASS3
    elif links or not planar:
        cls = ComplexityClass.CLASS2
    elif coloring.valid:
        cls = ComplexityClass.CLASS0
    else:
        cls = ComplexityClass.CLASS1
    return ComplexityReport(
        cls, planar, bool(crossed & LOOP_COLORS), bool(crossed & THREAD_COLORS)
    )


def single_thread(cover) -> tuple[int, ...]:
    """The one thread of a cover; NotSingleThreadError for any other count."""
    if len(cover) != 1:
        raise NotSingleThreadError(len(cover))
    return tuple(cover[0])


def loop_parents(g: DirectedKnitGraph, thread: tuple[int, ...]) -> dict[int, list[int]]:
    """The tails of the loop arcs (red and purple) into each stitch of the
    thread, ascending as the edges are sorted."""
    parents: dict[int, list[int]] = {v: [] for v in thread}
    for src, dst, color in g.edges:
        if color in LOOP_COLORS and dst in parents:
            parents[dst].append(src)
    return parents


def row_layers(g: DirectedKnitGraph, thread: tuple[int, ...]) -> list[int]:
    """Row index per thread position: a stitch sits one row above the
    stitches it passes through, and rows never decrease along the thread."""
    parents = loop_parents(g, thread)
    rows_by_vertex: dict[int, int] = {}
    rows: list[int] = []
    for v in thread:
        row = rows[-1] if rows else 0
        for u in parents[v]:
            if u in rows_by_vertex:
                row = max(row, rows_by_vertex[u] + 1)
        rows_by_vertex[v] = row
        rows.append(row)
    return rows


def count_rows(
    g: DirectedKnitGraph, cover, layout: Layout | None = None
) -> int:
    """Number of knit rows of a single-thread planar piece: one more than
    the last row of `row_layers`, where each stitch sits one row above its
    loop parents and a stitch with no loop edges keeps the current row.

    The count reads only the graph and its thread, so a piece counts the
    same with or without a drawing; a drawing is read only to refuse it or
    to prove planarity. Bad input is refused in the order
    `_colored_drawing` states (without colors no loop can be told from a
    thread step), a cycle (NotADagError) before the planarity test, and a
    piece that `is_planar_drawn` finds not planar last.
    """
    cg = _colored_drawing(g, layout)
    thread = single_thread(cover)
    topological_sort(g)  # the layering would skip a loop arc back along the thread
    if not is_planar_drawn(g, cg):
        raise NotPlanarLayoutError()
    if not thread:
        return 0
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

    Each band's chords are sorted, and a chord is paired only with the
    later chords that start inside it, so the count costs O(c log c) for
    c chords plus one step per nested or interleaved pair of a band.
    """
    thread = single_thread(cover)
    pos = {v: i for i, v in enumerate(thread)}
    rows = row_layers(g, thread)
    row_of = {v: rows[i] for i, v in enumerate(thread)}

    bands: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for src, dst, color in g.edges:
        if color is not EdgeColor.RED:
            continue
        a, b = sorted((pos[src], pos[dst]))
        band = (min(row_of[src], row_of[dst]), max(row_of[src], row_of[dst]))
        bands.setdefault(band, []).append((a, b))

    swaps = 0
    for chords in bands.values():
        chords.sort()
        for i, (a, b) in enumerate(chords):
            # later chords start at c >= a; past c >= b none can interleave
            for j in range(i + 1, len(chords)):
                c, d = chords[j]
                if c >= b:
                    break
                if a < c and b < d:
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
