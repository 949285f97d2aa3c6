"""Executable stitch-pattern fixtures: stockinette fabrics, the reference
stitch subgraphs (yo, kfb, k2tog, c1b), and the four-strand brioche grid,
plus knitting-instruction emission from a single-thread witness.

Vertex ids follow the yarn: id = position along the thread. Flat fabrics
are boustrophedon with purple turn edges; round fabrics wrap the thread to
the next row and need no purple. Fixtures carry the degree regime their
boundary stitches need: plain fabrics are STRICT, the increase/decrease
fixtures anchor on cast-on or bind-off stitches and declare EXTENDED.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cover import ThreadCover
from .errors import BadDimsError, NotSingleThreadError
from .graphs import LOOP_COLORS, DirectedKnitGraph, EdgeColor, YarnGraph
from .feasibility import RedRule
from .layout import ComplexityClass, row_layers
from .serialize import MAX_VERTICES, Layout
from .yarn import yarn_from_threads

BLUE = EdgeColor.BLUE
RED = EdgeColor.RED
PURPLE = EdgeColor.PURPLE

STITCH_NAMES = ("yo", "kfb", "k2tog", "c1b")


@dataclass(frozen=True)
class Fixture:
    """A generated pattern: colored graph, thread cover, drawing, yarn trace,
    and the expected classification."""

    name: str
    graph: DirectedKnitGraph
    cover: ThreadCover
    layout: Layout | None
    yarn: YarnGraph
    expected_class: ComplexityClass
    k: int
    rule: RedRule


def _make_fixture(name, n, edges, layout, expected, rule, threads=None) -> Fixture:
    graph = DirectedKnitGraph(n, tuple(edges))
    cover: ThreadCover = threads if threads is not None else (tuple(range(n)),)
    yarn = yarn_from_threads(graph, cover)
    return Fixture(name, graph, cover, layout, yarn, expected, len(cover), rule)


def gen_stockinette(rows: int, cols: int, round: bool = False) -> Fixture:
    """Plain fabric, rows x cols.

    Flat: the thread snakes, rows alternate direction, the row-turn edges
    are purple, all other loops run straight up in red. Round: the thread
    wraps from the last column to the first column of the next row and
    every loop is red.
    """
    if rows < 1 or cols < 2 or rows * cols > MAX_VERTICES:
        raise BadDimsError(f"rows={rows}, cols={cols}")
    n = rows * cols
    edges: list[tuple[int, int, EdgeColor]] = []
    layout: Layout | None = None

    if round:
        for i in range(n - 1):
            edges.append((i, i + 1, BLUE))
        for r in range(rows - 1):
            for c in range(cols):
                edges.append((r * cols + c, (r + 1) * cols + c, RED))
        name = f"stockinette-round-{rows}x{cols}"
    else:
        col_of = {}
        for r in range(rows):
            for off in range(cols):
                v = r * cols + off
                col_of[v] = off if r % 2 == 0 else cols - 1 - off
        for i in range(n - 1):
            turn = (i + 1) % cols == 0
            edges.append((i, i + 1, PURPLE if turn else BLUE))
        for r in range(rows - 1):
            for off in range(cols):
                lo = r * cols + off
                col = col_of[lo]
                hi_off = col if (r + 1) % 2 == 0 else cols - 1 - col
                hi = (r + 1) * cols + hi_off
                if hi != lo + 1:  # the turn pair is already purple
                    edges.append((lo, hi, RED))
        layout = {v: (v // cols, Fraction(col_of[v])) for v in range(n)}
        name = f"stockinette-flat-{rows}x{cols}"
    return _make_fixture(name, n, edges, layout, ComplexityClass.CLASS0, RedRule.STRICT)


# Reference stitch subgraphs, 0-based, threaded 0..n-1. Coordinates are the
# reference grid positions scaled to integers.
_YO = dict(
    n=8,
    blue=[(0, 1), (2, 3), (3, 4), (5, 6), (6, 7)],
    purple=[(1, 2), (4, 5)],
    red=[(0, 4), (2, 7), (3, 6)],
    x=[13, 39, 52, 26, 0, 0, 26, 52],
    row=[0, 0, 1, 1, 1, 2, 2, 2],
    rule=RedRule.STRICT,
    expected=ComplexityClass.CLASS0,
)
_KFB = dict(
    n=11,
    blue=[(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (7, 8), (8, 9), (9, 10)],
    purple=[(2, 3), (6, 7)],
    red=[(0, 6), (1, 4), (1, 5), (3, 10), (4, 9), (5, 8)],
    x=[0, 5, 10, 13, 8, 3, -3, -3, 3, 8, 13],
    row=[0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2],
    rule=RedRule.EXTENDED,  # the doubled increase anchors on a cast-on stitch
    expected=ComplexityClass.CLASS0,
)
_K2TOG = dict(
    n=11,
    blue=[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (8, 9), (9, 10)],
    purple=[(3, 4), (7, 8)],
    red=[(0, 7), (1, 6), (2, 5), (4, 10), (5, 9), (6, 9)],
    x=[-3, 3, 8, 13, 13, 8, 3, -3, 0, 5, 10],
    row=[0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2],
    rule=RedRule.EXTENDED,  # the decrease tops out on a bind-off stitch
    expected=ComplexityClass.CLASS0,
)
_C1B = dict(
    n=12,
    blue=[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (8, 9), (9, 10), (10, 11)],
    purple=[(3, 4), (7, 8)],
    red=[(0, 7), (1, 6), (2, 5), (4, 11), (5, 9), (6, 10)],
    x=[0, 1, 2, 3, 3, 2, 1, 0, 0, 1, 2, 3],
    row=[0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2],
    rule=RedRule.STRICT,
    expected=ComplexityClass.CLASS2,  # the cable's two loops cross
)
_STITCHES = {"yo": _YO, "kfb": _KFB, "k2tog": _K2TOG, "c1b": _C1B}


def gen_stitch_fixture(name: str) -> Fixture:
    """One of the reference stitch subgraphs with its reference geometry."""
    if name not in _STITCHES:
        raise BadDimsError(f"unknown stitch fixture {name!r}")
    recipe = _STITCHES[name]
    edges = (
        [(u, v, BLUE) for u, v in recipe["blue"]]
        + [(u, v, PURPLE) for u, v in recipe["purple"]]
        + [(u, v, RED) for u, v in recipe["red"]]
    )
    layout = {
        v: (recipe["row"][v], Fraction(recipe["x"][v])) for v in range(recipe["n"])
    }
    return _make_fixture(
        name, recipe["n"], edges, layout, recipe["expected"], recipe["rule"]
    )


def gen_brioche_maximal(cols: int) -> Fixture:
    """Four-strand brioche grid, three rows by cols, knit in the round.

    Every interior cell carries both diagonals, so each diagonal loop
    crosses exactly the other diagonal of its cell. The wrap edges of the
    round are omitted from the graph: straight-line segments for them would
    degenerate the drawing. Four threads: the two full rows and the split
    top row.
    """
    if cols < 4 or cols % 2 or 3 * cols > MAX_VERTICES:
        raise BadDimsError(f"cols={cols} must be even, at least 4 and at most "
                           f"{MAX_VERTICES // 3}")
    n = 3 * cols
    half = cols // 2

    def vid(r: int, c: int) -> int:
        return r * cols + c

    threads = (
        tuple(range(0, cols)),
        tuple(range(cols, 2 * cols)),
        tuple(range(2 * cols, 2 * cols + half)),
        tuple(range(2 * cols + half, 3 * cols)),
    )
    thread_pairs = {p for t in threads for p in zip(t, t[1:])}
    edges: list[tuple[int, int, EdgeColor]] = []
    for r in range(3):
        for c in range(cols - 1):
            u, v = vid(r, c), vid(r, c + 1)
            edges.append((u, v, BLUE if (u, v) in thread_pairs else RED))
    for r in range(2):
        for c in range(cols):
            edges.append((vid(r, c), vid(r + 1, c), RED))
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r + 1, c + 1), RED))
            if c - 1 >= 0:
                edges.append((vid(r, c), vid(r + 1, c - 1), RED))
    layout = {vid(r, c): (r, Fraction(c)) for r in range(3) for c in range(cols)}
    return _make_fixture(
        f"brioche-{cols}",
        n,
        edges,
        layout,
        ComplexityClass.CLASS2,
        RedRule.EXTENDED,
        threads=threads,
    )


def all_fixtures() -> list[Fixture]:
    """The reference set used throughout the test suite."""
    knit = gen_stockinette(3, 3, round=False)
    knit = Fixture(
        "knit", knit.graph, knit.cover, knit.layout, knit.yarn,
        knit.expected_class, knit.k, knit.rule,
    )
    return [
        knit,
        gen_stitch_fixture("yo"),
        gen_stitch_fixture("kfb"),
        gen_stitch_fixture("k2tog"),
        gen_stitch_fixture("c1b"),
        gen_stockinette(2, 3),
        gen_stockinette(4, 5),
        gen_stockinette(3, 3, round=True),
        gen_stockinette(4, 4, round=True),
        gen_brioche_maximal(6),
    ]


_TOKENS = {0: "yo", 1: "k", 2: "k2tog", 3: "k3tog"}


def emit_instructions(g: DirectedKnitGraph, cover: ThreadCover) -> str:
    """Knitting text for a single-thread cover of g, one line per row, such
    as a generated piece's or the witness of `decide_k_knittable(g, 1)`.

    The token per stitch follows its loop in-degree (0 yo, 1 k, 2 k2tog,
    3 k3tog); a stitch sharing its loop parent with an earlier sibling is
    the increase's second leg and is annotated as such.
    """
    if len(cover) != 1:
        raise NotSingleThreadError(len(cover))
    thread = cover[0]

    loop_parents: dict[int, list[int]] = {v: [] for v in thread}
    children_seen: dict[int, int] = {}
    for src, dst, color in g.edges:
        if color in LOOP_COLORS:
            loop_parents[dst].append(src)
    rows = row_layers(g, thread)

    lines: dict[int, list[str]] = {}
    for i, v in enumerate(thread):
        parents = loop_parents[v]
        token = _TOKENS.get(len(parents), f"k{len(parents)}tog")
        for u in parents:
            if children_seen.get(u):
                token = "kfb-second-leg"
            children_seen[u] = children_seen.get(u, 0) + 1
        lines.setdefault(rows[i], []).append(token)
    return "\n".join(
        f"row {row + 1}: " + " ".join(tokens) for row, tokens in sorted(lines.items())
    )
