"""JSON and DOT serialization for graphs, layouts, and metadata.

Schema (UTF-8 JSON):

    {"n": int, "directed": true, "multigraph": bool,
     "edges": [{"src": int, "dst": int, "color": "blue"|"red"|"purple"|null}],
     "layout": {"<id>": [row, col]}?,            # optional; one per vertex
     "meta": {"k": int?, "threads": [[int, ...], ...]?,
              "labels": {..}?, ...}}             # optional, open

A multigraph document parses to a YarnGraph (colors must be null); anything
else parses to a DirectedKnitGraph. n is at most MAX_VERTICES. meta, when
not null, is an object. meta.k, when set, is a non-negative int,
meta.threads a list of lists of vertex ids in [0, n) and
meta.multi_orientation a bool; null means unset.
External vertex labels, when present in meta.labels, are preserved verbatim
in the parsed document.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import SchemaError
from .graphs import DirectedKnitGraph, EdgeColor, KnittingGraph, YarnGraph

Layout = dict[int, tuple[int, Fraction]]

# Ten times the largest benchmarked piece; checked before any O(n) list
# is built, so a document cannot ask for an arbitrarily large allocation.
MAX_VERTICES = 1_000_000

_COLOR_FROM_JSON = {
    "blue": EdgeColor.BLUE,
    "red": EdgeColor.RED,
    "purple": EdgeColor.PURPLE,
    None: EdgeColor.UNCOLORED,
}
_COLOR_TO_JSON = {v: k for k, v in _COLOR_FROM_JSON.items()}


@dataclass(frozen=True, eq=True)
class GraphDocument:
    """A parsed file: the graph plus its optional layout and metadata."""

    graph: DirectedKnitGraph | YarnGraph
    layout: Layout | None = None
    meta: dict = field(default_factory=dict)


def _require(data: dict, key: str, kind, where: str):
    if key not in data:
        raise SchemaError(f"{where}: missing field '{key}'")
    value = data[key]
    if kind is int and isinstance(value, bool):
        raise SchemaError(f"{where}: field '{key}' must be {kind.__name__}")
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: field '{key}' must be {kind.__name__}")
    return value


def _parse_col(key: str, value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"layout[{key}]: column must be a number")
    # json reads NaN, Infinity and overflowing literals such as 1e400 as floats
    if isinstance(value, float) and not math.isfinite(value):
        raise SchemaError(f"layout[{key}]: column must be finite, found {value}")
    # str round-trip keeps decimal literals exact ("0.6" -> 3/5)
    return Fraction(str(value))


def _edge_schema_error(i: int, e) -> SchemaError:
    """The error for an edge the fast path of `parse_document` refused."""
    if not isinstance(e, dict):
        return SchemaError(f"edges[{i}]: expected an object")
    _require(e, "src", int, f"edges[{i}]")
    _require(e, "dst", int, f"edges[{i}]")
    return SchemaError(f"edges[{i}]: unknown color {e.get('color')!r}")


def _check_meta(meta: dict, n: int) -> None:
    k = meta.get("k")
    if k is not None and (type(k) is not int or k < 0):
        raise SchemaError(f"meta: 'k' must be a non-negative int, found {k!r}")
    multi = meta.get("multi_orientation")
    if multi is not None and type(multi) is not bool:
        raise SchemaError(f"meta: 'multi_orientation' must be a bool, found {multi!r}")
    threads = meta.get("threads")
    if threads is None:
        return
    if not isinstance(threads, list):
        raise SchemaError("meta: 'threads' must be a list of vertex lists")
    for i, thread in enumerate(threads):
        if not isinstance(thread, list):
            raise SchemaError(f"meta.threads[{i}]: expected a list of vertex ids")
        for v in thread:
            if type(v) is not int or not 0 <= v < n:
                raise SchemaError(f"meta.threads[{i}]: {v!r} is not a vertex id for n={n}")


def parse_document(data: bytes | str) -> GraphDocument:
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"invalid {exc.encoding} at byte {exc.start}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("top level: expected an object")

    n = _require(raw, "n", int, "top level")
    if not 0 <= n <= MAX_VERTICES:
        raise SchemaError(f"top level: n must be in [0, {MAX_VERTICES}], found {n}")
    if not _require(raw, "directed", bool, "top level"):
        raise SchemaError("top level: 'directed' must be true")
    multigraph = raw.get("multigraph", False)
    if not isinstance(multigraph, bool):
        raise SchemaError("top level: 'multigraph' must be a bool")
    edges_raw = _require(raw, "edges", list, "top level")

    # One pass: each edge is checked once and lands straight in the list
    # its graph type takes; `_edge_schema_error` only words a refusal.
    edges: list = []
    colored = False
    for i, e in enumerate(edges_raw):
        if type(e) is not dict:
            raise _edge_schema_error(i, e)
        src = e.get("src")
        dst = e.get("dst")
        if type(src) is not int or type(dst) is not int:
            raise _edge_schema_error(i, e)
        try:
            color = _COLOR_FROM_JSON[e.get("color")]
        except (KeyError, TypeError):  # TypeError: an unhashable color
            raise _edge_schema_error(i, e) from None
        if multigraph:
            colored = colored or color is not EdgeColor.UNCOLORED
            edges.append((src, dst))
        else:
            edges.append((src, dst, color))

    layout: Layout | None = None
    if raw.get("layout") is not None:
        if not isinstance(raw["layout"], dict):
            raise SchemaError("layout: expected an object")
        layout = {}
        for key, pair in raw["layout"].items():
            try:
                vid = int(key)
            except ValueError:
                raise SchemaError(f"layout: non-integer vertex id {key!r}") from None
            # int() also reads " 2", "02", "+2" and "1_0": one vertex, one key
            if key != str(vid):
                raise SchemaError(f"layout: vertex id {key!r} must be written {str(vid)!r}")
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"layout[{key}]: expected [row, col]")
            row, col = pair
            if isinstance(row, bool) or not isinstance(row, int):
                raise SchemaError(f"layout[{key}]: row must be an integer")
            layout[vid] = (row, _parse_col(key, col))
        for vid in layout:
            if not 0 <= vid < n:
                raise SchemaError(f"layout: vertex id {vid} out of range for n={n}")
        if len(layout) < n:
            missing = next(v for v in range(n) if v not in layout)
            raise SchemaError(f"layout: vertex {missing} has no position")

    meta = raw.get("meta")
    if meta is None:
        meta = {}
    elif not isinstance(meta, dict):
        raise SchemaError("meta: expected an object")
    _check_meta(meta, n)

    if multigraph:
        if colored:
            raise SchemaError("multigraph edges must not carry colors")
        graph: DirectedKnitGraph | YarnGraph = YarnGraph(n, tuple(edges), meta.get("k"))
    else:
        graph = DirectedKnitGraph(n, tuple(edges))
    return GraphDocument(graph, layout, meta)


def _col_to_json(v: int, col: Fraction):
    if col.denominator == 1:
        return int(col)
    value = float(col)
    # `_parse_col` reads the column back as Fraction(repr(value))
    if Fraction(repr(value)) != col:
        raise ValueError(f"layout[{v}]: column {col} cannot be written exactly")
    return value


def serialize_json(
    obj: GraphDocument | DirectedKnitGraph | YarnGraph, *, indent: int | None = None
) -> bytes:
    """The document as JSON; ValueError for a layout column that would not
    read back as itself."""
    if not isinstance(obj, GraphDocument):
        obj = GraphDocument(obj)
    graph, layout, meta = obj.graph, obj.layout, obj.meta
    doc: dict = {"n": graph.n, "directed": True}
    if isinstance(graph, YarnGraph):
        doc["multigraph"] = True
        doc["edges"] = [{"src": s, "dst": d, "color": None} for s, d in graph.arcs]
        if graph.yarn_count_hint is not None:
            meta = dict(meta or {})
            meta.setdefault("k", graph.yarn_count_hint)
    else:
        doc["multigraph"] = False
        doc["edges"] = [
            {"src": s, "dst": d, "color": _COLOR_TO_JSON[c]} for s, d, c in graph.edges
        ]
    if layout is not None:
        doc["layout"] = {
            str(v): [row, _col_to_json(v, col)] for v, (row, col) in sorted(layout.items())
        }
    if meta:
        doc["meta"] = meta
    return json.dumps(doc, indent=indent).encode("utf-8")


def export_dot(graph: DirectedKnitGraph | YarnGraph | KnittingGraph) -> str:
    """GraphViz text; edge colors map to blue/red/purple, uncolored to gray."""
    lines: list[str] = []
    if isinstance(graph, KnittingGraph):
        lines.append("graph knitting {")
        for v in range(graph.n):
            lines.append(f"  {v};")
        for u, v in graph.edges:
            lines.append(f"  {u} -- {v} [color=gray];")
    else:
        lines.append("digraph knitting {")
        for v in range(graph.n):
            lines.append(f"  {v};")
        if isinstance(graph, YarnGraph):
            for s, d in graph.arcs:
                lines.append(f"  {s} -> {d} [color=gray];")
        else:
            for s, d, c in graph.edges:
                color = _COLOR_TO_JSON[c] or "gray"
                lines.append(f"  {s} -> {d} [color={color}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
