"""Spans around knitgraph's public functions, recorded from outside.

Modules bind names with `from .x import y`, so a function is wrapped at
every module of the package that holds it, not only where it is defined.
The wrappers record only inside a `cli` span, so the benchmark's own
reference checks are never traced. `Tracer.patched()` restores every name
on exit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

from knitgraph import cli, cover, feasibility, flows, graphs, layout, serialize, yarn

ROOT = "cli"


def _edge_count(obj) -> int:
    return len(obj.arcs) if isinstance(obj, graphs.YarnGraph) else len(obj.edges)


# (owner, attribute, span name, counter). A counter gets (counts, args,
# result) after each traced call and adds its work counts.
TARGETS = [
    (cli, "main", ROOT, None),
    (serialize, "parse_document", "serialize.parse",
     lambda c, a, r: c.update({"serialize.parse_bytes": len(a[0])})),
    (serialize, "serialize_json", "serialize.write",
     lambda c, a, r: c.update({"serialize.write_bytes": len(r)})),
    *[(cls, "__post_init__", "graphs.validate",
       lambda c, a, r: c.update({"graphs.edges_validated": _edge_count(a[0])}))
      for cls in (graphs.DirectedKnitGraph, graphs.KnittingGraph, graphs.YarnGraph)],
    (graphs, "topological_sort", "graphs.topo_sort", None),
    (feasibility, "classify_vertex", "feasibility.classify_vertex", None),
    (feasibility, "check_coloring", "feasibility.check_coloring", None),
    (cover, "build_flow_network", "cover.build_network",
     lambda c, a, r: c.update({"cover.network_arcs": len(r.arcs)})),
    (cover, "extract_threads", "cover.extract", None),
    (cover, "decide_k_knittable", "cover.decide",
     lambda c, a, r: c.update({"cover.witnesses": r is not None})),
    (cover, "minimum_path_cover", "cover.path_cover", None),
    (flows, "solve_flow_with_bounds", "flows.solve",
     lambda c, a, r: c.update({"flows.arcs_solved": len(a[0].arcs), "flows.feasible": r is not None})),
    (flows, "solve_minimum_flow", "flows.min_flow",
     lambda c, a, r: c.update({"flows.arcs_solved": len(a[0].arcs), "flows.feasible": r is not None})),
    (yarn, "minimum_yarns", "yarn.min_yarns",
     lambda c, a, r: c.update({"yarn.arcs_walked": a[0].m, "yarn.trails": r[0]})),
    (layout, "crossing_graph", "layout.crossing",
     lambda c, a, r: c.update({"layout.segment_pairs": a[0].m * (a[0].m - 1) // 2,
                               "layout.links": len(r.links)})),
    (layout, "is_planar", "layout.planar", None),
]

# Per-layer metrics: name -> (unit, how it is read from one pass).
# "self:<span>" is the summed self time, "calls:<span>[+<span>]" a call
# count, "count:<counter>" a work counter, and "ratio:<counter>/<span>[+...]"
# that counter per call.
LAYER_METRICS = {
    "cli.self_s": ("s", "self:cli"),
    "cli.calls": ("count", "calls:cli"),
    "serialize.parse_s": ("s", "self:serialize.parse"),
    "serialize.parse_bytes": ("bytes", "count:serialize.parse_bytes"),
    "serialize.write_s": ("s", "self:serialize.write"),
    "serialize.write_bytes": ("bytes", "count:serialize.write_bytes"),
    "graphs.validate_s": ("s", "self:graphs.validate"),
    "graphs.edges_validated": ("count", "count:graphs.edges_validated"),
    "graphs.topo_sort_s": ("s", "self:graphs.topo_sort"),
    "graphs.topo_sort_calls": ("count", "calls:graphs.topo_sort"),
    "feasibility.classify_vertex_s": ("s", "self:feasibility.classify_vertex"),
    "feasibility.classify_vertex_calls": ("count", "calls:feasibility.classify_vertex"),
    "feasibility.check_coloring_s": ("s", "self:feasibility.check_coloring"),
    "feasibility.check_coloring_calls": ("count", "calls:feasibility.check_coloring"),
    "cover.build_network_s": ("s", "self:cover.build_network"),
    "cover.network_arcs": ("count", "count:cover.network_arcs"),
    "cover.extract_s": ("s", "self:cover.extract"),
    "cover.decide_calls": ("count", "calls:cover.decide"),
    "cover.witness_ratio": ("ratio", "ratio:cover.witnesses/cover.decide"),
    "cover.path_cover_self_s": ("s", "self:cover.path_cover"),
    "flows.solve_s": ("s", "self:flows.solve"),
    "flows.min_flow_s": ("s", "self:flows.min_flow"),
    "flows.solve_calls": ("count", "calls:flows.solve+flows.min_flow"),
    "flows.arcs_solved": ("count", "count:flows.arcs_solved"),
    "flows.feasible_ratio": ("ratio", "ratio:flows.feasible/flows.solve+flows.min_flow"),
    "yarn.min_yarns_s": ("s", "self:yarn.min_yarns"),
    "yarn.arcs_walked": ("count", "count:yarn.arcs_walked"),
    "yarn.trails": ("count", "count:yarn.trails"),
    "layout.crossing_s": ("s", "self:layout.crossing"),
    "layout.crossing_calls": ("count", "calls:layout.crossing"),
    "layout.segment_pairs": ("count", "count:layout.segment_pairs"),
    "layout.links": ("count", "count:layout.links"),
    "layout.planar_s": ("s", "self:layout.planar"),
    "layout.planar_calls": ("count", "calls:layout.planar"),
}


def import_sites() -> list[tuple[object, str, object]]:
    """(holder, attribute, original) for every place a target is bound."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "knitgraph" or name.startswith("knitgraph."))]
    sites = []
    for owner, attr, _name, _counter in TARGETS:
        original = getattr(owner, attr)
        holders = [owner] if isinstance(owner, type) else modules
        sites.extend((h, a, original) for h in holders
                     for a, value in vars(h).items() if value is original)
    return sites


class Tracer:
    """Spans kept in memory as flat arrays, one pass at a time."""

    def __init__(self):
        self.names: list[str] = list(dict.fromkeys(name for _o, _a, name, _c in TARGETS))
        self.passes: list[dict] = []
        self._stack: list[int] = []

    def begin_pass(self) -> None:
        self.passes.append({
            "name": array("i"), "start": array("d"), "end": array("d"),
            "parent": array("i"), "counts": Counter(),
        })

    def _wrap(self, name: str, fn, counter):
        name_id = self.names.index(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and name != ROOT:
                return fn(*args, **kwargs)
            spans = self.passes[-1]
            idx = len(spans["name"])
            spans["name"].append(name_id)
            spans["parent"].append(stack[-1] if stack else -1)
            spans["end"].append(0.0)
            stack.append(idx)
            spans["start"].append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans["end"][idx] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(spans["counts"], args, result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every import site of every target; restore them on exit."""
        sites = import_sites()
        wrappers = {}
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)
            wrappers[id(original)] = self._wrap(name, original, counter)
        try:
            for holder, attr, original in sites:
                setattr(holder, attr, wrappers[id(original)])
            yield self
        finally:
            for holder, attr, original in sites:
                setattr(holder, attr, original)

    def pass_metrics(self, spans: dict) -> dict[str, float]:
        """Per-layer metrics of one traced pass."""
        n = len(spans["name"])
        child = [0.0] * n
        for i in range(n):
            parent = spans["parent"][i]
            if parent >= 0:
                child[parent] += spans["end"][i] - spans["start"][i]
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[spans["name"][i]]
            self_s[name] += spans["end"][i] - spans["start"][i] - child[i]
            calls[name] += 1
        counts = spans["counts"]

        def read(source: str) -> float:
            kind, _, what = source.partition(":")
            if kind == "self":
                return self_s[what]
            if kind == "count":
                return counts[what]
            if kind == "calls":
                return sum(calls[part] for part in what.split("+"))
            hits, _, base = what.partition("/")
            attempts = read("calls:" + base)
            return counts[hits] / attempts if attempts else 0.0

        return {metric: read(source) for metric, (_unit, source) in LAYER_METRICS.items()}

    def metrics(self) -> dict[str, float]:
        """Median over traced passes of each per-layer metric; counts keep a
        value some pass had."""
        per_pass = [self.pass_metrics(spans) for spans in self.passes]
        return {
            m: (statistics.median if unit == "s" else statistics.median_low)(p[m] for p in per_pass)
            for m, (unit, _source) in LAYER_METRICS.items()
        }

    def write(self, fh, header: dict) -> None:
        """JSON lines: the header, then one [pass, name, start, end, parent] per
        span, where parent indexes the spans of the same pass (-1 for none)."""
        fh.write(json.dumps({**header, "fields": ["pass", "name", "start", "end", "parent"]}) + "\n")
        for p, spans in enumerate(self.passes):
            for i in range(len(spans["name"])):
                row = [p, self.names[spans["name"][i]], spans["start"][i], spans["end"][i],
                       spans["parent"][i]]
                fh.write(json.dumps(row) + "\n")
