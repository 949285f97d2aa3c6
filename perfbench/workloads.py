"""Seeded workloads for the knitgraph benchmark.

A workload is a list of CLI calls over generated input files. Building one
generates the files from the seed and computes every expected answer from
a reference that does not go through the call being checked: the
brute-force oracles for small DAGs, the pattern generator's Fixture, a
networkx flow and matching model, and `check_coloring` on every witness.
The program under test sees only the files and its argv.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import networkx as nx

import knitgraph as kg
from knitgraph import DirectedKnitGraph, EdgeColor, RedRule, Role

# Result of a check: None when the call answered as expected, else the reason.
Verdict = str | None
Check = Callable[[int, str, str], Verdict]

_COLOR_JSON = {
    EdgeColor.BLUE: "blue",
    EdgeColor.RED: "red",
    EdgeColor.PURPLE: "purple",
    EdgeColor.UNCOLORED: None,
}
_COLOR_FROM_JSON = {v: k for k, v in _COLOR_JSON.items()}


@dataclass
class Op:
    """One CLI call: `kind` names the per-op metric its time counts toward."""

    kind: str
    argv: list[str]
    check: Check
    save_stdout: Path | None = None  # a later op reads this call's output


@dataclass
class Workload:
    ops: list[Op]
    gen_s: float  # time spent in the pattern generators while building


# Why each workload exists (the metric each one is meant to move):
#
# round-large: the 10^5 scale of acceptance criterion 10 and of the ROADMAP
#   baseline. One 300x330 round stockinette (n = 99,000, m = 197,669; its
#   flow network has 494,011 arcs) and its yarn multigraph. Time goes to
#   big-input parse, one huge flow network, witness re-validation and
#   serialization, and the Eulerian trail walker.
# dag-batch: many small documents, so many small flow networks instead of
#   one huge one, the per-k sweep cliff (every k of an uncolored round runs
#   a full flow) and the fixed per-call overhead of the CLI (argparse set-up
#   is about half of a small call). Random DAGs are mostly rejected at the
#   degree check, so the sweep there costs no flow at all.
# flat-layout: the layout-bearing pieces. `layout.crossing_graph` dominates
#   and no flow runs at all, so a flow-layer change should leave it alone.
#   The pieces are kept small (flat 8x8, brioche-14) so that a run's
#   median is taken over many passes; its cost grows as the square of the
#   edge count, so flat 14x14 and brioche-24 took 12 s a pass.
#
# The seed orders the edges and layout keys of every input file, and in
# dag-batch draws the random DAGs, their rules and the document order.
# Sizes never depend on it, so every seed asks for about the same work.
WORKLOADS = ("round-large", "dag-batch", "flat-layout")

# Sizes of the full benchmark and of the self-tests.
FULL = {
    "round": (300, 330),
    "round_sides": (3, 4, 6, 8, 10, 12),  # every (rows, cols) pair: 36 rounds
    "batch_dags": 120,
    "dag_sizes": range(5, 41),
    "flat": 8,  # with brioche-14 a pass takes about 2 s, so a run holds a dozen
    "brioche": 14,
}
TINY = {
    "round": (6, 7),
    "round_sides": (3, 4),
    "batch_dags": 30,  # 38 documents, so a pass makes over 100 calls
    "dag_sizes": range(5, 13),
    "flat": 4,
    "brioche": 6,
}
ORACLE_CAP = 9  # DAGs up to this size are checked by exhaustive search


class _Generators:
    """Calls the pattern generators and adds up the time spent in them."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, fn, *args, **kwargs) -> kg.Fixture:
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start


def _uncolored(g: DirectedKnitGraph) -> DirectedKnitGraph:
    return DirectedKnitGraph(g.n, tuple((s, d, EdgeColor.UNCOLORED) for s, d, _ in g.edges))


def _write_graph(path: Path, g: DirectedKnitGraph, rng: random.Random,
                 layout=None, meta=None) -> None:
    """A knit-graph document with its edges and layout keys in seeded order."""
    edges = [{"src": s, "dst": d, "color": _COLOR_JSON[c]} for s, d, c in g.edges]
    rng.shuffle(edges)
    doc: dict = {"n": g.n, "directed": True, "multigraph": False, "edges": edges}
    if layout is not None:
        keys = list(layout)
        rng.shuffle(keys)
        doc["layout"] = {str(v): [layout[v][0], _column(layout[v][1])] for v in keys}
    if meta:
        doc["meta"] = meta
    path.write_text(json.dumps(doc))


def _column(col):
    if col.denominator != 1:
        raise ValueError(f"column {col} has no exact JSON form")
    return int(col)


def _write_yarn(path: Path, y: kg.YarnGraph) -> None:
    """Yarn arcs keep the generator's order: it is significant for trails."""
    doc = {
        "n": y.n,
        "directed": True,
        "multigraph": True,
        "edges": [{"src": s, "dst": d, "color": None} for s, d in y.arcs],
        "meta": {"k": y.yarn_count_hint},
    }
    path.write_text(json.dumps(doc))


def _fixture_meta(fx: kg.Fixture) -> dict:
    """The meta block `knitgraph gen` writes for a fixture."""
    return {
        "k": fx.k,
        "threads": [list(t) for t in fx.cover],
        "expected_class": fx.expected_class.value,
        "rule": fx.rule.value,
    }


# ---------------------------------------------------------------- references

def reference_k_range(g: DirectedKnitGraph, rule: RedRule) -> list[int]:
    """Every feasible thread count of a DAG, by a networkx min-cost flow.

    The split-vertex network with unit split arcs has a super arc whose
    feasible integral flow values form an interval (Hoffman's circulation
    theorem plus integrality), so its least and greatest value give the
    whole answer. Two network-simplex solves replace the per-k sweep.
    """
    roles = [kg.classify_vertex(i, o, rule) for i, o in g.degrees()]
    if not all(roles):
        return []
    net = nx.DiGraph()
    for v in range(g.n):
        # the [1,1] split arc v_in -> v_out, eliminated into demands
        net.add_node(("in", v), demand=1)
        net.add_node(("out", v), demand=-1)
    for s, d, _ in g.edges:
        if roles[s] & {Role.S, Role.M} and roles[d] & {Role.M, Role.T}:
            net.add_edge(("out", s), ("in", d), capacity=1, weight=0)
    for v in range(g.n):
        if Role.S in roles[v]:
            net.add_edge("s_out", ("in", v), capacity=1, weight=0)
        if Role.T in roles[v]:
            net.add_edge(("out", v), "t_in", capacity=1, weight=0)
    net.add_edge("t_in", "t_out", capacity=g.n, weight=0)
    net.add_edge("t_out", "s_in", capacity=g.n, weight=0)
    bounds = []
    for weight in (1, -1):
        net.add_edge("s_in", "s_out", capacity=g.n, weight=weight)
        try:
            _cost, flow = nx.network_simplex(net)
        except nx.NetworkXUnfeasible:
            return []
        bounds.append(flow["s_in"]["s_out"])
    return list(range(max(bounds[0], 1), bounds[1] + 1))


def reference_min_cover(g: DirectedKnitGraph) -> int:
    """Minimum path cover of a DAG: n minus a maximum bipartite matching."""
    bip = nx.Graph()
    tails = [("out", v) for v in range(g.n)]
    bip.add_nodes_from(tails)
    bip.add_nodes_from(("in", v) for v in range(g.n))
    bip.add_edges_from((("out", s), ("in", d)) for s, d, _ in g.edges)
    matching = nx.bipartite.hopcroft_karp_matching(bip, top_nodes=tails)
    return g.n - len(matching) // 2


# ------------------------------------------------------------------- checks

def _expect_json(rc: int, want_rc: int, stdout: str):
    if rc != want_rc:
        raise _Mismatch(f"exit {rc}, expected {want_rc}")
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise _Mismatch(f"stdout is not JSON: {exc}") from None


class _Mismatch(Exception):
    pass


def _checked(fn) -> Check:
    def check(rc: int, stdout: str, stderr: str) -> Verdict:
        try:
            fn(rc, stdout, stderr)
        except _Mismatch as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, kg.KnitError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
        return None
    return check


def witness_check(g: DirectedKnitGraph, k: int, rule: RedRule) -> Check:
    """`decide --k` must print a witness on g's arcs that check_coloring accepts."""
    arcs = {(s, d) for s, d, _ in g.edges}

    def check(rc, stdout, _stderr):
        doc = _expect_json(rc, 0, stdout)
        edges = tuple((e["src"], e["dst"], _COLOR_FROM_JSON[e["color"]]) for e in doc["edges"])
        if doc["n"] != g.n or {(s, d) for s, d, _ in edges} != arcs:
            raise _Mismatch("witness arcs differ from the input")
        if doc["meta"]["k"] != k:
            raise _Mismatch(f"witness declares k={doc['meta']['k']}, asked for {k}")
        report = kg.check_coloring(DirectedKnitGraph(g.n, edges), k, rule)
        if not report.valid:
            raise _Mismatch("invalid witness: " + "; ".join(report.problems[:3]))
        if tuple(map(tuple, doc["meta"]["threads"])) != report.threads:
            raise _Mismatch("meta.threads differ from the blue paths")
    return _checked(check)


def infeasible_check(k: int) -> Check:
    def check(rc, stdout, _stderr):
        doc = _expect_json(rc, 1, stdout)
        if doc != {"feasible": False, "k": k}:
            raise _Mismatch(f"unexpected verdict {doc}")
    return _checked(check)


def sweep_check(expected: list[int]) -> Check:
    def check(rc, stdout, _stderr):
        doc = _expect_json(rc, 0 if expected else 1, stdout)
        if doc["feasible_k"] != expected:
            raise _Mismatch(f"feasible k {doc['feasible_k']}, expected {expected}")
    return _checked(check)


def cover_check(g: DirectedKnitGraph, expected_k: int) -> Check:
    """`cover` must print expected_k vertex-disjoint paths along g's arcs."""
    arcs = {(s, d) for s, d, _ in g.edges}

    def check(rc, stdout, _stderr):
        doc = _expect_json(rc, 0, stdout)
        threads = doc["threads"]
        if doc["k"] != expected_k or len(threads) != expected_k:
            raise _Mismatch(f"cover of {doc['k']} threads, expected {expected_k}")
        if sorted(v for t in threads for v in t) != list(range(g.n)):
            raise _Mismatch("threads do not partition the vertices")
        if not all(pair in arcs for t in threads for pair in zip(t, t[1:])):
            raise _Mismatch("a thread steps along a missing arc")
    return _checked(check)


def validate_check(k: int) -> Check:
    def check(rc, stdout, _stderr):
        doc = _expect_json(rc, 0, stdout)
        if doc != {"valid": True, "threads": k, "problems": []}:
            raise _Mismatch(f"unexpected report {doc}")
    return _checked(check)


def yarn_check(y: kg.YarnGraph, expected_k: int) -> Check:
    """`yarn min-k` must print expected_k trails using every arc once."""
    arcs = Counter(y.arcs)

    def check(rc, stdout, _stderr):
        doc = _expect_json(rc, 0, stdout)
        trails = doc["trails"]
        if doc["k"] != expected_k or len(trails) != expected_k:
            raise _Mismatch(f"{doc['k']} yarns, expected {expected_k}")
        if Counter(p for t in trails for p in zip(t, t[1:])) != arcs:
            raise _Mismatch("trails do not use every arc exactly once")
    return _checked(check)


def json_check(expected: dict) -> Check:
    """Exit 0 and JSON whose fields named in `expected` have those values."""
    def check(rc, stdout, _stderr):
        doc = _expect_json(rc, 0, stdout)
        got = {key: doc[key] for key in expected}
        if got != expected:
            raise _Mismatch(f"got {got}, expected {expected}")
    return _checked(check)


def error_check(message: str) -> Check:
    def check(rc, stdout, stderr):
        if rc != 2 or message not in stderr or stdout:
            raise _Mismatch(f"exit {rc}, stderr {stderr.strip()!r}; expected exit 2: {message}")
    return _checked(check)


# ---------------------------------------------------------------- workloads

def _round_large(seed: int, work: Path, size: dict, gen: _Generators) -> list[Op]:
    rng = random.Random(seed)
    rows, cols = size["round"]
    fx = gen(kg.gen_stockinette, rows, cols, round=True)
    graph = _uncolored(fx.graph)
    piece, yarn, witness = work / "round.json", work / "round-yarn.json", work / "witness.json"
    _write_graph(piece, graph, rng)
    _write_yarn(yarn, fx.yarn)
    return [
        Op("decide", ["decide", "--k", str(fx.k), "--json", str(piece)],
           witness_check(graph, fx.k, fx.rule), save_stdout=witness),
        Op("validate", ["validate", "--json", str(witness)], validate_check(fx.k)),
        Op("cover", ["cover", "--json", str(piece)], cover_check(graph, len(fx.cover))),
        Op("yarn_min_k", ["yarn", "min-k", "--json", str(yarn)], yarn_check(fx.yarn, fx.k)),
    ]


def random_dag(rng: random.Random, n: int) -> DirectedKnitGraph:
    """Uncolored DAG on a shuffled vertex order, mean total degree about 3."""
    order = list(range(n))
    rng.shuffle(order)
    p = min(1.0, 3.0 / (n - 1))
    edges = [
        (order[i], order[j], EdgeColor.UNCOLORED)
        for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return DirectedKnitGraph(n, tuple(edges))


def _batch_ops(path: Path, g: DirectedKnitGraph, rule: RedRule,
               feasible: list[int], min_cover: int) -> list[Op]:
    k = feasible[0] if feasible else 1
    decide = witness_check(g, k, rule) if feasible else infeasible_check(k)
    rule_args = ["--rule", rule.value, "--json", str(path)]
    return [
        Op("sweep", ["decide", "--sweep", *rule_args], sweep_check(feasible)),
        Op("cover", ["cover", "--json", str(path)], cover_check(g, min_cover)),
        Op("decide", ["decide", "--k", str(k), *rule_args], decide),
    ]


def _dag_batch(seed: int, work: Path, size: dict, gen: _Generators) -> list[Op]:
    rng = random.Random(seed)
    docs: list[tuple[DirectedKnitGraph, RedRule, list[int], int]] = []
    # Stitch fixtures, colors stripped: decide rejects purple turn edges.
    for name in kg.patterns.STITCH_NAMES:
        fx = gen(kg.gen_stitch_fixture, name)
        g = _uncolored(fx.graph)
        docs.append((g, fx.rule, reference_k_range(g, fx.rule), reference_min_cover(g)))
    sides = size["round_sides"]
    for rows in sides:
        for cols in sides:
            fx = gen(kg.gen_stockinette, rows, cols, round=True)
            g = _uncolored(fx.graph)
            docs.append((g, fx.rule, reference_k_range(g, fx.rule), len(fx.cover)))
    sizes = size["dag_sizes"]
    for i in range(size["batch_dags"]):
        g = random_dag(rng, sizes[i % len(sizes)])
        rule = rng.choice((RedRule.STRICT, RedRule.EXTENDED))
        if g.n <= ORACLE_CAP:
            feasible = [k for k in range(1, g.n + 1)
                        if kg.brute_force_knittable(g, k, rule, cap=ORACLE_CAP) is not None]
            min_cover = kg.brute_force_minimum_path_cover(g, cap=ORACLE_CAP)[0]
        else:
            feasible, min_cover = reference_k_range(g, rule), reference_min_cover(g)
        docs.append((g, rule, feasible, min_cover))
    rng.shuffle(docs)
    ops = []
    for i, (g, rule, feasible, min_cover) in enumerate(docs):
        path = work / f"doc{i:03d}.json"
        _write_graph(path, g, rng)
        ops.extend(_batch_ops(path, g, rule, feasible, min_cover))
    return ops


def _layout_rows(fx: kg.Fixture) -> int:
    return 1 + max(row for row, _col in fx.layout.values())


def _planar(fx: kg.Fixture) -> bool:
    return nx.check_planarity(nx.Graph((s, d) for s, d, _ in fx.graph.edges))[0]


def _flat_layout(seed: int, work: Path, size: dict, gen: _Generators) -> list[Op]:
    rng = random.Random(seed)
    ops = []

    def classify(fx: kg.Fixture) -> Path:
        path = work / f"{fx.name}.json"
        _write_graph(path, fx.graph, rng, fx.layout, _fixture_meta(fx))
        ops.append(Op(
            "classify", ["classify", "--rule", fx.rule.value, "--json", str(path)],
            json_check({"class": fx.expected_class.value, "planar": _planar(fx)}),
        ))
        return path

    for fx in (gen(kg.gen_stockinette, size["flat"], size["flat"]),
               gen(kg.gen_brioche_maximal, size["brioche"])):
        path = classify(fx)
        # A class-0 drawing has no crossings; in the brioche grid each
        # diagonal crosses only the other diagonal of its cell.
        width = 0 if fx.expected_class is kg.ComplexityClass.CLASS0 else 1
        ops.append(Op("cablewidth", ["cablewidth", "--json", str(path)],
                      json_check({"cable_width": width})))
    for name in kg.patterns.STITCH_NAMES:
        fx = gen(kg.gen_stitch_fixture, name)
        path = classify(fx)
        if _planar(fx):
            rows = json_check({"rows": _layout_rows(fx)})
        else:
            rows = error_check("not planar")
        ops.append(Op("rows", ["rows", "--json", str(path)], rows))
    return ops


_RECIPES = {
    "round-large": _round_large,
    "dag-batch": _dag_batch,
    "flat-layout": _flat_layout,
}


def build(name: str, seed: int, work: Path, size: dict = FULL) -> Workload:
    """Write the workload's input files under `work` and return its ops."""
    work.mkdir(parents=True, exist_ok=True)
    gen = _Generators()
    ops = _RECIPES[name](seed, work, size, gen)
    return Workload(ops, gen.seconds)
