"""Yarn-graph analysis: Eulerian trails, minimum yarn counts, and the
round trip between colored graphs and yarn multigraphs.

Loop edges contribute an antiparallel arc pair to the yarn graph, so only
thread (sequential) arcs unbalance vertices; the minimum yarn count of a
component is therefore its total positive out-excess, with one closed trail
for a balanced component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import KnitError, NoEulerianPathError
from .graphs import (
    DirectedKnitGraph,
    EdgeColor,
    YarnGraph,
    component_labels,
    reduce_yarn_to_directed,
)
from .feasibility import RedRule, check_coloring, thread_paths


@dataclass(frozen=True)
class Trail:
    """A directed trail: arc indices into the yarn graph plus the vertex walk."""

    arcs: tuple[int, ...]
    vertices: tuple[int, ...]

    @property
    def closed(self) -> bool:
        return len(self.vertices) > 1 and self.vertices[0] == self.vertices[-1]


TrailDecomposition = tuple[Trail, ...]


def yarn_from_threads(g: DirectedKnitGraph, cover) -> YarnGraph:
    """Expand a colored witness into the physical strand multigraph.

    Blue edge (u,v) -> one arc u->v. Red edge -> the loop pair u->v, v->u.
    Purple edge -> the sequential strand first, then the loop pair, keeping
    trail extraction deterministic.
    """
    thread_pairs = {pair for thread in cover for pair in zip(thread, thread[1:])}
    declared = {
        (s, d) for s, d, c in g.edges if c in (EdgeColor.BLUE, EdgeColor.PURPLE)
    }
    if thread_pairs != declared:
        raise ValueError("cover does not match the sequential edges of the coloring")
    arcs: list[tuple[int, int]] = []
    for src, dst, color in g.edges:
        if color is EdgeColor.BLUE:
            arcs.append((src, dst))
        elif color is EdgeColor.RED:
            arcs.append((src, dst))
            arcs.append((dst, src))
        elif color is EdgeColor.PURPLE:
            arcs.append((src, dst))
            arcs.append((src, dst))
            arcs.append((dst, src))
        else:
            raise ValueError(f"edge {(src, dst)} is uncolored")
    return YarnGraph(g.n, tuple(arcs), yarn_count_hint=len(cover))


def _weak_components(y: YarnGraph) -> list[list[int]]:
    """Weakly-connected components restricted to arc-bearing vertices."""
    labels = component_labels(y.n, y.arcs)
    comps: list[list[int]] = [[] for _ in range(max(labels, default=-1) + 1)]
    for v, label in enumerate(labels):
        comps[label].append(v)
    # Yarn graphs have no self-loops, so a vertex bears arcs exactly when
    # its component has another vertex.
    return [comp for comp in comps if len(comp) > 1]


class _TrailWalker:
    """Greedy trail construction with loop-strand-first arc choice.

    At each step the walker prefers (1) the unused reversal of the arc it
    just traversed, then (2) arcs whose reversal is still unused (loop
    strands, consumed as atomic down-up detours), then (3) the lowest-index
    remaining arc. This keeps sequential arcs of a well-formed yarn graph in
    thread order inside each trail.

    A walk never leaves the weak component it starts in, so one walker
    serves every component; `remaining` counts the unused arcs of the
    component being walked and is set by the caller.
    """

    def __init__(self, y: YarnGraph):
        self.y = y
        self.used = [False] * y.m
        self.out: dict[int, list[int]] = {}
        self.by_dir: dict[tuple[int, int], list[int]] = {}
        for i, (src, dst) in enumerate(y.arcs):
            self.out.setdefault(src, []).append(i)
            self.by_dir.setdefault((src, dst), []).append(i)
        self.remaining = 0

    def _first_unused(self, direction: tuple[int, int]) -> int | None:
        for i in self.by_dir.get(direction, ()):
            if not self.used[i]:
                return i
        return None

    def _choose(self, v: int, last_arc: int | None) -> int | None:
        if last_arc is not None:
            src, dst = self.y.arcs[last_arc]
            back = self._first_unused((dst, src))
            if back is not None:
                return back
        fallback = None
        for i in self.out.get(v, ()):
            if self.used[i]:
                continue
            if fallback is None:
                fallback = i
            src, dst = self.y.arcs[i]
            if self._first_unused((dst, src)) is not None:
                return i
        return fallback

    def walk(self, start: int) -> tuple[list[int], list[int]]:
        arcs: list[int] = []
        vertices = [start]
        v = start
        last: int | None = None
        while True:
            nxt = self._choose(v, last)
            if nxt is None:
                return arcs, vertices
            self.used[nxt] = True
            self.remaining -= 1
            v = self.y.arcs[nxt][1]
            arcs.append(nxt)
            vertices.append(v)
            last = nxt

    def splice_leftovers(self, trails: list[tuple[list[int], list[int]]]):
        """Insert leftover balanced circuits into existing trails in place."""
        while self.remaining:
            spliced = False
            for arcs, vertices in trails:
                for pos, v in enumerate(vertices):
                    if any(not self.used[i] for i in self.out.get(v, ())):
                        sub_arcs, sub_vertices = self.walk(v)
                        if sub_vertices[-1] != v:
                            raise NoEulerianPathError(
                                "imbalance", [(v, "stuck while splicing")]
                            )
                        arcs[pos:pos] = sub_arcs
                        vertices[pos + 1 : pos + 1] = sub_vertices[1:]
                        spliced = True
                        break
                if spliced:
                    break
            if not spliced:
                raise NoEulerianPathError("disconnected")


def _component_trails(y: YarnGraph, comps: list[list[int]]) -> list[Trail]:
    """Trails covering the arcs of each weak component in `comps` (sorted
    vertex lists): one per unit of out-excess, started at the excess
    vertices in id order, or one from the smallest vertex if balanced."""
    walker = _TrailWalker(y)
    degrees = y.degrees()
    trails: list[Trail] = []
    for comp in comps:
        walker.remaining = sum(degrees[v][1] for v in comp)
        starts = [v for v in comp for _ in range(degrees[v][1] - degrees[v][0])]
        raw = [walker.walk(s) for s in starts or comp[:1]]
        walker.splice_leftovers(raw)
        trails.extend(Trail(tuple(a), tuple(v)) for a, v in raw)
    return trails


def minimum_yarns(y: YarnGraph) -> tuple[int, TrailDecomposition]:
    """Fewest yarns that can realize the strand multigraph, with a witness.

    Each arc-bearing weak component contributes max(1, total out-excess)
    trails; trail starts are forced at excess vertices, smallest id first.
    """
    trails = _component_trails(y, _weak_components(y))
    return len(trails), tuple(trails)


def eulerian_path(y: YarnGraph, component: list[int] | None = None) -> Trail:
    """Single directed trail using every arc once (Hierholzer construction).

    Restricted to `component`'s vertices when given. Raises
    NoEulerianPathError with the imbalance list or a disconnection verdict.
    """
    if component is None:
        comps = _weak_components(y)
        if len(comps) > 1:
            raise NoEulerianPathError("disconnected")
        comp = comps[0] if comps else []
    else:
        comp_set = set(component)
        if any((src in comp_set) != (dst in comp_set) for src, dst in y.arcs):
            raise NoEulerianPathError("disconnected", "arcs leave the component")
        comp = [v for v in range(y.n) if v in comp_set]

    # No arc leaves `comp`, so its vertices' degrees are those of the graph.
    degrees = y.degrees()
    bearing = [v for v in comp if degrees[v] != (0, 0)]
    if not bearing:
        return Trail((), ())
    excess = [o - i for i, o in degrees]
    imbalances = [(v, excess[v]) for v in comp if excess[v]]
    if sorted(d for _, d in imbalances) not in ([], [-1], [1], [-1, 1]):
        raise NoEulerianPathError("imbalance", imbalances)
    if component is not None:
        labels = component_labels(y.n, y.arcs)
        if any(labels[v] != labels[bearing[0]] for v in bearing):
            raise NoEulerianPathError("disconnected")

    (trail,) = _component_trails(y, [bearing])
    return trail


@dataclass
class YarnCheckReport:
    ok: bool
    min_yarns: int
    thread_paths: int
    reasons: list[str]


def is_yarn_graph_of_k_knittable(
    y: YarnGraph, k: int, rule: RedRule = RedRule.STRICT
) -> YarnCheckReport:
    """Could this multigraph be the yarn trace of a k-yarn object?

    Requires the trail count to fit in k, a consistent strand-pair
    reduction, and a sequential skeleton that forms at most k paths covering
    all stitches with admissible loop configurations.
    """
    reasons: list[str] = []
    count, _trails = minimum_yarns(y)
    if count > k:
        reasons.append(f"needs at least {count} yarns, only {k} allowed")
    try:
        reduced = reduce_yarn_to_directed(y)
    except KnitError as exc:  # reduction errors are verdicts here, not crashes
        reasons.append(f"{type(exc).__name__}: {exc}")
        return YarnCheckReport(False, count, 0, reasons)
    threads, problems = thread_paths(reduced, {EdgeColor.BLUE, EdgeColor.PURPLE})
    if problems:
        reasons.append("sequential arcs do not form vertex-disjoint paths")
        return YarnCheckReport(False, count, 0, reasons)
    paths = len(threads)
    if paths > k:
        reasons.append(f"sequential skeleton forms {paths} threads, only {k} allowed")
    report = check_coloring(reduced, paths, rule, allow_purple=True)
    if not report.valid:
        reasons.extend(report.problems)
    return YarnCheckReport(not reasons, count, paths, reasons)

