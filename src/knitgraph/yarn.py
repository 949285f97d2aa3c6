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
    THREAD_COLORS,
    DirectedKnitGraph,
    EdgeColor,
    YarnGraph,
    component_labels,
    reduce_yarn_to_directed,
)
from .feasibility import RedRule, check_coloring


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
    declared = {(s, d) for s, d, c in g.edges if c in THREAD_COLORS}
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


def _component_trails(y: YarnGraph, comps: list[list[int]]) -> list[Trail]:
    """Trails covering the arcs of each weak component in `comps` (sorted
    vertex lists): one per unit of out-excess, started at the excess
    vertices in id order, or one from the smallest vertex if balanced.

    At each step a walk prefers (1) the unused reversal of the arc it just
    traversed, then (2) the lowest-index unused out-arc whose reversal is
    still unused (loop strands, consumed as atomic down-up detours), then
    (3) the lowest-index unused out-arc. This keeps sequential arcs of a
    well-formed yarn graph in thread order inside each trail.

    All walks of a component come first; then one forward pass over each
    trail walks the leftover circuit at every vertex that still has an
    unused out-arc and inserts it at that position (Hierholzer, 1873);
    when the walks used every arc, that pass is skipped. Splicing only
    uses arcs up, so the positions already passed stay exhausted. Each
    lookup keeps a cursor that only moves forward, because its test can
    only turn false as arcs get used, so a component costs O(arcs)
    whatever the number of splices.

    Reversals are found through two per-arc pointers, with no index keyed
    by direction: `rev[i]` is the lowest arc of the direction opposite to
    arc i, and `after[i]` the next arc of arc i's own direction. The
    `after` entry of a direction's lowest arc doubles as that direction's
    cursor past its used arcs, so it too only moves forward, and many
    parallel arcs or a hub vertex keep the O(arcs) bound.
    """
    n, ends = y.n, y.arcs
    used = [False] * y.m
    after = [-1] * y.m  # next arc of the same direction, by index
    lowest: dict[int, int] = {}  # src * n + dst -> lowest arc, only while building
    for i in range(y.m - 1, -1, -1):
        src, dst = ends[i]
        key = src * n + dst
        after[i] = lowest.get(key, -1)
        lowest[key] = i
    rev = [lowest.get(dst * n + src, -1) for src, dst in ends]
    del lowest
    out: list[list[int]] = [[] for _ in range(n)]
    for i, (src, _dst) in enumerate(ends):
        out[src].append(i)
    free = [0] * n  # out[v][free[v]] is the first unused out-arc
    loop = [0] * n  # ... and out[v][loop[v]] the first with an unused reversal

    def unused_reversal(a: int) -> int:
        head = rev[a]
        if head < 0 or not used[head]:
            return head
        i = after[head]
        while i >= 0 and used[i]:
            i = after[i]
        after[head] = i
        return i

    def first_free(v: int) -> int:
        arcs, p = out[v], free[v]
        while p < len(arcs) and used[arcs[p]]:
            p += 1
        free[v] = p
        return arcs[p] if p < len(arcs) else -1

    def first_loop(v: int) -> int:
        arcs, p = out[v], loop[v]
        while p < len(arcs) and (used[arcs[p]] or unused_reversal(arcs[p]) < 0):
            p += 1
        loop[v] = p
        return arcs[p] if p < len(arcs) else -1

    def walk(v: int) -> list[int]:
        arcs: list[int] = []
        while True:
            nxt = unused_reversal(arcs[-1]) if arcs else -1
            if nxt < 0:
                nxt = first_loop(v)
            if nxt < 0:
                nxt = first_free(v)
            if nxt < 0:
                return arcs
            used[nxt] = True
            v = ends[nxt][1]
            arcs.append(nxt)

    def splice(start: int, arcs: list[int]) -> list[int]:
        spliced: list[int] = []
        pending = [iter(arcs)]  # the trail, then the circuits nested in it
        v = start
        while pending:
            if first_free(v) >= 0:
                circuit = walk(v)
                if ends[circuit[-1]][1] != v:
                    raise NoEulerianPathError("imbalance", [(v, "stuck while splicing")])
                pending.append(iter(circuit))
            arc = next(pending[-1], None)
            if arc is None:
                pending.pop()
                continue
            spliced.append(arc)
            v = ends[arc][1]
        return spliced

    degrees = y.degrees()
    trails: list[Trail] = []
    for comp in comps:
        starts = [v for v in comp for _ in range(degrees[v][1] - degrees[v][0])]
        walks = [(s, walk(s)) for s in starts or comp[:1]]
        m = sum(degrees[v][1] for v in comp)
        # walks that used every arc leave no circuit to splice in
        if sum(len(arcs) for _, arcs in walks) < m:
            walks = [(s, splice(s, arcs)) for s, arcs in walks]
            if sum(len(arcs) for _, arcs in walks) < m:
                raise NoEulerianPathError("disconnected")
        trails.extend(Trail(tuple(arcs), (s, *(ends[a][1] for a in arcs))) for s, arcs in walks)
    return trails


def minimum_yarns(y: YarnGraph) -> tuple[int, TrailDecomposition]:
    """Fewest yarns that can realize the strand multigraph, with a witness.

    Each arc-bearing weak component contributes max(1, total out-excess)
    trails; trail starts are forced at excess vertices, smallest id first.
    """
    trails = _component_trails(y, _weak_components(y))
    return len(trails), tuple(trails)


def eulerian_path(y: YarnGraph) -> Trail:
    """Single directed trail using every arc once (Hierholzer construction).

    Raises NoEulerianPathError with a disconnection verdict when the arcs
    span more than one weak component, else with the imbalance list.
    """
    comps = _weak_components(y)
    if len(comps) > 1:
        raise NoEulerianPathError("disconnected")
    if not comps:
        return Trail((), ())
    imbalances = [(v, o - i) for v, (i, o) in enumerate(y.degrees()) if o != i]
    if sorted(d for _, d in imbalances) not in ([], [-1, 1]):
        raise NoEulerianPathError("imbalance", imbalances)
    (trail,) = _component_trails(y, comps)
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
    report = check_coloring(reduced, None, rule)
    paths = len(report.threads)
    # a graph with vertices has at least one path, so none means the
    # thread arcs did not form vertex-disjoint paths
    if reduced.n > 0 and not paths:
        reasons.append("sequential arcs do not form vertex-disjoint paths")
        return YarnCheckReport(False, count, 0, reasons)
    if paths > k:
        reasons.append(f"sequential skeleton forms {paths} threads, only {k} allowed")
    reasons.extend(report.problems)
    return YarnCheckReport(not reasons, count, paths, reasons)

