"""Core graph data model: colored directed knit graphs, yarn multigraphs,
and the reductions between them.

Vertices are dense 0-based integers. A directed knit graph is simple in the
strong sense: at most one edge per unordered vertex pair, so dropping
directions always yields a simple undirected graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

from .errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InconsistentPairError,
    MultiplicityTooHighError,
    NotADagError,
    SelfLoopError,
)


class EdgeColor(Enum):
    """Edge role in the colored model.

    BLUE marks yarn-sequential edges, RED marks loop (pass-through) edges,
    PURPLE marks edges that are both at once (row turns in flat knitting).
    UNCOLORED appears only in decision-problem inputs.
    """

    BLUE = "blue"
    RED = "red"
    PURPLE = "purple"
    UNCOLORED = "uncolored"

    # Members are singletons compared by identity, so the C identity hash
    # serves every set and dict lookup; Enum's own hashes the name in Python.
    __hash__ = object.__hash__


# The colors that step along a thread and those that loop through an
# earlier stitch; a purple arc is in both.
THREAD_COLORS = frozenset({EdgeColor.BLUE, EdgeColor.PURPLE})
LOOP_COLORS = frozenset({EdgeColor.RED, EdgeColor.PURPLE})

ColoredEdge = tuple[int, int, EdgeColor]


def _check_simple(n: int, edges) -> None:
    """Raise for the first edge, in edge order, that is a self-loop, has an
    end outside [0, n) or repeats an unordered pair; only the first two
    fields of each edge are read, so colored arcs and plain pairs share it.
    """
    # Each unordered pair is keyed by one int, min * n + max; the key is
    # taken after the range check, so distinct pairs get distinct keys.
    seen_pairs: set[int] = set()
    for edge in edges:
        src, dst = edge[0], edge[1]
        if src == dst:
            raise SelfLoopError(src)
        if not (0 <= src < n) or not (0 <= dst < n):
            raise IndexOutOfRangeError(src if src >= n or src < 0 else dst, n)
        pair = src * n + dst if src < dst else dst * n + src
        if pair in seen_pairs:
            raise DuplicateEdgeError(src, dst)
        seen_pairs.add(pair)


def _degrees(n: int, edges) -> list[tuple[int, int]]:
    """(indegree, outdegree) per vertex in [0, n); only the first two
    fields of each edge are read, so colored arcs and plain pairs share it.
    """
    indeg = [0] * n
    outdeg = [0] * n
    for edge in edges:
        outdeg[edge[0]] += 1
        indeg[edge[1]] += 1
    return list(zip(indeg, outdeg))


@dataclass(frozen=True)
class DirectedKnitGraph:
    """Simple directed graph with an edge coloring.

    Edges are canonically sorted by (src, dst) so structural equality is
    independent of input order. Immutable after construction.
    """

    n: int
    edges: tuple[ColoredEdge, ...]

    def __post_init__(self):
        _check_simple(self.n, self.edges)
        # Plain tuple order: the (src, dst) pairs are unique, so colors are
        # never compared.
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @classmethod
    def _trusted(cls, n: int, edges: tuple[ColoredEdge, ...]) -> "DirectedKnitGraph":
        """Build without validation from edges that are valid as given and
        sorted by (src, dst), the canonical order validation produces.

        Nothing checks either: `topological_sort` reads each vertex's
        out-arcs as one slice of that order, so unsorted edges would give
        a wrong order without an error.
        """
        graph = object.__new__(cls)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "edges", edges)
        return graph

    @property
    def m(self) -> int:
        return len(self.edges)

    def colors(self) -> set[EdgeColor]:
        return {c for _, _, c in self.edges}

    def out_adj(self) -> list[list[int]]:
        """Heads of each vertex's out-arcs, ascending as the edges are sorted."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for src, dst, _ in self.edges:
            adj[src].append(dst)
        return adj

    def degrees(self) -> list[tuple[int, int]]:
        """Total (indegree, outdegree) per vertex, colors ignored."""
        return _degrees(self.n, self.edges)


@dataclass(frozen=True)
class KnittingGraph:
    """Simple undirected graph; edges stored as sorted (min, max) pairs."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_simple(self.n, self.edges)
        object.__setattr__(
            self, "edges", tuple(sorted((u, v) if u < v else (v, u) for u, v in self.edges))
        )

    @property
    def m(self) -> int:
        return len(self.edges)

    def adj(self) -> list[list[int]]:
        """Neighbors of each vertex, ascending: the edges are sorted
        (min, max) pairs, so v's smaller neighbors come first, in order,
        then its larger ones."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


@dataclass(frozen=True)
class YarnGraph:
    """Directed multigraph tracing the physical yarn.

    Arc order is significant: reduction uses first-traversal order to direct
    loop edges.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]
    yarn_count_hint: int | None = None

    def __post_init__(self):
        for src, dst in self.arcs:
            if src == dst:
                raise SelfLoopError(src)
            if not (0 <= src < self.n) or not (0 <= dst < self.n):
                raise IndexOutOfRangeError(src if src >= self.n or src < 0 else dst, self.n)
        object.__setattr__(self, "arcs", tuple(self.arcs))

    @property
    def m(self) -> int:
        return len(self.arcs)

    def degrees(self) -> list[tuple[int, int]]:
        return _degrees(self.n, self.arcs)


def component_labels(n: int, pairs) -> list[int]:
    """Connected-component label of each vertex in [0, n) under the
    undirected `pairs`; labels count up from 0 in order of each component's
    smallest vertex.

    Union-find with path halving, where a root is always linked under the
    smaller root, so parent[v] <= v throughout and every root is the
    smallest vertex of its component.
    """
    parent = list(range(n))
    for u, v in pairs:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    labels = [0] * n
    count = 0
    for v in range(n):
        if parent[v] == v:
            labels[v] = count
            count += 1
        else:  # parent[v] < v is in v's component and already labelled
            labels[v] = labels[parent[v]]
    return labels


def topological_sort(g: DirectedKnitGraph) -> list[int]:
    """Kahn's algorithm with a min-heap so ties break toward smaller ids.

    The edges are sorted by (src, dst), so the successors of v are the
    heads of one slice of them, found from out-degree offsets; no list is
    built per vertex. Raises NotADagError carrying one concrete cycle.
    """
    n = g.n
    indeg = [0] * n
    start = [0] * (n + 1)  # out-arcs of v: heads[start[v]:start[v + 1]]
    for src, dst, _ in g.edges:
        start[src + 1] += 1
        indeg[dst] += 1
    start = list(accumulate(start))
    heads = [dst for _, dst, _ in g.edges]
    heap = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in heads[start[v]:start[v + 1]]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) < g.n:
        raise NotADagError(_find_cycle(g, set(range(g.n)) - set(order)))
    return order


def _find_cycle(g: DirectedKnitGraph, candidates: set[int]) -> list[int]:
    # Trim the vertices with no successor left in the live set, by a queue
    # over predecessors with live out-degree counters, O(n + m). Every
    # vertex that remains has a live successor, so walking from the
    # smallest one to its smallest live successor must repeat a vertex.
    # Successors are slices of the sorted edges, as in topological_sort,
    # and predecessors one flat array counting-sorted by head: no list is
    # built per vertex.
    n = g.n
    live = [False] * n
    for v in candidates:
        live[v] = True
    start = [0] * (n + 1)  # out-arcs of v: edges[start[v]:start[v + 1]]
    out = [0] * n  # live out-arcs of a live vertex
    first = [0] * (n + 1)  # live in-arcs of v: tails[first[v]:first[v + 1]]
    for src, dst, _ in g.edges:
        start[src + 1] += 1
        if live[src] and live[dst]:
            out[src] += 1
            first[dst + 1] += 1
    start = list(accumulate(start))
    first = list(accumulate(first))
    tails = [0] * first[n]
    fill = first[:n]
    for src, dst, _ in g.edges:
        if live[src] and live[dst]:
            tails[fill[dst]] = src
            fill[dst] += 1
    dead = [v for v in candidates if not out[v]]
    for v in dead:  # the list grows while it is read
        live[v] = False
        for u in tails[first[v]:first[v + 1]]:
            out[u] -= 1
            if not out[u]:
                dead.append(u)
    v = min(v for v in candidates if live[v])
    path: list[int] = []
    pos: dict[int, int] = {}
    while v not in pos:
        pos[v] = len(path)
        path.append(v)
        v = next(w for _, w, _ in g.edges[start[v]:start[v + 1]] if live[w])  # heads ascend
    return path[pos[v]:]


def underlying_knitting_graph(g: DirectedKnitGraph) -> KnittingGraph:
    """Drop directions and colors; simplicity is preserved by construction."""
    return KnittingGraph(g.n, tuple((s, d) for s, d, _ in g.edges))


def reduce_yarn_to_directed(y: YarnGraph) -> DirectedKnitGraph:
    """Compress a yarn multigraph into one colored edge per vertex pair.

    Multiplicity 1 maps to a blue edge along the arc. Multiplicity 2 must be
    one arc each way (a loop) and maps to red along the first-traversed
    arc. Multiplicity 3 must split two-one and maps to purple along the
    majority (sequential) direction.
    """
    # Pair {a, b}, a < b, is keyed by the int a * n + b and counts its arcs
    # a -> b and b -> a, plus whether its first arc ran a -> b; dict order
    # is first-traversal order, so faults are reported in that order.
    n = y.n
    counts: dict[int, list] = {}
    for src, dst in y.arcs:
        forward = src < dst
        key = src * n + dst if forward else dst * n + src
        tally = counts.get(key)
        if tally is None:
            tally = counts[key] = [0, 0, forward]
        tally[0 if forward else 1] += 1

    edges: list[ColoredEdge] = []
    for key, (ahead, back, first_ahead) in counts.items():
        a, b = divmod(key, n)
        total = ahead + back
        if total > 3:
            raise MultiplicityTooHighError((a, b), total)
        if total == 1:
            edges.append((a, b, EdgeColor.BLUE) if ahead else (b, a, EdgeColor.BLUE))
        elif total == 2:
            if ahead != 1:
                raise InconsistentPairError((a, b), "loop strands must run in opposite directions")
            edges.append((a, b, EdgeColor.RED) if first_ahead else (b, a, EdgeColor.RED))
        else:  # total == 3: one loop pair plus the sequential strand
            if ahead not in (1, 2):
                raise InconsistentPairError(
                    (a, b), "mixed edge needs a loop pair plus one sequential strand"
                )
            edges.append((a, b, EdgeColor.PURPLE) if ahead == 2 else (b, a, EdgeColor.PURPLE))
    # one edge per pair of in-range, distinct vertices: valid as built
    edges.sort()
    return DirectedKnitGraph._trusted(n, tuple(edges))
