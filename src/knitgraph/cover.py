"""Thread-cover decisions: Hamiltonian check, the exact-k flow decision,
minimum path cover, and exhaustive oracles for small graphs.

A thread cover is an ordered tuple of vertex-disjoint directed paths whose
union is the whole vertex set; threads are reported sorted by their first
vertex, and the flow solver processes arcs in normalized order, so every
returned witness is reproducible.

One thread needs no flow. A 1-thread cover of a DAG is a Hamiltonian path,
and a DAG has at most one: its topological order, when that order is a
chain, i.e. each consecutive pair is an arc (then the order is unique;
Kahn 1962). So `has_hamiltonian_path_dag` and `decide_k_knittable` with
k = 1 answer from the order in O(n + m); every other decision, and the
minimum path cover, goes through the flow network.
"""

from __future__ import annotations

from .errors import InfeasibleVertexError, PurplePresentError, TooLargeError
from .feasibility import RedRule, Role, check_coloring, classify_vertex, thread_paths
from .flows import (
    FlowNetwork,
    solve_flow_range,
    solve_flow_with_bounds,
    solve_minimum_flow,
)
from .graphs import DirectedKnitGraph, EdgeColor, KnittingGraph, topological_sort

ThreadCover = tuple[tuple[int, ...], ...]


def _is_chain(g: DirectedKnitGraph, order: list[int]) -> bool:
    """Whether each consecutive pair of the topological order is an arc.

    An arc joins at most one consecutive pair and each pair has at most one
    arc, so counting the arcs that step one position forward is enough;
    an empty order is a chain.
    """
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    steps = 0
    for src, dst, _ in g.edges:
        if pos[dst] - pos[src] == 1:
            steps += 1
    return steps >= g.n - 1


def has_hamiltonian_path_dag(g: DirectedKnitGraph) -> list[int] | None:
    """Topological order if consecutive vertices are joined by arcs, else None."""
    order = topological_sort(g)
    return order if _is_chain(g, order) else None


def vertex_roles(
    g: DirectedKnitGraph, rule: RedRule = RedRule.STRICT
) -> list[frozenset[Role]]:
    """Thread roles of every vertex under the rule, in vertex order.

    Each distinct (indeg, outdeg) pair is classified once; knit graphs have
    only a handful of them. Raises InfeasibleVertexError for the first
    vertex that has no role.
    """
    by_degrees: dict[tuple[int, int], frozenset[Role]] = {}
    roles = []
    for v, degrees in enumerate(g.degrees()):
        role = by_degrees.get(degrees)
        if role is None:
            role = by_degrees[degrees] = classify_vertex(*degrees, rule)
        if not role:
            raise InfeasibleVertexError(v, *degrees)
        roles.append(role)
    return roles


def build_flow_network(
    g: DirectedKnitGraph, k: int, rule: RedRule = RedRule.STRICT
) -> FlowNetwork:
    """Split-vertex network whose value-k circulations are k-thread covers.

    Every vertex carries a mandatory [1,1] split arc. An original arc can
    carry thread flow only if its tail may host a thread start-or-middle and
    its head a middle-or-end. Start/end capability wires the vertex to the
    super source/sink, which themselves carry exactly k units.
    """
    return _assemble_network(g, _threadable_roles(g, rule), k, k)


def _refuse_purple(g: DirectedKnitGraph) -> None:
    """PurplePresentError when g has a purple arc: the flow decisions and
    the directed oracle have no purple rule."""
    if EdgeColor.PURPLE in g.colors():
        raise PurplePresentError()


def _threadable_roles(
    g: DirectedKnitGraph, rule: RedRule
) -> list[frozenset[Role]]:
    """`vertex_roles` of g, after rejecting purple edges.

    Every decision checks in this order: PurplePresentError, then
    InfeasibleVertexError for the first vertex with no role.
    """
    _refuse_purple(g)
    return vertex_roles(g, rule)


def _assemble_network(
    g: DirectedKnitGraph, roles: list[frozenset], lower: int, upper: int
) -> FlowNetwork:
    """The split-vertex network with both super arcs bounded by [lower, upper].

    Arcs in order, each column extended in turn: the n split arcs (arc v
    joins v_in to v_out), the thread arcs u_out -> v_in in edge order, the
    source arcs s_out -> v_in, the sink arcs v_out -> t_in, then the super
    arcs s_in -> s_out and t_in -> t_out. Every tail and head is taken from
    one list of node ids, so all arcs at a node share a single int object.
    """
    may_leave = [Role.S in r or Role.M in r for r in roles]
    may_enter = [Role.M in r or Role.T in r for r in roles]
    net = FlowNetwork(g.n)
    node = list(range(net.num_nodes))
    ins, outs = node[0 : 2 * g.n : 2], node[1 : 2 * g.n : 2]
    s_out, t_in = node[net.s_out], node[net.t_in]
    edges = g.edges
    starts = [v_in for v_in, r in zip(ins, roles) if Role.S in r]
    ends = [v_out for v_out, r in zip(outs, roles) if Role.T in r]
    net.tails += ins
    net.tails += [outs[s] for s, d, _color in edges if may_leave[s] and may_enter[d]]
    net.tails += [s_out] * len(starts)
    net.tails += ends
    net.heads += outs
    net.heads += [ins[d] for s, d, _color in edges if may_leave[s] and may_enter[d]]
    net.heads += starts
    net.heads += [t_in] * len(ends)
    net.lowers += [1] * g.n + [0] * (net.m - g.n)
    net.uppers += [1] * net.m
    net.add(node[net.s_in], s_out, lower, upper)
    net.add(t_in, node[net.t_out], lower, upper)
    return net


def extract_threads(net: FlowNetwork, flows: list[int]) -> ThreadCover:
    """Read the threads off a feasible flow, ordered by start vertex.

    Thread flow enters a vertex v only at v_in, an even node below 2n: from
    s_out when a thread starts at v, from u_out when it runs on from u.
    """
    s_out = net.s_out
    vertex_nodes = 2 * net.n
    starts: list[int] = []
    nxt = [-1] * net.n
    for tail, head, flow in zip(net.tails, net.heads, flows):
        if flow == 1 and head < vertex_nodes and not head & 1:
            if tail == s_out:
                starts.append(head >> 1)
            else:
                nxt[tail >> 1] = head >> 1
    threads = []
    for v in sorted(starts):
        path = [v]
        while nxt[v] >= 0:
            v = nxt[v]
            path.append(v)
        threads.append(tuple(path))
    return tuple(threads)


def _witness(g: DirectedKnitGraph, cover: ThreadCover) -> DirectedKnitGraph:
    """g with the arcs along its threads blue and every other arc red."""
    succ = [-1] * g.n
    for thread in cover:
        for v, w in zip(thread, thread[1:]):
            succ[v] = w
    blue, red = EdgeColor.BLUE, EdgeColor.RED
    return DirectedKnitGraph._trusted(
        g.n, tuple([(s, d, blue if succ[s] == d else red) for s, d, _ in g.edges])
    )


def is_thread_cover(g: DirectedKnitGraph, cover) -> bool:
    """Whether the threads split g's vertices into directed paths along arcs.

    The blue arcs of the witness `cover` induces are exactly its steps
    that are arcs of g, so the cover is valid just when reading those
    arcs back as threads gives the cover itself.
    """
    paths, _problems = thread_paths(_witness(g, cover))
    return paths == tuple(sorted(map(tuple, cover)))


def decide_k_knittable(
    g: DirectedKnitGraph, k: int, rule: RedRule = RedRule.STRICT
) -> tuple[DirectedKnitGraph, ThreadCover] | None:
    """Decide exact-k thread feasibility of a DAG under the degree rule.

    Returns the witness, g with its thread arcs blue and the rest red, plus
    the thread cover, or None when infeasible. Input colors are ignored;
    purple edges are rejected.

    For k = 1 and n >= 1 the only candidate is the Hamiltonian path, so the
    decision is a role check along the topological order, O(n + m): the
    first vertex must be able to start the thread, the last to end it, and
    every other vertex to continue it. Every other k takes the flow.
    """
    order = topological_sort(g)
    try:
        if k == 1 and order:
            return _one_thread(g, order, _threadable_roles(g, rule))
        net = build_flow_network(g, k, rule)  # raises PurplePresentError
    except InfeasibleVertexError:
        return None
    if k < 0:
        return None
    flows = solve_flow_with_bounds(net)
    if flows is None:
        return None
    cover = extract_threads(net, flows)
    return _witness(g, cover), cover


def _one_thread(
    g: DirectedKnitGraph, order: list[int], roles: list[frozenset[Role]]
) -> tuple[DirectedKnitGraph, ThreadCover] | None:
    """The 1-thread witness and cover of a non-empty DAG with this
    topological order and these roles, or None when it has none."""
    # On a chain the first vertex has no in-arc, so start is the only role
    # it can have, and the last has no out-arc, so end is its only one;
    # vertex_roles has given both a role. The inner vertices must be able
    # to continue the thread.
    if not (_is_chain(g, order) and all(Role.M in roles[v] for v in order[1:-1])):
        return None
    cover = (tuple(order),)
    return _witness(g, cover), cover


def sweep_feasible_k(g: DirectedKnitGraph, rule: RedRule = RedRule.STRICT) -> list[int]:
    """All thread counts in 1..n for which g is feasible.

    The exact-k network is the relaxed network (super arcs bounded by
    [0, n]) with its throughput pinned to k. The feasible throughputs of a
    network with integral bounds form an integer interval (Hoffman's
    circulation theorem plus flow integrality; Ahuja, Magnanti & Orlin,
    *Network Flows*, 1993, ch. 6), so the answer is contiguous and two flows
    on the relaxed network find it, instead of one decision per k. Raises
    NotADagError and PurplePresentError as `decide_k_knittable` does.
    """
    topological_sort(g)
    try:
        roles = _threadable_roles(g, rule)
    except InfeasibleVertexError:
        return []
    bounds = solve_flow_range(_assemble_network(g, roles, 0, g.n))
    if bounds is None:
        return []
    least, greatest = bounds
    return list(range(max(least, 1), greatest + 1))


def minimum_path_cover(g: DirectedKnitGraph) -> tuple[int, ThreadCover]:
    """Minimum number of vertex-disjoint directed paths covering V.

    Degree restrictions do not apply here: every vertex may start, end, or
    continue a path, and the super-arc bound is relaxed so the solver can
    shrink the path count to its minimum.
    """
    topological_sort(g)
    all_roles = frozenset({Role.S, Role.M, Role.T})
    net = _assemble_network(g, [all_roles] * g.n, 0, g.n)
    # singleton paths always cover, so the network is feasible
    value, flows = solve_minimum_flow(net)
    return value, extract_threads(net, flows)


def _iter_path_systems(n: int, adj: list[list[int]], k: int):
    """Yield all partitions of 0..n-1 into k directed paths.

    Paths are emitted with strictly increasing start vertices, and extension
    follows sorted adjacency, so the iteration order is deterministic.
    """
    used = [False] * n
    paths: list[list[int]] = []

    def start_next(min_start: int, remaining: int, free: int):
        if remaining == 0:
            if free == 0:
                yield tuple(tuple(p) for p in paths)
            return
        if free < remaining:
            return
        for s in range(min_start, n):
            if used[s]:
                continue
            used[s] = True
            paths.append([s])
            yield from extend(s, s, remaining, free - 1)
            paths.pop()
            used[s] = False

    def extend(start: int, v: int, remaining: int, free: int):
        yield from start_next(start + 1, remaining - 1, free)
        for w in adj[v]:
            if not used[w]:
                used[w] = True
                paths[-1].append(w)
                yield from extend(start, w, remaining, free - 1)
                paths[-1].pop()
                used[w] = False

    yield from start_next(0, k, n)


def brute_force_knittable(
    g: DirectedKnitGraph | KnittingGraph,
    k: int,
    rule: RedRule = RedRule.STRICT,
    cap: int = 10,
) -> tuple[DirectedKnitGraph, ThreadCover] | None:
    """Exhaustive k-thread search; the independent oracle for the flow path.

    Returns the witness and its cover, as `decide_k_knittable` does, for
    the first cover whose induced coloring verifies; None is a proof of
    infeasibility at this size. Directed inputs keep their arc directions;
    undirected inputs are oriented per candidate cover, every edge from
    lower to higher position in the joined thread order, so thread edges
    run along their threads.

    A directed input is refused as `decide_k_knittable` refuses it, and
    before the size cap: NotADagError, then PurplePresentError. The roles
    stay the witness check's own, so the oracle does not share
    `vertex_roles` with the flow it checks.
    """
    directed = isinstance(g, DirectedKnitGraph)
    if directed:
        topological_sort(g)
        _refuse_purple(g)
    if g.n > cap:
        raise TooLargeError(g.n, cap)
    if k < 0:
        return None

    adj = g.out_adj() if directed else g.adj()
    for system in _iter_path_systems(g.n, adj, k):
        oriented = g
        if not directed:
            position = [0] * g.n
            for i, v in enumerate(v for thread in system for v in thread):
                position[v] = i
            oriented = DirectedKnitGraph(g.n, tuple(
                (u, v, EdgeColor.UNCOLORED) if position[u] < position[v]
                else (v, u, EdgeColor.UNCOLORED)
                for u, v in g.edges
            ))
        colored = _witness(oriented, system)
        if check_coloring(colored, k, rule).valid:
            return colored, system
    return None


def brute_force_minimum_path_cover(
    g: DirectedKnitGraph, cap: int = 10
) -> tuple[int, ThreadCover]:
    """Smallest k admitting a path partition, by direct enumeration.

    k = 0 partitions only the empty graph, and k = n always has the
    singleton partition, so the search returns by k = n.
    """
    if g.n > cap:
        raise TooLargeError(g.n, cap)
    adj = g.out_adj()
    for k in range(g.n + 1):
        for system in _iter_path_systems(g.n, adj, k):
            return k, system
