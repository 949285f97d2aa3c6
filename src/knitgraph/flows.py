"""Integral flow with per-arc lower and upper bounds.

The network is the split-vertex construction used by the thread decision:
each graph vertex v becomes v_in/v_out joined by a mandatory unit arc, and
designated super source/sink node pairs carry the thread count. Solving
uses the standard lower-bound elimination to a max-flow problem; max flow
itself is a Dinic scheme over flat CSR arrays so ~10^5-vertex graphs stay
well inside the performance budget. All arc orders are fixed, so results
are deterministic.

Three solves share that machinery:

- exact (`solve_flow_with_bounds`): any feasible circulation;
- minimum (`solve_minimum_flow`): a feasible circulation of least
  super-arc throughput;
- range (`solve_flow_range`): the least and greatest super-arc throughput
  over all feasible circulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

INF = 1 << 60

# Arc provenance tags.
ORIGINAL = "original"
SPLIT = "split"
SOURCE = "source"
SINK = "sink"
SUPER = "super"

Arc = tuple[int, int, int, int, str, object]  # tail, head, lower, upper, kind, ref


@dataclass
class FlowNetwork:
    """Bounded-arc network over split vertices plus super terminals.

    Node ids: v_in = 2v, v_out = 2v+1 for graph vertex v, then
    s_in, s_out, t_in, t_out in that order.
    """

    n: int
    arcs: list[Arc] = field(default_factory=list)

    @property
    def s_in(self) -> int:
        return 2 * self.n

    @property
    def s_out(self) -> int:
        return 2 * self.n + 1

    @property
    def t_in(self) -> int:
        return 2 * self.n + 2

    @property
    def t_out(self) -> int:
        return 2 * self.n + 3

    @property
    def num_nodes(self) -> int:
        return 2 * self.n + 4

    def add(self, tail: int, head: int, lower: int, upper: int, kind: str, ref=None):
        self.arcs.append((tail, head, lower, upper, kind, ref))


class _Dinic:
    """Max flow on CSR adjacency; arcs are paired (a, a^1) fwd/backward."""

    def __init__(self, n: int, arc_list: list[tuple[int, int, int]]):
        self.n = n
        num = len(arc_list)
        to = [0] * (2 * num)
        cap = [0] * (2 * num)
        deg = [0] * n
        for u, v, _c in arc_list:
            deg[u] += 1
            deg[v] += 1
        self.start = [0] * (n + 1)
        acc = 0
        for i in range(n):
            self.start[i] = acc
            acc += deg[i]
        self.start[n] = acc
        pos = list(self.start[:n])
        flat = [0] * (2 * num)
        for i, (u, v, c) in enumerate(arc_list):
            a = 2 * i
            to[a] = v
            cap[a] = c
            to[a + 1] = u
            flat[pos[u]] = a
            pos[u] += 1
            flat[pos[v]] = a + 1
            pos[v] += 1
        self.to = to
        self.cap = cap
        self.flat = flat
        self.init_cap = cap.copy()

    def disable_arc(self, arc_id: int):
        """Zero both residual directions of the forward arc `arc_id`."""
        self.cap[2 * arc_id] = 0
        self.cap[2 * arc_id + 1] = 0

    def flow_on(self, arc_id: int) -> int:
        return self.init_cap[2 * arc_id] - self.cap[2 * arc_id]

    def max_flow(self, s: int, t: int) -> int:
        to, cap, flat, start = self.to, self.cap, self.flat, self.start
        n = self.n
        total = 0
        while True:
            level = [-1] * n
            level[s] = 0
            queue = [s]
            qi = 0
            while qi < len(queue):
                v = queue[qi]
                qi += 1
                lv = level[v] + 1
                for idx in range(start[v], start[v + 1]):
                    a = flat[idx]
                    if cap[a] > 0:
                        w = to[a]
                        if level[w] < 0:
                            level[w] = lv
                            queue.append(w)
            if level[t] < 0:
                return total
            it = list(start[:n])
            while True:
                path: list[int] = []
                v = s
                dead = False
                while v != t:
                    advanced = False
                    i = it[v]
                    end = start[v + 1]
                    while i < end:
                        a = flat[i]
                        if cap[a] > 0 and level[to[a]] == level[v] + 1:
                            advanced = True
                            break
                        i += 1
                    it[v] = i
                    if advanced:
                        path.append(flat[i])
                        v = to[flat[i]]
                    else:
                        level[v] = -1
                        if not path:
                            dead = True
                            break
                        a = path.pop()
                        v = to[a ^ 1]
                        it[v] += 1
                if dead:
                    break
                aug = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= aug
                    cap[a ^ 1] += aug
                total += aug


def _prepare(net: FlowNetwork):
    """Lower-bound elimination; returns the Dinic instance and bookkeeping."""
    num_nodes = net.num_nodes
    ss = num_nodes
    tt = num_nodes + 1
    excess = [0] * num_nodes
    arc_list: list[tuple[int, int, int]] = []
    arc_map: list[int | None] = []  # net arc index -> dinic arc index
    for tail, head, lower, upper, _kind, _ref in net.arcs:
        if lower > upper:
            raise ValueError(f"lower bound {lower} exceeds upper bound {upper}")
        if upper > lower:
            arc_map.append(len(arc_list))
            arc_list.append((tail, head, upper - lower))
        else:
            arc_map.append(None)
        if lower:
            excess[head] += lower
            excess[tail] -= lower
    closure_id = len(arc_list)
    arc_list.append((net.t_out, net.s_in, INF))
    helper_ids = []
    required = 0
    for v in range(num_nodes):
        if excess[v] > 0:
            helper_ids.append(len(arc_list))
            arc_list.append((ss, v, excess[v]))
            required += excess[v]
        elif excess[v] < 0:
            helper_ids.append(len(arc_list))
            arc_list.append((v, tt, -excess[v]))
    dinic = _Dinic(num_nodes + 2, arc_list)
    return dinic, arc_map, closure_id, helper_ids, required, ss, tt


def _collect_flows(net: FlowNetwork, dinic: _Dinic, arc_map: list[int | None]) -> list[int]:
    flows = []
    for i, (_t, _h, lower, _u, _k, _r) in enumerate(net.arcs):
        a = arc_map[i]
        flows.append(lower + (dinic.flow_on(a) if a is not None else 0))
    return flows


def solve_flow_with_bounds(net: FlowNetwork) -> list[int] | None:
    """Feasible integral circulation respecting every bound, or None.

    Returned flows align with net.arcs. Absence of a solution is a negative
    answer, not an error.
    """
    dinic, arc_map, _closure, _helpers, required, ss, tt = _prepare(net)
    if dinic.max_flow(ss, tt) < required:
        return None
    return _collect_flows(net, dinic, arc_map)


def _feasible_frozen(net: FlowNetwork) -> tuple[_Dinic, list[int | None], int] | None:
    """One feasibility max-flow, then the closure and helper arcs frozen.

    Returns (dinic, arc_map, value), where value is the super-arc
    throughput of the feasible circulation found, or None when no feasible
    circulation exists. The residual network left in `dinic` holds only the
    arcs of `net`, so a max flow between the terminals now changes the
    throughput while every bound stays respected.
    """
    dinic, arc_map, closure_id, helper_ids, required, ss, tt = _prepare(net)
    if dinic.max_flow(ss, tt) < required:
        return None
    value = dinic.flow_on(closure_id)
    dinic.disable_arc(closure_id)
    for a in helper_ids:
        dinic.disable_arc(a)
    return dinic, arc_map, value


def solve_minimum_flow(net: FlowNetwork) -> tuple[int, list[int]] | None:
    """Feasible circulation minimizing the super-arc throughput.

    Finds any feasible flow first, then cancels thread units by pushing
    augmenting flow from the sink side back to the source side with the
    closure and elimination arcs frozen. Returns (value, flows).
    """
    frozen = _feasible_frozen(net)
    if frozen is None:
        return None
    dinic, arc_map, value = frozen
    value -= dinic.max_flow(net.t_out, net.s_in)
    return value, _collect_flows(net, dinic, arc_map)


def solve_flow_range(net: FlowNetwork) -> tuple[int, int] | None:
    """Least and greatest super-arc throughput of a feasible circulation.

    With integral bounds, the throughputs of feasible integral circulations
    form an integer interval (Hoffman's circulation theorem plus flow
    integrality; Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 6), so
    every value between the two returned ends is feasible as well. Costs one
    feasibility max-flow plus two terminal max-flows from the same feasible
    circulation: t_out -> s_in lowers it to the minimum, s_in -> t_out on the
    restored residual raises it to the maximum. None when infeasible.
    """
    frozen = _feasible_frozen(net)
    if frozen is None:
        return None
    dinic, _arc_map, value = frozen
    feasible = dinic.cap.copy()
    least = value - dinic.max_flow(net.t_out, net.s_in)
    dinic.cap[:] = feasible
    greatest = value + dinic.max_flow(net.s_in, net.t_out)
    return least, greatest
