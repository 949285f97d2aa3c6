"""Integral flow with per-arc lower and upper bounds.

The network is the split-vertex construction used by the thread decision:
each graph vertex v becomes v_in/v_out joined by a mandatory unit arc, and
designated super source/sink node pairs carry the thread count. Solving
uses the standard lower-bound elimination to a max-flow problem; max flow
itself is a Dinic scheme over per-node residual adjacency arrays of machine
ints, so ~10^5-vertex graphs stay well inside the time and memory budget.
All arc orders are fixed, so results are deterministic.

The network is four columns of plain lists, `tails`, `heads`, `lowers` and
`uppers`: arc i is entry i of each, and what it stands for is read from the
node numbering of `FlowNetwork`. Arc i of the network is arc i of the
max-flow instance, so every returned flow list is aligned with the columns
by index.

Three solves share one feasibility routine:

- exact (`solve_flow_with_bounds`): any feasible circulation;
- minimum (`solve_minimum_flow`): a feasible circulation of least
  super-arc throughput;
- range (`solve_flow_range`): the least and greatest super-arc throughput
  over all feasible circulations.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress
from operator import add, sub

INF = 1 << 60

Arc = tuple[int, int, int, int]  # tail, head, lower, upper


@dataclass
class FlowNetwork:
    """Bounded-arc network over split vertices plus super terminals.

    Node ids: v_in = 2v, v_out = 2v+1 for graph vertex v, then
    s_in, s_out, t_in, t_out in that order. Arc i runs from `tails[i]` to
    `heads[i]` with bounds `[lowers[i], uppers[i]]`. The columns are plain
    lists, not typed arrays: `_residual` copies tails and heads into the
    residual arrays, where a typed array would box a fresh int per slot
    and a list passes on the builder's one int per node.
    """

    n: int
    tails: list[int] = field(default_factory=list)
    heads: list[int] = field(default_factory=list)
    lowers: list[int] = field(default_factory=list)
    uppers: list[int] = field(default_factory=list)

    @property
    def m(self) -> int:
        return len(self.tails)

    @property
    def arcs(self) -> list[Arc]:
        """The arcs as `(tail, head, lower, upper)` tuples, built anew on
        each read. A read-only view for reports and tests: no solver reads
        it."""
        return list(zip(self.tails, self.heads, self.lowers, self.uppers))

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

    def add(self, tail: int, head: int, lower: int, upper: int):
        self.tails.append(tail)
        self.heads.append(head)
        self.lowers.append(lower)
        self.uppers.append(upper)


class _Dinic:
    """Max flow on per-node residual adjacency; arc i is the residual pair 2i
    (forward) and 2i+1 (backward), so `to[2i]` is its head and `to[2i+1]`
    its tail. Every augmentation adds to one direction what it takes from
    the other, so an arc entered as `(c, 0)` carries flow `cap[2i+1]`.

    An arc with no capacity keeps its id but stays out of the adjacency:
    no augmenting path can use it, so the search order over the other arcs
    is the same as if it were absent. Each node lists its arcs in id order
    in an `array("q")`, one 8-byte machine int per entry rather than an int
    object each (typecode `q`, since ids may pass 2^31); every node's array
    is a copy of one empty template, which is cheaper than a constructor
    call on small networks.
    """

    def __init__(self, n: int, to: list[int], cap: list[int]):
        self.n = n
        self.to = to
        self.cap = cap
        empty = array("q")
        self.out = out = [empty[:] for _ in range(n)]
        for a in range(0, len(to), 2):
            if cap[a]:
                out[to[a + 1]].append(a)
                out[to[a]].append(a + 1)

    def max_flow(self, s: int, t: int) -> int:
        to, cap, out = self.to, self.cap, self.out
        total = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for v in queue:
                lv = level[v] + 1
                for a in out[v]:
                    if cap[a] > 0:
                        w = to[a]
                        if level[w] < 0:
                            level[w] = lv
                            queue.append(w)
            if level[t] < 0:
                return total
            it = [0] * self.n
            while True:
                path: list[int] = []
                v = s
                while v != t:
                    arcs, i = out[v], it[v]
                    want = level[v] + 1
                    while i < len(arcs):
                        a = arcs[i]
                        if cap[a] > 0 and level[to[a]] == want:
                            it[v] = i
                            path.append(a)
                            v = to[a]
                            break
                        i += 1
                    else:
                        # a dead end; at level -1 the scan one step back
                        # passes over it
                        level[v] = -1
                        if not path:
                            break
                        v = to[path.pop() ^ 1]
                if v != t:
                    break
                aug = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= aug
                    cap[a ^ 1] += aug
                total += aug


def _residual(net: FlowNetwork) -> tuple[list[int], list[int], int]:
    """The residual arrays of the lower-bound elimination, and the flow its
    helper arcs must carry for a feasible circulation to exist.

    Residual pair i is arc i of `net`, entered as `(upper - lower, 0)`; pair
    m = net.m is the closure arc t_out -> s_in of unbounded capacity; then,
    in node order, one helper arc from the super source to each node with
    positive excess and from each node with negative excess to the super
    sink. Both arrays are allocated at their final length, and the arc
    slots of `to` hold the arcs' own node ints.
    """
    num_nodes = net.num_nodes
    ss = num_nodes
    tt = num_nodes + 1
    m = net.m
    tails, heads, lowers, uppers = net.tails, net.heads, net.lowers, net.uppers
    residual = list(map(sub, uppers, lowers))
    if residual and min(residual) < 0:
        i = next(i for i, c in enumerate(residual) if c < 0)
        raise ValueError(f"lower bound {lowers[i]} exceeds upper bound {uppers[i]}")
    excess = [0] * num_nodes
    for i in compress(range(m), lowers):
        excess[heads[i]] += lowers[i]
        excess[tails[i]] -= lowers[i]
    size = 2 * (m + 1 + num_nodes - excess.count(0))
    to = [0] * size
    cap = [0] * size
    to[0 : 2 * m : 2] = heads
    to[1 : 2 * m : 2] = tails
    cap[0 : 2 * m : 2] = residual
    a = 2 * m
    to[a], to[a + 1], cap[a] = net.s_in, net.t_out, INF
    required = 0
    for v, e in enumerate(excess):
        if e > 0:
            a += 2
            to[a], to[a + 1], cap[a] = v, ss, e
            required += e
        elif e < 0:
            a += 2
            to[a], to[a + 1], cap[a] = tt, v, -e
    return to, cap, required


def _feasible(net: FlowNetwork) -> tuple[_Dinic, int] | None:
    """Lower-bound elimination and one feasibility max-flow, then the
    closure and helper arcs frozen.

    Returns (dinic, value), where value is the super-arc throughput of the
    feasible circulation found, or None when no feasible circulation
    exists. Arc i of `net` is arc i of `dinic`, so `_flows` reads the
    circulation by index. The residual network left in `dinic` holds only
    the arcs of `net`, so a max flow between the terminals now changes the
    throughput while every bound stays respected.
    """
    to, cap, required = _residual(net)
    dinic = _Dinic(net.num_nodes + 2, to, cap)
    if dinic.max_flow(net.num_nodes, net.num_nodes + 1) < required:
        return None
    frozen = 2 * net.m
    value = cap[frozen + 1]
    cap[frozen:] = [0] * (len(cap) - frozen)
    return dinic, value


def _flows(net: FlowNetwork, dinic: _Dinic) -> list[int]:
    """Flow per arc of `net`: its lower bound plus its reverse residual."""
    return list(map(add, net.lowers, dinic.cap[1 : 2 * net.m : 2]))


def solve_flow_with_bounds(net: FlowNetwork) -> list[int] | None:
    """Feasible integral circulation respecting every bound, or None.

    Returned flows align with the arc columns of net. Absence of a
    solution is a negative answer, not an error.
    """
    feasible = _feasible(net)
    if feasible is None:
        return None
    return _flows(net, feasible[0])


def solve_minimum_flow(net: FlowNetwork) -> tuple[int, list[int]] | None:
    """Feasible circulation minimizing the super-arc throughput.

    Finds any feasible flow first, then cancels thread units by pushing
    augmenting flow from the sink side back to the source side with the
    closure and elimination arcs frozen. Returns (value, flows).
    """
    feasible = _feasible(net)
    if feasible is None:
        return None
    dinic, value = feasible
    value -= dinic.max_flow(net.t_out, net.s_in)
    return value, _flows(net, dinic)


def solve_flow_range(net: FlowNetwork) -> tuple[int, int] | None:
    """Least and greatest super-arc throughput of a feasible circulation.

    With integral bounds, the throughputs of feasible integral circulations
    form an integer interval (Hoffman's circulation theorem plus flow
    integrality; Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 6), so
    every value between the two returned ends is feasible as well. Costs one
    feasibility max-flow plus two terminal max-flows: t_out -> s_in lowers
    the feasible circulation to the minimum, then s_in -> t_out raises that
    one to the maximum, since a max flow between the terminals reaches the
    greatest throughput from any feasible circulation. None when infeasible.
    """
    feasible = _feasible(net)
    if feasible is None:
        return None
    dinic, value = feasible
    least = value - dinic.max_flow(net.t_out, net.s_in)
    return least, least + dinic.max_flow(net.s_in, net.t_out)
