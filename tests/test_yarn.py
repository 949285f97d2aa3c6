from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knitgraph import (
    DirectedKnitGraph,
    EdgeColor,
    NoEulerianPathError,
    YarnGraph,
    all_fixtures,
    eulerian_path,
    gen_stockinette,
    is_yarn_graph_of_k_knittable,
    minimum_yarns,
    reduce_yarn_to_directed,
    yarn_from_threads,
)
from knitgraph.yarn import Trail

B, R, P = EdgeColor.BLUE, EdgeColor.RED, EdgeColor.PURPLE


def test_eulerian_closed_triangle():
    t = eulerian_path(YarnGraph(3, ((0, 1), (1, 2), (2, 0))))
    assert t.vertices == (0, 1, 2, 0)
    assert t.closed
    assert sorted(t.arcs) == [0, 1, 2]


def test_eulerian_open_trail_round_stockinette():
    f = gen_stockinette(2, 3, round=True)
    t = eulerian_path(f.yarn)
    assert len(t.arcs) == f.yarn.m
    assert not t.closed


def test_eulerian_disconnected():
    with pytest.raises(NoEulerianPathError) as exc:
        eulerian_path(YarnGraph(4, ((0, 1), (2, 3))))
    assert exc.value.reason == "disconnected"


def test_eulerian_imbalance():
    with pytest.raises(NoEulerianPathError) as exc:
        eulerian_path(YarnGraph(3, ((0, 1), (0, 2))))
    assert exc.value.reason == "imbalance"


def test_minimum_yarns_cycle():
    k, trails = minimum_yarns(YarnGraph(3, ((0, 1), (1, 2), (2, 0))))
    assert k == 1
    assert trails[0].closed


def test_minimum_yarns_two_components():
    k, trails = minimum_yarns(YarnGraph(4, ((0, 1), (2, 3))))
    assert k == 2
    assert [t.vertices for t in trails] == [(0, 1), (2, 3)]


def test_minimum_yarns_fan():
    k, trails = minimum_yarns(YarnGraph(4, ((0, 1), (0, 2), (0, 3))))
    assert k == 3
    assert all(t.vertices[0] == 0 for t in trails)


def test_minimum_yarns_invariant_under_relabeling(rng):
    base = gen_stockinette(3, 4, round=True).yarn
    for _ in range(20):
        arcs = list(base.arcs)
        rng.shuffle(arcs)
        k, _ = minimum_yarns(YarnGraph(base.n, tuple(arcs)))
        assert k == 1


def test_yarn_from_threads_single_blue_arc():
    g = DirectedKnitGraph(2, ((0, 1, B),))
    y = yarn_from_threads(g, ((0, 1),))
    assert y.arcs == ((0, 1),)


def test_yarn_from_threads_arc_arithmetic():
    f = gen_stockinette(3, 3)  # flat: purple turns
    blue = sum(1 for _, _, c in f.graph.edges if c is B)
    red = sum(1 for _, _, c in f.graph.edges if c is R)
    purple = sum(1 for _, _, c in f.graph.edges if c is P)
    assert f.yarn.m == blue + 2 * red + 3 * purple


def test_yarn_from_threads_rejects_mismatched_cover():
    g = DirectedKnitGraph(2, ((0, 1, B),))
    with pytest.raises(ValueError):
        yarn_from_threads(g, ((1, 0),))


def test_reduce_round_trip_all_fixtures():
    for f in all_fixtures():
        assert reduce_yarn_to_directed(f.yarn) == f.graph, f.name


def test_trail_decomposition_is_exact_partition():
    for f in all_fixtures():
        k, trails = minimum_yarns(f.yarn)
        assert k == f.k, f.name
        used = sorted(i for t in trails for i in t.arcs)
        assert used == list(range(f.yarn.m)), f.name
        for t in trails:
            assert len(t.vertices) == len(t.arcs) + 1
            for idx, arc in enumerate(t.arcs):
                src, dst = f.yarn.arcs[arc]
                assert t.vertices[idx] == src and t.vertices[idx + 1] == dst


def test_trails_visit_thread_arcs_in_order():
    # restriction of each trail to multiplicity-1 arcs = its thread's
    # sequential arcs, in thread order
    for f in all_fixtures():
        pair_mult = Counter(frozenset(a) for a in f.yarn.arcs)
        threads = {t[0]: t for t in f.cover}
        _, trails = minimum_yarns(f.yarn)
        for trail in trails:
            singles = [
                f.yarn.arcs[i]
                for i in trail.arcs
                if pair_mult[frozenset(f.yarn.arcs[i])] == 1
            ]
            thread = threads[trail.vertices[0]]
            expected = [
                (u, v)
                for u, v in zip(thread, thread[1:])
                if pair_mult[frozenset((u, v))] == 1
            ]
            assert singles == expected, f.name


def test_is_yarn_graph_round_stockinette():
    f = gen_stockinette(3, 3, round=True)
    assert is_yarn_graph_of_k_knittable(f.yarn, 1).ok
    assert not is_yarn_graph_of_k_knittable(f.yarn, 0).ok


def test_is_yarn_graph_flat_with_turns():
    f = gen_stockinette(3, 3)
    assert is_yarn_graph_of_k_knittable(f.yarn, 1).ok


def test_is_yarn_graph_same_direction_pair():
    report = is_yarn_graph_of_k_knittable(YarnGraph(2, ((0, 1), (0, 1))), 1)
    assert not report.ok
    assert any("InconsistentPair" in r for r in report.reasons)


def test_is_yarn_graph_brioche_needs_four():
    from knitgraph import gen_brioche_maximal

    br = gen_brioche_maximal(6)
    assert minimum_yarns(br.yarn)[0] == 4
    assert not is_yarn_graph_of_k_knittable(br.yarn, 3).ok


def test_eulerian_with_explicit_component():
    y = YarnGraph(5, ((0, 1), (1, 0), (3, 4)))
    left = eulerian_path(y, component=[0, 1])
    assert left.vertices == (0, 1, 0)
    right = eulerian_path(y, component=[3, 4])
    assert right.vertices == (3, 4)
    with pytest.raises(NoEulerianPathError):
        eulerian_path(y, component=[0, 1, 3])  # the (3,4) arc leaves the component


def _weak_components_reference(y):
    """The dict-and-set component search that `component_labels` replaced."""
    neighbors = {}
    for src, dst in y.arcs:
        neighbors.setdefault(src, set()).add(dst)
        neighbors.setdefault(dst, set()).add(src)
    seen = set()
    comps = []
    for v in sorted(neighbors):
        if v in seen:
            continue
        comp = []
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in neighbors[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


class _TrailWalker:
    """The restarting walker that `_component_trails` replaced, kept as the
    oracle for its trails.

    Same arc choice: the unused reversal of the last arc, then the first
    out-arc whose reversal is unused, then the first unused out-arc. Every
    lookup rescans from index 0, and after each splice the search for the
    next leftover restarts at the first position of the first trail.
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

    def _first_unused(self, direction):
        for i in self.by_dir.get(direction, ()):
            if not self.used[i]:
                return i
        return None

    def _choose(self, v, last_arc):
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

    def walk(self, start):
        arcs = []
        vertices = [start]
        v = start
        last = None
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

    def splice_leftovers(self, trails):
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


def _walk_reference(y, comp, starts):
    """The old per-component set-up: count the arcs leaving `comp`, walk
    from each start, then splice the leftovers in."""
    comp_set = set(comp)
    walker = _TrailWalker(y)
    walker.remaining = sum(1 for src, _dst in y.arcs if src in comp_set)
    raw = [walker.walk(s) for s in starts]
    walker.splice_leftovers(raw)
    return [Trail(tuple(a), tuple(v)) for a, v in raw]


def _minimum_yarns_reference(y):
    trails = []
    for comp in _weak_components_reference(y):
        outdeg = {v: 0 for v in comp}
        indeg = {v: 0 for v in comp}
        for src, dst in y.arcs:
            if src in outdeg:
                outdeg[src] += 1
                indeg[dst] += 1
        starts = [v for v in comp for _ in range(max(0, outdeg[v] - indeg[v]))]
        trails.extend(_walk_reference(y, comp, starts or [comp[0]]))
    return len(trails), tuple(trails)


def _eulerian_path_reference(y, component=None):
    """`eulerian_path` with its own component searches and walker set-up,
    kept as the oracle for the shared helpers."""
    if component is None:
        comps = _weak_components_reference(y)
        if len(comps) > 1:
            raise NoEulerianPathError("disconnected")
        if not comps:
            return Trail((), ())
        comp = comps[0]
    else:
        comp = sorted(component)
        comp_set = set(comp)
        sub = [a for a in y.arcs if a[0] in comp_set or a[1] in comp_set]
        if any(a[0] not in comp_set or a[1] not in comp_set for a in sub):
            raise NoEulerianPathError("disconnected", "arcs leave the component")

    comp_set = set(comp)
    outdeg = {v: 0 for v in comp}
    indeg = {v: 0 for v in comp}
    has_arcs = False
    for src, dst in y.arcs:
        if src in comp_set:
            outdeg[src] += 1
            indeg[dst] += 1
            has_arcs = True
    if not has_arcs:
        return Trail((), ())

    imbalances = [(v, outdeg[v] - indeg[v]) for v in comp if outdeg[v] != indeg[v]]
    pos = [v for v, d in imbalances if d == 1]
    neg = [v for v, d in imbalances if d == -1]
    if any(abs(d) > 1 for _, d in imbalances) or len(pos) > 1 or len(neg) > 1:
        raise NoEulerianPathError("imbalance", imbalances)

    bearing = {v for v in comp if outdeg[v] or indeg[v]}
    neighbors = {v: set() for v in bearing}
    for src, dst in y.arcs:
        if src in comp_set:
            neighbors[src].add(dst)
            neighbors[dst].add(src)
    seen = {min(bearing)}
    stack = [min(bearing)]
    while stack:
        u = stack.pop()
        for w in neighbors[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if seen != bearing:
        raise NoEulerianPathError("disconnected")

    (trail,) = _walk_reference(y, comp, [pos[0] if pos else min(bearing)])
    return trail


def _outcome(fn):
    try:
        return fn()
    except NoEulerianPathError as exc:
        return type(exc), exc.args, exc.reason, exc.detail


def _flower(k):
    """k triangles through vertex 0, each with a side triangle at its
    first vertex: the main walk takes every petal and leaves each side
    triangle as a leftover circuit to splice in."""
    arcs = []
    for j in range(k):
        a, b, c, d = 4 * j + 1, 4 * j + 2, 4 * j + 3, 4 * j + 4
        arcs += [(0, a), (a, b), (b, 0), (a, c), (c, d), (d, a)]
    return YarnGraph(4 * k + 1, tuple(arcs))


def _cycle_with_circuits(length, circuit):
    """A directed cycle on 0..length-1, listed first, with a private
    2-cycle (circuit=2) or directed triangle (circuit=3) hung on each of
    its vertices."""
    arcs = [(v, (v + 1) % length) for v in range(length)]
    n = length
    for v in range(length):
        ring = [v] + list(range(n, n + circuit - 1))
        n += circuit - 1
        arcs += list(zip(ring, ring[1:] + ring[:1]))
    return YarnGraph(n, tuple(arcs))


def _triangle_chain(k):
    """k directed triangles, each hung on the middle vertex of the one
    before: every splice lands inside the circuit spliced just before."""
    arcs = []
    for j in range(k):
        hang, mid, last = 2 * j - 1 if j else 0, 2 * j + 1, 2 * j + 2
        arcs += [(hang, mid), (mid, last), (last, hang)]
    return YarnGraph(2 * k + 1, tuple(arcs))


@st.composite
def _multigraph_and_component(draw):
    """A yarn multigraph on n <= 7 vertices, half the time with every arc
    doubled by its reversal so that trails exist, and an optional subset of
    the vertices, in any order."""
    n = draw(st.integers(0, 7))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda a: a[0] != a[1]
    )
    arcs = draw(st.lists(pairs, max_size=12)) if n > 1 else []
    if draw(st.booleans()):
        arcs += [(d, s) for s, d in arcs]
        arcs = draw(st.permutations(arcs))
    component = None
    if draw(st.booleans()):
        component = draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
    return YarnGraph(n, tuple(arcs)), component


@settings(max_examples=1500, deadline=None)
@given(_multigraph_and_component())
# components whose leftovers need many splices, which the small drawn
# graphs never reach
@example((_flower(1), None))
@example((_flower(2), None))
@example((_flower(50), None))
@example((_flower(400), None))
@example((_cycle_with_circuits(60, 2), None))
@example((_cycle_with_circuits(60, 3), None))
@example((_triangle_chain(60), None))
def test_eulerian_path_and_minimum_yarns_match_reference(case):
    y, component = case
    got = _outcome(lambda: eulerian_path(y, component))
    assert got == _outcome(lambda: _eulerian_path_reference(y, component))
    if component is None:
        assert _outcome(lambda: minimum_yarns(y)) == _outcome(lambda: _minimum_yarns_reference(y))


def test_eulerian_path_error_precedence():
    # without a component, disconnection is reported before imbalance
    split_fan = YarnGraph(5, ((0, 1), (0, 2), (3, 4)))
    with pytest.raises(NoEulerianPathError) as exc:
        eulerian_path(split_fan)
    assert exc.value.reason == "disconnected"
    # with one, imbalance is reported before disconnection
    with pytest.raises(NoEulerianPathError) as exc:
        eulerian_path(split_fan, component=[0, 1, 2, 3, 4])
    assert exc.value.reason == "imbalance"
    with pytest.raises(NoEulerianPathError) as exc:
        eulerian_path(YarnGraph(4, ((0, 1), (1, 0), (2, 3), (3, 2))), [0, 1, 2, 3])
    assert exc.value.reason == "disconnected"
