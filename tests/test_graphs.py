from __future__ import annotations

import heapq

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knitgraph import (
    DirectedKnitGraph,
    DuplicateEdgeError,
    EdgeColor,
    InconsistentPairError,
    IndexOutOfRangeError,
    KnittingGraph,
    MultiplicityTooHighError,
    NotADagError,
    Role,
    SelfLoopError,
    YarnGraph,
    brute_force_knittable,
    component_labels,
    decide_k_knittable,
    gen_stitch_fixture,
    gen_stockinette,
    reduce_yarn_to_directed,
    topological_sort,
    underlying_knitting_graph,
)
from knitgraph.graphs import _find_cycle

B, R, P, U = EdgeColor.BLUE, EdgeColor.RED, EdgeColor.PURPLE, EdgeColor.UNCOLORED


def test_build_minimal():
    g = DirectedKnitGraph(2, ((0, 1, B),))
    assert g.m == 1


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        DirectedKnitGraph(1, ((0, 0, B),))


def test_build_rejects_duplicate_and_antiparallel():
    with pytest.raises(DuplicateEdgeError):
        DirectedKnitGraph(2, ((0, 1, B), (0, 1, R)))
    with pytest.raises(DuplicateEdgeError):
        DirectedKnitGraph(2, ((0, 1, B), (1, 0, R)))


def test_build_rejects_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        DirectedKnitGraph(2, ((0, 2, B),))


def test_build_kfb_fixture_edges_valid():
    kfb = gen_stitch_fixture("kfb")
    rebuilt = DirectedKnitGraph(11, kfb.graph.edges)
    assert rebuilt == kfb.graph
    assert rebuilt.n == 11


def test_topological_sort_chain():
    g = DirectedKnitGraph(3, ((0, 1, U), (1, 2, U)))
    assert topological_sort(g) == [0, 1, 2]


def test_topological_sort_tie_break():
    g = DirectedKnitGraph(2, ())
    assert topological_sort(g) == [0, 1]


def test_topological_sort_cycle():
    g = DirectedKnitGraph(3, ((0, 1, U), (1, 2, U), (2, 0, U)))
    with pytest.raises(NotADagError) as exc:
        topological_sort(g)
    assert exc.value.cycle == [0, 1, 2]
    assert str(exc.value) == "graph is not a DAG: cycle 0 -> 1 -> 2 -> 0"


def _kahn_with_lists(g):
    """Kahn's algorithm over one successor list per vertex, the form
    `topological_sort` had before it read slices of the sorted edges."""
    indeg = [0] * g.n
    adj = [[] for _ in range(g.n)]
    for src, dst, _ in g.edges:
        adj[src].append(dst)
        indeg[dst] += 1
    heap = [v for v in range(g.n) if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    return order


def _find_cycle_sweep(g, candidates):
    """The fixed-point sweep that `_find_cycle` replaced, kept as the
    oracle: O(n) passes of O(n + m) each on a long tail."""
    adj = {v: [] for v in candidates}
    for src, dst, _ in g.edges:
        if src in candidates and dst in candidates:
            adj[src].append(dst)
    live = set(candidates)
    changed = True
    while changed:
        changed = False
        for v in list(live):
            if not any(w in live for w in adj[v]):
                live.discard(v)
                changed = True
    v = min(live)
    path = []
    pos = {}
    while v not in pos:
        pos[v] = len(path)
        path.append(v)
        v = min(w for w in adj[v] if w in live)
    return path[pos[v]:]


def _unsorted(g):
    """The vertices Kahn's algorithm cannot order: cycles and all below them."""
    indeg = [0] * g.n
    for _s, d, _c in g.edges:
        indeg[d] += 1
    out = g.out_adj()
    done = [v for v in range(g.n) if not indeg[v]]
    for v in done:
        for w in out[v]:
            indeg[w] -= 1
            if not indeg[w]:
                done.append(w)
    return set(range(g.n)) - set(done)


@st.composite
def _digraphs(draw):
    """Simple digraphs on n <= 14 vertices with arbitrary orientations, so
    most of them have cycles."""
    n = draw(st.integers(1, 14))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    seen, edges = set(), []
    for u, v in pairs:
        if u != v and frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            edges.append((u, v, U))
    return DirectedKnitGraph(n, tuple(edges))


@settings(max_examples=600, deadline=None)
@given(_digraphs())
def test_find_cycle_matches_sweep_oracle(g):
    leftover = _unsorted(g)
    if not leftover:
        assert topological_sort(g) == _kahn_with_lists(g)
        return
    with pytest.raises(NotADagError) as exc:
        topological_sort(g)
    assert exc.value.cycle == _find_cycle_sweep(g, leftover)
    everything = set(range(g.n))
    assert _find_cycle(g, everything) == _find_cycle_sweep(g, everything)


def test_topological_sort_respects_arcs(rng):
    from conftest import random_dag

    for _ in range(200):
        g = random_dag(rng, rng.randint(1, 30), rng.random())
        order = topological_sort(g)
        pos = {v: i for i, v in enumerate(order)}
        assert all(pos[s] < pos[d] for s, d, _ in g.edges)
        assert order == _kahn_with_lists(g)


def test_underlying_single_edge():
    g = DirectedKnitGraph(2, ((0, 1, B),))
    kg = underlying_knitting_graph(g)
    assert kg.edges == ((0, 1),)


def test_underlying_kfb_arc_count():
    kfb = gen_stitch_fixture("kfb")
    kg = underlying_knitting_graph(kfb.graph)
    assert kg.m == kfb.graph.m  # simplicity preserved, one edge per arc


def test_underlying_empty():
    g = DirectedKnitGraph(0, ())
    assert underlying_knitting_graph(g).edges == ()


def _reduce_by_frozensets(y):
    """`reduce_yarn_to_directed` as it was before its int keys and trusted
    build: a frozenset and a direction dict per pair, walked in order of
    first traversal, and the result validated again."""
    first_index, counts = {}, {}
    for i, (src, dst) in enumerate(y.arcs):
        pair = frozenset((src, dst))
        if pair not in counts:
            counts[pair] = {}
            first_index[pair] = i
        counts[pair][(src, dst)] = counts[pair].get((src, dst), 0) + 1
    edges = []
    for pair, by_dir in sorted(counts.items(), key=lambda kv: first_index[kv[0]]):
        total = sum(by_dir.values())
        a, b = sorted(pair)
        if total > 3:
            raise MultiplicityTooHighError((a, b), total)
        if total == 1:
            (src, dst), _ = next(iter(by_dir.items()))
            edges.append((src, dst, B))
        elif total == 2:
            if len(by_dir) != 2:
                raise InconsistentPairError((a, b), "loop strands must run in opposite directions")
            src, dst = y.arcs[first_index[pair]]
            edges.append((src, dst, R))
        else:
            majority = [d for d, c in by_dir.items() if c == 2]
            if len(by_dir) != 2 or not majority:
                raise InconsistentPairError(
                    (a, b), "mixed edge needs a loop pair plus one sequential strand"
                )
            edges.append((*majority[0], P))
    return DirectedKnitGraph(y.n, tuple(edges))


@st.composite
def _yarn_cases(draw):
    """A yarn multigraph on n <= 6 vertices whose arcs repeat a few pairs
    in either direction, so every multiplicity and split shows up."""
    n = draw(st.integers(2, 6))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
        min_size=1, max_size=4,
    ))
    arcs = draw(st.lists(
        st.tuples(st.sampled_from(pairs), st.booleans()).map(lambda c: c[0][::-1] if c[1] else c[0]),
        max_size=14,
    ))
    return YarnGraph(n, tuple(arcs))


@settings(max_examples=600, deadline=None)
@given(_yarn_cases())
def test_reduce_matches_frozenset_oracle(y):
    expected = _outcome(lambda: _reduce_by_frozensets(y))
    got = _outcome(lambda: reduce_yarn_to_directed(y))
    assert got == expected


def test_reduce_equals_a_validated_graph_on_fixtures():
    from knitgraph import all_fixtures

    pieces = list(all_fixtures()) + [gen_stockinette(30, 33, round=True)]
    for f in pieces:
        reduced = reduce_yarn_to_directed(f.yarn)
        assert reduced == DirectedKnitGraph(reduced.n, reduced.edges[::-1]), f.name
        assert reduced == _reduce_by_frozensets(f.yarn), f.name


def test_trusted_builds_keep_the_canonical_edge_order():
    # `_trusted` checks nothing, and `topological_sort` reads each vertex's
    # out-arcs as one slice of the (src, dst) order, so both trusted builds,
    # the reduced yarn graph and the witness, must come out sorted
    from knitgraph import all_fixtures
    from knitgraph.cover import _witness

    def canonical(g):
        return g.edges == tuple(sorted(g.edges))

    pieces = list(all_fixtures()) + [gen_stockinette(30, 33, round=True), gen_stockinette(5, 6)]
    for f in pieces:
        assert canonical(reduce_yarn_to_directed(f.yarn)), f.name
        assert canonical(_witness(f.graph, f.cover)), f.name
    g = gen_stockinette(4, 5, round=True).graph
    for k in (1, 2, 4):  # the chain check, then the flow
        witness, _threads = decide_k_knittable(g, k)
        assert canonical(witness)


def test_reduce_single_strand():
    g = reduce_yarn_to_directed(YarnGraph(2, ((0, 1),)))
    assert g.edges == ((0, 1, B),)


def test_reduce_loop_pair_is_red():
    g = reduce_yarn_to_directed(YarnGraph(2, ((0, 1), (1, 0))))
    assert g.edges == ((0, 1, R),)


def test_reduce_same_direction_pair_inconsistent():
    with pytest.raises(InconsistentPairError):
        reduce_yarn_to_directed(YarnGraph(2, ((0, 1), (0, 1))))


def test_reduce_multiplicity_cap():
    with pytest.raises(MultiplicityTooHighError):
        reduce_yarn_to_directed(YarnGraph(2, ((0, 1), (1, 0), (0, 1), (1, 0))))


def test_reduce_purple_majority_direction():
    g = reduce_yarn_to_directed(YarnGraph(2, ((0, 1), (0, 1), (1, 0))))
    assert g.edges == ((0, 1, P),)
    g = reduce_yarn_to_directed(YarnGraph(2, ((1, 0), (0, 1), (1, 0))))
    assert g.edges == ((1, 0, P),)


def test_reduce_red_direction_follows_first_traversal():
    g = reduce_yarn_to_directed(YarnGraph(2, ((1, 0), (0, 1))))
    assert g.edges == ((1, 0, R),)


def test_graph_equality_ignores_edge_order():
    a = DirectedKnitGraph(3, ((1, 2, B), (0, 1, B)))
    b = DirectedKnitGraph(3, ((0, 1, B), (1, 2, B)))
    assert a == b


def test_degrees():
    g = DirectedKnitGraph(3, ((0, 1, B), (0, 2, R)))
    assert g.degrees() == [(0, 2), (1, 0), (1, 0)]


def _validate_bruteforce(n, edges):
    """Reference for the constructor's checks: one frozenset per unordered
    pair and a key-lambda sort. The oracle of the int-keyed check."""
    seen_pairs = set()
    for src, dst, _color in edges:
        if src == dst:
            raise SelfLoopError(src)
        if not (0 <= src < n) or not (0 <= dst < n):
            raise IndexOutOfRangeError(src if src >= n or src < 0 else dst, n)
        pair = frozenset((src, dst))
        if pair in seen_pairs:
            raise DuplicateEdgeError(src, dst)
        seen_pairs.add(pair)
    return tuple(sorted(edges, key=lambda e: (e[0], e[1])))


def _outcome(check):
    try:
        return "ok", check()
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), exc.args


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(0, 8))
    vertex = st.integers(-2, n + 1)
    color = st.sampled_from(list(EdgeColor))
    edges = draw(st.lists(st.tuples(vertex, vertex, color), max_size=12))
    # plant duplicate and reversed copies of drawn pairs, in any color
    for _ in range(draw(st.integers(0, 3))):
        if edges:
            s, d, _ = draw(st.sampled_from(edges))
            pair = (d, s) if draw(st.booleans()) else (s, d)
            at = draw(st.integers(0, len(edges)))
            edges.insert(at, (*pair, draw(color)))
    return n, edges


@settings(max_examples=600, deadline=None)
@given(_edge_lists())
def test_validation_matches_frozenset_oracle(case):
    # both simple models share one check: the directed graph keeps its
    # arcs sorted, the undirected one its sorted (min, max) pairs
    n, edges = case
    expected = _outcome(lambda: _validate_bruteforce(n, edges))
    got = _outcome(lambda: DirectedKnitGraph(n, tuple(edges)).edges)
    assert got == expected
    pairs = tuple((s, d) for s, d, _ in edges)
    if expected[0] == "ok":
        expected = "ok", tuple(sorted((min(s, d), max(s, d)) for s, d, _ in expected[1]))
    assert _outcome(lambda: KnittingGraph(n, pairs).edges) == expected


def test_validation_oracle_covers_every_error():
    # the first error in edge order wins, whatever its kind
    cases = {
        (3, ((0, 1, B), (1, 0, R), (2, 2, B))): DuplicateEdgeError,
        (3, ((0, 1, B), (2, 2, B), (1, 0, R))): SelfLoopError,
        (3, ((0, 3, B), (1, 1, B))): IndexOutOfRangeError,
        (3, ((-1, -1, B), (0, 5, B))): SelfLoopError,
        (3, ((-1, 2, B),)): IndexOutOfRangeError,
    }
    for (n, edges), error in cases.items():
        expected = _outcome(lambda: _validate_bruteforce(n, edges))
        assert expected[0] is error
        assert _outcome(lambda: DirectedKnitGraph(n, edges).edges) == expected


def _witnesses():
    """(input, witness) pairs from `decide_k_knittable` and the oracle."""
    round33 = gen_stockinette(3, 3, round=True).graph
    uncolored = DirectedKnitGraph(round33.n, tuple((s, d, U) for s, d, _ in round33.edges))
    yield uncolored, decide_k_knittable(uncolored, 1)[0]
    round23 = gen_stockinette(2, 3, round=True).graph
    for k in (1, 2):
        yield round23, decide_k_knittable(round23, k)[0]
        yield round23, brute_force_knittable(round23, k)[0]


def test_recolored_equals_a_validated_graph():
    # witnesses are built unchecked from the input's arcs, recolored
    for g, witness in _witnesses():
        validated = DirectedKnitGraph(g.n, witness.edges[::-1])
        assert witness == validated
        assert hash(witness) == hash(validated)
        assert [(s, d) for s, d, _ in witness.edges] == [(s, d) for s, d, _ in g.edges]
        assert {c for _s, _d, c in witness.edges} <= {B, R}


@st.composite
def _pair_lists(draw):
    """n <= 12 vertices and a pair list that may repeat or reverse pairs,
    hold self-pairs and leave vertices isolated."""
    n = draw(st.integers(0, 12))
    if n == 0:
        return 0, []
    return n, draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))


@settings(max_examples=600, deadline=None)
@given(_pair_lists())
def test_component_labels_match_networkx(case):
    n, pairs = case
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(pairs)
    comps = sorted(nx.connected_components(graph), key=min)
    expected = [0] * n
    for label, comp in enumerate(comps):
        for v in comp:
            expected[v] = label
    assert component_labels(n, pairs) == expected


def test_edge_color_hashes_by_identity():
    # the C identity hash, not Enum's Python-level hash of the member name
    assert EdgeColor.__hash__ is object.__hash__
    for color in EdgeColor:
        assert hash(color) == object.__hash__(color)
        assert color in {EdgeColor(color.value)}
        assert {color: 1}[EdgeColor(color.value)] == 1


def test_role_hashes_by_identity():
    assert Role.__hash__ is object.__hash__
    for role in Role:
        assert hash(role) == object.__hash__(role)
        assert role in frozenset({Role(role.value)})
        assert {role: 1}[Role(role.value)] == 1
