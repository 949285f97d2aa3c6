from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import all_dags, disjoint_union, random_dag, relabel

from knitgraph import (
    DirectedKnitGraph,
    EdgeColor,
    FlowNetwork,
    InfeasibleVertexError,
    KnittingGraph,
    NotADagError,
    PurplePresentError,
    RedRule,
    Role,
    TooLargeError,
    brute_force_knittable,
    brute_force_minimum_path_cover,
    build_flow_network,
    check_coloring,
    classify_vertex,
    decide_k_knittable,
    extract_threads,
    gen_stitch_fixture,
    gen_stockinette,
    has_hamiltonian_path_dag,
    minimum_path_cover,
    solve_flow_range,
    solve_flow_with_bounds,
    sweep_feasible_k,
    underlying_knitting_graph,
    vertex_roles,
)
from knitgraph import cover as cover_module
from knitgraph import flows as flows_module

B, R, U = EdgeColor.BLUE, EdgeColor.RED, EdgeColor.UNCOLORED


def chain(n):
    return DirectedKnitGraph(n, tuple((i, i + 1, U) for i in range(n - 1)))


def round_kfb():
    """Increase worked in the round: 3 wide, then 4, then 4; the anchor
    stitch 1 carries two loops up."""
    edges = [(i, i + 1, U) for i in range(10)]
    edges += [
        (0, 3, U), (1, 4, U), (1, 5, U), (2, 6, U),
        (3, 7, U), (4, 8, U), (5, 9, U), (6, 10, U),
    ]
    return DirectedKnitGraph(11, tuple(edges))


def test_hamiltonian_chain():
    assert has_hamiltonian_path_dag(chain(4)) == [0, 1, 2, 3]


def test_hamiltonian_kfb_fixture():
    kfb = gen_stitch_fixture("kfb")
    assert has_hamiltonian_path_dag(kfb.graph) == list(range(11))


def test_hamiltonian_star_absent():
    g = DirectedKnitGraph(3, ((0, 1, U), (0, 2, U)))
    assert has_hamiltonian_path_dag(g) is None


def test_hamiltonian_rejects_cycles():
    g = DirectedKnitGraph(3, ((0, 1, U), (1, 2, U), (2, 0, U)))
    with pytest.raises(NotADagError):
        has_hamiltonian_path_dag(g)


def test_network_structure_round_3x3():
    f = gen_stockinette(3, 3, round=True)
    net = build_flow_network(f.graph, 1)
    n = f.graph.n
    # split arcs first, one per vertex, then thread, source and sink arcs,
    # then the two super arcs
    assert net.arcs[:n] == [(2 * v, 2 * v + 1, 1, 1) for v in range(n)]
    assert net.arcs[-2:] == [(net.s_in, net.s_out, 1, 1), (net.t_in, net.t_out, 1, 1)]
    roles = vertex_roles(f.graph)
    assert net.arcs[n:-2] == (
        [(2 * s + 1, 2 * d, 0, 1) for s, d, _ in f.graph.edges]  # all thread-capable
        + [(net.s_out, 2 * v, 0, 1) for v in range(n) if Role.S in roles[v]]
        + [(2 * v + 1, net.t_in, 0, 1) for v in range(n) if Role.T in roles[v]]
    )


def test_network_rejects_infeasible_vertex():
    with pytest.raises(InfeasibleVertexError):
        build_flow_network(chain(3), 1)
    with pytest.raises(InfeasibleVertexError):
        build_flow_network(DirectedKnitGraph(1, ()), 1)


def test_network_rejects_purple():
    f = gen_stockinette(3, 3)
    with pytest.raises(PurplePresentError):
        build_flow_network(f.graph, 1)
    with pytest.raises(PurplePresentError):
        decide_k_knittable(f.graph, 1)


def test_flow_exists_round_3x3():
    f = gen_stockinette(3, 3, round=True)
    net = build_flow_network(f.graph, 1)
    flows = solve_flow_with_bounds(net)
    assert flows is not None
    # conservation at every node and bounds respected
    balance = {}
    for (tail, head, lo, hi), flow in zip(net.arcs, flows):
        assert lo <= flow <= hi
        balance[tail] = balance.get(tail, 0) - flow
        balance[head] = balance.get(head, 0) + flow
    # the circulation closes through s_in/t_out, which the solver keeps internal
    for node, net_flow in balance.items():
        if node in (net.s_in, net.t_out):
            continue
        assert net_flow == 0, node
    assert balance.get(net.s_in, 0) == -1 and balance.get(net.t_out, 0) == 1


def test_unsatisfiable_isolated_split_arc():
    net = FlowNetwork(1)
    net.add(0, 1, 1, 1)
    assert solve_flow_with_bounds(net) is None


def test_extract_round_3x3_single_thread():
    f = gen_stockinette(3, 3, round=True)
    net = build_flow_network(f.graph, 1)
    flows = solve_flow_with_bounds(net)
    assert extract_threads(net, flows) == (tuple(range(9)),)


def test_extract_two_components():
    a = gen_stockinette(2, 3, round=True).graph
    g = disjoint_union([a, a])
    result = decide_k_knittable(g, 2)
    assert result is not None
    _witness, cover = result
    assert len(cover) == 2
    assert sorted(v for t in cover for v in t) == list(range(12))


def test_empty_graph_k0():
    g = DirectedKnitGraph(0, ())
    result = decide_k_knittable(g, 0)
    assert result == (DirectedKnitGraph(0, ()), ())


def test_decide_round_kfb():
    g = round_kfb()
    assert decide_k_knittable(g, 1, RedRule.STRICT) is None
    result = decide_k_knittable(g, 1, RedRule.EXTENDED)
    assert result is not None
    witness, _cover = result
    assert check_coloring(witness, 1, RedRule.EXTENDED).valid
    assert brute_force_knittable(g, 1, RedRule.EXTENDED, cap=11) is not None


def test_decide_chain_infeasible():
    assert decide_k_knittable(chain(3), 1) is None


def test_decide_disjoint_rounds():
    a = gen_stockinette(2, 3, round=True).graph
    g = disjoint_union([a, a])
    assert decide_k_knittable(g, 1) is None
    assert decide_k_knittable(g, 2) is not None
    assert brute_force_knittable(g, 1, cap=12) is None


def test_decide_rejects_cycles():
    g = DirectedKnitGraph(3, ((0, 1, U), (1, 2, U), (2, 0, U)))
    with pytest.raises(NotADagError):
        decide_k_knittable(g, 1)


def test_minimum_path_cover_examples():
    assert minimum_path_cover(chain(5))[0] == 1
    assert minimum_path_cover(DirectedKnitGraph(4, ()))[0] == 4
    diamond = DirectedKnitGraph(4, ((0, 1, U), (0, 2, U), (1, 3, U), (2, 3, U)))
    k, cover = minimum_path_cover(diamond)
    assert k == 2
    assert sorted(v for t in cover for v in t) == [0, 1, 2, 3]
    assert minimum_path_cover(DirectedKnitGraph(0, ())) == (0, ())


def test_minimum_path_cover_is_valid_partition(rng):
    for _ in range(100):
        g = random_dag(rng, rng.randint(1, 12), rng.random() * 0.5)
        arcs = {(s, d) for s, d, _ in g.edges}
        k, cover = minimum_path_cover(g)
        assert len(cover) == k
        seen = [v for t in cover for v in t]
        assert sorted(seen) == list(range(g.n))
        for t in cover:
            assert all(p in arcs for p in zip(t, t[1:]))


def test_oracle_undirected_round_stockinette():
    ukg = underlying_knitting_graph(gen_stockinette(3, 3, round=True).graph)
    result = brute_force_knittable(ukg, 1)
    assert result is not None
    witness, cover = result
    assert check_coloring(witness, 1).valid
    assert check_coloring(witness, 1).threads == cover


def test_oracle_undirected_triangle_infeasible():
    tri = KnittingGraph(3, ((0, 1), (1, 2), (0, 2)))
    assert brute_force_knittable(tri, 1, RedRule.STRICT) is None


def test_oracle_cap():
    with pytest.raises(TooLargeError):
        brute_force_knittable(chain(11), 1)


def test_oracle_red_direction_follows_thread_order():
    # path 0-1-2-3 plus the two loop chords of a 2x2 round piece
    g = KnittingGraph(4, ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3)))
    result = brute_force_knittable(g, 1)
    assert result is not None
    witness, cover = result
    pos = {}
    idx = 0
    for t in cover:
        for v in t:
            pos[v] = idx
            idx += 1
    for s, d, color in witness.edges:
        if color is R:
            assert pos[s] < pos[d]


def _four_way_coloring(g: KnittingGraph, system) -> DirectedKnitGraph:
    """Reference coloring for the undirected oracle, written without
    `_witness`: each thread pair blue along its thread, every other edge
    red from lower to higher position in the joined thread order."""
    position = {}
    idx = 0
    for thread in system:
        for v in thread:
            position[v] = idx
            idx += 1
    blue_pairs = {pair for t in system for pair in zip(t, t[1:])}
    edges = []
    for u, v in g.edges:
        if (u, v) in blue_pairs:
            edges.append((u, v, B))
        elif (v, u) in blue_pairs:
            edges.append((v, u, B))
        elif position[u] < position[v]:
            edges.append((u, v, R))
        else:
            edges.append((v, u, R))
    return DirectedKnitGraph(g.n, tuple(edges))


def _four_way_oracle(g: KnittingGraph, k, rule):
    adj = [sorted(neighbors) for neighbors in g.adj()]
    for system in cover_module._iter_path_systems(g.n, adj, k):
        colored = _four_way_coloring(g, system)
        if check_coloring(colored, k, rule).valid:
            return colored, system
    return None


def test_undirected_oracle_matches_the_four_way_coloring():
    # every labelled simple graph on up to 5 vertices
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = KnittingGraph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))
            for k in range(4):
                for rule in RedRule:
                    assert brute_force_knittable(g, k, rule) == _four_way_oracle(g, k, rule)


def test_sweep_matches_oracle():
    g = gen_stockinette(2, 3, round=True).graph
    ks = sweep_feasible_k(g)
    oracle_ks = [
        k for k in range(1, g.n + 1) if brute_force_knittable(g, k) is not None
    ]
    assert ks == oracle_ks


def test_soundness_on_feasible_fixtures(rng):
    # permuted disjoint unions of round pieces are feasible by construction;
    # every returned witness must verify
    for _ in range(1000):
        blocks = [
            gen_stockinette(rng.randint(2, 4), rng.randint(2, 4), round=True).graph
            for _ in range(rng.randint(1, 3))
        ]
        g = disjoint_union(blocks)
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = relabel(g, perm)
        k = len(blocks)
        result = decide_k_knittable(g, k)
        assert result is not None
        witness, _cover = result
        assert check_coloring(witness, k).valid


def test_hamiltonian_iff_cover_one(rng):
    for _ in range(300):
        g = random_dag(rng, rng.randint(1, 9), rng.random() * 0.6)
        ham = has_hamiltonian_path_dag(g) is not None
        assert ham == (minimum_path_cover(g)[0] == 1)


def test_oracle_equivalence_exhaustive_n3():
    for g in all_dags(3):
        for rule in (RedRule.STRICT, RedRule.EXTENDED):
            for k in (1, 2, 3):
                assert (decide_k_knittable(g, k, rule) is not None) == (
                    brute_force_knittable(g, k, rule) is not None
                )


def test_min_cover_matches_brute_force(rng):
    for _ in range(200):
        g = random_dag(rng, rng.randint(1, 7), rng.random() * 0.6)
        assert minimum_path_cover(g)[0] == brute_force_minimum_path_cover(g)[0]


def _sweep_per_k(g, rule=RedRule.STRICT):
    """The per-k sweep `sweep_feasible_k` replaced: one decision per k."""
    return [k for k in range(1, g.n + 1) if decide_k_knittable(g, k, rule) is not None]


@st.composite
def small_dags(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(n)))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return DirectedKnitGraph(n, tuple((s, d, U) for (s, d), k in zip(pairs, keep) if k))


@settings(max_examples=400, deadline=None)
@given(small_dags(), st.sampled_from(list(RedRule)))
def test_sweep_equals_per_k_oracle_on_random_dags(g, rule):
    assert sweep_feasible_k(g, rule) == _sweep_per_k(g, rule)


@pytest.mark.parametrize("rule", list(RedRule))
@pytest.mark.parametrize("rows", [2, 3, 4, 6])
@pytest.mark.parametrize("cols", [2, 3, 4, 6])
def test_sweep_equals_per_k_oracle_on_rounds(rows, cols, rule):
    g = gen_stockinette(rows, cols, round=True).graph
    assert sweep_feasible_k(g, rule) == _sweep_per_k(g, rule)


# The tagged witness path that the id-indexed one replaced, kept as the
# oracle: every arc carries a kind and the vertex or (src, dst) pair it
# stands for, only arcs with room enter the max flow (an arc map leads
# back), threads are read by kind, and the coloring is keyed by (src, dst).
# The Dinic max flow itself is shared.


def _tagged_network(g, roles, lower, upper):
    n = g.n
    s_in, s_out, t_in, t_out = 2 * n, 2 * n + 1, 2 * n + 2, 2 * n + 3
    arcs = [(2 * v, 2 * v + 1, 1, 1, "split", v) for v in range(n)]
    for src, dst, _color in g.edges:
        if (Role.S in roles[src] or Role.M in roles[src]) and (
            Role.M in roles[dst] or Role.T in roles[dst]
        ):
            arcs.append((2 * src + 1, 2 * dst, 0, 1, "original", (src, dst)))
    arcs += [(s_out, 2 * v, 0, 1, "source", v) for v in range(n) if Role.S in roles[v]]
    arcs += [(2 * v + 1, t_in, 0, 1, "sink", v) for v in range(n) if Role.T in roles[v]]
    arcs.append((s_in, s_out, lower, upper, "super", None))
    arcs.append((t_in, t_out, lower, upper, "super", None))
    return arcs


def _tagged_solve(n, arcs, minimum):
    """Flows aligned with `arcs`, or None; with `minimum`, of least value."""
    num_nodes = 2 * n + 4
    ss, tt = num_nodes, num_nodes + 1
    excess = [0] * num_nodes
    to, cap, arc_map = [], [], []
    for tail, head, lower, upper, _kind, _ref in arcs:
        if upper > lower:
            arc_map.append(len(cap) // 2)
            to += (head, tail)
            cap += (upper - lower, 0)
        else:
            arc_map.append(None)
        excess[head] += lower
        excess[tail] -= lower
    closure = len(cap) // 2
    to += (2 * n, 2 * n + 3)
    cap += (1 << 60, 0)
    required = 0
    for v, e in enumerate(excess):
        if e > 0:
            to += (v, ss)
            cap += (e, 0)
            required += e
        elif e < 0:
            to += (tt, v)
            cap += (-e, 0)
    dinic = flows_module._Dinic(num_nodes + 2, to, cap)
    if dinic.max_flow(ss, tt) < required:
        return None
    if minimum:
        for a in range(closure, len(cap) // 2):
            dinic.disable_arc(a)
        dinic.max_flow(2 * n + 3, 2 * n)
    return [
        arc[2] + (0 if a is None else dinic.flow_on(a)) for arc, a in zip(arcs, arc_map)
    ]


def _tagged_threads(arcs, flow):
    starts, nxt = [], {}
    for arc, f in zip(arcs, flow):
        if f != 1:
            continue
        if arc[4] == "source":
            starts.append(arc[5])
        elif arc[4] == "original":
            src, dst = arc[5]
            nxt[src] = dst
    threads = []
    for v in sorted(starts):
        path = [v]
        while v in nxt:
            v = nxt[v]
            path.append(v)
        threads.append(tuple(path))
    return tuple(threads)


def _tagged_decide(g, k, rule):
    """(witness edges, cover) or None, as `decide_k_knittable` on a DAG."""
    if k < 0:
        return None
    try:
        roles = vertex_roles(g, rule)
    except InfeasibleVertexError:
        return None
    arcs = _tagged_network(g, roles, k, k)
    flow = _tagged_solve(g.n, arcs, minimum=False)
    if flow is None:
        return None
    cover = _tagged_threads(arcs, flow)
    blue_pairs = {pair for t in cover for pair in zip(t, t[1:])}
    coloring = {(s, d): (B if (s, d) in blue_pairs else R) for s, d, _ in g.edges}
    return tuple((s, d, coloring.get((s, d), c)) for s, d, c in g.edges), cover


def _tagged_minimum_path_cover(g):
    if g.n == 0:
        return 0, ()
    arcs = _tagged_network(g, [frozenset(Role)] * g.n, 0, g.n)
    cover = _tagged_threads(arcs, _tagged_solve(g.n, arcs, minimum=True))
    return len(cover), cover


def _decided(g, k, rule):
    result = decide_k_knittable(g, k, rule)
    if result is None:
        return None
    witness, cover = result
    assert witness == DirectedKnitGraph(g.n, witness.edges[::-1])
    return witness.edges, cover


@settings(max_examples=300, deadline=None)
@given(small_dags(), st.sampled_from(list(RedRule)))
def test_witness_path_matches_tagged_reader_on_random_dags(g, rule):
    for k in range(5):
        assert _decided(g, k, rule) == _tagged_decide(g, k, rule)
    assert minimum_path_cover(g) == _tagged_minimum_path_cover(g)


def test_witness_path_matches_tagged_reader_on_rounds():
    for rows, cols in ((2, 2), (3, 3), (2, 5), (4, 3), (6, 6)):
        g = gen_stockinette(rows, cols, round=True).graph
        for rule in RedRule:
            for k in range(1, 4):
                assert _decided(g, k, rule) == _tagged_decide(g, k, rule)
        assert minimum_path_cover(g) == _tagged_minimum_path_cover(g)


def _relaxed_all_roles(n, edges):
    """The path-cover network by hand: every vertex may start, continue or
    end a thread, and both super arcs allow 0..n threads."""
    net = FlowNetwork(n)
    for v in range(n):
        net.add(2 * v, 2 * v + 1, 1, 1)
    for s, d in edges:
        net.add(2 * s + 1, 2 * d, 0, 1)
    for v in range(n):
        net.add(net.s_out, 2 * v, 0, 1)
        net.add(2 * v + 1, net.t_in, 0, 1)
    net.add(net.s_in, net.s_out, 0, n)
    net.add(net.t_in, net.t_out, 0, n)
    return net


def test_flow_range_on_relaxed_networks():
    assert solve_flow_range(_relaxed_all_roles(5, [(i, i + 1) for i in range(4)])) == (1, 5)
    assert solve_flow_range(_relaxed_all_roles(0, [])) == (0, 0)
    diamond = [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert solve_flow_range(_relaxed_all_roles(4, diamond)) == (2, 4)


def test_flow_range_infeasible_and_pinned():
    net = FlowNetwork(1)
    net.add(0, 1, 1, 1)
    assert solve_flow_range(net) is None
    # exact super bounds pin the range to a single value
    exact = build_flow_network(gen_stockinette(3, 3, round=True).graph, 1)
    assert solve_flow_range(exact) == (1, 1)


def test_sweep_on_a_round_and_the_empty_graph():
    g = gen_stockinette(3, 3, round=True).graph
    full = sweep_feasible_k(g)
    assert full == _sweep_per_k(g) and 1 in full
    assert sweep_feasible_k(DirectedKnitGraph(0, ())) == []
    assert sweep_feasible_k(chain(3)) == []  # vertex 0 has no role


def test_sweep_errors_match_per_k_decision():
    cyclic = DirectedKnitGraph(3, ((0, 1, U), (1, 2, U), (2, 0, U)))
    purple = gen_stockinette(3, 3).graph
    for g, error in ((cyclic, NotADagError), (purple, PurplePresentError)):
        with pytest.raises(error):
            sweep_feasible_k(g)
        with pytest.raises(error):
            _sweep_per_k(g)


def test_vertex_roles_classifies_each_degree_pair_once(monkeypatch):
    g = gen_stockinette(4, 4, round=True).graph
    calls = []

    def counting(indeg, outdeg, rule=RedRule.STRICT):
        calls.append((indeg, outdeg))
        return classify_vertex(indeg, outdeg, rule)

    monkeypatch.setattr(cover_module, "classify_vertex", counting)
    roles = vertex_roles(g)
    assert roles == [classify_vertex(i, o) for i, o in g.degrees()]
    assert sorted(calls) == sorted(set(g.degrees()))


def test_vertex_roles_reports_first_bad_vertex():
    with pytest.raises(InfeasibleVertexError) as info:
        vertex_roles(chain(3))
    assert (info.value.vertex, info.value.indeg, info.value.outdeg) == (0, 0, 1)


# The flow path that k = 1 took before the topological-chain check, kept
# as the oracle of that check; `minimum_path_cover` still runs the flow and
# is the oracle of `has_hamiltonian_path_dag`.


def _flow_decide_one(g, rule):
    """`decide_k_knittable(g, 1, rule)` through the flow network."""
    cover_module._require_dag(g)
    try:
        net = build_flow_network(g, 1, rule)
    except InfeasibleVertexError:
        return None
    flows = solve_flow_with_bounds(net)
    if flows is None:
        return None
    threads = extract_threads(net, flows)
    return cover_module._witness(g, threads), threads


@st.composite
def one_thread_candidates(draw):
    """Random DAGs, which rarely have a Hamiltonian path, plus pieces that
    do: chains, chains with extra forward arcs, and round stockinette, each
    on a shuffled vertex order."""
    kind = draw(st.sampled_from(["dag", "chain", "chain+", "round"]))
    if kind == "dag":
        return draw(small_dags())
    if kind == "round":
        g = gen_stockinette(draw(st.integers(2, 5)), draw(st.integers(2, 5)), round=True).graph
        return relabel(g, draw(st.permutations(range(g.n))))
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))
    pairs = [(i, i + 1) for i in range(n - 1)]
    if kind == "chain+":
        skips = [(i, j) for i in range(n) for j in range(i + 2, n)]
        keep = draw(st.lists(st.booleans(), min_size=len(skips), max_size=len(skips)))
        pairs += [pair for pair, k in zip(skips, keep) if k]
    return DirectedKnitGraph(n, tuple((order[i], order[j], U) for i, j in pairs))


@settings(max_examples=600, deadline=None)
@given(one_thread_candidates(), st.sampled_from(list(RedRule)))
# a chain whose last inner vertex 3 alone has no middle role (T only)
@example(
    DirectedKnitGraph(5, tuple((s, d, U) for s, d in (
        (0, 1), (1, 2), (2, 3), (3, 4), (0, 3), (1, 3), (2, 4)))),
    RedRule.STRICT,
)
def test_one_thread_answers_match_the_flow(g, rule):
    assert decide_k_knittable(g, 1, rule) == _flow_decide_one(g, rule)
    count, threads = minimum_path_cover(g)
    order = has_hamiltonian_path_dag(g)
    assert (order is not None) == (count <= 1)
    if order:
        assert threads == (tuple(order),)


def test_one_thread_matches_the_flow_at_scale():
    # criterion 10 decides this piece on the chain check, so this is the
    # test that runs the flow at 10^5 vertices
    g = gen_stockinette(300, 330, round=True).graph
    fast = decide_k_knittable(g, 1)
    assert fast is not None
    assert fast == _flow_decide_one(g, RedRule.STRICT)


def test_one_thread_builds_no_flow_network(monkeypatch):
    def no_flow(*_args):
        raise AssertionError("flow network built for one thread")

    monkeypatch.setattr(cover_module, "_assemble_network", no_flow)
    g = gen_stockinette(4, 4, round=True).graph
    witness, threads = decide_k_knittable(g, 1)
    assert threads == (tuple(range(16)),) and check_coloring(witness, 1).valid
    assert has_hamiltonian_path_dag(g) == list(range(16))
    assert decide_k_knittable(round_kfb(), 1) is None  # inner vertex 1 can only start one
    assert decide_k_knittable(DirectedKnitGraph(3, ((0, 1, U), (0, 2, U))), 1) is None


def test_one_thread_edge_cases():
    empty, single = DirectedKnitGraph(0, ()), DirectedKnitGraph(1, ())
    for rule in RedRule:
        # n = 0 still goes to the flow, which finds no 1-thread cover
        assert decide_k_knittable(empty, 1, rule) is None
        assert _flow_decide_one(empty, rule) is None
        # a lone vertex can neither start nor end a thread (degrees 0, 0)
        assert decide_k_knittable(single, 1, rule) is None
        assert _flow_decide_one(single, rule) is None
    assert has_hamiltonian_path_dag(empty) == []
    assert has_hamiltonian_path_dag(single) == [0]

    # purple is rejected before the role check and before the chain check
    P = EdgeColor.PURPLE
    purple_chain = DirectedKnitGraph(3, ((0, 1, P), (1, 2, U)))
    roleless_purple = DirectedKnitGraph(2, ((0, 1, P),))
    branching_purple = DirectedKnitGraph(3, ((0, 1, P), (0, 2, U)))
    for g in (purple_chain, roleless_purple, branching_purple):
        with pytest.raises(PurplePresentError):
            decide_k_knittable(g, 1)
        with pytest.raises(PurplePresentError):
            _flow_decide_one(g, RedRule.STRICT)

    # a cycle is reported before purple
    cyclic_purple = DirectedKnitGraph(3, ((0, 1, P), (1, 2, U), (2, 0, U)))
    with pytest.raises(NotADagError):
        decide_k_knittable(cyclic_purple, 1)
    with pytest.raises(NotADagError):
        _flow_decide_one(cyclic_purple, RedRule.STRICT)
    for answer in (minimum_path_cover, has_hamiltonian_path_dag):
        with pytest.raises(NotADagError):
            answer(cyclic_purple)

    # a chain with roleless vertices: no thread and no error
    for rule in RedRule:
        with pytest.raises(InfeasibleVertexError):
            vertex_roles(chain(3), rule)
        assert decide_k_knittable(chain(3), 1, rule) is None
        assert _flow_decide_one(chain(3), rule) is None
