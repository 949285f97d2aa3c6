from __future__ import annotations

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knitgraph import (
    ColoringReport,
    DirectedKnitGraph,
    EdgeColor,
    RedRule,
    Role,
    UncoloredPresentError,
    all_fixtures,
    check_coloring,
    classify_vertex,
    feasibility_table,
    format_role_set,
    gen_stockinette,
    red_config_allowed,
)
from knitgraph.feasibility import thread_paths
from knitgraph.graphs import LOOP_COLORS

B, R, P, U = EdgeColor.BLUE, EdgeColor.RED, EdgeColor.PURPLE, EdgeColor.UNCOLORED
S, M, T = Role.S, Role.M, Role.T


def test_red_config_strict_members():
    assert red_config_allowed(1, 1, RedRule.STRICT)
    assert red_config_allowed(0, 1, RedRule.STRICT)
    assert red_config_allowed(1, 0, RedRule.STRICT)
    assert red_config_allowed(1, 2, RedRule.STRICT)
    assert red_config_allowed(2, 1, RedRule.STRICT)
    assert not red_config_allowed(2, 2, RedRule.STRICT)
    assert not red_config_allowed(0, 0, RedRule.STRICT)


def test_red_config_extended():
    assert red_config_allowed(3, 1, RedRule.EXTENDED)
    assert not red_config_allowed(3, 1, RedRule.STRICT)
    assert not red_config_allowed(2, 2, RedRule.EXTENDED)
    assert not red_config_allowed(0, 0, RedRule.EXTENDED)


def test_classify_examples():
    assert classify_vertex(2, 2) == frozenset({S, M, T})
    assert classify_vertex(1, 1) == frozenset()
    assert classify_vertex(3, 1) == frozenset({T})
    assert classify_vertex(0, 2) == frozenset({S})


# The reference degree table, [indeg][outdeg]; the (2,0) cell prints "S"
# there but a start with no outgoing edges can never launch a thread, so
# this artifact classifies it {T} (a final closed stitch).
REFERENCE_TABLE = [
    ["non-feasible", "non-feasible", "S", "non-feasible"],
    ["non-feasible", "non-feasible", "S, M", "S"],
    ["S", "M, T", "S, M, T", "M"],
    ["non-feasible", "T", "M", "non-feasible"],
]


def test_strict_table_matches_reference_on_15_of_16():
    table = feasibility_table(RedRule.STRICT)
    mismatches = [
        (i, o)
        for i in range(4)
        for o in range(4)
        if format_role_set(table[i][o]) != REFERENCE_TABLE[i][o]
    ]
    assert mismatches == [(2, 0)]


def test_documented_deviation_cell():
    assert classify_vertex(2, 0) == frozenset({T})


def test_extended_table_superset_of_strict():
    strict = feasibility_table(RedRule.STRICT)
    extended = feasibility_table(RedRule.EXTENDED)
    for i in range(4):
        for o in range(4):
            assert strict[i][o] <= extended[i][o]


def test_isolated_vertex_infeasible_both_rules():
    assert classify_vertex(0, 0, RedRule.STRICT) == frozenset()
    assert classify_vertex(0, 0, RedRule.EXTENDED) == frozenset()


def test_extended_superset_property_wide():
    for i in range(7):
        for o in range(7):
            assert classify_vertex(i, o, RedRule.STRICT) <= classify_vertex(
                i, o, RedRule.EXTENDED
            )


def test_check_coloring_round_stockinette():
    f = gen_stockinette(3, 3, round=True)
    report = check_coloring(f.graph, 1)
    assert report.valid
    assert len(report.threads) == 1
    assert report.threads == f.cover


def test_check_coloring_bare_chain_invalid():
    g = DirectedKnitGraph(3, ((0, 1, B), (1, 2, B)))
    report = check_coloring(g, 1)
    assert not report.valid
    assert any("(0, 0)" in p for p in report.problems)


def test_check_coloring_path_count_mismatch():
    g = DirectedKnitGraph(4, ((0, 1, B), (2, 3, B)))
    report = check_coloring(g, 1)
    assert not report.valid
    assert any("2 threads" in p for p in report.problems)


def test_check_coloring_reads_purple_as_thread_step_and_loop():
    f = gen_stockinette(3, 3)  # flat: has purple turns
    assert check_coloring(f.graph, 1).valid
    # Read as a plain thread step, a turn leaves its row-end stitch with no
    # loop at all, which no strict configuration admits.
    blue = tuple((s, d, B if c is P else c) for s, d, c in f.graph.edges)
    report = check_coloring(DirectedKnitGraph(f.graph.n, blue), 1)
    assert not report.valid


def test_check_coloring_rejects_uncolored():
    g = DirectedKnitGraph(2, ((0, 1, U),))
    with pytest.raises(UncoloredPresentError):
        check_coloring(g, 1)


def test_infeasible_degrees_reject_for_every_k():
    from knitgraph import decide_k_knittable

    # contains a vertex of degrees (1,1): empty role set
    g = DirectedKnitGraph(3, ((0, 1, U), (1, 2, U)))
    for k in range(1, 4):
        assert decide_k_knittable(g, k) is None
        assert decide_k_knittable(g, k, RedRule.EXTENDED) is None


def _check_coloring_by_clauses(g, k, rule=RedRule.STRICT):
    """`check_coloring` as it was before it asked `classify_vertex`: a
    one-stitch thread judged on its total degrees, every other vertex on
    its red configuration plus a clause each for thread starts and ends,
    and the thread count checked unless k is None. The oracle of the
    classify_vertex rule."""
    if U in g.colors():
        raise UncoloredPresentError()
    paths, problems = thread_paths(g)
    if problems:
        return ColoringReport(False, k, (), problems)
    red_in = [0] * g.n
    red_out = [0] * g.n
    for src, dst, color in g.edges:
        if color in LOOP_COLORS:
            red_out[src] += 1
            red_in[dst] += 1
    if k is not None and len(paths) != k:
        problems.append(f"sequential edges form {len(paths)} threads, expected {k}")
    indeg_out = g.degrees()
    for path in paths:
        if len(path) == 1:
            v = path[0]
            i, o = indeg_out[v]
            roles = classify_vertex(i, o, rule)
            if not (S in roles and T in roles):
                problems.append(f"vertex {v} cannot form a one-stitch thread (degrees {i},{o})")
            continue
        for pos, v in enumerate(path):
            cfg = (red_in[v], red_out[v])
            if not red_config_allowed(*cfg, rule):
                problems.append(
                    f"vertex {v} has red configuration {cfg}, inadmissible under {rule.value}"
                )
                continue
            if pos == 0 and cfg[1] < 1:
                problems.append(f"thread start {v} is never passed through")
            if pos == len(path) - 1 and cfg[0] < 1:
                problems.append(f"thread end {v} passes through nothing")
    return ColoringReport(not problems, k, paths, problems)


def _named_vertices(problems):
    """The vertex each problem names, in order; the thread-count problem
    names none."""
    return [
        int(v) for p in problems
        for v in re.findall(r"(?:vertex|thread start|thread end) (\d+)", p)
    ]


def _assert_agrees_with_clauses(g, k, rule):
    report = check_coloring(g, k, rule)
    oracle = _check_coloring_by_clauses(g, k, rule)
    assert report.valid == oracle.valid
    assert report.threads == oracle.threads
    assert len(report.problems) == len(oracle.problems)
    assert _named_vertices(report.problems) == _named_vertices(oracle.problems)
    if k is None:
        # any thread count: the report for the count the threads have
        counted = len(report.threads)
        assert replace(report, k=counted) == check_coloring(g, counted, rule)


@st.composite
def colored_digraphs(draw):
    """A simple digraph on n <= 7 vertices with blue, red and purple arcs.

    Threads are planted along a random vertex order, each step blue,
    purple or missing; every other pair gets no arc, or a red, blue or
    purple arc either way, so thread faults turn up as well."""
    n = draw(st.integers(0, 7))
    order = draw(st.permutations(range(n)))
    breaks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            u, v = order[i], order[j]
            if j == i + 1 and not breaks[j]:
                color = draw(st.sampled_from([B, B, P, None]))
            else:
                color = draw(st.sampled_from([None, None, None, R, R, R, B, P]))
                if draw(st.sampled_from([False, False, False, True])):
                    u, v = v, u
            if color is not None:
                edges.append((u, v, color))
    return DirectedKnitGraph(n, tuple(edges))


@settings(max_examples=400, deadline=None)
@given(colored_digraphs(), st.sampled_from(list(RedRule)), st.data())
def test_check_coloring_matches_the_clause_oracle(g, rule, data):
    k = data.draw(st.one_of(st.none(), st.integers(0, g.n + 1)))
    _assert_agrees_with_clauses(g, k, rule)


def test_check_coloring_matches_the_clause_oracle_on_fixtures():
    pieces = list(all_fixtures()) + [
        gen_stockinette(rows, cols, round=rnd)
        for rows, cols in ((1, 2), (1, 5), (2, 2), (5, 4), (7, 9)) for rnd in (False, True)
    ]
    for f in pieces:
        for rule in RedRule:
            for k in (f.k, f.k + 1, None):
                _assert_agrees_with_clauses(f.graph, k, rule)


def test_check_coloring_problem_wording():
    chain = DirectedKnitGraph(3, ((0, 1, B), (1, 2, B)))
    assert check_coloring(chain, 1).problems == [
        "vertex 0 cannot be a thread start with red configuration (0, 0) under strict",
        "vertex 1 cannot be a thread middle with red configuration (0, 0) under strict",
        "vertex 2 cannot be a thread end with red configuration (0, 0) under strict",
    ]
    # 0 -> 1 -> 2 loops 0 into 2: vertex 2 passes through 0, but vertex 1 in
    # the middle has no loop, and under extended a red (1, 0) is no start
    knit = DirectedKnitGraph(3, ((0, 1, B), (0, 2, R), (1, 2, B)))
    assert check_coloring(knit, 1, RedRule.EXTENDED).problems == [
        "vertex 1 cannot be a thread middle with red configuration (0, 0) under extended",
    ]
    single = DirectedKnitGraph(2, ((0, 1, R),))
    assert check_coloring(single, 2, RedRule.EXTENDED).problems == [
        "vertex 0 cannot be a one-stitch thread with red configuration (0, 1) under extended",
        "vertex 1 cannot be a one-stitch thread with red configuration (1, 0) under extended",
    ]
