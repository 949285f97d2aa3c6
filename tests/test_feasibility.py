from __future__ import annotations

import pytest

from knitgraph import (
    DirectedKnitGraph,
    EdgeColor,
    RedRule,
    Role,
    UncoloredPresentError,
    check_coloring,
    classify_vertex,
    feasibility_table,
    format_role_set,
    gen_stockinette,
    red_config_allowed,
)

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
    assert report.path_count == 1
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
