from __future__ import annotations

import pytest

from knitgraph import (
    BadDimsError,
    ComplexityClass,
    DirectedKnitGraph,
    EdgeColor,
    MAX_VERTICES,
    NotSingleThreadError,
    RedRule,
    all_fixtures,
    check_coloring,
    decide_k_knittable,
    emit_instructions,
    gen_brioche_maximal,
    gen_stitch_fixture,
    gen_stockinette,
    reduce_yarn_to_directed,
    yarn_from_threads,
)

B, R, P, U = EdgeColor.BLUE, EdgeColor.RED, EdgeColor.PURPLE, EdgeColor.UNCOLORED


def test_flat_3x3_reference_edge_set():
    f = gen_stockinette(3, 3)
    reds = {(s, d) for s, d, c in f.graph.edges if c is R}
    purples = {(s, d) for s, d, c in f.graph.edges if c is P}
    blues = {(s, d) for s, d, c in f.graph.edges if c is B}
    assert f.graph.n == 9
    assert f.cover == (tuple(range(9)),)
    assert reds == {(0, 5), (1, 4), (3, 8), (4, 7)}
    assert purples == {(2, 3), (5, 6)}
    assert blues == {(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)}


def test_single_row_has_no_loops():
    f = gen_stockinette(1, 5)
    assert all(c is B for _, _, c in f.graph.edges)
    assert f.graph.m == 4


def test_round_family_decides_feasible_with_generator_thread():
    for r in range(2, 7):
        for c in range(2, 7):
            f = gen_stockinette(r, c, round=True)
            assert not any(c_ is P for _, _, c_ in f.graph.edges)
            result = decide_k_knittable(f.graph, 1, RedRule.STRICT)
            assert result is not None, (r, c)
            _witness, cover = result
            assert cover == f.cover, (r, c)


def test_bad_dims():
    with pytest.raises(BadDimsError):
        gen_stockinette(0, 3)
    with pytest.raises(BadDimsError):
        gen_stockinette(3, 1)
    with pytest.raises(BadDimsError):
        gen_brioche_maximal(3)
    with pytest.raises(BadDimsError):
        gen_brioche_maximal(5)


def test_dims_above_the_vertex_cap():
    # every piece `gen` writes can be read back; refused before building
    assert 101 * 9901 == MAX_VERTICES + 1
    for round in (False, True):
        with pytest.raises(BadDimsError, match="rows=101, cols=9901"):
            gen_stockinette(101, 9901, round)
    with pytest.raises(BadDimsError, match="at most 333333"):
        gen_brioche_maximal(333_334)  # n = 1,000,002, the least even width above


def test_kfb_fixture_shape():
    f = gen_stitch_fixture("kfb")
    assert f.graph.n == 11
    reds = {(s, d) for s, d, c in f.graph.edges if c is R}
    # the anchor stitch 1 loops up to both legs of the increase, 4 and 5
    assert (1, 4) in reds and (1, 5) in reds


def test_k2tog_fixture_shape():
    f = gen_stitch_fixture("k2tog")
    assert f.graph.n == 11
    reds = {(s, d) for s, d, c in f.graph.edges if c is R}
    # the decrease stitch 9 receives loops from 5 and 6
    assert (5, 9) in reds and (6, 9) in reds


def test_c1b_fixture_expected_class():
    assert gen_stitch_fixture("c1b").expected_class is ComplexityClass.CLASS2


def test_unknown_stitch_rejected():
    with pytest.raises(BadDimsError):
        gen_stitch_fixture("bobble")


def test_brioche_shape():
    f = gen_brioche_maximal(6)
    assert f.graph.n == 18
    assert f.k == 4
    assert len(f.cover) == 4
    assert sorted(v for t in f.cover for v in t) == list(range(18))


def test_fixtures_pass_check_coloring():
    for f in all_fixtures():
        if f.expected_class is not ComplexityClass.CLASS0:
            continue  # brioche and cables are beyond the class-0 scheme
        report = check_coloring(f.graph, f.k, f.rule)
        assert report.valid, (f.name, report.problems)


def test_fixture_yarn_is_derived_from_threads():
    for f in all_fixtures():
        assert f.yarn == yarn_from_threads(f.graph, f.cover), f.name
        assert reduce_yarn_to_directed(f.yarn) == f.graph, f.name


def test_emit_flat_2x3():
    f = gen_stockinette(2, 3)
    text = emit_instructions(f.graph, f.cover)
    assert text.splitlines() == ["row 1: yo yo yo", "row 2: k k k"]


def test_emit_kfb_annotates_second_leg():
    f = gen_stitch_fixture("kfb")
    lines = emit_instructions(f.graph, f.cover).splitlines()
    assert len(lines) == 3
    assert "kfb-second-leg" in lines[1]
    assert sum(line.count("kfb-second-leg") for line in lines) == 1


def test_emit_k2tog():
    f = gen_stitch_fixture("k2tog")
    lines = emit_instructions(f.graph, f.cover).splitlines()
    assert "k2tog" in lines[2]


def test_emit_single_vertex():
    assert emit_instructions(DirectedKnitGraph(1, ()), ((0,),)) == "row 1: yo"


def test_emit_needs_single_thread():
    f = gen_brioche_maximal(6)
    with pytest.raises(NotSingleThreadError):
        emit_instructions(f.graph, f.cover)


@pytest.mark.parametrize("rows, cols", [(2, 3), (3, 3), (4, 5), (6, 2)])
def test_emit_from_decide_witness_matches_generator(rows, cols):
    # the text of a decided single-thread witness is the generated piece's
    f = gen_stockinette(rows, cols, round=True)
    uncolored = DirectedKnitGraph(f.graph.n, tuple((s, d, U) for s, d, _ in f.graph.edges))
    assert emit_instructions(*decide_k_knittable(uncolored, 1)) == emit_instructions(
        f.graph, f.cover
    )
