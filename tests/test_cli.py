from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import knitgraph
from knitgraph import cli, gen_stitch_fixture, gen_stockinette, serialize_json
from knitgraph.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def round33(tmp_path, capsys):
    path = tmp_path / "round33.json"
    code, _, _ = run(
        capsys, "gen", "--pattern", "stockinette", "--rows", "3", "--cols", "3",
        "--round", "-o", str(path),
    )
    assert code == 0
    return path


@pytest.fixture
def chain3(tmp_path):
    path = tmp_path / "chain3.json"
    path.write_text(
        json.dumps(
            {
                "n": 3,
                "directed": True,
                "edges": [
                    {"src": 0, "dst": 1, "color": None},
                    {"src": 1, "dst": 2, "color": None},
                ],
            }
        )
    )
    return path


def test_decide_feasible_emits_witness(round33, capsys, tmp_path):
    code, out, _ = run(capsys, "decide", "--k", "1", str(round33))
    assert code == 0
    witness = json.loads(out)
    assert witness["meta"]["k"] == 1
    assert witness["meta"]["threads"] == [list(range(9))]
    # decide then validate on the emitted witness returns 0
    wpath = tmp_path / "witness.json"
    wpath.write_text(out)
    code, _, _ = run(capsys, "validate", str(wpath))
    assert code == 0


def test_decide_infeasible_is_status_1(chain3, capsys):
    code, out, _ = run(capsys, "decide", "--k", "1", str(chain3))
    assert code == 1
    assert "infeasible" in out


def test_decide_sweep(round33, capsys):
    code, out, _ = run(capsys, "decide", "--sweep", "--json", str(round33))
    assert code == 0
    assert 1 in json.loads(out)["feasible_k"]


def test_decide_sweep_none_feasible_is_status_1(chain3, capsys):
    code, out, _ = run(capsys, "decide", "--sweep", "--json", str(chain3))
    assert code == 1
    assert json.loads(out) == {"feasible_k": []}


def test_missing_file_is_status_2(capsys):
    code, _, err = run(capsys, "convert", "--to", "dot", "/nonexistent/missing.json")
    assert code == 2
    assert "error" in err


def test_unknown_flag_is_status_2(capsys):
    code, _, _ = run(capsys, "decide", "--frobnicate", "x.json")
    assert code == 2


def test_cover_min(round33, capsys):
    code, out, _ = run(capsys, "cover", "--json", str(round33))
    assert code == 0
    assert json.loads(out)["k"] == 1


def test_oracle(round33, capsys):
    code, out, _ = run(capsys, "oracle", "--k", "1", str(round33))
    assert code == 0
    assert json.loads(out)["meta"]["k"] == 1


def test_classify(round33, capsys):
    code, out, _ = run(capsys, "classify", "--json", str(round33))
    assert code == 0
    assert json.loads(out)["class"] == "class0"


def test_rows(round33, capsys):
    code, out, _ = run(capsys, "rows", "--json", str(round33))
    assert code == 0
    assert json.loads(out)["rows"] == 3


def test_cablewidth(tmp_path, capsys):
    path = tmp_path / "c1b.json"
    code, _, _ = run(capsys, "gen", "--pattern", "c1b", "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "cablewidth", "--json", str(path))
    assert code == 0
    assert json.loads(out)["cable_width"] == 1


def test_cablewidth_names_a_shared_position_by_row_and_column(tmp_path, capsys):
    path = tmp_path / "shared.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "directed": True,
                "edges": [{"src": 0, "dst": 1, "color": "blue"}],
                "layout": {"0": [3, 0.5], "1": [3, 0.5]},
            }
        )
    )
    code, out, err = run(capsys, "cablewidth", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: degenerate layout at row 3, column 1/2: two vertices share a position\n"


@pytest.mark.parametrize("command", ["rows", "classify", "cablewidth"])
@pytest.mark.parametrize(
    "layout",
    [{"0": [0, 0], "1": [0, 1]}, {"0": [0, 0], "1": [0, 1], "2": [0, 2], "3": [1, 0]}],
    ids=["missing-vertex", "key-out-of-range"],
)
def test_layout_not_covering_the_vertices_is_status_2(tmp_path, capsys, command, layout):
    path = tmp_path / "partial.json"
    path.write_text(
        json.dumps(
            {
                "n": 3,
                "directed": True,
                "edges": [
                    {"src": 0, "dst": 1, "color": "blue"},
                    {"src": 1, "dst": 2, "color": "blue"},
                ],
                "layout": layout,
                "meta": {"threads": [[0, 1, 2]]},
            }
        )
    )
    code, out, err = run(capsys, command, "--json", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: layout") and err.count("\n") == 1


def test_yarn_min_k(tmp_path, capsys):
    path = tmp_path / "yarn.json"
    path.write_text(
        json.dumps(
            {
                "n": 3,
                "directed": True,
                "multigraph": True,
                "edges": [
                    {"src": 0, "dst": 1},
                    {"src": 1, "dst": 0},
                    {"src": 0, "dst": 1},
                    {"src": 1, "dst": 2},
                ],
            }
        )
    )
    code, out, _ = run(capsys, "yarn", "min-k", "--json", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["k"] == 1
    assert report["imbalances"]


def test_yarn_check(tmp_path, capsys):
    path = tmp_path / "yarn.json"
    graph = {
        "n": 4,
        "directed": True,
        "multigraph": True,
        "edges": [
            {"src": 0, "dst": 1},
            {"src": 1, "dst": 2},
            {"src": 2, "dst": 3},
            {"src": 1, "dst": 0},
            {"src": 2, "dst": 0},  # second loop strand pair
            {"src": 0, "dst": 2},
        ],
    }
    path.write_text(json.dumps(graph))
    code, _, _ = run(capsys, "yarn", "check", "--k", "1", str(path))
    assert code in (0, 1)


def test_table_text_and_json(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert "non-feasible" in out and "S, M, T" in out
    code, out, _ = run(capsys, "table", "--json", "--rule", "extended")
    assert code == 0
    assert json.loads(out)["rule"] == "extended"


def test_convert_dot(round33, capsys):
    code, out, _ = run(capsys, "convert", "--to", "dot", str(round33))
    assert code == 0
    assert out.startswith("digraph")
    assert "color=blue" in out and "color=red" in out


def test_gen_to_stdout_is_valid_json(capsys):
    code, out, _ = run(capsys, "gen", "--pattern", "kfb")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 11 and doc["meta"]["expected_class"] == "class0"


def test_validate_rejects_bad_witness(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "directed": True,
                "edges": [{"src": 0, "dst": 1, "color": "blue"}],
                "meta": {"k": 1},
            }
        )
    )
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 1


def _witness_with_threads(round33, tmp_path, capsys, k, edit):
    """The `decide --k k` witness of round 3x3 with `edit` applied to its meta.threads."""
    code, out, _ = run(capsys, "decide", "--k", str(k), str(round33))
    assert code == 0
    doc = json.loads(out)
    doc["meta"]["threads"] = edit(doc["meta"]["threads"])
    path = tmp_path / f"witness{k}.json"
    path.write_text(json.dumps(doc))
    return path


def test_validate_checks_meta_threads_against_the_thread_arcs(round33, tmp_path, capsys):
    path = _witness_with_threads(round33, tmp_path, capsys, 1, lambda _: [[0, 0, 1]])
    code, out, err = run(capsys, "validate", "--json", str(path))
    assert code == 1
    assert json.loads(out) == {
        "valid": False, "threads": 1,
        "problems": ["meta.threads does not match the thread arcs"],
    }
    assert err == ""
    # the order of the threads is not part of the witness
    path = _witness_with_threads(round33, tmp_path, capsys, 2, lambda t: t[::-1])
    code, out, _ = run(capsys, "validate", "--json", str(path))
    assert code == 0
    assert json.loads(out) == {"valid": True, "threads": 2, "problems": []}


def test_validate_checks_meta_threads_without_k(tmp_path, capsys):
    path = tmp_path / "chain.json"
    for threads, code_wanted, payload in (
        ([[0, 0, 1]], 1, {"valid": False, "kind": "graph", "problems": [cli.NOT_A_COVER]}),
        ([[0, 1, 2]], 0, {"valid": True, "kind": "graph"}),
    ):
        path.write_text(json.dumps(
            {"n": 3, "directed": True, "edges": _CHAIN, "meta": {"threads": threads}}
        ))
        code, out, err = run(capsys, "validate", "--json", str(path))
        assert (code, json.loads(out), err) == (code_wanted, payload, "")


def test_planar_and_hamiltonian(round33, capsys):
    code, _, _ = run(capsys, "planar", str(round33))
    assert code == 0
    code, out, _ = run(capsys, "hamiltonian", "--json", str(round33))
    assert code == 0
    assert json.loads(out)["order"] == list(range(9))


@pytest.mark.parametrize(
    "command, out_wanted",
    [
        ("planar", "planar\n"),
        ("classify", "class0 (planar=True, red-crossings=False, blue-crossings=False)\n"),
        ("rows", "4\n"),
    ],
    ids=["planar", "classify", "rows"],
)
def test_planar_reads_a_crossing_free_drawing_first(
    tmp_path, capsys, monkeypatch, command, out_wanted
):
    flat, cable = tmp_path / "flat.json", tmp_path / "c1b.json"
    run(capsys, "gen", "--pattern", "stockinette", "--rows", "4", "--cols", "4", "-o", str(flat))
    run(capsys, "gen", "--pattern", "c1b", "-o", str(cable))
    # the cable's drawing has a crossing, so networkx decides
    c1b = gen_stitch_fixture("c1b").graph
    expected = nx.check_planarity(nx.Graph((s, d) for s, d, _ in c1b.edges))[0]
    code, out, _ = run(capsys, "planar", "--json", str(cable))
    assert (code, json.loads(out)) == (0 if expected else 1, {"planar": expected})

    def refuse(*_args, **_kwargs):
        raise AssertionError("networkx planarity test ran")

    # `is_planar` imports networkx when it runs, so the patch goes on the package
    monkeypatch.setattr(nx, "check_planarity", refuse)
    assert run(capsys, command, str(flat)) == (0, out_wanted, "")


@pytest.mark.parametrize(
    "command", [["decide"], ["decide", "--sweep"], ["cover"], ["hamiltonian"]],
    ids=["decide", "sweep", "cover", "hamiltonian"],
)
def test_cycle_is_named_on_stderr(tmp_path, capsys, command):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"n": 3, "directed": True, "edges": [
        {"src": 0, "dst": 1}, {"src": 1, "dst": 2}, {"src": 2, "dst": 0},
    ]}))
    assert run(capsys, *command, str(path)) == (
        2, "", "error: graph is not a DAG: cycle 0 -> 1 -> 2 -> 0\n"
    )


def _yarn_doc(tmp_path):
    path = tmp_path / "yarn-min.json"
    edges = [(0, 1), (1, 0), (0, 1), (1, 2)]
    path.write_text(json.dumps({
        "n": 3, "directed": True, "multigraph": True,
        "edges": [{"src": s, "dst": d} for s, d in edges],
    }))
    return path


def test_parser_is_built_once_and_answers_like_a_fresh_one(round33, tmp_path, capsys, monkeypatch):
    assert build_parser() is not build_parser()
    yarn = _yarn_doc(tmp_path)
    argvs = [
        ["decide", "--frobnicate", str(round33)],
        ["--help"],
        ["decide", "--sweep", "--json", str(round33)],
        ["cover", "--json", str(round33)],
        ["yarn", "min-k", "--json", str(yarn)],
    ]
    parser = cli._parser  # built by the round33 fixture's `gen` call
    assert parser is not None
    reused = [run(capsys, *argv) for argv in argvs]
    assert cli._parser is parser
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", build_parser())
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in reused] == [2, 0, 0, 0, 0]
    assert reused == fresh
    assert reused[1][1].startswith("usage: knitgraph")


def test_unexpected_exception_is_status_2(round33, capsys, monkeypatch):
    def broken(_graph):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(cli, "minimum_path_cover", broken)
    code, out, err = run(capsys, "cover", "--json", str(round33))
    assert code == 2
    assert out == ""
    assert err == "error: RuntimeError: solver blew up\n"


_CHAIN = [{"src": 0, "dst": 1, "color": "blue"}, {"src": 1, "dst": 2, "color": "blue"}]
_LAYOUT = {"0": [0, 0], "1": [0, 1], "2": [0, 2]}
_ROUND33 = json.loads(serialize_json(gen_stockinette(3, 3, round=True).graph))


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["validate"], {"edges": [{"src": 0, "dst": 1, "color": []}]}),
        (["validate"], {"edges": [{"src": 0, "dst": 1, "color": {}}]}),
        (["validate"], {"edges": _CHAIN, "meta": {"k": "x"}}),
        (["validate"], {"edges": _CHAIN, "meta": {"k": True}}),
        (["validate", "--json"], {"edges": _CHAIN, "meta": []}),
        (["yarn", "check"], {"multigraph": True, "edges": [{"src": 0, "dst": 1}],
                             "meta": {"k": "q"}}),
        (["rows", "--json"], {"edges": _CHAIN, "layout": _LAYOUT, "meta": {"threads": 5}}),
        (["rows", "--json"], {"edges": _CHAIN, "layout": _LAYOUT,
                              "meta": {"threads": [[0, "a"]]}}),
        (["rows", "--json"], {**_ROUND33, "meta": {"threads": [[0, 0, 1]]}}),
        (["rows", "--json"], {**_ROUND33, "meta": {"threads": [[0, 1, 2]]}}),
        (["rows", "--json"], {"edges": _CHAIN, "meta": {"threads": [[0, 1], [1, 2]]}}),
        (["rows", "--json"], {"edges": _CHAIN, "meta": {"threads": [[0, 2, 1]]}}),
        (["rows", "--json"], {"edges": _CHAIN, "meta": {"threads": [[2, 1, 0]]}}),
        (["rows", "--json"], {"edges": _CHAIN, "meta": {"threads": [[0, 1, 2], []]}}),
        (["classify", "--json"], {"edges": _CHAIN, "layout": _LAYOUT,
                                  "meta": {"multi_orientation": "false"}}),
        (["classify", "--json"], {"edges": _CHAIN, "meta": {"multi_orientation": 1}}),
        (["classify", "--json"], {"edges": _CHAIN, "meta": {"multi_orientation": "yes"}}),
        (["decide", "--json"], {"directed": False, "edges": _CHAIN}),
        (["yarn", "min-k"], {"directed": False, "multigraph": True,
                             "edges": [{"src": 0, "dst": 1}]}),
    ],
    ids=["color-list", "color-dict", "k-str", "k-bool", "meta-empty-list", "yarn-k-str",
         "threads-int",
         "threads-str-id", "threads-repeat-vertex", "threads-miss-vertices",
         "threads-share-vertex", "threads-step-off-arcs", "threads-step-against-arcs",
         "threads-empty-thread", "multi-orientation-str", "multi-orientation-int",
         "multi-orientation-yes", "undirected", "undirected-yarn"],
)
def test_bad_meta_and_colors_are_schema_errors(tmp_path, capsys, argv, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "directed": True, **doc}))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["decide"], ["oracle"], ["yarn", "check"]],
                         ids=["decide", "oracle", "yarn-check"])
def test_negative_k_is_a_usage_error(round33, tmp_path, capsys, command):
    path = _yarn_doc(tmp_path) if command[0] == "yarn" else round33
    for bad in ("-1", "x"):
        code, out, err = run(capsys, *command, "--k", bad, str(path))
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1
        assert f"argument --k: expected a non-negative int, found '{bad}'" in err
    # k = 0 is still a query, answered with a negative verdict
    code, out, _ = run(capsys, *command, "--k", "0", "--json", str(path))
    assert code == 1
    assert json.loads(out)


def test_negative_cap_is_a_usage_error(round33, capsys):
    for bad in ("-1", "x"):
        code, out, err = run(capsys, "oracle", "--cap", bad, str(round33))
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1
        assert f"argument --cap: expected a non-negative int, found '{bad}'" in err
    # a cap below n is still answered, by the oracle's own refusal
    code, out, err = run(capsys, "oracle", "--cap", "0", str(round33))
    assert code == 2
    assert err == "error: graph has 9 vertices; brute force is capped at 0\n"


@pytest.mark.parametrize("command", [["cover"], ["rows"], ["cablewidth"], ["yarn", "min-k"]],
                         ids=["cover", "rows", "cablewidth", "yarn-min-k"])
def test_rule_is_refused_where_no_rule_applies(tmp_path, capsys, command):
    path = tmp_path / "c1b.json"
    assert run(capsys, "gen", "--pattern", "c1b", "-o", str(path))[0] == 0
    code, out, err = run(capsys, *command, "--rule", "strict", str(path))
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --rule" in err


class _ReadLog(argparse.Namespace):
    """A namespace that records every attribute read once `_reads` is set."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("_reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


def _leaf_parsers(parser, words=()):
    """(command words, parser) of every subcommand that takes no further one."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, (*words, name))
            return
    yield words, parser


def test_every_option_is_read(round33, tmp_path, capsys):
    c1b, yarn, out = tmp_path / "c1b.json", _yarn_doc(tmp_path), str(tmp_path / "out.json")
    assert run(capsys, "gen", "--pattern", "c1b", "-o", str(c1b))[0] == 0
    piece = str(round33)
    patterns = ["stockinette", "yo", "kfb", "k2tog", "c1b", "brioche"]
    # each subcommand on valid input, in every mode one of its flags selects
    modes = {
        ("validate",): [[piece]],
        ("decide",): [["--k", "1", piece], ["--sweep", piece]],
        ("cover",): [[piece]],
        ("oracle",): [["--k", "1", piece], ["--k", "0", piece]],
        ("classify",): [[piece]],
        ("rows",): [[piece]],
        ("cablewidth",): [[str(c1b)]],
        ("yarn", "check"): [["--k", "1", str(yarn)]],
        ("yarn", "min-k"): [[str(yarn)]],
        ("gen",): [["--pattern", p, "--cols", "4", "-o", out] for p in patterns],
        ("convert",): [["--to", "dot", piece], ["--to", "json", piece]],
        ("table",): [[]],
        ("planar",): [[piece]],
        ("hamiltonian",): [[piece]],
    }
    parser = build_parser()
    leaves = dict(_leaf_parsers(parser))
    assert set(leaves) == set(modes)
    unread = {}
    for words, argvs in modes.items():
        reads = set()
        for argv in argvs:
            args = parser.parse_args([*words, *argv], namespace=_ReadLog())
            object.__setattr__(args, "_reads", reads)
            assert args.func(args) in (0, 1), (words, argv)
        options = {a.dest for a in leaves[words]._actions
                   if not isinstance(a, argparse._HelpAction)}
        if words in (("gen",), ("convert",)):
            options.discard("json")  # the README promises --json on every command
        if options - reads:
            unread[" ".join(words)] = sorted(options - reads)
    capsys.readouterr()
    assert unread == {}


@pytest.fixture
def collector():
    """Leave the cyclic collector enabled after the test, whatever it did."""
    yield
    gc.enable()


@pytest.mark.parametrize(
    "argv, raises, expected",
    [
        (["cover", "--json", "PIECE"], None, 0),
        (["decide", "--k", "4", "--json", "PIECE"], None, 1),
        (["decide", "--k", "1", "/nonexistent/missing.json"], None, 2),
        (["cover", "--json", "PIECE"], RuntimeError("solver blew up"), 2),
        (["cover", "--json", "PIECE"], KeyboardInterrupt(), KeyboardInterrupt),
        (["cover", "--frobnicate", "PIECE"], None, 2),
    ],
    ids=["ok", "negative", "error", "stray-exception", "interrupt", "usage"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_collector_setting_is_restored(round33, capsys, monkeypatch, collector,
                                       argv, raises, expected, enabled):
    seen = []  # the collector's state inside the command
    if raises is not None:
        def broken(_graph):
            seen.append(gc.isenabled())
            raise raises

        monkeypatch.setattr(cli, "minimum_path_cover", broken)
    argv = [str(round33) if word == "PIECE" else word for word in argv]
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if expected is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == expected
    capsys.readouterr()
    assert gc.isenabled() is enabled
    assert seen == ([] if raises is None else [False])


def test_no_collection_runs_during_a_command(tmp_path, capsys, collector):
    path = tmp_path / "round20.json"
    assert run(capsys, "gen", "--pattern", "stockinette", "--rows", "20", "--cols", "20",
               "--round", "-o", str(path))[0] == 0
    gc.enable()
    gc.collect()
    collections = []

    def probe(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(probe)
    try:
        code = main(["decide", "--k", "1", "--json", str(path)])
    finally:
        gc.callbacks.remove(probe)
    assert code == 0 and json.loads(capsys.readouterr().out)["meta"]["k"] == 1
    assert collections == []


@pytest.mark.parametrize("side", [3, 30])  # answer buffered / larger than a pipe holds
def test_closed_stdout_is_status_141_and_silent(tmp_path, capsys, side):
    path = tmp_path / "round.json"
    assert run(capsys, "gen", "--pattern", "stockinette", "--rows", str(side),
               "--cols", str(side), "--round", "-o", str(path))[0] == 0
    src = str(Path(knitgraph.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        done = subprocess.run(
            [sys.executable, "-m", "knitgraph", "decide", "--k", "1", "--json", str(path)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == cli.BROKEN_PIPE == 141
    assert done.stderr == b""
