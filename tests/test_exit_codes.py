"""Exit-code contract of the CLI under mutated input documents.

Every file-reading subcommand runs through `main()` on documents derived
from valid ones by dropping or retyping fields. Status 0 and 1 are answers
(1 is a negative verdict and always prints one), 2 is a bad input with one
`error:` line on stderr, and nothing escapes as an exception.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from knitgraph import GraphDocument, decide_k_knittable, gen_stitch_fixture, gen_stockinette
from knitgraph.cli import main
from knitgraph.serialize import serialize_json

COMMANDS = [
    ["validate"],
    ["decide", "--k", "1"],
    ["decide", "--k", "2"],
    ["decide", "--sweep"],
    ["cover"],
    ["oracle", "--k", "1"],
    ["classify"],
    ["rows"],
    ["cablewidth"],
    ["yarn", "check", "--k", "1"],
    ["yarn", "check"],
    ["yarn", "min-k"],
    ["convert", "--to", "dot"],
    ["convert", "--to", "json"],
    ["planar"],
    ["hamiltonian"],
]

# An unexpected exception turned into status 2 reads "error: <Type>: ...".
UNEXPECTED = re.compile(r"error: [A-Z]\w*: ")


def _seed_documents() -> list[dict]:
    round33 = gen_stockinette(3, 3, round=True)
    kfb = gen_stitch_fixture("kfb")
    witness, _cover = decide_k_knittable(round33.graph, 1)
    docs = [
        GraphDocument(round33.graph, round33.layout,
                      {"k": 1, "threads": [list(t) for t in round33.cover]}),
        GraphDocument(kfb.graph, kfb.layout, {"k": kfb.k, "multi_orientation": False}),
        GraphDocument(kfb.yarn),
        GraphDocument(witness, None, {"k": 1}),
    ]
    out = [json.loads(serialize_json(doc)) for doc in docs]
    # the uncolored decision input
    plain = json.loads(serialize_json(round33.graph))
    for e in plain["edges"]:
        e["color"] = None
    return out + [plain]


SEEDS = _seed_documents()

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(-2, 12), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 3), max_size=2),
)
COLORS = st.sampled_from(["blue", "red", "purple", None, "green", "", [], {}, ["red"], 1])
TOP_FIELDS = ["n", "directed", "multigraph", "edges", "layout", "meta"]


@st.composite
def mutated_documents(draw) -> dict:
    doc = json.loads(json.dumps(draw(st.sampled_from(SEEDS))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["top", "edge", "edge-swap", "k", "threads", "layout"]))
        edges = doc.get("edges")
        if kind == "top":
            key = draw(st.sampled_from(TOP_FIELDS))
            if draw(st.booleans()):
                doc.pop(key, None)
            else:
                doc[key] = draw(JUNK)
        elif kind in ("edge", "edge-swap") and isinstance(edges, list) and edges:
            i = draw(st.integers(0, len(edges) - 1))
            if kind == "edge-swap":
                # a duplicate, reversed, self-looped or out-of-range arc
                n = doc.get("n") if isinstance(doc.get("n"), int) else 9
                ends = st.integers(-1, n + 1)
                edges.append({"src": draw(ends), "dst": draw(ends), "color": draw(COLORS)})
            elif not isinstance(edges[i], dict) or draw(st.integers(0, 4)) == 0:
                edges[i] = draw(JUNK)
            else:
                key = draw(st.sampled_from(["src", "dst", "color"]))
                choice = draw(st.integers(0, 2))
                if choice == 0:
                    edges[i].pop(key, None)
                elif key == "color":
                    edges[i][key] = draw(COLORS)
                else:
                    edges[i][key] = draw(st.one_of(JUNK, st.integers(-1, 12)))
        elif kind in ("k", "threads"):
            meta = doc.get("meta")
            if not isinstance(meta, dict):
                meta = doc["meta"] = {}
            if kind == "k":
                meta["k"] = draw(st.one_of(JUNK, st.integers(-1, 4)))
            else:
                vertex = st.one_of(st.integers(-1, 12), JUNK)
                meta["threads"] = draw(st.one_of(
                    JUNK, st.lists(st.one_of(st.lists(vertex, max_size=10), JUNK), max_size=3)
                ))
        elif kind == "layout" and isinstance(doc.get("layout"), dict) and doc["layout"]:
            key = draw(st.sampled_from(sorted(doc["layout"])))
            if draw(st.booleans()):
                del doc["layout"][key]
            else:
                doc["layout"][key] = draw(st.one_of(JUNK, st.lists(JUNK, max_size=3)))
    return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_contract(path) -> None:
    for command in COMMANDS:
        code, out, err = _run([*command, "--json", str(path)])
        where = f"{' '.join(command)} on {path.read_text()[:300]}"
        assert code in (0, 1, 2), where
        if code == 2:
            assert out == "", where
            assert err.startswith("error: ") and err.count("\n") == 1, where
            assert not UNEXPECTED.match(err), f"{where}: {err}"
        else:
            assert err == "", where
            assert out.strip(), where
            if command != ["convert", "--to", "dot"]:
                json.loads(out)  # an answer, machine-readable under --json


def test_seed_documents_are_answered(doc_path):
    for doc in SEEDS:
        doc_path.write_text(json.dumps(doc))
        _check_contract(doc_path)


def test_oracle_refuses_a_seed_exactly_when_decide_does(doc_path):
    refused = 0
    for doc in SEEDS:
        doc_path.write_text(json.dumps(doc))
        decided = _run(["decide", "--k", "1", "--json", str(doc_path)])
        checked = _run(["oracle", "--k", "1", "--json", str(doc_path)])
        assert (decided[0] == 2) == (checked[0] == 2), doc
        if decided[0] == 2:
            refused += 1
            assert checked[2] == decided[2], doc  # the same refusal
    assert refused == 2  # the purple kfb piece and the multigraph


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_documents())
def test_mutated_documents_keep_the_exit_code_contract(doc_path, doc):
    doc_path.write_text(json.dumps(doc))
    _check_contract(doc_path)


@settings(max_examples=100, deadline=None)
@given(raw=st.one_of(st.binary(max_size=40), JUNK.map(json.dumps)))
def test_junk_files_are_status_2(doc_path, raw):
    doc_path.write_bytes(raw if isinstance(raw, bytes) else raw.encode())
    for command in COMMANDS:
        code, out, err = _run([*command, str(doc_path)])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and not UNEXPECTED.match(err), err
