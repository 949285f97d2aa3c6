"""Self-tests of the benchmark at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re

import pytest

import run as bench
import spans
import workloads

SPEC = json.loads((bench.REPO / "BENCHMARK.json").read_text())
LINE = re.compile(r"^(\S+)\s+(-?[\d.]+)\s+(\S+)")

# Per-op metrics each workload runs, by the op list in workloads.py.
OP_METRICS = {
    "round-large": {"decide_s", "validate_s", "cover_s", "yarn_min_k_s"},
    "dag-batch": {"decide_s", "sweep_s", "cover_s", "call_p50_ms", "call_p90_ms"},
    "flat-layout": {"classify_s", "cablewidth_s"},
}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """(workload, trace, repeat) -> (metric lines, summary), one pass or two each."""
    out = tmp_path_factory.mktemp("perfbench")
    mp = pytest.MonkeyPatch()
    mp.setattr(bench, "OUT", out)
    cache = {}

    def get(workload: str, trace: bool, repeat: int = 0):
        key = (workload, trace, repeat)
        if key not in cache:
            lines, summary = bench.run(workload, 7, 0.0, trace, workloads.TINY)
            metrics = {m.group(1): (float(m.group(2)), m.group(3))
                       for m in map(LINE.match, lines) if m}
            cache[key] = metrics, summary
        return cache[key]

    yield get
    mp.undo()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_printed_with_unit(results, workload):
    printed, summary = results(workload, False)
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    named = {name: unit for name, (_v, unit) in printed.items()}
    for metric in OP_METRICS[workload]:
        assert named[metric] == ("ms" if metric.endswith("_ms") else "s")
    assert {m: named[m] for m in e2e} == e2e
    assert named["fail_ratio"] == "ratio"
    assert {m: v["unit"] for m, v in summary["metrics"].items()} == e2e
    assert all(v["value"] > 0 for v in summary["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_op_fails(results, workload):
    printed, summary = results(workload, False)
    assert printed["fail_ratio"][0] == 0
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(results, workload):
    _printed, summary = results(workload, True)
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {m: v["unit"] for m, v in summary["metrics"].items()} == layer
    assert summary["correct"]


def test_runs_leave_every_patched_name_as_it_was(results):
    before = [(holder, attr, original) for holder, attr, original in spans.import_sites()]
    results("flat-layout", False, repeat=2)
    results("flat-layout", True, repeat=2)
    assert all(getattr(holder, attr) is original for holder, attr, original in before)
    assert spans.import_sites() == before


def test_import_sites_include_from_imports():
    sites = {(holder.__name__, attr) for holder, attr, _ in spans.import_sites()
             if hasattr(holder, "__name__")}
    assert {("knitgraph.cover", "solve_flow_with_bounds"),
            ("knitgraph.cover", "classify_vertex"),
            ("knitgraph.cli", "decide_k_knittable")} <= sites


@pytest.mark.parametrize("workload", ["round-large", "dag-batch"])
def test_exact_counts_repeat(results, workload):
    counts = ("flows.solve_calls", "feasibility.classify_vertex_calls", "graphs.edges_validated")
    first = results(workload, True, 0)[1]["metrics"]
    second = results(workload, True, 1)[1]["metrics"]
    for name in counts:
        assert first[name]["value"] == second[name]["value"] > 0
