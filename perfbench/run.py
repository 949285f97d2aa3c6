"""knitgraph benchmark: CLI-level timings on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark calls `knitgraph.cli.main(argv)`
in this process as a closed loop with one client: one call at a time, its
stdout and stderr captured, and its exit code and output checked against
an answer computed in set-up. It repeats passes over the workload's op
list until it has measured S seconds of calls, then prints one line per
metric and a JSON summary as the last line. With --trace 1 it alternates
untraced and traced passes, reports the per-layer metrics, and writes
every span to .perfbench/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
OUT = REPO / ".perfbench"
SETUP_REPEATS = 3
PERCENTILE_MIN_CALLS = 100  # per pass, so p90 has at least ten samples beyond it

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# op kind -> metric: total time in that op's calls during one pass
OP_METRICS = {
    "decide": "decide_s",
    "sweep": "sweep_s",
    "cover": "cover_s",
    "validate": "validate_s",
    "yarn_min_k": "yarn_min_k_s",
    "classify": "classify_s",
    "cablewidth": "cablewidth_s",
}


def _import_knitgraph() -> None:
    """Put the checkout's sources first on the path and import knitgraph."""
    if not (SRC / "knitgraph" / "__init__.py").is_file():
        raise SystemExit(f"error: no knitgraph sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import knitgraph.cli  # noqa: F401  (networkx comes with it)


def _import_seconds() -> float:
    """Time `import knitgraph.cli` in a fresh interpreter, so it can be repeated."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "start = time.perf_counter(); import knitgraph.cli; "
            "print(time.perf_counter() - start)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


@dataclass
class Pass:
    wall: float = 0.0  # summed latency of the pass's calls
    by_kind: dict[str, float] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)


class Client:
    """Runs passes over a workload and checks every call's answer."""

    def __init__(self, workload):
        from knitgraph import cli

        self.cli = cli  # main is looked up per call, so a traced pass sees the wrapper
        self.workload = workload
        self.verified: list[set] = [set() for _ in workload.ops]
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self) -> Pass:
        result = Pass()
        for i, op in enumerate(self.workload.ops):
            out, err = io.StringIO(), io.StringIO()
            crash = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(op.argv)
            except Exception:  # a crash is a failed op; the run goes on
                rc, crash = None, traceback.format_exc()
            elapsed = time.perf_counter() - start
            result.wall += elapsed
            result.by_kind[op.kind] = result.by_kind.get(op.kind, 0.0) + elapsed
            result.latencies.append(elapsed)
            self.attempted += 1
            stdout, stderr = out.getvalue(), err.getvalue()
            if op.save_stdout is not None:
                op.save_stdout.write_text(stdout)
            self._verify(i, op, rc, stdout, stderr, crash)
        return result

    def _verify(self, i, op, rc, stdout, stderr, crash) -> None:
        """Check an answer against the reference; identical answers are checked once."""
        key = (rc, hash(stdout), hash(stderr))
        if crash is None and key in self.verified[i]:
            return
        reason = crash or op.check(rc, stdout, stderr)
        if reason is None:
            self.verified[i].add(key)
        else:
            self.failures.append(f"{' '.join(op.argv)}: {reason}")


def _commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git repository."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload: str, seed: int, trace: bool) -> dict:
    import networkx

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


def _setup(build, workload: str, seed: int, work: Path, size) -> tuple[object, list, list]:
    """Import and build SETUP_REPEATS times; return the last build and the timings."""
    setup_times, gen_times = [], []
    for _ in range(SETUP_REPEATS):
        wl = None  # free the previous build before making the next
        import_s = _import_seconds()
        start = time.perf_counter()
        wl = build(workload, seed, work, size)
        setup_times.append(import_s + time.perf_counter() - start)
        gen_times.append(wl.gen_s)
    return wl, setup_times, gen_times


def _measure(client: Client, seconds: float, tracer) -> tuple[list[Pass], list[Pass]]:
    """Untraced passes, and with a tracer traced ones in between.

    Passes run until the measured call time reaches `seconds`; checking
    answers and writing witnesses is not measured.
    """
    plain: list[Pass] = []
    traced: list[Pass] = []
    while True:
        if tracer is not None and len(traced) < len(plain):
            tracer.begin_pass()
            with tracer.patched():
                traced.append(client.run_pass())
        else:
            plain.append(client.run_pass())
        if tracer is not None and not traced:
            continue
        if sum(p.wall for p in plain + traced) >= seconds:
            return plain, traced


def _end_to_end(client: Client, plain: list[Pass], setup_s: float) -> tuple[dict, dict, dict]:
    """Every end-to-end metric this workload has: values, units and notes."""
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = dict(E2E_UNITS)
    notes = {"setup_s": f"median of {SETUP_REPEATS} set-ups",
             "wall_s": f"median of {len(plain)} passes"}
    for kind, metric in OP_METRICS.items():
        times = [p.by_kind[kind] for p in plain if kind in p.by_kind]
        if times:
            values[metric], units[metric] = statistics.median(times), "s"
    failed = len(client.failures)
    values["fail_ratio"], units["fail_ratio"] = failed / client.attempted, "ratio"
    notes["fail_ratio"] = f"{failed} of {client.attempted} ops attempted"
    if len(client.workload.ops) >= PERCENTILE_MIN_CALLS:
        latencies = [t * 1000 for p in plain for t in p.latencies]
        values["call_p50_ms"] = statistics.median(latencies)
        values["call_p90_ms"] = statistics.quantiles(latencies, n=10)[8]
        units["call_p50_ms"] = units["call_p90_ms"] = "ms"
        notes["call_p50_ms"] = notes["call_p90_ms"] = f"{len(latencies)} calls"
    return values, units, notes


def run(workload: str, seed: int, seconds: float, trace: bool, size=None) -> tuple[list[str], dict]:
    """One benchmark run: report lines plus the summary object."""
    _import_knitgraph()
    import spans
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}")
    work = OUT / f"work-{workload}-{os.getpid()}"
    tracer = spans.Tracer() if trace else None
    try:
        wl, setup_times, gen_times = _setup(workloads.build, workload, seed, work,
                                            size or workloads.FULL)
        client = Client(wl)
        plain, traced = _measure(client, seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e, units, notes = _end_to_end(client, plain, statistics.median(setup_times))
    info = stamp(workload, seed, trace)
    lines = ["stamp " + json.dumps(info)]
    lines += [_line(m, v, units[m], notes.get(m)) for m, v in e2e.items()]
    if tracer is None:
        metrics = {m: {"value": e2e[m], "unit": unit} for m, unit in E2E_UNITS.items()}
    else:
        layer = tracer.metrics()
        layer["patterns.gen_s"] = statistics.median(gen_times)
        layer["trace.overhead_s"] = statistics.median(p.wall for p in traced) - e2e["wall_s"]
        layer_units = {m: unit for m, (unit, _src) in spans.LAYER_METRICS.items()}
        layer_units["patterns.gen_s"] = layer_units["trace.overhead_s"] = "s"
        lines += [_line(m, v, layer_units[m], None) for m, v in layer.items()]
        metrics = {m: {"value": v, "unit": layer_units[m]} for m, v in layer.items()}
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{workload}.jsonl", "w") as fh:
            tracer.write(fh, {"stamp": info})
    lines += [f"FAILED {reason}" for reason in client.failures[:20]]
    failed = len(client.failures)
    summary = {"correct": failed == 0, "attempted": client.attempted, "failed": failed,
               "metrics": metrics}
    return lines, summary


def _line(name: str, value: float, unit: str, note: str | None) -> str:
    text = f"{name:<34} {value:>14.6f} {unit}"
    return f"{text}  ({note})" if note else text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    lines, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
