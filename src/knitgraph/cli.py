"""Command-line interface.

Exit status: 0 affirmative/success, 1 negative answer (infeasible, invalid
witness, not planar), 2 invalid input, usage, or any other error (one line
on stderr, no traceback), 141 (128 + SIGPIPE) when the reader closed stdout
before the answer was written (nothing on stderr). Results go to stdout,
diagnostics to stderr; --json switches stdout to machine-readable form.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .cover import (
    brute_force_knittable,
    decide_k_knittable,
    has_hamiltonian_path_dag,
    is_thread_cover,
    minimum_path_cover,
    sweep_feasible_k,
)
from .errors import KnitError
from .feasibility import (
    RedRule,
    check_coloring,
    feasibility_table,
    format_role_set,
    thread_paths,
)
from .graphs import DirectedKnitGraph, EdgeColor, YarnGraph, underlying_knitting_graph
from .layout import cable_width, classify_complexity, count_rows, crossing_graph, is_planar_drawn
from .patterns import (
    gen_brioche_maximal,
    gen_stitch_fixture,
    gen_stockinette,
)
from .serialize import GraphDocument, export_dot, parse_document, serialize_json
from .yarn import is_yarn_graph_of_k_knittable, minimum_yarns

OK = 0
NEGATIVE = 1
ERROR = 2
BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it

NOT_A_COVER = "meta.threads must split the vertices into paths along arcs"


def _rule(args) -> RedRule:
    return RedRule(args.rule)


def _load(path: str) -> GraphDocument:
    with open(path, "rb") as fh:
        return parse_document(fh.read())


def _load_knit(path: str) -> GraphDocument:
    doc = _load(path)
    if not isinstance(doc.graph, DirectedKnitGraph):
        raise KnitError(f"{path}: expected a knitting graph, found a multigraph")
    return doc


def _emit(args, data: dict, text: str) -> None:
    print(json.dumps(data) if args.json else text)


def _cover_from_doc(doc: GraphDocument):
    threads = doc.meta.get("threads")
    if threads is not None:
        if not is_thread_cover(doc.graph, threads):
            raise KnitError(NOT_A_COVER)
        return tuple(tuple(t) for t in threads)
    paths, problems = thread_paths(doc.graph)
    if problems:
        raise KnitError("; ".join(problems))
    return paths


def _cmd_validate(args) -> int:
    doc = _load(args.file)
    graph = doc.graph
    if isinstance(graph, YarnGraph):
        _emit(args, {"valid": True, "kind": "yarn"}, "valid yarn graph")
        return OK
    k = doc.meta.get("k")
    threads = doc.meta.get("threads")
    if EdgeColor.UNCOLORED not in graph.colors() and k is not None:
        report = check_coloring(graph, k, _rule(args))
        problems = report.problems
        if threads is not None and sorted(map(tuple, threads)) != sorted(report.threads):
            problems = [*problems, "meta.threads does not match the thread arcs"]
        valid = not problems
        payload = {
            "valid": valid,
            "threads": len(report.threads),
            "problems": problems,
        }
        _emit(args, payload, "valid witness" if valid else
              "invalid witness:\n  " + "\n  ".join(problems))
        return OK if valid else NEGATIVE
    if threads is not None and not is_thread_cover(graph, threads):
        _emit(args, {"valid": False, "kind": "graph", "problems": [NOT_A_COVER]},
              "invalid graph:\n  " + NOT_A_COVER)
        return NEGATIVE
    _emit(args, {"valid": True, "kind": "graph"}, "valid graph")
    return OK


def _emit_verdict(args, k: int, result) -> int:
    """Print a k-thread verdict: the witness document, or the negative one."""
    if result is None:
        _emit(args, {"feasible": False, "k": k}, "infeasible")
        return NEGATIVE
    witness, cover = result
    meta = {"k": k, "threads": [list(t) for t in cover]}
    print(serialize_json(GraphDocument(witness, None, meta)).decode())
    return OK


def _cmd_decide(args) -> int:
    doc = _load_knit(args.file)
    rule = _rule(args)
    if args.sweep:
        ks = sweep_feasible_k(doc.graph, rule)
        _emit(args, {"feasible_k": ks}, "feasible k: " + (" ".join(map(str, ks)) or "none"))
        return OK if ks else NEGATIVE
    k = 1 if args.k is None else args.k
    return _emit_verdict(args, k, decide_k_knittable(doc.graph, k, rule))


def _cmd_cover(args) -> int:
    doc = _load_knit(args.file)
    k, threads = minimum_path_cover(doc.graph)
    payload = {"k": k, "threads": [list(t) for t in threads]}
    _emit(args, payload, f"minimum path cover: {k}\n" +
          "\n".join("  " + " ".join(map(str, t)) for t in threads))
    return OK


def _cmd_oracle(args) -> int:
    doc = _load_knit(args.file)
    return _emit_verdict(
        args, args.k, brute_force_knittable(doc.graph, args.k, _rule(args), cap=args.cap)
    )


def _cmd_classify(args) -> int:
    doc = _load_knit(args.file)
    report = classify_complexity(
        doc.graph,
        doc.layout,
        _rule(args),
        multi_orientation=bool(doc.meta.get("multi_orientation")),
    )
    payload = {
        "class": report.complexity.value,
        "planar": report.planar,
        "crossings_on_red": report.crossings_on_red,
        "crossings_on_blue": report.crossings_on_blue,
    }
    _emit(args, payload, f"{report.complexity.value} (planar={report.planar}, "
          f"red-crossings={report.crossings_on_red}, blue-crossings={report.crossings_on_blue})")
    return OK


def _cmd_rows(args) -> int:
    doc = _load_knit(args.file)
    cover = _cover_from_doc(doc)
    rows = count_rows(doc.graph, cover, doc.layout)
    _emit(args, {"rows": rows}, str(rows))
    return OK


def _cmd_cablewidth(args) -> int:
    doc = _load_knit(args.file)
    if doc.layout is None:
        raise KnitError("cablewidth needs a layout block in the input file")
    width = cable_width(doc.graph, doc.layout)
    _emit(args, {"cable_width": width}, str(width))
    return OK


def _cmd_yarn(args) -> int:
    doc = _load(args.file)
    graph = doc.graph
    if not isinstance(graph, YarnGraph):
        raise KnitError(f"{args.file}: expected a multigraph document")
    if args.yarn_command == "check":
        k = args.k if args.k is not None else graph.yarn_count_hint
        if k is None:
            raise KnitError("no yarn count: pass --k or set meta.k")
        report = is_yarn_graph_of_k_knittable(graph, k, _rule(args))
        payload = {
            "ok": report.ok,
            "min_yarns": report.min_yarns,
            "threads": report.thread_paths,
            "reasons": report.reasons,
        }
        _emit(args, payload, ("yes" if report.ok else "no:\n  " + "\n  ".join(report.reasons)))
        return OK if report.ok else NEGATIVE
    k, trails = minimum_yarns(graph)
    degrees = graph.degrees()
    imbalances = [
        {"vertex": v, "excess": o - i} for v, (i, o) in enumerate(degrees) if i != o
    ]
    payload = {
        "k": k,
        "trails": [list(t.vertices) for t in trails],
        "imbalances": imbalances,
    }
    _emit(args, payload, f"minimum yarns: {k}")
    return OK


def _cmd_gen(args) -> int:
    if args.pattern == "stockinette":
        fixture = gen_stockinette(args.rows, args.cols, args.round)
    elif args.pattern == "brioche":
        fixture = gen_brioche_maximal(args.cols)
    else:
        fixture = gen_stitch_fixture(args.pattern)
    meta = {
        "k": fixture.k,
        "threads": [list(t) for t in fixture.cover],
        "expected_class": fixture.expected_class.value,
        "rule": fixture.rule.value,
    }
    data = serialize_json(
        GraphDocument(fixture.graph, fixture.layout, meta), indent=2
    )
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(data + b"\n")
    else:
        sys.stdout.write(data.decode() + "\n")
    return OK


def _cmd_convert(args) -> int:
    doc = _load(args.file)
    if args.to == "dot":
        graph = doc.graph
        if args.underlying and isinstance(graph, DirectedKnitGraph):
            graph = underlying_knitting_graph(graph)
        sys.stdout.write(export_dot(graph))
    else:
        sys.stdout.write(serialize_json(doc, indent=2).decode() + "\n")
    return OK


def _cmd_table(args) -> int:
    rule = _rule(args)
    table = feasibility_table(rule)
    if args.json:
        payload = {
            "rule": rule.value,
            "table": [[sorted(r.value for r in cell) for cell in row] for row in table],
        }
        print(json.dumps(payload))
        return OK
    header = ["indeg\\outdeg"] + [str(o) if o < 3 else ">=3" for o in range(4)]
    rows_text = [header]
    for i in range(4):
        label = str(i) if i < 3 else ">=3"
        rows_text.append([label] + [format_role_set(table[i][o]) for o in range(4)])
    widths = [max(len(r[c]) for r in rows_text) for c in range(5)]
    for r in rows_text:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    return OK


def _cmd_planar(args) -> int:
    doc = _load_knit(args.file)
    # colors are not read, so an uncolored piece still gets an answer
    cg = None if doc.layout is None else crossing_graph(doc.graph, doc.layout)
    ok = is_planar_drawn(doc.graph, cg)
    _emit(args, {"planar": ok}, "planar" if ok else "not planar")
    return OK if ok else NEGATIVE


def _cmd_hamiltonian(args) -> int:
    doc = _load_knit(args.file)
    order = has_hamiltonian_path_dag(doc.graph)
    if order is None:
        _emit(args, {"hamiltonian": False}, "no hamiltonian path")
        return NEGATIVE
    _emit(args, {"hamiltonian": True, "order": order}, " ".join(map(str, order)))
    return OK


def _non_negative_int(text: str) -> int:
    """Type of every --k flag and of --cap: a non-negative int, as for meta.k."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative int, found {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knitgraph",
        description="Decide knittability of graphs, analyze yarn graphs, and "
        "generate reference stitch patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rule=True):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if rule:
            p.add_argument(
                "--rule", choices=["strict", "extended"], default="strict",
                help="red-degree rule (default strict)",
            )

    p = sub.add_parser("validate", help="validate a graph file or witness")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("decide", help="decide exact-k thread feasibility of a DAG")
    p.add_argument("file")
    count = p.add_mutually_exclusive_group()
    # default None, not 1: argparse tells a flag from its default by
    # identity, so with default 1 it would let `--k 1 --sweep` through
    count.add_argument("--k", type=_non_negative_int, help="thread count (default 1)")
    count.add_argument("--sweep", action="store_true", help="report every feasible k")
    common(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("cover", help="minimum path cover of a DAG")
    p.add_argument("file")
    common(p, rule=False)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("oracle", help="exhaustive small-graph feasibility check")
    p.add_argument("file")
    p.add_argument("--k", type=_non_negative_int, default=1)
    p.add_argument("--cap", type=_non_negative_int, default=10, help="vertex cap (default 10)")
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("classify", help="knitting complexity class")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("rows", help="count knit rows of a single-thread piece")
    p.add_argument("file")
    common(p, rule=False)
    p.set_defaults(func=_cmd_rows)

    p = sub.add_parser("cablewidth", help="cable width of the embedded drawing")
    p.add_argument("file")
    common(p, rule=False)
    p.set_defaults(func=_cmd_cablewidth)

    p = sub.add_parser("yarn", help="yarn multigraph analysis")
    ysub = p.add_subparsers(dest="yarn_command", required=True)
    yc = ysub.add_parser("check", help="can this be a k-yarn trace?")
    yc.add_argument("file")
    yc.add_argument("--k", type=_non_negative_int, default=None)
    common(yc)
    yc.set_defaults(func=_cmd_yarn)
    ym = ysub.add_parser("min-k", help="minimum yarn count and trails")
    ym.add_argument("file")
    common(ym, rule=False)
    ym.set_defaults(func=_cmd_yarn)

    p = sub.add_parser("gen", help="generate a reference pattern file")
    p.add_argument(
        "--pattern", required=True,
        choices=["stockinette", "yo", "kfb", "k2tog", "c1b", "brioche"],
    )
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=3)
    p.add_argument("--round", action="store_true")
    p.add_argument("-o", "--output", default=None)
    common(p, rule=False)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("convert", help="convert a graph file to DOT or JSON")
    p.add_argument("file")
    p.add_argument("--to", choices=["dot", "json"], default="dot")
    p.add_argument("--underlying", action="store_true",
                   help="drop directions and colors first")
    common(p, rule=False)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("table", help="print the 4x4 degree feasibility table")
    common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("planar", help="is the underlying graph planar?")
    p.add_argument("file")
    common(p, rule=False)
    p.set_defaults(func=_cmd_planar)

    p = sub.add_parser("hamiltonian", help="hamiltonian path of a DAG, if any")
    p.add_argument("file")
    common(p, rule=False)
    p.set_defaults(func=_cmd_hamiltonian)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    """Run one command; safe to call repeatedly in one process.

    The parser is built on the first call and reused after it. Any
    exception other than the expected input errors also exits 2 with one
    line on stderr, so status 1 only ever means a negative verdict. A
    reader that closes stdout early gets 141 and nothing on stderr.

    The command runs with the cyclic garbage collector paused, and the
    caller's setting is restored on every exit. A command allocates one
    container per edge (JSON dicts, edge tuples), all acyclic and freed by
    reference counting, so on a large piece the collector would run
    full-heap passes that find nothing.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return ERROR if exc.code else OK
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        status = args.func(args)
        if sys.stdout is not None:  # None when fd 1 was closed at start-up
            sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except BrokenPipeError:
        # The answer is unread, not wrong. Point fd 1 at devnull so the
        # interpreter's final flush of what is still buffered stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except (KnitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    finally:
        if was_enabled:
            gc.enable()
    return ERROR


if __name__ == "__main__":
    sys.exit(main())
