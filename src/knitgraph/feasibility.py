"""Vertex-level degree feasibility and witness verification.

A vertex's red configuration is the pair (loop edges in, loop edges out)
left over once its thread edges are accounted for. The STRICT rule admits
exactly the five class-0 stitch configurations; EXTENDED admits any
configuration that is not empty and not many-into-many.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import PurplePresentError, UncoloredPresentError
from .graphs import DirectedKnitGraph, EdgeColor


class RedRule(Enum):
    STRICT = "strict"
    EXTENDED = "extended"


class Role(Enum):
    """Where a vertex may sit on a thread: start, middle, or end."""

    S = "S"
    M = "M"
    T = "T"


# (red-in, red-out) pairs realizable by the basic stitches:
# (0,1) yarn-over, (1,0) top-row stitch, (1,1) knit, (1,2) front-and-back
# increase, (2,1) two-together decrease.
STRICT_CONFIGS: frozenset[tuple[int, int]] = frozenset(
    {(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)}
)


def red_config_allowed(r_in: int, r_out: int, rule: RedRule = RedRule.STRICT) -> bool:
    if r_in < 0 or r_out < 0:
        return False
    if rule is RedRule.STRICT:
        return (r_in, r_out) in STRICT_CONFIGS
    # EXTENDED: anything but an untouched vertex or a many-into-many stitch.
    return (r_in, r_out) != (0, 0) and not (r_in >= 2 and r_out >= 2)


def classify_vertex(indeg: int, outdeg: int, rule: RedRule = RedRule.STRICT) -> frozenset[Role]:
    """Roles a vertex of the given total degrees may take on a thread.

    A start keeps one outgoing edge for the thread and must be passed
    through later (outdeg >= 2); an end keeps one incoming edge and must
    itself pass through an earlier stitch (indeg >= 2); a middle keeps one
    of each. The leftover degrees must form an admissible red configuration.
    """
    roles = set()
    if outdeg >= 2 and red_config_allowed(indeg, outdeg - 1, rule):
        roles.add(Role.S)
    if indeg >= 1 and outdeg >= 1 and red_config_allowed(indeg - 1, outdeg - 1, rule):
        roles.add(Role.M)
    if indeg >= 2 and red_config_allowed(indeg - 1, outdeg, rule):
        roles.add(Role.T)
    return frozenset(roles)


def feasibility_table(rule: RedRule = RedRule.STRICT) -> list[list[frozenset[Role]]]:
    """4x4 role table over degree buckets {0,1,2,3} x {0,1,2,3}.

    Indexed table[indeg][outdeg]; the bucket labelled ">=3" is evaluated at
    the representative value 3.
    """
    return [[classify_vertex(i, o, rule) for o in range(4)] for i in range(4)]


def format_role_set(roles: frozenset[Role]) -> str:
    if not roles:
        return "non-feasible"
    return ", ".join(r.value for r in sorted(roles, key=lambda r: "SMT".index(r.value)))


@dataclass
class ColoringReport:
    """Outcome of verifying a colored graph against a thread count."""

    valid: bool
    k: int
    threads: tuple[tuple[int, ...], ...]
    problems: list[str] = field(default_factory=list)

    @property
    def path_count(self) -> int:
        return len(self.threads)


def thread_paths(
    g: DirectedKnitGraph, thread_colors: set[EdgeColor]
) -> tuple[tuple[tuple[int, ...], ...], list[str]]:
    """Decompose the thread-colored arcs into vertex-disjoint paths.

    Isolated vertices count as singleton paths. Returns (paths, problems);
    problems is nonempty when the thread arcs do not form disjoint paths.
    """
    nxt = [-1] * g.n
    prv = [-1] * g.n
    problems: list[str] = []
    for src, dst, color in g.edges:
        if color not in thread_colors:
            continue
        if nxt[src] != -1:
            problems.append(f"vertex {src} has two sequential out-edges")
        if prv[dst] != -1:
            problems.append(f"vertex {dst} has two sequential in-edges")
        nxt[src] = dst
        prv[dst] = src
    if problems:
        return (), problems
    paths: list[tuple[int, ...]] = []
    seen = [False] * g.n
    for v in range(g.n):
        if prv[v] == -1 and not seen[v]:
            path = [v]
            seen[v] = True
            w = nxt[v]
            while w != -1:
                path.append(w)
                seen[w] = True
                w = nxt[w]
            paths.append(tuple(path))
    if not all(seen):
        cyc = next(v for v in range(g.n) if not seen[v])
        problems.append(f"sequential edges form a cycle through vertex {cyc}")
        return (), problems
    paths.sort(key=lambda p: p[0])
    return tuple(paths), problems


def check_coloring(
    g: DirectedKnitGraph,
    k: int,
    rule: RedRule = RedRule.STRICT,
    *,
    allow_purple: bool = False,
) -> ColoringReport:
    """Verify that a fully colored graph is a valid k-thread witness.

    Blue edges must form exactly k vertex-disjoint directed paths covering
    every vertex, and each vertex's red configuration must be admissible for
    its position on its path. With allow_purple, purple edges act as thread
    edges that additionally contribute one loop to both endpoints (the
    flat-knitting turn reading); without it they are rejected.
    """
    colors = g.colors()
    if EdgeColor.UNCOLORED in colors:
        raise UncoloredPresentError()
    if EdgeColor.PURPLE in colors and not allow_purple:
        raise PurplePresentError()

    thread_colors = {EdgeColor.BLUE, EdgeColor.PURPLE} if allow_purple else {EdgeColor.BLUE}
    paths, problems = thread_paths(g, thread_colors)
    if problems:
        return ColoringReport(False, k, (), problems)

    red_in = [0] * g.n
    red_out = [0] * g.n
    for src, dst, color in g.edges:
        if color is EdgeColor.RED or color is EdgeColor.PURPLE:
            red_out[src] += 1
            red_in[dst] += 1

    if len(paths) != k:
        problems.append(f"sequential edges form {len(paths)} threads, expected {k}")

    indeg_out = g.degrees()
    for path in paths:
        if len(path) == 1:
            v = path[0]
            i, o = indeg_out[v]
            roles = classify_vertex(i, o, rule)
            if not (Role.S in roles and Role.T in roles):
                problems.append(
                    f"vertex {v} cannot form a one-stitch thread (degrees {i},{o})"
                )
            continue
        for pos, v in enumerate(path):
            cfg = (red_in[v], red_out[v])
            if not red_config_allowed(*cfg, rule):
                problems.append(
                    f"vertex {v} has red configuration {cfg}, inadmissible under "
                    f"{rule.value}"
                )
                continue
            # Start stitches must be passed through later; end stitches must
            # pass through an earlier one. Mirrors classify_vertex's clauses.
            if pos == 0 and cfg[1] < 1:
                problems.append(f"thread start {v} is never passed through")
            if pos == len(path) - 1 and cfg[0] < 1:
                problems.append(f"thread end {v} passes through nothing")
    return ColoringReport(not problems, k, paths, problems)
