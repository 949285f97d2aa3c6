"""Vertex-level degree feasibility and witness verification.

A vertex's red configuration is the pair (loop edges in, loop edges out)
left over once its thread edges are accounted for. The STRICT rule admits
exactly the five class-0 stitch configurations; EXTENDED admits any
configuration that is not empty and not many-into-many.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import UncoloredPresentError
from .graphs import LOOP_COLORS, THREAD_COLORS, DirectedKnitGraph, EdgeColor


class RedRule(Enum):
    STRICT = "strict"
    EXTENDED = "extended"


class Role(Enum):
    """Where a vertex may sit on a thread: start, middle, or end."""

    S = "S"
    M = "M"
    T = "T"

    # Members are singletons compared by identity, so the C identity hash
    # serves every set and dict lookup; Enum's own hashes the name in Python.
    __hash__ = object.__hash__


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
    """Outcome of verifying a colored graph against a thread count, or
    against any thread count when k is None."""

    valid: bool
    k: int | None
    threads: tuple[tuple[int, ...], ...]
    problems: list[str] = field(default_factory=list)


def thread_paths(g: DirectedKnitGraph) -> tuple[tuple[tuple[int, ...], ...], list[str]]:
    """Decompose the thread arcs (blue and purple) into vertex-disjoint paths.

    Isolated vertices count as singleton paths. Returns (paths, problems);
    problems is nonempty when the thread arcs do not form disjoint paths.
    """
    nxt = [-1] * g.n
    prv = [-1] * g.n
    problems: list[str] = []
    for src, dst, color in g.edges:
        if color not in THREAD_COLORS:
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
    # starts in ascending order, so the paths come sorted by first vertex
    for v in range(g.n):
        if prv[v] == -1:
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
    return tuple(paths), problems


# The roles a stitch needs at each place on its thread, keyed by
# (first on the thread, last on the thread).
_POSITIONS = {
    (True, True): ("one-stitch thread", frozenset({Role.S, Role.T})),
    (True, False): ("thread start", frozenset({Role.S})),
    (False, False): ("thread middle", frozenset({Role.M})),
    (False, True): ("thread end", frozenset({Role.T})),
}


def check_coloring(
    g: DirectedKnitGraph, k: int | None, rule: RedRule = RedRule.STRICT
) -> ColoringReport:
    """Verify that a fully colored graph is a valid k-thread witness.

    The thread arcs must form vertex-disjoint directed paths covering every
    vertex, exactly k of them unless k is None, and each vertex must take
    the role of its place on its path (start, middle, end, or both ends)
    under `classify_vertex` on its red configuration plus its thread arcs.
    A purple arc is a thread step that also adds one loop at each end (the
    flat-knitting turn).
    """
    if EdgeColor.UNCOLORED in g.colors():
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

    # A thread arc in or out is one more degree on top of the red counts,
    # which already hold the purple arcs, so classify_vertex judges each
    # vertex on its degrees as a thread stitch.
    roles_of: dict[tuple[int, int], frozenset[Role]] = {}
    for path in paths:
        last = len(path) - 1
        for i, v in enumerate(path):
            degrees = (red_in[v] + (i > 0), red_out[v] + (i < last))
            roles = roles_of.get(degrees)
            if roles is None:
                roles = roles_of[degrees] = classify_vertex(*degrees, rule)
            position, needs = _POSITIONS[i == 0, i == last]
            if not needs <= roles:
                problems.append(
                    f"vertex {v} cannot be a {position} with red configuration "
                    f"({red_in[v]}, {red_out[v]}) under {rule.value}"
                )
    return ColoringReport(not problems, k, paths, problems)
