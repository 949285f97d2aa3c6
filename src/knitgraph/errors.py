"""Exception types shared across the package.

Negative answers (infeasible, not planar, no Eulerian trail) are returned
as values, never raised; these exceptions all mean the *input* or the
*request* was invalid.
"""

from __future__ import annotations


class KnitError(Exception):
    """Base class for all knitgraph errors."""


class SelfLoopError(KnitError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"self-loop at vertex {vertex}")


class DuplicateEdgeError(KnitError):
    def __init__(self, src: int, dst: int):
        self.src = src
        self.dst = dst
        super().__init__(f"duplicate edge between {src} and {dst}")


class IndexOutOfRangeError(KnitError):
    def __init__(self, vertex: int, n: int):
        self.vertex = vertex
        self.n = n
        super().__init__(f"vertex {vertex} out of range for n={n}")


class SchemaError(KnitError):
    """Malformed JSON document; message carries field context."""


class NotADagError(KnitError):
    def __init__(self, cycle: list[int]):
        self.cycle = cycle
        super().__init__(
            f"graph is not a DAG: cycle {' -> '.join(map(str, cycle + cycle[:1]))}"
        )


class MultiplicityTooHighError(KnitError):
    def __init__(self, pair: tuple[int, int], multiplicity: int):
        self.pair = pair
        self.multiplicity = multiplicity
        super().__init__(
            f"arc multiplicity {multiplicity} between {pair[0]} and {pair[1]} exceeds 3"
        )


class InconsistentPairError(KnitError):
    def __init__(self, pair: tuple[int, int], detail: str = ""):
        self.pair = pair
        msg = f"inconsistent strand pair between {pair[0]} and {pair[1]}"
        super().__init__(msg + (f": {detail}" if detail else ""))


class PurplePresentError(KnitError):
    def __init__(self):
        super().__init__("purple edges are not supported by this operation")


class UncoloredPresentError(KnitError):
    def __init__(self):
        super().__init__("graph must be fully colored")


class InfeasibleVertexError(KnitError):
    def __init__(self, vertex: int, indeg: int, outdeg: int):
        self.vertex = vertex
        self.indeg = indeg
        self.outdeg = outdeg
        super().__init__(
            f"vertex {vertex} with indegree {indeg} and outdegree {outdeg} "
            "cannot appear in any thread"
        )


class TooLargeError(KnitError):
    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        super().__init__(f"graph has {n} vertices; brute force is capped at {cap}")


class NoEulerianPathError(KnitError):
    def __init__(self, reason: str, detail=None):
        self.reason = reason
        self.detail = detail
        super().__init__(f"no Eulerian trail: {reason}")


class DegenerateLayoutError(KnitError):
    """A drawing fault; `point` is (x, y) = (column, row), or None."""

    def __init__(self, point, detail: str = ""):
        self.point = point
        msg = "degenerate layout"
        if point is not None:
            msg += f" at row {point[1]}, column {point[0]}"
        super().__init__(msg + (f": {detail}" if detail else ""))


class BlueCrossingError(KnitError):
    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(f"sequential (blue) edges {pair[0]} and {pair[1]} cross")


class NotPlanarLayoutError(KnitError):
    def __init__(self):
        super().__init__("underlying graph is not planar")


class NotSingleThreadError(KnitError):
    def __init__(self, count: int):
        self.count = count
        super().__init__(f"operation needs a single-thread cover, got {count} threads")


class BadDimsError(KnitError):
    def __init__(self, detail: str):
        super().__init__(f"bad pattern dimensions: {detail}")
