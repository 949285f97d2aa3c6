from __future__ import annotations

import itertools
import random

import pytest

from knitgraph import DirectedKnitGraph, EdgeColor, NotADagError, topological_sort

U = EdgeColor.UNCOLORED


def random_dag(rng: random.Random, n: int, density: float) -> DirectedKnitGraph:
    """Random labeled DAG: random topological order, forward edges kept
    with the given probability."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((perm[i], perm[j], U))
    return DirectedKnitGraph(n, tuple(edges))


def all_dags(n: int):
    """Every labeled DAG on n vertices (each unordered pair absent/fwd/rev)."""
    pairs = list(itertools.combinations(range(n), 2))
    for assignment in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = []
        for (u, v), a in zip(pairs, assignment):
            if a == 1:
                edges.append((u, v, U))
            elif a == 2:
                edges.append((v, u, U))
        g = DirectedKnitGraph(n, tuple(edges))
        try:
            topological_sort(g)
        except NotADagError:
            continue
        yield g


def relabel(g: DirectedKnitGraph, perm: list[int]) -> DirectedKnitGraph:
    return DirectedKnitGraph(
        g.n, tuple((perm[s], perm[d], c) for s, d, c in g.edges)
    )


def disjoint_union(graphs: list[DirectedKnitGraph]) -> DirectedKnitGraph:
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((s + offset, d + offset, c) for s, d, c in g.edges)
        offset += g.n
    return DirectedKnitGraph(offset, tuple(edges))


@pytest.fixture
def rng():
    return random.Random(0x5EED)
