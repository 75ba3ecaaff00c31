"""Seeded random instances shared by the property suites."""

from __future__ import annotations

import networkx as nx
import numpy as np

from hqw.graphs import ColoringReport, Edge, LabeledGraph, bfs_path
from hqw.matmul import RegularGraphSequence, regular_sequence


def random_properly_colored_graph(rng, max_n: int = 12, max_colors: int = 6) -> LabeledGraph:
    """Connected graph with a proper edge coloring, built color-safe by construction."""
    n = int(rng.integers(4, max_n + 1))
    num_colors = int(rng.integers(2, max_colors + 1))
    labels = tuple(str(c) for c in range(num_colors))
    used: list[set] = [set() for _ in range(n)]
    edges = []
    present = set()
    for v in range(1, n):
        candidates = [u for u in range(v) if len(used[u]) < num_colors]
        u = int(rng.choice(candidates))
        free = [c for c in labels if c not in used[u]]
        color = free[int(rng.integers(len(free)))]
        edges.append(Edge(u, v, color))
        used[u].add(color)
        used[v].add(color)
        present.add((u, v))
    for _ in range(int(rng.integers(0, n))):
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if (u, v) in present:
            continue
        free = [c for c in labels if c not in used[u] and c not in used[v]]
        if not free:
            continue
        color = free[int(rng.integers(len(free)))]
        edges.append(Edge(u, v, color))
        used[u].add(color)
        used[v].add(color)
        present.add((u, v))
    return LabeledGraph(n, tuple(edges), labels)


def random_transfer_case(rng, graph: LabeledGraph, max_path_edges: int = 6):
    """(source, target, path, alpha) with a path of at most max_path_edges edges."""
    nbrs: dict[int, set] = {v: set() for v in range(graph.n)}
    for e in graph.edges:
        if e.u != e.v:
            nbrs[e.u].add(e.v)
            nbrs[e.v].add(e.u)
    a = int(rng.integers(graph.n))
    dist = {a: 0}
    frontier = [a]
    while frontier:
        nxt = []
        for u in frontier:
            for v in nbrs[u]:
                if v not in dist and dist[u] < max_path_edges:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    candidates = sorted(v for v, d in dist.items() if d >= 1)
    b = int(candidates[int(rng.integers(len(candidates)))])
    path = bfs_path(graph, a, b)
    assert len(path) - 1 <= max_path_edges
    alpha = rng.normal(size=len(graph.labels)) + 1j * rng.normal(size=len(graph.labels))
    alpha = alpha / np.linalg.norm(alpha)
    return a, b, path, alpha


def random_regular_adjacency(rng, n: int, d: int) -> np.ndarray:
    G = nx.random_regular_graph(d, n, seed=int(rng.integers(2**31)))
    return nx.to_numpy_array(G, dtype=int)


def random_regular_sequence(rng, max_n: int = 8, max_k: int = 3, max_d: int = 3) -> RegularGraphSequence:
    n = int(rng.integers(4, max_n + 1))
    K = int(rng.integers(1, max_k + 1))
    valid_d = [d for d in range(1, min(max_d, n - 1) + 1) if (d * n) % 2 == 0]
    mats = [random_regular_adjacency(rng, n, int(rng.choice(valid_d))) for _ in range(K)]
    return regular_sequence(mats)


def random_labeled_graph(rng, max_n: int = 12, max_labels: int = 3, max_edges: int = 30) -> LabeledGraph:
    """Random edges under few labels: self-loops, parallel edges under distinct
    labels, usually an improper coloring and sometimes a disconnected graph."""
    n = int(rng.integers(2, max_n + 1))
    labels = tuple("abcdefgh"[:int(rng.integers(1, max_labels + 1))])
    edges, keys = [], set()
    for _ in range(int(rng.integers(0, max_edges + 1))):
        u, v = (int(x) for x in rng.integers(n, size=2))
        label = labels[int(rng.integers(len(labels)))]
        if (min(u, v), max(u, v), label) not in keys:
            keys.add((min(u, v), max(u, v), label))
            edges.append(Edge(u, v, label, float(rng.choice([1.0, 0.5, -2.0]))))
    return LabeledGraph(n, tuple(edges), labels)


def hypercube(d: int) -> LabeledGraph:
    """Q_d with each edge colored by the bit it flips."""
    n = 1 << d
    return LabeledGraph(n, tuple(Edge(v, v ^ (1 << b), str(b)) for v in range(n) for b in range(d)
                                 if v < v ^ (1 << b)), tuple(str(b) for b in range(d)))


# Per-edge reference versions of the column-based graph functions, compared
# against them in test_graphs.py.


def reference_bfs_path(graph: LabeledGraph, source: int, target: int) -> tuple[int, ...]:
    if not (0 <= source < graph.n and 0 <= target < graph.n):
        raise ValueError(f"path endpoints ({source},{target}) outside 0..{graph.n - 1}")
    nbrs: dict[int, set[int]] = {v: set() for v in range(graph.n)}
    for e in graph.edges:
        if e.u != e.v:
            nbrs[e.u].add(e.v)
            nbrs[e.v].add(e.u)
    prev = {source: source}
    frontier = [source]
    while frontier and target not in prev:
        nxt = []
        for u in frontier:
            for v in sorted(nbrs[u]):
                if v not in prev:
                    prev[v] = u
                    nxt.append(v)
        frontier = nxt
    if target not in prev:
        raise ValueError(f"vertices {source} and {target} are not connected")
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    return tuple(reversed(path))


def reference_validate_proper_coloring(graph: LabeledGraph) -> ColoringReport:
    incident: dict[tuple[int, str], Edge] = {}
    violations = []
    for e in graph.edges:
        if e.u == e.v:
            continue
        for vertex in (e.u, e.v):
            key = (vertex, e.label)
            if key in incident:
                violations.append((vertex, e.label, incident[key], e))
            else:
                incident[key] = e
    return ColoringReport(proper=not violations, violations=tuple(violations))
