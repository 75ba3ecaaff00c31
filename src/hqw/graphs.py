"""Labeled weighted graphs: the substrate every walk runs on.

A LabeledGraph is a set of dense integer vertices 0..n-1 plus undirected
edges tagged with a string label and a real weight. Self-loops are allowed
(their weight lands once on the diagonal); parallel edges between the same
vertex pair are allowed only under distinct labels. Each label selects a
subgraph whose weighted adjacency matrix becomes one Hamiltonian block.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np


class Edge(NamedTuple):
    u: int
    v: int
    label: str
    weight: float = 1.0


@dataclass(frozen=True)
class LabeledGraph:
    n: int
    edges: tuple[Edge, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={self.n}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("label set contains duplicates")
        known = set(self.labels)
        seen: set[tuple[int, int, str]] = set()
        for e in self.edges:
            if not (0 <= e.u < self.n and 0 <= e.v < self.n):
                raise ValueError(f"edge {e} has endpoint outside 0..{self.n - 1}")
            if e.label not in known:
                raise ValueError(f"edge {e} uses unknown label {e.label!r}")
            if not math.isfinite(e.weight):
                raise ValueError(f"edge {e} has a non-finite weight")
            key = (min(e.u, e.v), max(e.u, e.v), e.label)
            if key in seen:
                raise ValueError(f"duplicate edge for pair {key[:2]} under label {e.label!r}")
            seen.add(key)


@dataclass(frozen=True)
class ColoringReport:
    proper: bool
    violations: tuple[tuple[int, str, Edge, Edge], ...]


class NotRegularError(ValueError):
    def __init__(self, degrees: list[int]):
        self.degrees = degrees
        lo, hi = min(degrees), max(degrees)
        super().__init__(f"graph is not regular: {len(degrees)} vertices, degree {lo} at vertex "
                         f"{degrees.index(lo)} and {hi} at vertex {degrees.index(hi)}")


def subgraph_adjacency(graph: LabeledGraph, label: str) -> np.ndarray:
    """Weighted adjacency matrix of the edges carrying one label.

    Labels with no edges yield the zero matrix; a self-loop weight appears
    once on the diagonal.
    """
    if label not in graph.labels:
        raise ValueError(f"unknown label {label!r}; graph labels are {graph.labels}")
    S = np.zeros((graph.n, graph.n), dtype=complex)
    for e in graph.edges:
        if e.label != label:
            continue
        if e.u == e.v:
            S[e.u, e.u] += e.weight
        else:
            S[e.u, e.v] += e.weight
            S[e.v, e.u] += e.weight
    return S


def adjacency(graph: LabeledGraph) -> np.ndarray:
    """Full weighted adjacency: the sum of all per-label blocks."""
    A = np.zeros((graph.n, graph.n), dtype=complex)
    for label in graph.labels:
        A += subgraph_adjacency(graph, label)
    return A


def validate_proper_coloring(graph: LabeledGraph) -> ColoringReport:
    """Check that no vertex has two incident non-loop edges sharing a label."""
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


def common_degree(n: int, ends) -> int:
    """Degree of every vertex 0..n-1 as counted in `ends`, or raise NotRegularError."""
    if n < 1:
        raise ValueError(f"graph needs at least one vertex, got n={n}")
    deg = np.bincount(np.asarray(ends, dtype=np.int64), minlength=n).tolist()
    if len(set(deg)) != 1:
        raise NotRegularError(deg)
    return deg[0]


def validate_regular(graph: LabeledGraph) -> int:
    """Return the common degree d (self-loops excluded), or raise NotRegularError."""
    return common_degree(graph.n, [x for e in graph.edges if e.u != e.v for x in (e.u, e.v)])


def path_colors(graph: LabeledGraph, path: Iterable[int]) -> tuple[str, ...]:
    """Labels of the edges along a path, in order.

    Requires consecutive vertices to be adjacent and each path edge to carry
    exactly one label. Only the path's own vertex pairs are collected; that the
    coloring is proper is the caller's check (`validate_proper_coloring`).
    """
    path = list(path)
    steps = list(zip(path, path[1:]))
    by_pair: dict[tuple[int, int], list[str]] = {(min(u, v), max(u, v)): [] for u, v in steps}
    for e in graph.edges:
        labels = by_pair.get((e.u, e.v) if e.u < e.v else (e.v, e.u))
        if labels is not None and e.u != e.v:
            labels.append(e.label)
    colors = []
    for u, v in steps:
        labels = by_pair[(min(u, v), max(u, v))]
        if not labels:
            raise ValueError(f"path vertices {u} and {v} are not adjacent")
        if len(labels) > 1:
            raise ValueError(f"edge ({u},{v}) carries several labels {labels}; path color is ambiguous")
        colors.append(labels[0])
    return tuple(colors)


def bfs_path(graph: LabeledGraph, source: int, target: int) -> tuple[int, ...]:
    """Shortest path by breadth-first search; raises if disconnected."""
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


# ---------------------------------------------------------------------------
# Builders


def circle2(a: float, b: float) -> LabeledGraph:
    """Two vertices joined by two labeled parallel connections of weights a, b."""
    return LabeledGraph(2, (Edge(0, 1, "0", float(a)), Edge(0, 1, "1", float(b))), ("0", "1"))


def star(N: int) -> LabeledGraph:
    """N-vertex star: center 0, edge (0, j) labeled str(j).

    Label "0" stays in the label set without edges, so the coin space is
    N-dimensional and the Fourier coin fits.
    """
    if N < 2:
        raise ValueError(f"star needs N >= 2, got {N}")
    edges = tuple(Edge(0, j, str(j)) for j in range(1, N))
    return LabeledGraph(N, edges, tuple(str(j) for j in range(N)))


def line2(L: int) -> LabeledGraph:
    """Path on 2L+1 vertices (positions -L..L), edge labels cycling 0,1."""
    if L < 1:
        raise ValueError(f"line2 needs L >= 1, got {L}")
    n = 2 * L + 1
    edges = tuple(Edge(i, i + 1, str(i % 2)) for i in range(n - 1))
    return LabeledGraph(n, edges, ("0", "1"))


def line3(L: int) -> LabeledGraph:
    """Path on 2L+1 vertices (positions -L..L), edge labels cycling 0,1,2."""
    if L < 1:
        raise ValueError(f"line3 needs L >= 1, got {L}")
    n = 2 * L + 1
    edges = tuple(Edge(i, i + 1, str(i % 3)) for i in range(n - 1))
    return LabeledGraph(n, edges, ("0", "1", "2"))


def segment_line(M: int) -> LabeledGraph:
    """Line of M vertices whose unit segments alternate blue/red.

    Vertex i is walker position i+1. The first segment is blue so that the
    switching transfer protocol, which starts in the blue coin sector, moves
    on its first step.
    """
    if M < 2:
        raise ValueError(f"segment_line needs M >= 2, got {M}")
    edges = tuple(Edge(k, k + 1, "b" if k % 2 == 0 else "r") for k in range(M - 1))
    return LabeledGraph(M, edges, ("r", "b"))


def fock_g0(n_max: int, g: float = 1.0) -> LabeledGraph:
    """Self-loop ladder with weights +g*n/2 (label 0) and -g*n/2 (label 1)."""
    if n_max < 1:
        raise ValueError(f"fock_g0 needs n_max >= 1, got {n_max}")
    edges = []
    for v in range(n_max + 1):
        edges.append(Edge(v, v, "0", g * v / 2.0))
        edges.append(Edge(v, v, "1", -g * v / 2.0))
    return LabeledGraph(n_max + 1, tuple(edges), ("0", "1"))


def fock_g0p(n_max: int) -> LabeledGraph:
    """Two-mode self-loop ladder: vertex (n, m) carries weights +-(n+m+1)/2."""
    if n_max < 1:
        raise ValueError(f"fock_g0p needs n_max >= 1, got {n_max}")
    side = n_max + 1
    edges = []
    for n in range(side):
        for m in range(side):
            v = n * side + m
            w = (n + m + 1) / 2.0
            edges.append(Edge(v, v, "0", w))
            edges.append(Edge(v, v, "1", -w))
    return LabeledGraph(side * side, tuple(edges), ("0", "1"))


def cycle(n: int) -> LabeledGraph:
    """n-cycle under a single label (2-regular for n >= 3)."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    edges = tuple(Edge(i, (i + 1) % n, "0") for i in range(n))
    return LabeledGraph(n, edges, ("0",))


def complete(n: int) -> LabeledGraph:
    """Complete graph on n vertices under a single label."""
    if n < 2:
        raise ValueError(f"complete needs n >= 2, got {n}")
    edges = tuple(Edge(u, v, "0") for u in range(n) for v in range(u + 1, n))
    return LabeledGraph(n, edges, ("0",))


def cubic8() -> LabeledGraph:
    """8-vertex 3-regular benchmark graph with exactly one triangle at vertex 0."""
    pairs = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5),
             (4, 6), (4, 7), (5, 6), (5, 7), (3, 6), (3, 7)]
    return LabeledGraph(8, tuple(Edge(u, v, "0") for u, v in pairs), ("0",))


BUILDERS = {
    "circle2": circle2,
    "star": star,
    "line2": line2,
    "line3": line3,
    "segment_line": segment_line,
    "fock_g0": fock_g0,
    "fock_g0p": fock_g0p,
    "cycle": cycle,
    "complete": complete,
    "cubic8": cubic8,
}


def build(family: str, *args, **kwargs) -> LabeledGraph:
    """Dispatch to a named builder; raises on unknown family or bad params."""
    try:
        builder = BUILDERS[family]
    except KeyError:
        raise ValueError(f"unknown graph family {family!r}; choices: {sorted(BUILDERS)}") from None
    return builder(*args, **kwargs)


def signed_coords(n: int) -> np.ndarray:
    """Coordinates -L..L for a line on n = 2L+1 vertices."""
    return np.arange(n, dtype=float) - (n - 1) // 2


# ---------------------------------------------------------------------------
# JSON persistence

_SCHEMA_HINT = '{"n": int, "labels": [str, ...], "edges": [[u, v, label, weight?], ...]}'


def load_json(text: str) -> LabeledGraph:
    """Parse a graph document; weight defaults to 1.0 when omitted."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"graph JSON must be an object like {_SCHEMA_HINT}")
    try:
        n = doc["n"]
        labels = doc["labels"]
        raw_edges = doc["edges"]
    except KeyError as exc:
        raise ValueError(f"graph JSON is missing key {exc}; expected {_SCHEMA_HINT}") from None
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f'"n" must be an integer, got {n!r}')
    if not (isinstance(labels, list) and all(isinstance(s, str) for s in labels)):
        raise ValueError('"labels" must be a list of strings')
    edges = []
    for rec in raw_edges:
        if not isinstance(rec, list) or len(rec) not in (3, 4):
            raise ValueError(f"edge record {rec!r} is not [u, v, label] or [u, v, label, weight]")
        u, v, label = rec[0], rec[1], rec[2]
        weight = rec[3] if len(rec) == 4 else 1.0
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (u, v)):
            raise ValueError(f"edge record {rec!r} has non-integer endpoints")
        if not isinstance(label, str):
            raise ValueError(f"edge record {rec!r} has a non-string label")
        if not isinstance(weight, (int, float)) or isinstance(weight, bool):
            raise ValueError(f"edge record {rec!r} has a non-numeric weight")
        edges.append(Edge(u, v, label, float(weight)))
    return LabeledGraph(n, tuple(edges), tuple(labels))


def save_json(graph: LabeledGraph) -> str:
    """Serialize in the load_json schema, preserving edge and label order."""
    doc = {
        "n": graph.n,
        "labels": list(graph.labels),
        "edges": [[e.u, e.v, e.label, e.weight] for e in graph.edges],
    }
    return json.dumps(doc)


def load_json_file(path) -> LabeledGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_json(fh.read())
