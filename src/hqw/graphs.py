"""Labeled weighted graphs: the substrate every walk runs on.

A LabeledGraph is a set of dense integer vertices 0..n-1 plus undirected
edges tagged with a string label and a real weight. Self-loops are allowed
(their weight lands once on the diagonal); parallel edges between the same
vertex pair are allowed only under distinct labels. Each label selects a
subgraph whose weighted adjacency matrix becomes one Hamiltonian block.

A graph is its read-only numpy edge columns, in edge order, validated once at
construction: `u`, `v` (int64 endpoints), `c` (label index), `w` (weight). Every
graph consumer reads them; `load_json` and the builders make them directly, and
`Edge` tuples exist only on the tuple entry point and in what `edges` returns.
"""

from __future__ import annotations

import gc
import json
from dataclasses import FrozenInstanceError, dataclass
from itertools import repeat
from typing import Iterable, NamedTuple

import numpy as np

# The most amplitudes of a state (labels x n), edges of a built graph, entries of a dense sector (n^2, n <= 4096)
# and register entries of a matmul walk: 256 MiB per state or n x n complex array, of which building a sector's
# propagator holds about four.
DENSE_SECTOR_ENTRIES = 2**24
BLOCK_ENTRIES = 2**14  # per block of temporaries: (row, pair) entries of rotations, matmul rows, table cells


class Edge(NamedTuple):
    u: int
    v: int
    label: str
    weight: float = 1.0


def _endpoints(col) -> np.ndarray:
    """The int64 column of integer endpoints; one beyond int64 becomes -1, outside every 0..n-1."""
    try:
        return np.fromiter(col, dtype=np.int64, count=len(col))
    except OverflowError:
        return np.array([x if -2**63 <= x < 2**63 else -1 for x in col], dtype=np.int64)


def _label_column(labels, names) -> np.ndarray:
    """The index of each name in `labels`, -1 for a name not among them."""
    index = {lab: c for c, lab in enumerate(labels)}
    return np.fromiter(map(index.get, names, repeat(-1)), dtype=np.intp, count=len(names))


class LabeledGraph:
    """n vertices, a tuple of distinct labels, and the validated edge columns.

    The columns, read-only and in edge order, are what every graph consumer
    reads: `u`, `v` (int64 endpoints), `c` (label index) and `w` (weight).
    `LabeledGraph(n, edges, labels)` takes `Edge` tuples; `from_columns` takes
    the columns themselves, as `load_json` and the builders do. Both end in the
    same checks. `edges` makes a tuple of `Edge` from the columns on each call,
    and two graphs are equal when their n, labels and columns are. Like the
    columns, every field is read-only.
    """

    __slots__ = ("n", "labels", "u", "v", "c", "w")

    def __init__(self, n, edges, labels):
        edges, labels = tuple(edges), tuple(labels)
        m = len(edges)
        us, vs, names, weights = tuple(zip(*edges)) or ((),) * 4
        ends, nonint = [us, vs], np.zeros(m, dtype=bool)
        types = set(map(type, us))
        types.update(map(type, vs))
        if not types <= {int}:  # a float, bool or other non-integer endpoint names no vertex
            for k, col in enumerate(ends):
                ok = [isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in col]
                nonint |= ~np.array(ok, dtype=bool)
                ends[k] = [x if y else -1 for x, y in zip(col, ok)]
        w = np.fromiter(weights, dtype=float, count=m)
        self._validate(n, labels, *(_endpoints(col) for col in ends), _label_column(labels, names), w,
                       edges.__getitem__, nonint)

    @classmethod
    def from_columns(cls, n, labels, u, v, c, w, edge=None) -> LabeledGraph:
        """The graph of edge columns u, v (integer endpoints), c (label index) and w (weight).

        A refused edge i is named by `edge(i)`, an `Edge` (default: made from the columns).
        """
        g = cls.__new__(cls)
        cols = (np.asarray(col).astype(dt, casting="safe", copy=False)
                for col, dt in ((u, np.int64), (v, np.int64), (c, np.intp), (w, float)))
        g._validate(n, tuple(labels), *cols, edge or g.edge)
        return g

    def _validate(self, n, labels, u, v, c, w, edge, nonint=None):
        """Check n, the labels and then every edge, and keep the columns read-only."""
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"graph needs an integer vertex count, got n={n!r}")
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        if n > np.iinfo(np.int64).max:
            raise ValueError(f"graph has n={n} vertices, beyond the int64 range")
        if len(set(labels)) != len(labels):
            raise ValueError("label set contains duplicates")
        _check_size(max(1, len(labels)), n, len(u))  # the builders' rule, for a JSON or tuple graph too
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", labels)
        for name, col in zip("uvcw", (u, v, c, w)):
            col = col.view()  # read-only here, whatever the caller does with its own array
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        key = np.lexsort((hi, lo, c))  # stable: edges with one key stay in edge order
        dup = np.zeros(len(u), dtype=bool)
        dup[key[1:]] = (np.diff(c[key]) == 0) & (np.diff(lo[key]) == 0) & (np.diff(hi[key]) == 0)
        checks = [(nonint, "edge {e} has non-integer endpoints"),
                  ((lo < 0) | (hi >= n), "edge {e} has endpoint outside 0..%d" % (n - 1)),
                  ((c < 0) | (c >= len(labels)), "edge {e} uses unknown label {e.label!r}"),
                  (~np.isfinite(w), "edge {e} has a non-finite weight"),
                  (dup, "duplicate edge for pair {pair} under label {e.label!r}")]
        checks = [(mask, text) for mask, text in checks if mask is not None]
        bad = np.logical_or.reduce([mask for mask, _ in checks])
        if bad.any():  # the first bad edge: every edge before it is valid and unrepeated
            i = int(bad.argmax())
            text = next(text for mask, text in checks if mask[i])
            raise ValueError(text.format(e=edge(i), pair=(int(lo[i]), int(hi[i]))))

    def edge(self, i: int) -> Edge:
        """Edge i, made from the columns (an unknown label index stands for its label)."""
        c = int(self.c[i])
        return Edge(int(self.u[i]), int(self.v[i]), self.labels[c] if 0 <= c < len(self.labels) else c,
                    float(self.w[i]))

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(map(Edge._make, zip(self.u.tolist(), self.v.tolist(),
                                         map(self.labels.__getitem__, self.c.tolist()), self.w.tolist())))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through the checks, not by assigning fields
        return LabeledGraph.from_columns, (self.n, self.labels, self.u, self.v, self.c, self.w)

    def __eq__(self, other):
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.n == other.n and self.labels == other.labels and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in "uvcw")

    def __hash__(self):
        return hash((self.n, self.labels, len(self.u)))

    def __repr__(self):
        return f"LabeledGraph(n={self.n!r}, labels={self.labels!r}, {len(self.u)} edges)"


@dataclass(frozen=True)
class ColoringReport:
    proper: bool
    count: int
    first: tuple[int, str, Edge, Edge] | None  # (vertex, label, earlier edge, edge), None when proper


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
    on = graph.c == graph.labels.index(label)
    u, v, w = graph.u[on], graph.v[on], graph.w[on]
    hop = u != v
    # no (u, v) cell repeats within a label, so each += adds one weight to 0
    S = np.zeros((graph.n, graph.n), dtype=complex)
    S[u, v] += w
    S[v[hop], u[hop]] += w[hop]
    return S


def validate_proper_coloring(graph: LabeledGraph) -> ColoringReport:
    """Check that no vertex has two incident non-loop edges sharing a label. A violation is an
    incidence whose (vertex, label) an earlier one has, in edge-scan order (u, then v, of each edge)."""
    hop = np.flatnonzero(graph.u != graph.v)
    # incidence 2k + j, endpoint j of edge hop[k], keyed by vertex x labels + label, which the size rule bounds
    key = np.column_stack([graph.u[hop], graph.v[hop]]).reshape(-1) * len(graph.labels)
    key += np.repeat(graph.c[hop], 2)
    order = np.argsort(key, kind="stable")  # ties in scan order: each run of one key starts at its first incidence
    sorted_key = key[order]
    repeat = sorted_key[1:] == sorted_key[:-1]
    i = int(np.min(order[1:], where=repeat, initial=len(key)))  # the first violation in scan order, if any
    if i == len(key):
        return ColoringReport(proper=True, count=0, first=None)
    e, earlier = graph.edge(hop[i // 2]), graph.edge(hop[int(np.argmax(key == key[i])) // 2])
    return ColoringReport(proper=False, count=int(np.count_nonzero(repeat)), first=(e[i % 2], e.label, earlier, e))


def common_degree(n: int, ends) -> int:
    """Degree of every vertex 0..n-1 as counted in `ends`, or raise NotRegularError."""
    if n < 1:
        raise ValueError(f"graph needs at least one vertex, got n={n}")
    deg = np.bincount(np.asarray(ends, dtype=np.int64), minlength=n).tolist()
    if len(set(deg)) != 1:
        raise NotRegularError(deg)
    return deg[0]


def path_colors(graph: LabeledGraph, path: Iterable[int]) -> tuple[str, ...]:
    """Labels of the edges along a path, in order.

    Requires consecutive vertices to be adjacent and each path edge to carry
    exactly one label. That the coloring is proper is the caller's check
    (`validate_proper_coloring`).
    """
    path = list(path)
    lo, hi = np.minimum(graph.u, graph.v), np.maximum(graph.u, graph.v)
    colors = []
    for u, v in zip(path, path[1:]):
        on = (lo == min(u, v)) & (hi == max(u, v)) & (lo != hi)
        labels = [graph.labels[c] for c in graph.c[on].tolist()]
        if not labels:
            raise ValueError(f"path vertices {u} and {v} are not adjacent")
        if len(labels) > 1:
            raise ValueError(f"edge ({u},{v}) carries several labels {labels}; path color is ambiguous")
        colors.append(labels[0])
    return tuple(colors)


def bfs_path(graph: LabeledGraph, source: int, target: int) -> tuple[int, ...]:
    """Shortest path by breadth-first search; raises if disconnected. Level by level over
    a CSR neighbor array, frontier vertices in order claim their unvisited neighbors, ascending."""
    if not (0 <= source < graph.n and 0 <= target < graph.n):
        raise ValueError(f"path endpoints ({source},{target}) outside 0..{graph.n - 1}")
    hop = graph.u != graph.v
    src, dst = np.concatenate([graph.u[hop], graph.v[hop]]), np.concatenate([graph.v[hop], graph.u[hop]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    start = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=graph.n))])  # f: dst[start[f]:start[f + 1]]
    prev = np.full(graph.n, -1, dtype=np.int64)
    prev[source] = source
    frontier = np.array([source], dtype=np.int64)
    while frontier.size and prev[target] < 0:
        lo, count = start[frontier], start[frontier + 1] - start[frontier]
        at = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())  # slices end to end
        nbr, parent = dst[at], np.repeat(frontier, count)
        new = prev[nbr] < 0
        nbr, parent = nbr[new], parent[new]
        # a repeated neighbor (several frontier parents or labels) goes to its first parent
        first = np.sort(np.unique(nbr, return_index=True)[1], kind="stable")
        frontier = nbr[first]
        prev[frontier] = parent[first]
    if prev[target] < 0:
        raise ValueError(f"vertices {source} and {target} are not connected")
    path = [target]
    while path[-1] != source:
        path.append(int(prev[path[-1]]))
    return tuple(reversed(path))


# ---------------------------------------------------------------------------
# Builders


def _check_size(labels: int, n: int, edges: int = 0):
    """Refuse a graph whose states (labels x n amplitudes) or edges would be over DENSE_SECTOR_ENTRIES;
    a builder calls it on its parameters, before its first edge, and every graph once more when it is made."""
    if labels * n > DENSE_SECTOR_ENTRIES:
        raise ValueError(f"a state of {labels} labels x {n} vertices is over the limit "
                         f"of {DENSE_SECTOR_ENTRIES} amplitudes")
    if edges > DENSE_SECTOR_ENTRIES:
        raise ValueError(f"a graph of {edges} edges is over the limit of {DENSE_SECTOR_ENTRIES} edges")


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
    _check_size(N, N, N - 1)
    j = np.arange(1, N)
    return LabeledGraph.from_columns(N, map(str, range(N)), np.zeros_like(j), j, j, np.ones(N - 1))


def _path(n: int, labels, c) -> LabeledGraph:
    """The path 0-1-...-(n-1), edge (i, i+1) under label index c[i]."""
    i = np.arange(n - 1)
    return LabeledGraph.from_columns(n, labels, i, i + 1, c, np.ones(n - 1))


def line2(L: int) -> LabeledGraph:
    """Path on 2L+1 vertices (positions -L..L), edge labels cycling 0,1."""
    if L < 1:
        raise ValueError(f"line2 needs L >= 1, got {L}")
    n = 2 * L + 1
    _check_size(2, n, n - 1)
    return _path(n, ("0", "1"), np.arange(n - 1) % 2)


def line3(L: int) -> LabeledGraph:
    """Path on 2L+1 vertices (positions -L..L), edge labels cycling 0,1,2."""
    if L < 1:
        raise ValueError(f"line3 needs L >= 1, got {L}")
    n = 2 * L + 1
    _check_size(3, n, n - 1)
    return _path(n, ("0", "1", "2"), np.arange(n - 1) % 3)


def segment_line(M: int) -> LabeledGraph:
    """Line of M vertices whose unit segments alternate blue/red.

    Vertex i is walker position i+1. The first segment is blue so that the
    switching transfer protocol, which starts in the blue coin sector, moves
    on its first step.
    """
    if M < 2:
        raise ValueError(f"segment_line needs M >= 2, got {M}")
    _check_size(2, M, M - 1)
    return _path(M, ("r", "b"), np.arange(1, M) % 2)  # segment k is "b" (index 1) for even k


def _ladder(n: int, w) -> LabeledGraph:
    """Self-loops (v, v) under label "0" with weight w[0][v], each followed by one under "1" with w[1][v]."""
    v = np.repeat(np.arange(n), 2)
    return LabeledGraph.from_columns(n, ("0", "1"), v, v, np.tile([0, 1], n),
                                      np.column_stack(w).astype(float).reshape(-1))


def fock_g0(n_max: int, g: float = 1.0) -> LabeledGraph:
    """Self-loop ladder with weights +g*n/2 (label 0) and -g*n/2 (label 1)."""
    if n_max < 1:
        raise ValueError(f"fock_g0 needs n_max >= 1, got {n_max}")
    _check_size(2, n_max + 1, 2 * (n_max + 1))
    # Python arithmetic through an object column: -g * 0 / 2.0 is +0.0 for an integer g, and
    # an inf * 0 raises no numpy warning, as in Python
    with np.errstate(all="ignore"):
        v = np.arange(n_max + 1, dtype=object)
        w = g * v / 2.0, -g * v / 2.0
    return _ladder(n_max + 1, w)


def fock_g0p(n_max: int) -> LabeledGraph:
    """Two-mode self-loop ladder: vertex (n, m) carries weights +-(n+m+1)/2."""
    if n_max < 1:
        raise ValueError(f"fock_g0p needs n_max >= 1, got {n_max}")
    side = n_max + 1
    _check_size(2, side * side, 2 * side * side)
    n, m = np.divmod(np.arange(side * side), side)  # vertex n * side + m
    w = (n + m + 1) / 2.0
    return _ladder(side * side, (w, -w))


def cycle(n: int) -> LabeledGraph:
    """n-cycle under a single label (2-regular for n >= 3)."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    _check_size(1, n, n)
    i = np.arange(n)
    return LabeledGraph.from_columns(n, ("0",), i, (i + 1) % n, np.zeros_like(i), np.ones(n))


def complete(n: int) -> LabeledGraph:
    """Complete graph on n vertices under a single label."""
    if n < 2:
        raise ValueError(f"complete needs n >= 2, got {n}")
    m = n * (n - 1) // 2
    _check_size(1, n, m)
    u, v = np.triu_indices(n, 1)  # (0, 1), (0, 2), ..., (n-2, n-1)
    return LabeledGraph.from_columns(n, ("0",), u, v, np.zeros(m, dtype=np.intp), np.ones(m))


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
    try:
        return builder(*args, **kwargs)
    except TypeError as exc:  # a wrong parameter count, or a float where a count goes
        raise ValueError(f"bad parameters for graph family {family!r}: {exc}") from None


def signed_coords(n: int) -> np.ndarray:
    """Coordinates -L..L for a line on n = 2L+1 vertices."""
    return np.arange(n, dtype=float) - (n - 1) // 2


# ---------------------------------------------------------------------------
# JSON persistence

_SCHEMA_HINT = '{"n": int, "labels": [str, ...], "edges": [[u, v, label, weight?], ...]}'


def _check_record(rec) -> float:
    """The weight of a JSON edge record; raise on one that is malformed, naming it."""
    # exact type tests: JSON gives int, float, bool, str, None, list or dict
    if type(rec) is not list or not 3 <= len(rec) <= 4:
        raise ValueError(f"edge record {rec!r} is not [u, v, label] or [u, v, label, weight]")
    u, v, label, weight = rec if len(rec) == 4 else (*rec, 1.0)
    if type(u) is not int or type(v) is not int:
        raise ValueError(f"edge record {rec!r} has non-integer endpoints")
    if type(label) is not str:
        raise ValueError(f"edge record {rec!r} has a non-string label")
    if type(weight) is not float and type(weight) is not int:
        raise ValueError(f"edge record {rec!r} has a non-numeric weight")
    try:
        return float(weight)
    except OverflowError:
        raise ValueError(f"edge record {rec!r} has a weight beyond the float range") from None


def load_json(text: str) -> LabeledGraph:
    """Parse a graph document; weight defaults to 1.0 when omitted."""
    enabled = gc.isenabled()
    gc.disable()  # the document is a tree: the collector would only rescan its containers
    try:
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
        if not isinstance(raw_edges, list):
            raise ValueError(f'"edges" must be a list of edge records; expected {_SCHEMA_HINT}')
        # every record's types first, in record order, then the columns: no Edge per record
        w = np.fromiter(map(_check_record, raw_edges), dtype=float, count=len(raw_edges))
        us, vs, names = (tuple(zip(*raw_edges)) or ((),) * 3)[:3]  # a 3-field record ends the zip at its label
        u, v, c = _endpoints(us), _endpoints(vs), _label_column(labels, names)

        def edge(i):  # the Edge that names record i
            rec = raw_edges[i]
            return Edge(*rec[:3], float(rec[3]) if len(rec) == 4 else 1.0)

        return LabeledGraph.from_columns(n, labels, u, v, c, w, edge)
    finally:
        if enabled:
            gc.enable()


def save_json(graph: LabeledGraph) -> str:
    """Serialize in the load_json schema, preserving edge and label order."""
    doc = {
        "n": graph.n,
        "labels": list(graph.labels),
        "edges": [[u, v, graph.labels[c], w] for u, v, c, w in
                  zip(graph.u.tolist(), graph.v.tolist(), graph.c.tolist(), graph.w.tolist())],
    }
    return json.dumps(doc)


def load_json_file(path) -> LabeledGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_json(fh.read())
