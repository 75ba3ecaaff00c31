"""Perfect state transfer on properly edge-colored connected graphs.

The protocol moves an arbitrary coin superposition sum_i alpha_i |c_i>|a>
to the same superposition at vertex b. It doubles the coin space with a
primed copy of every color (the primed sectors carry no edges, so the walk
steps only the N unprimed rows and parked components stay frozen), then
shuttles one component at a time along a fixed path using swap coins between
walk steps of duration 3*pi/2. Each traversed edge multiplies the moving component by exactly i,
so after M edges every component carries the same global factor i^M.

Every coin of the protocol is a transposition of coin basis states, so it is
applied in place as an exchange of rows of the (2N, n) state: P exchanges all
N colors with their primed copies, and C_k, D_l and E_l each exchange one pair
of rows. A stage has at most N amplitudes above AMP_CUTOFF, and the transcript
keeps only those (index, amplitude) pairs, not the 2N*n-dim state.

The segment-line demo at the end runs the simpler switching walk in which
alternating swap coins emulate turning line segments on and off; it holds
only the current state, so its memory grows as O(M).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .graphs import Edge, LabeledGraph, _check_size, bfs_path, path_colors, segment_line, validate_proper_coloring
from .walk import HybridWalk, coin_position_state, position_distribution

STEP_TIME = 3 * np.pi / 2
AMP_CUTOFF = 1e-12  # transcript amplitudes at or below this magnitude are not written


@dataclass(frozen=True)
class PstPlan:
    graph: LabeledGraph
    source: int
    target: int
    path: tuple[int, ...]
    path_labels: tuple[str, ...]
    labels: tuple[str, ...]
    primed_labels: tuple[str, ...]

    @property
    def num_colors(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.path) - 1

    @property
    def coin_dim(self) -> int:
        return 2 * len(self.labels)


@dataclass
class PstStage:
    """The amplitudes of a stage above AMP_CUTOFF, at their flat state indices."""

    name: str
    index: np.ndarray
    amplitude: np.ndarray


@dataclass
class PstTranscript:
    """Each stage as its (index, amplitude) pairs above AMP_CUTOFF, all that the
    artifact writes (`record` checks the full state's norm first), and the phase ledger."""

    coin_labels: tuple[str, ...]
    pos_dim: int
    stages: list[PstStage] = field(default_factory=list)
    phase_checks: list[tuple[int, complex, complex]] = field(default_factory=list)
    expected_phase: complex = 1.0
    fidelity: float = 0.0

    def record(self, name: str, state: np.ndarray):
        nrm = np.sqrt(np.vdot(state, state).real)  # one BLAS call, without np.linalg.norm's dispatch
        if not abs(nrm - 1.0) <= 1e-9:  # a NaN norm fails too
            raise linalg.NumericalViolation(f"norm drifted to {nrm:.12g} at stage {name}")
        keep = np.flatnonzero(np.abs(state) > AMP_CUTOFF)
        self.stages.append(PstStage(name, keep, state[keep]))

    def to_json_dict(self) -> dict:
        # "+ 0.0" turns -0.0 into 0.0, so computed amplitudes do not depend on
        # which kernel produced an exact zero; "expected" derives from alpha only
        stages = []
        for stage in self.stages:
            amps = stage.amplitude
            re, im = (amps.real + 0.0).tolist(), (amps.imag + 0.0).tolist()
            dump = {f"{self.coin_labels[k // self.pos_dim]}|{k % self.pos_dim}": [r, i]
                    for k, r, i in zip(stage.index.tolist(), re, im)}
            stages.append({"name": stage.name, "state": dump})
        return {
            "stages": stages,
            "phase_checks": [
                {"component": l + 1,
                 "measured": [m.real + 0.0, m.imag + 0.0],
                 "expected": [e.real, e.imag]}
                for l, m, e in self.phase_checks
            ],
            "fidelity": self.fidelity,
        }


def make_plan(graph: LabeledGraph, source: int, target: int, path=None) -> PstPlan:
    """Validate the graph and pick (or check) the transfer path.

    The (2N, n) transfer state must be within the size rule, the coloring proper, without self-loops (each
    color class a matching), all edge weights exactly 1, and the endpoints distinct and connected. Without an
    explicit path the BFS shortest path is used.
    """
    _check_size(2 * len(graph.labels), graph.n)  # the (2N, n) state of `run_pst`, before any scan of the graph
    report = validate_proper_coloring(graph)
    if not report.proper:
        v, lab, e1, e2 = report.first
        raise ValueError(
            f"coloring is not proper ({report.count} violation(s)); "
            f"e.g. vertex {v} meets label {lab!r} on edges {tuple(e1[:2])} and {tuple(e2[:2])}"
        )
    loop = np.flatnonzero(graph.u == graph.v)
    if loop.size:
        raise ValueError(f"transfer protocol requires no self-loops; offending edge: {graph.edge(loop[0])}")
    bad = np.flatnonzero(np.abs(graph.w - 1.0) > 1e-12)
    if bad.size:
        raise ValueError(f"transfer protocol requires unit edge weights; offending edge: {graph.edge(bad[0])}")
    if source == target:
        raise ValueError("source and target must be distinct vertices")
    if path is None:
        path = bfs_path(graph, source, target)
    else:
        path = tuple(int(v) for v in path)
        if path[0] != source or path[-1] != target:
            raise ValueError(f"path {path} does not run from {source} to {target}")
    labels = graph.labels
    colors = path_colors(graph, path)
    # proper coloring forces distinct colors on consecutive edges of a simple
    # path; a repeat means the path backtracks over the same edge
    for k, (c1, c2) in enumerate(zip(colors, colors[1:])):
        if c1 == c2:
            raise ValueError(
                f"path edges {k} and {k + 1} both carry color {c1!r}; "
                "the path must not backtrack")
    return PstPlan(
        graph=graph,
        source=source,
        target=target,
        path=tuple(path),
        path_labels=colors,
        labels=labels,
        primed_labels=tuple(lab + "'" for lab in labels),
    )


def run_pst(plan: PstPlan, alpha) -> tuple[np.ndarray, PstTranscript]:
    """Execute the transfer protocol on the coin amplitudes `alpha`.

    Returns the final state over the doubled coin space and a transcript with
    every intermediate state above the cutoff plus the per-component phase
    bookkeeping. The final state equals i^M * sum_i alpha_i |c_i>|b> up to float error.
    """
    N = plan.num_colors
    M = plan.num_edges
    n = plan.graph.n
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (N,):
        raise ValueError(f"alpha must supply {N} coin amplitudes, got shape {alpha.shape}")
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        nrm = np.linalg.norm(alpha)
    if not abs(nrm - 1.0) <= 1e-9:  # a NaN norm fails too
        raise ValueError(f"alpha is not normalized: ||alpha|| = {nrm:.12g}")

    # Primed labels have no edges, so the evolution leaves their rows alone:
    # a step is a coin, then the walk over the graph's own N labels on the first N rows.
    walk = HybridWalk(plan.graph, coin="identity")
    path_idx = [plan.labels.index(lab) for lab in plan.path_labels]
    rows = np.zeros((plan.coin_dim, n), dtype=complex)
    rows[:N, plan.source] = alpha
    state = rows.reshape(-1)  # a flat view: the coins below write into `rows` in place

    transcript = PstTranscript(
        coin_labels=plan.labels + plan.primed_labels,
        pos_dim=n,
        expected_phase=1j**M,
    )

    def step(a, b, name):
        rows[[a, b]] = rows[[b, a]]
        state[:N * n] = walk.step(STEP_TIME, state[:N * n])
        transcript.record(name, state)

    rows[:] = np.roll(rows, N, axis=0)  # P: color i <-> primed color i
    transcript.record("P", state)
    for l in range(N):
        step(path_idx[0], N + l, f"iter{l + 1}.D")
        for k in range(M - 1):
            step(path_idx[k], path_idx[k + 1], f"iter{l + 1}.C{k + 1}")
        rows[[path_idx[-1], N + l]] = rows[[N + l, path_idx[-1]]]
        transcript.record(f"iter{l + 1}.E", state)
        transcript.phase_checks.append((l, rows[N + l, plan.target], transcript.expected_phase * alpha[l]))
    rows[:] = np.roll(rows, N, axis=0)
    transcript.record("P.final", state)
    transcript.fidelity = verify_pst(plan, state, alpha)
    return state, transcript


def verify_pst(plan: PstPlan, final_state, alpha) -> float:
    """Fidelity of the final state with sum_i alpha_i |c_i>|target>."""
    N = plan.num_colors
    n = plan.graph.n
    alpha = np.asarray(alpha, dtype=complex)
    alpha = alpha / np.linalg.norm(alpha)
    want = np.zeros(plan.coin_dim * n, dtype=complex)
    for i in range(N):
        want[i * n + plan.target] = alpha[i]
    return linalg.fidelity(want, final_state)


# ---------------------------------------------------------------------------
# Switching-walk emulation on the alternating segment line


@dataclass
class SegmentTransfer:
    graph: LabeledGraph
    final_state: np.ndarray
    coin_record: tuple[str, ...]
    final_distribution: np.ndarray
    final_probability: float
    target_vertex: int


def segment_line_transfer(M: int) -> SegmentTransfer:
    """Walk |b>|1> across the alternating segment line to position M.

    Step k uses the identity coin for k = 1 and the r/b swap afterwards, so
    the coin always selects the next segment; each quarter-period evolution
    moves the walker one segment with probability one.
    """
    g = segment_line(M)
    walk = HybridWalk(g, coin="identity")
    b_idx = g.labels.index("b")
    psi = coin_position_state(2, M, b_idx, 0)
    record = []
    for k in range(1, M):
        # the r/b swap coin exchanges the two coin rows
        psi = walk.step(np.pi / 2, psi if k == 1 else psi.reshape(2, M)[::-1].reshape(-1))
        weights = (np.abs(psi.reshape(2, M)) ** 2).sum(axis=1)
        record.append(g.labels[int(np.argmax(weights))])
    P = position_distribution(psi, 2, M)
    return SegmentTransfer(graph=g, final_state=psi, coin_record=tuple(record),
                           final_distribution=P, final_probability=float(P[M - 1]),
                           target_vertex=M - 1)


def demo_tree() -> LabeledGraph:
    """Complete binary tree on 15 vertices, properly 3-colored.

    Node i has children 2i+1 and 2i+2; child edges take the two colors the
    parent edge does not use. Mirrors the depth and coloring pattern of the
    tree transfer demonstration.
    """
    edges = []
    color_of_parent_edge = {0: None}
    for i in range(7):
        banned = color_of_parent_edge[i]
        free = [c for c in ("0", "1", "2") if c != banned]
        for child, color in zip((2 * i + 1, 2 * i + 2), free):
            edges.append(Edge(i, child, color))
            color_of_parent_edge[child] = color
    return LabeledGraph(15, tuple(edges), ("0", "1", "2"))
