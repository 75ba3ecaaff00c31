"""Products of regular-graph adjacency matrices via multi-register walks.

To read off C_ij = (A^(K) ... A^(1))_ij, the state |j,0,...,0,j> over K+1
base-n registers is pushed through one walk stage per factor. Stage l walks
register K+1 for time pi/(2 sqrt(d_l)) conditioned on register l, mapping a
vertex onto the uniform superposition of its neighbors (times -i), and a
generalized CNOT then adds the new vertex, in place, into register l+1 (which
holds 0). Every row entering stage l thus holds one value in register l and
the last register, the only rows `stage_walk` takes: a stage repeats each row
once per neighbor, and a column peaks at about the bytes of its final state.
Projecting the final state on register 1 = j and register K+1 = i leaves squared
amplitude C_ij / (d_K ... d_1), because every surviving path contributes the
0/1 product of its adjacency entries. Each factor is validated once into an
(n, d_l) neighbor table, O(K n d) memory in all. A state is an int array of
register values beside an array of amplitudes and may hold many columns j; the
matrix and trace walk the columns in blocks of at most max(graphs.BLOCK_ENTRIES, D)
rows, D = d_1...d_K, each final row adding its |amp|^2 to entry (last register,
register 1) in row order: O(n D) array work, and besides the tables and the
output the block sets the peak memory. Walks over DENSE_SECTOR_ENTRIES register
entries are refused. Only `product_matrix`'s output and `classical_product` are n x n.

Exact projection is the default readout; a seeded binomial sampler stands in
for hardware-style amplitude estimation: every entry point draws entry (i, j)
from a generator seeded by [seed, i, j] (`sample_projector`) and takes the value
D * (hits / shots), so entries, matrices, traces and triangle counts agree; the
matrix and trace draw no entry of projection 0, which always reads 0.
`classical_product` multiplies the same tables as integers, the baseline every
quantum product is checked against; the triangle oracles live in `tests/_reference.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .graphs import BLOCK_ENTRIES, DENSE_SECTOR_ENTRIES, LabeledGraph, common_degree


def _neighbor_table(g) -> np.ndarray:
    """Ascending (n, d) neighbor table of a simple d-regular LabeledGraph or 0/1 array."""
    if isinstance(g, LabeledGraph):
        lo, hi = np.minimum(g.u, g.v), np.maximum(g.u, g.v)
        pair = np.lexsort((hi, lo))
        # a pair under two labels is no single 0/1 adjacency entry
        doubled = ((np.diff(lo[pair]) == 0) & (np.diff(hi[pair]) == 0)).any()
        if doubled or not ((1.0 - 1e-12 <= g.w) & (g.w <= 1.0)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        n, src, dst = g.n, np.concatenate([g.u, g.v]), np.concatenate([g.v, g.u])
    else:
        A = np.asarray(g, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {A.shape}")
        if not ((np.abs(A - np.rint(A)) <= 1e-12) & (A >= 0) & (A <= 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        A = np.rint(A)
        if (A != A.T).any():
            raise ValueError("adjacency must be symmetric")
        n, (src, dst) = len(A), np.nonzero(A)
    if (src == dst).any():
        raise ValueError("adjacency must have a zero diagonal")
    d = common_degree(n, src)
    if d < 1:
        raise ValueError("regular degree must be at least 1")
    return dst[np.lexsort((dst, src))].reshape(n, d)


@dataclass(frozen=True)
class RegularGraphSequence:
    """Factors A^(1)..A^(K) on a common vertex set as (n, d_l) neighbor tables, ascending."""

    tables: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return self.tables[0].shape[0]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.tables)

    @property
    def degree_product(self) -> int:
        return math.prod(self.degrees)


def regular_sequence(factors) -> RegularGraphSequence:
    """Validate factor graphs (LabeledGraphs or 0/1 arrays) into neighbor tables, once."""
    tables = tuple(_neighbor_table(g) for g in factors)
    if not tables:
        raise ValueError("need at least one factor graph")
    if len({len(t) for t in tables}) > 1:
        raise ValueError(f"factor graphs disagree on vertex count: {[len(t) for t in tables]}")
    return RegularGraphSequence(tables=tables)


# ---------------------------------------------------------------------------
# Multi-register states


@dataclass
class MultiRegisterState:
    """Amplitude `amps[r]` on base-n register values `regs[r]` ((m, R) int64, distinct rows)."""

    n: int
    regs: np.ndarray
    amps: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def initial_state(n: int, K: int, j) -> MultiRegisterState:
    """|j, 0, ..., 0, j> over K+1 registers; one row per column for an array of distinct j."""
    js = np.atleast_1d(np.asarray(j, dtype=np.int64))
    if ((js < 0) | (js >= n)).any():
        raise ValueError(f"vertex index {j} outside 0..{n - 1}")
    regs = np.column_stack([js] + [np.zeros_like(js)] * (K - 1) + [js])
    return MultiRegisterState(n=n, regs=regs, amps=np.ones(len(js), dtype=complex))


def stage_walk(state: MultiRegisterState, l: int, neighbors: np.ndarray) -> MultiRegisterState:
    """Walk the last register for time pi/(2 sqrt(d)), conditioned on register l,
    reading the (n, d) table `neighbors` that `regular_sequence` validated.

    Every row must hold its coin value k in the last register too, as the copy step
    leaves it. The star-of-k block has the two nonzero eigenvalues +-sqrt(d), so the
    quarter-period evolution maps |k> onto -i/sqrt(d) times the sum of its neighbors:
    each row becomes d rows, one per neighbor. A row whose last register differs
    from register l is refused.
    """
    n, d = neighbors.shape
    if n != state.n:
        raise ValueError(f"neighbor table of {n} vertices does not match register base {state.n}")
    if not 1 <= l < state.regs.shape[1]:
        raise ValueError(f"stage register {l} outside 1..{state.regs.shape[1] - 1}")
    k = state.regs[:, l - 1]
    if (state.regs[:, -1] != k).any():
        raise ValueError(f"stage {l} walks only rows whose last register equals register {l}")
    regs = np.repeat(state.regs, d, axis=0)
    regs[:, -1] = neighbors[k].ravel()
    return MultiRegisterState(n=state.n, regs=regs, amps=np.repeat(state.amps * (-1j / np.sqrt(d)), d))


def generalized_cnot(state: MultiRegisterState, control: int, target: int) -> MultiRegisterState:
    """Map the target register value j to (j + i) mod n with i the control value, in
    place: `state` itself is returned, its target column overwritten."""
    R = state.regs.shape[1]
    for name, r in (("control", control), ("target", target)):
        if not 1 <= r <= R:
            raise ValueError(f"{name} register {r} outside 1..{R}")
    if control == target:
        raise ValueError("control and target registers must differ")
    col = state.regs[:, target - 1]
    col += state.regs[:, control - 1]
    col %= state.n
    return state


def run_sequence(seq: RegularGraphSequence, j) -> MultiRegisterState:
    """Final state for column(s) j: stages 1..K, with the copy step after each
    stage except the last (register K+1 already holds the stage-K vertex)."""
    K = len(seq.tables)
    state = initial_state(seq.n, K, j)
    if (rows := len(state.amps) * seq.degree_product) * (K + 1) > DENSE_SECTOR_ENTRIES:
        raise ValueError(f"a walk of {rows} rows x {K + 1} registers is over the limit of "
                         f"{DENSE_SECTOR_ENTRIES} entries")
    for l, table in enumerate(seq.tables, 1):
        state = stage_walk(state, l, table)
        if l < K:
            state = generalized_cnot(state, control=K + 1, target=l + 1)
    return state


def projection_probability(state: MultiRegisterState, i: int, j: int) -> float:
    """Squared norm of the projection onto register 1 = j, last register = i, summed
    in row order: the sum that `product_matrix` and `product_trace` scatter into (i, j)."""
    hit = (state.regs[:, 0] == j) & (state.regs[:, -1] == i)
    return reduce(float.__add__, (np.abs(state.amps[hit]) ** 2).tolist(), 0.0)


def sample_projector(p: float, i: int, j: int, shots: int, seed) -> tuple[int, float]:
    """Binomial draw of `shots` trials of a projection of probability p for entry
    (i, j), seeded by [seed, i, j]; returns (hits, hits / shots)."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    hits = int(np.random.default_rng([seed, i, j]).binomial(shots, p))
    return hits, hits / shots


# ---------------------------------------------------------------------------
# Product entries, traces, triangles


@dataclass(frozen=True)
class ProductEstimate:
    i: int
    j: int
    value: float
    probability: float
    mode: str
    shots: int | None = None
    seed: object = None
    hits: int | None = None
    ci_radius: float | None = None
    meets_half_integer: bool = True

    @property
    def rounded(self) -> int:
        return int(round(self.value))


def _check_mode(mode: str, shots, seed):
    if mode not in ("exact", "shots"):
        raise ValueError(f"mode must be 'exact' or 'shots', got {mode!r}")
    if mode == "shots":
        if shots is None or shots < 1:
            raise ValueError("shots mode needs a positive shot count")
        if shots > np.iinfo(np.int64).max:
            raise ValueError(f"shot count {shots} exceeds the int64 sampler limit")
        if seed is None:
            raise ValueError("shots mode needs a seed for reproducibility")
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def product_entry(seq: RegularGraphSequence, i: int, j: int, mode: str = "exact",
                  shots: int | None = None, seed=None) -> ProductEstimate:
    """Estimate C_ij = (A^(K)...A^(1))_ij = d_K...d_1 * P(register projection)."""
    if not (0 <= i < seq.n and 0 <= j < seq.n):
        raise ValueError(f"entry ({i},{j}) outside 0..{seq.n - 1}")
    _check_mode(mode, shots, seed)
    p = projection_probability(run_sequence(seq, j), i, j)
    D = seq.degree_product
    if mode == "exact":
        return ProductEstimate(i=i, j=j, value=D * p, probability=p, mode=mode)
    hits, est = sample_projector(p, i, j, shots, seed)
    radius = 3.0 * D * np.sqrt(max(est * (1.0 - est), 0.0) / shots)
    return ProductEstimate(i=i, j=j, value=D * est, probability=est, mode=mode,
                           shots=shots, seed=seed, hits=hits, ci_radius=radius,
                           meets_half_integer=bool(radius < 0.5))


def _read_columns(seq: RegularGraphSequence, size: int, index, entry, mode: str, shots, seed) -> np.ndarray:
    """D * (P or hits / shots) over `size` entries. Of each block of columns, the final rows that `index(i, j)` picks
    by last and first register add their |amp|^2 at its positions in row order; shots mode then draws only the
    P[k] > 0, as entry `entry(k)`, since binomial(shots, 0) is 0."""
    _check_mode(mode, shots, seed)
    P = np.zeros(size)
    step = max(1, BLOCK_ENTRIES // seq.degree_product)
    for first in range(0, seq.n, step):
        s = run_sequence(seq, np.arange(first, min(first + step, seq.n)))
        rows, at = index(s.regs[:, -1], s.regs[:, 0])
        np.add.at(P, at, np.abs(s.amps[rows]) ** 2)
        del s  # no block outlives its readout
    if mode == "shots":
        on = np.flatnonzero(P)
        P[on] = [sample_projector(p, *entry(k), shots, seed)[1] for p, k in zip(P[on].tolist(), on.tolist())]
    P *= seq.degree_product
    return P


def product_matrix(seq: RegularGraphSequence, mode: str = "exact",
                   shots: int | None = None, seed=None) -> np.ndarray:
    """All entries, scattered from each block's final rows into the flat C."""
    n = seq.n
    return _read_columns(seq, n * n, lambda i, j: (slice(None), i * n + j), lambda k: divmod(k, n),
                         mode, shots, seed).reshape(n, n)


def product_trace(seq: RegularGraphSequence, mode: str = "exact",
                  shots: int | None = None, seed=None) -> float:
    """Sum, in k order, of the diagonal entries `product_matrix` would hold, read from
    the final rows whose last register equals register 1."""
    diag = _read_columns(seq, seq.n, lambda i, j: (i == j, j[i == j]), lambda k: (k, k), mode, shots, seed)
    return reduce(float.__add__, diag.tolist(), 0.0)


def triangles_at_vertex(g, k: int, mode: str = "exact",
                        shots: int | None = None, seed=None) -> int:
    """Triangles containing vertex k, as round((A^3)_kk) / 2."""
    seq = RegularGraphSequence(regular_sequence([g]).tables * 3)  # g validated once
    if not 0 <= k < seq.n:
        raise ValueError(f"vertex {k} outside 0..{seq.n - 1}")
    est = product_entry(seq, k, k, mode=mode, shots=shots, seed=seed)
    return int(round(est.value)) // 2


def triangle_count(g, mode: str = "exact", shots: int | None = None, seed=None) -> int:
    """Total number of triangles, tr(A^3) / 6."""
    seq = RegularGraphSequence(regular_sequence([g]).tables * 3)
    tr = product_trace(seq, mode=mode, shots=shots, seed=seed)
    return int(round(tr / 6.0))


# ---------------------------------------------------------------------------
# Classical product: the integer baseline, built from the tables


def classical_product(seq: RegularGraphSequence) -> np.ndarray:
    """Integer matrix product A^(K) @ ... @ A^(1), each row of A @ C summing the rows
    of C its table names; the verification baseline, and the adjacency for K = 1."""
    return reduce(lambda C, table: C[table].sum(axis=1), seq.tables, np.eye(seq.n, dtype=int))
