"""Products of regular-graph adjacency matrices via multi-register walks.

To read off C_ij = (A^(K) ... A^(1))_ij, the state |j,0,...,0,j> over K+1
base-n registers is pushed through one walk stage per factor. Stage l walks
register K+1 for time pi/(2 sqrt(d_l)) conditioned on register l, mapping a
vertex onto the uniform superposition of its neighbors (times -i), and a
generalized CNOT then copies the new vertex into register l+1. Projecting
the final state on register 1 = j and register K+1 = i leaves squared
amplitude C_ij / (d_K ... d_1), because every surviving path contributes the
0/1 product of its adjacency entries. A state is an int array of register
values beside an array of amplitudes and may hold many columns j; the matrix is
walked in blocks of at most 2^14 rows, each read by one `np.bincount`, which is
O(n D) array work for D = d_1...d_K, not O(n^2 D).

Exact projection is the default readout; a seeded binomial sampler stands in
for hardware-style amplitude estimation. Classical oracles for products and
triangle counts live here too, so every quantum result can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .graphs import LabeledGraph, NotRegularError, adjacency

_PRUNE_ATOL = 1e-15
_BLOCK_ROWS = 1 << 14  # amplitude rows per block of columns: bounds peak memory


def _as_adjacency(g) -> np.ndarray:
    """0/1 integer adjacency from a LabeledGraph or array-like."""
    A = adjacency(g).real if isinstance(g, LabeledGraph) else np.asarray(g, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {A.shape}")
    if np.abs(A - np.rint(A)).max(initial=0.0) > 1e-12 or A.min(initial=0.0) < 0 or A.max(initial=0.0) > 1:
        raise ValueError("adjacency entries must be 0 or 1")
    A = np.rint(A).astype(int)
    if (np.diag(A) != 0).any():
        raise ValueError("adjacency must have a zero diagonal")
    if (A != A.T).any():
        raise ValueError("adjacency must be symmetric")
    return A


def _regular_degree(A: np.ndarray) -> int:
    row_sums = A.sum(axis=1)
    if len(set(row_sums.tolist())) != 1:
        raise NotRegularError(row_sums.tolist())
    d = int(row_sums[0])
    if d < 1:
        raise ValueError("regular degree must be at least 1")
    return d


@dataclass(frozen=True)
class RegularGraphSequence:
    """Ordered factors A^(1)..A^(K), all d_l-regular on a common vertex set."""

    mats: tuple[np.ndarray, ...]
    degrees: tuple[int, ...]
    n: int

    @property
    def K(self) -> int:
        return len(self.mats)

    @property
    def degree_product(self) -> int:
        return int(np.prod(self.degrees))


def regular_sequence(factors) -> RegularGraphSequence:
    """Validate and package factor graphs (LabeledGraphs or 0/1 arrays)."""
    mats = tuple(_as_adjacency(g) for g in factors)
    if not mats:
        raise ValueError("need at least one factor graph")
    n = mats[0].shape[0]
    if any(A.shape[0] != n for A in mats):
        raise ValueError(f"factor graphs disagree on vertex count: {[A.shape[0] for A in mats]}")
    return RegularGraphSequence(mats=mats, degrees=tuple(_regular_degree(A) for A in mats), n=n)


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


def stage_walk(state: MultiRegisterState, l: int, A, d: int) -> MultiRegisterState:
    """Walk the last register for time pi/(2 sqrt(d)), conditioned on register l.

    For coin value k the star-of-k block has the two nonzero eigenvalues
    +-sqrt(d), so the quarter-period evolution has a closed form: the vertex
    |k> itself maps to -i/sqrt(d) times the sum of its neighbors, and any
    other vertex v picks up -i A_vk/sqrt(d) |k> minus A_vk/d times the
    neighbor sum. The algorithm only ever hits the first branch.
    """
    A = _as_adjacency(A)
    if A.shape[0] != state.n:
        raise ValueError(f"adjacency of size {A.shape[0]} does not match register base {state.n}")
    if not 1 <= l < state.regs.shape[1]:
        raise ValueError(f"stage register {l} outside 1..{state.regs.shape[1] - 1}")
    if _regular_degree(A) != d:
        raise ValueError(f"adjacency is not {d}-regular")
    neighbors = np.nonzero(A.T)[1].reshape(state.n, d)  # ascending per vertex
    scale = -1j / np.sqrt(d)
    k, v = state.regs[:, l - 1], state.regs[:, -1]
    on, adj = v == k, A[v, k] == 1
    src = on | adj
    regs = np.repeat(state.regs[src], d, axis=0)
    regs[:, -1] = neighbors[k[src]].ravel()
    amps = np.repeat(state.amps[src] * np.where(on, scale, -1.0 / d)[src], d)
    if not on.all():
        # off-coin rows also keep |v> and, when v ~ k, gain -i/sqrt(d) |k>; merge
        to_k = np.column_stack([state.regs[adj, :-1], k[adj]])
        regs = np.concatenate([regs, state.regs[~on], to_k])
        amps = np.concatenate([amps, state.amps[~on], state.amps[adj] * scale])
        regs, inv = np.unique(regs, axis=0, return_inverse=True)
        amps = np.bincount(inv, amps.real, len(regs)) + 1j * np.bincount(inv, amps.imag, len(regs))
    keep = np.abs(amps) > _PRUNE_ATOL
    return MultiRegisterState(n=state.n, regs=regs[keep], amps=amps[keep])


def generalized_cnot(state: MultiRegisterState, control: int, target: int) -> MultiRegisterState:
    """Map the target register value j to (j + i) mod n with i the control value."""
    R = state.regs.shape[1]
    for name, r in (("control", control), ("target", target)):
        if not 1 <= r <= R:
            raise ValueError(f"{name} register {r} outside 1..{R}")
    if control == target:
        raise ValueError("control and target registers must differ")
    regs = state.regs.copy()
    regs[:, target - 1] = (regs[:, target - 1] + regs[:, control - 1]) % state.n
    return MultiRegisterState(n=state.n, regs=regs, amps=state.amps.copy())


def run_sequence(seq: RegularGraphSequence, j) -> MultiRegisterState:
    """Final state for column(s) j: stages 1..K, with the copy step after each
    stage except the last (register K+1 already holds the stage-K vertex)."""
    state = initial_state(seq.n, seq.K, j)
    for l in range(1, seq.K + 1):
        state = stage_walk(state, l, seq.mats[l - 1], seq.degrees[l - 1])
        if l < seq.K:
            state = generalized_cnot(state, control=seq.K + 1, target=l + 1)
    return state


def projection_probability(state: MultiRegisterState, i: int, j: int) -> float:
    """Squared norm of the projection onto register 1 = j, last register = i."""
    hit = (state.regs[:, 0] == j) & (state.regs[:, -1] == i)
    return float(sum((np.abs(state.amps[hit]) ** 2).tolist()))  # in order, as np.bincount sums


def projection_matrix(state: MultiRegisterState, first: int = 0, width: int | None = None) -> np.ndarray:
    """P[i, c] = |projection on register 1 = first + c, last register = i|^2 by one
    `np.bincount`; register 1 must lie in that window (by default 0..n-1)."""
    width = state.n if width is None else width
    bins = state.regs[:, -1] * width + (state.regs[:, 0] - first)
    return np.bincount(bins, np.abs(state.amps) ** 2, state.n * width).reshape(state.n, width)


def sample_projector(state: MultiRegisterState, i: int, j: int,
                     shots: int, seed) -> tuple[int, float]:
    """Seeded binomial draw of the projection event; returns (hits, estimate)."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = projection_probability(state, i, j)
    rng = np.random.default_rng(seed)
    hits = int(rng.binomial(shots, p))
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


def product_entry(seq: RegularGraphSequence, i: int, j: int, mode: str = "exact",
                  shots: int | None = None, seed=None) -> ProductEstimate:
    """Estimate C_ij = (A^(K)...A^(1))_ij = d_K...d_1 * P(register projection)."""
    if not (0 <= i < seq.n and 0 <= j < seq.n):
        raise ValueError(f"entry ({i},{j}) outside 0..{seq.n - 1}")
    _check_mode(mode, shots, seed)
    state = run_sequence(seq, j)
    D = seq.degree_product
    if mode == "exact":
        p = projection_probability(state, i, j)
        return ProductEstimate(i=i, j=j, value=D * p, probability=p, mode=mode)
    hits, est = sample_projector(state, i, j, shots, seed)
    radius = 3.0 * D * np.sqrt(max(est * (1.0 - est), 0.0) / shots)
    return ProductEstimate(i=i, j=j, value=D * est, probability=est, mode=mode,
                           shots=shots, seed=seed, hits=hits, ci_radius=radius,
                           meets_half_integer=bool(radius < 0.5))


def _column_blocks(seq: RegularGraphSequence):
    """(cols, P[i, c] for entry (i, cols[c])) per block of <= max(_BLOCK_ROWS, D) rows."""
    step = max(1, _BLOCK_ROWS // seq.degree_product)
    for first in range(0, seq.n, step):
        cols = np.arange(first, min(first + step, seq.n))
        yield cols, projection_matrix(run_sequence(seq, cols), first, len(cols))


def product_matrix(seq: RegularGraphSequence, mode: str = "exact",
                   shots: int | None = None, seed=None) -> np.ndarray:
    """All entries, the columns walked in blocks and each block read at once."""
    _check_mode(mode, shots, seed)
    D = seq.degree_product
    C = np.zeros((seq.n, seq.n), dtype=float)
    for cols, P in _column_blocks(seq):
        if mode == "exact":
            C[:, cols] = D * P
            continue
        for (i, c), p in np.ndenumerate(P):
            rng = np.random.default_rng([seed, i, int(cols[c])])
            C[i, cols[c]] = D * rng.binomial(shots, p) / shots
    return C


def product_trace(seq: RegularGraphSequence, mode: str = "exact",
                  shots: int | None = None, seed=None) -> float:
    """Sum of the diagonal entries; shots mode samples entry (k, k) with seed [seed, k]."""
    _check_mode(mode, shots, seed)
    D = seq.degree_product
    total = 0.0
    for cols, P in _column_blocks(seq):
        for k, p in zip(cols.tolist(), P[cols, np.arange(len(cols))].tolist()):
            if mode == "shots":
                p = int(np.random.default_rng([seed, k]).binomial(shots, p)) / shots
            total += D * p
    return total


def triangles_at_vertex(g, k: int, mode: str = "exact",
                        shots: int | None = None, seed=None) -> int:
    """Triangles containing vertex k, as round((A^3)_kk) / 2."""
    seq = regular_sequence([g] * 3)
    est = product_entry(seq, k, k, mode=mode, shots=shots, seed=seed)
    return int(round(est.value)) // 2


def triangle_count(g, mode: str = "exact", shots: int | None = None, seed=None) -> int:
    """Total number of triangles, tr(A^3) / 6."""
    seq = regular_sequence([g] * 3)
    tr = product_trace(seq, mode=mode, shots=shots, seed=seed)
    return int(round(tr / 6.0))


# ---------------------------------------------------------------------------
# Classical oracles


def classical_product(seq: RegularGraphSequence) -> np.ndarray:
    """Integer matrix product A^(K) @ ... @ A^(1); the verification baseline."""
    return reduce(lambda acc, A: A @ acc, seq.mats, np.eye(seq.n, dtype=int))


def classical_triangles_at_vertex(g, k: int) -> int:
    """Enumerate neighbor pairs of k that are themselves adjacent."""
    A = _as_adjacency(g)
    nbrs = np.nonzero(A[k])[0]
    return sum(1 for x in range(len(nbrs)) for y in range(x + 1, len(nbrs))
               if A[nbrs[x], nbrs[y]])


def classical_triangle_count(g) -> int:
    """Enumerate all vertex triples; O(n^3) but independent of everything above."""
    A = _as_adjacency(g)
    n = A.shape[0]
    return sum(1 for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n)
               if A[a, b] and A[b, c] and A[a, c])
