"""Hybrid walk engine.

One walk step is a unitary coin on the label space followed by Hamiltonian
evolution exp(-iHt) with H = sum_c |c><c| (x) S_c, where S_c is the weighted
adjacency matrix of the label-c subgraph. States live on coin (x) position
with coin-major flat indexing (index = c * pos_dim + v).

The evolution exploits the block structure: each coin sector evolves under
its own S_c, with closed forms for diagonal (self-loop) and matching blocks
and an eigendecomposition fallback for everything else. Reference walkers
(continuous, discrete coined) and the closed-form two-vertex-circle oracle
live here as well, so equivalences can always be checked two ways.

Performance model: no propagator matrix is formed or cached. Per step and
per time, a diagonal sector costs O(n) (phase multiply), a matching O(n)
(2x2 rotations on its pairs), a dense sector O(n^2) after one eigh at
construction. `HybridWalk.evolve` takes an array of times in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .graphs import LabeledGraph, circle2, subgraph_adjacency

COIN_UNITARY_ATOL = 1e-10


# ---------------------------------------------------------------------------
# Coins


def identity_coin(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def hadamard_coin() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def fourier_coin(dim: int) -> np.ndarray:
    """Discrete Fourier coin, entries omega^(jk)/sqrt(N) with omega = e^(2*pi*i/N)."""
    j = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)


def grover_coin(dim: int) -> np.ndarray:
    """Reflection 2|s><s| - I about the uniform coin state."""
    return 2.0 / dim * np.ones((dim, dim), dtype=complex) - np.eye(dim)


def permutation_coin(dim: int, swaps) -> np.ndarray:
    """Permutation built from disjoint transpositions; unlisted indices stay fixed."""
    perm = list(range(dim))
    touched = set()
    for i, j in swaps:
        if i in touched or j in touched:
            raise ValueError(f"transpositions are not disjoint at index {i if i in touched else j}")
        touched.update((i, j))
        perm[i], perm[j] = perm[j], perm[i]
    C = np.zeros((dim, dim), dtype=complex)
    C[perm, np.arange(dim)] = 1.0
    return C


_NAMED_COINS = {"identity": identity_coin, "fourier": fourier_coin, "grover": grover_coin}


def make_coin(spec, dim: int) -> np.ndarray:
    """Realize a coin from a name or an explicit matrix and check unitarity."""
    if isinstance(spec, str):
        if spec == "hadamard":
            if dim != 2:
                raise ValueError(f"hadamard coin needs a 2-dim coin space, got {dim}")
            C = hadamard_coin()
        elif spec in _NAMED_COINS:
            C = _NAMED_COINS[spec](dim)
        else:
            raise ValueError(f"unknown coin {spec!r}; choices: hadamard, {', '.join(_NAMED_COINS)}")
    else:
        C = linalg.as_matrix(spec)
        if C.shape != (dim, dim):
            raise ValueError(f"coin of shape {C.shape} does not match coin dim {dim}")
    if not linalg.is_unitary(C, atol=COIN_UNITARY_ATOL):
        raise ValueError("coin matrix is not unitary within 1e-10")
    return C


# ---------------------------------------------------------------------------
# State helpers


def coin_position_state(coin_dim: int, pos_dim: int, coin_index: int, pos_index: int) -> np.ndarray:
    """Basis state |c> (x) |v| as a flat vector."""
    if not (0 <= coin_index < coin_dim and 0 <= pos_index < pos_dim):
        raise ValueError(f"basis indices ({coin_index},{pos_index}) outside ({coin_dim},{pos_dim})")
    psi = np.zeros(coin_dim * pos_dim, dtype=complex)
    psi[coin_index * pos_dim + pos_index] = 1.0
    return psi


def product_state(coin_vec, pos_vec) -> np.ndarray:
    """Flat coin (x) position product state."""
    return np.kron(np.asarray(coin_vec, dtype=complex), np.asarray(pos_vec, dtype=complex))


# ---------------------------------------------------------------------------
# Per-sector kernels

_MATCHING_ZERO_ATOL = 1e-14


class _SectorBlock:
    """One Hamiltonian block S_c, applied as exp(-i S_c t) without forming a matrix.

    Built from the edges of one label. Only a dense block (neither diagonal
    nor a matching) materializes S_c, for its one eigendecomposition.
    """

    def __init__(self, graph: LabeledGraph, label: str, edges):
        n = graph.n
        u = np.array([e.u for e in edges], dtype=np.intp)
        v = np.array([e.v for e in edges], dtype=np.intp)
        w = np.array([e.weight for e in edges], dtype=float)
        loop = u == v
        hop = ~loop & (np.abs(w) > _MATCHING_ZERO_ATOL)
        if not hop.any():
            self.kind = "diagonal"
            self.diag = np.zeros(n)
            self.diag[u[loop]] = w[loop]
        elif (np.abs(w[loop]) <= _MATCHING_ZERO_ATOL).all() and \
                np.bincount(np.concatenate([u[hop], v[hop]]), minlength=n).max() <= 1:
            self.kind = "matching"
            self.us, self.vs = np.minimum(u[hop], v[hop]), np.maximum(u[hop], v[hop])
            self.ws = w[hop]
        else:
            self.kind = "dense"
            self.w, self.V = linalg.hermitian_eig(subgraph_adjacency(graph, label))
            self.Vh = self.V.conj().T

    def apply(self, t, x) -> np.ndarray:
        """exp(-i S_c t) x for a vector x; an array of times adds a leading time axis."""
        t = np.asarray(t, dtype=float)
        tcol = t.reshape(t.shape + (1,))
        if self.kind == "diagonal":
            return np.exp(-1j * self.diag * tcol) * x
        if self.kind == "matching":
            c = np.cos(self.ws * tcol)
            s = -1j * np.sin(self.ws * tcol)
            xu, xv = x[self.us], x[self.vs]
            out = np.broadcast_to(x, t.shape + x.shape).copy()
            out[..., self.us] = c * xu + s * xv
            out[..., self.vs] = s * xu + c * xv
            return out
        return (np.exp(-1j * self.w * tcol) * (self.Vh @ x)) @ self.V.T


@dataclass
class Trajectory:
    """A stack of states (one row each) and the observables of every row."""

    coords: np.ndarray
    states: np.ndarray
    distributions: np.ndarray
    sigmas: np.ndarray
    entropies: np.ndarray

    @classmethod
    def from_states(cls, states, coin_dim: int, pos_dim: int, coords) -> "Trajectory":
        """Position distribution, sigma and entropy of each row of a (k, dim) stack."""
        states = np.asarray(states, dtype=complex)
        coords = np.asarray(coords, dtype=float)
        dists = position_distribution(states, coin_dim, pos_dim)
        # std_dev per row: a stacked P @ coords would round differently (BLAS gemv)
        return cls(coords=coords, states=states, distributions=dists,
                   sigmas=np.array([std_dev(P, coords) for P in dists]),
                   entropies=entanglement_entropy(states, coin_dim, pos_dim))

    @property
    def steps(self) -> int:
        return len(self.states) - 1


class HybridWalk:
    """A labeled graph together with a coin, ready to evolve states."""

    def __init__(self, graph: LabeledGraph, coin="identity"):
        self.graph = graph
        self.labels = graph.labels
        self.coin_dim = len(graph.labels)
        self.pos_dim = graph.n
        self.dim = self.coin_dim * self.pos_dim
        self.coin = make_coin(coin, self.coin_dim)
        by_label = {lab: [] for lab in graph.labels}
        for e in graph.edges:
            by_label[e.label].append(e)
        self._sectors = [_SectorBlock(graph, lab, by_label[lab]) for lab in graph.labels]

    def hamiltonian(self) -> np.ndarray:
        """Assemble the full block-diagonal Hamiltonian sum_c |c><c| (x) S_c."""
        H = np.zeros((self.dim, self.dim), dtype=complex)
        p = self.pos_dim
        for idx, lab in enumerate(self.labels):
            H[idx * p:(idx + 1) * p, idx * p:(idx + 1) * p] = subgraph_adjacency(self.graph, lab)
        return H

    def _check_dim(self, psi: np.ndarray) -> np.ndarray:
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (self.dim,):
            raise ValueError(
                f"state of dim {psi.shape} does not match coin {self.coin_dim} x position {self.pos_dim}"
            )
        return psi

    def apply_coin(self, psi, coin=None) -> np.ndarray:
        """Apply the coin (default: the walk's own) on the label factor only."""
        psi = self._check_dim(psi)
        C = self.coin if coin is None else make_coin(coin, self.coin_dim)
        return (C @ psi.reshape(self.coin_dim, self.pos_dim)).reshape(-1)

    def evolve(self, t, psi) -> np.ndarray:
        """Apply exp(-iHt) only (no coin).

        `t` is a scalar or a 1-D array of times; an array gives one state per
        time, stacked along a leading axis.
        """
        psi = self._check_dim(psi)
        t = np.asarray(t, dtype=float)
        mat = psi.reshape(self.coin_dim, self.pos_dim)
        out = np.empty(t.shape + mat.shape, dtype=complex)
        for c, sector in enumerate(self._sectors):
            out[..., c, :] = sector.apply(t, mat[c])
        return out.reshape(t.shape + (self.dim,))

    def step(self, t: float, psi, coin=None) -> np.ndarray:
        """One walk step at a single time t: coin first, then exp(-iHt)."""
        return self.evolve(float(t), self.apply_coin(psi, coin))

    def step_operator(self, t: float, coin=None) -> np.ndarray:
        """Dense matrix of one step, one basis column at a time; for small dimensions."""
        return np.column_stack([self.step(t, e, coin) for e in np.eye(self.dim)])

    def run(self, t: float, steps: int, psi0, coords=None) -> Trajectory:
        """Repeat the step `steps` times, recording observables along the way."""
        psi = self._check_dim(psi0)
        nrm = np.linalg.norm(psi)
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError(f"initial state is not normalized: ||psi0|| = {nrm:.12g}")
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        states = np.empty((steps + 1, self.dim), dtype=complex)
        states[0] = psi
        for k in range(steps):
            states[k + 1] = self.step(t, states[k])
        coords = np.arange(self.pos_dim) if coords is None else coords
        return Trajectory.from_states(states, self.coin_dim, self.pos_dim, coords)


# ---------------------------------------------------------------------------
# Observables


def position_distribution(psi, coin_dim: int, pos_dim: int) -> np.ndarray:
    """P(v) = sum_c |<c,v|psi>|^2; a stack of states (..., dim) gives one row per state."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1:] != (coin_dim * pos_dim,):
        raise ValueError(f"state of dim {psi.shape} does not factor as {coin_dim} x {pos_dim}")
    return (np.abs(psi.reshape(psi.shape[:-1] + (coin_dim, pos_dim))) ** 2).sum(axis=-2)


def std_dev(P, coords) -> float:
    """Standard deviation of position under P over the supplied coordinates."""
    P = np.asarray(P, dtype=float)
    coords = np.asarray(coords, dtype=float)
    if P.shape != coords.shape:
        raise ValueError(f"{P.shape[0]} probabilities but {coords.shape[0]} coordinates")
    mean = float(P @ coords)
    var = float(P @ coords**2) - mean**2
    return float(np.sqrt(max(var, 0.0)))


def entanglement_entropy(psi, coin_dim: int, pos_dim: int):
    """Entropy (bits) of the reduced position state of a pure coin (x) position state.

    A stack of states (..., dim) gives an array of entropies, one per state.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1:] != (coin_dim * pos_dim,):
        raise ValueError(f"state of dim {psi.shape} does not factor as {coin_dim} x {pos_dim}")
    # Schmidt coefficients of the coin|position split; rho_p shares their squares.
    s2 = np.linalg.svd(psi.reshape(psi.shape[:-1] + (coin_dim, pos_dim)), compute_uv=False) ** 2
    ents = [linalg.entropy_of_probabilities(p) for p in s2.reshape(-1, s2.shape[-1])]
    return ents[0] if s2.ndim == 1 else np.array(ents).reshape(s2.shape[:-1])


# ---------------------------------------------------------------------------
# Reference walkers


def continuous_walk(A, t: float, psi) -> np.ndarray:
    """Plain continuous-time walk exp(-iAt) on the position space."""
    return linalg.evolve(A, t, psi)


def line_reference_hamiltonian(n: int) -> np.ndarray:
    """Tridiagonal line Hamiltonian with 1/sqrt(2) on-site and -1/(2 sqrt(2)) hopping."""
    H = np.eye(n, dtype=complex) / np.sqrt(2)
    off = -1.0 / (2 * np.sqrt(2))
    idx = np.arange(n - 1)
    H[idx, idx + 1] = off
    H[idx + 1, idx] = off
    return H


def discrete_coined_walk(steps: int, coin, psi0, L: int, coords=None) -> Trajectory:
    """Standard coined line walk: coin, then shift coin-0 right / coin-1 left.

    The line is truncated to positions -L..L; L must be at least `steps` so the
    wavefront never touches the (cyclic) boundary.
    """
    n = 2 * L + 1
    if n < 2 * steps + 1:
        raise ValueError(f"truncated line of {n} sites is too small for {steps} steps")
    C = make_coin(coin, 2)
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (2 * n,):
        raise ValueError(f"state of dim {psi.shape} does not match 2 x {n}")
    states = np.empty((steps + 1, 2, n), dtype=complex)
    states[0] = psi.reshape(2, n)
    for k in range(steps):
        mat = C @ states[k]
        states[k + 1, 0] = np.roll(mat[0], 1)
        states[k + 1, 1] = np.roll(mat[1], -1)
    coords = np.arange(-L, L + 1) if coords is None else coords
    return Trajectory.from_states(states.reshape(steps + 1, 2 * n), 2, n, coords)


# ---------------------------------------------------------------------------
# Closed forms for the two-vertex circle


def oracle_p1_two_cycle(a: float, b: float, t: float) -> float:
    """Occupation probability of vertex 1 after one Hadamard-coin step at time t."""
    return 0.5 * (1.0 - np.cos((a + b) * t) * np.cos((a - b) * t))


CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def cnot_realizability(a: float, b: float, max_index: int = 10**4,
                       ratio_tol: float = 1e-9, verify_atol: float = 1e-9):
    """Smallest verified t at which the (a, b) circle step realizes a CNOT.

    A candidate needs cos(at) = +-1 and sin(bt) = +-1 simultaneously, which
    pins t = pi(1+2l)/(2b) with k = a(1+2l)/(2b) an integer; such (k, l) exist
    exactly when a/b = 2k/(1+2l). The search is bounded by k, l <= max_index
    and every hit is verified against the CNOT matrix (up to a global phase,
    with a diagonal phase coin) before it is returned. Returns None when no
    bounded candidate verifies.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"weights must be positive, got a={a}, b={b}")
    walk = HybridWalk(circle2(a, b), coin="identity")
    for l in range(max_index + 1):
        k_exact = a * (1 + 2 * l) / (2 * b)
        k = round(k_exact)
        if k > max_index:
            break
        if k < 1 or abs(k_exact - k) > ratio_tol * max(1.0, abs(k_exact)):
            continue
        t = np.pi * (1 + 2 * l) / (2 * b)
        eps0 = np.cos(a * t)
        eps1 = np.sin(b * t)
        if abs(abs(eps0) - 1.0) > 1e-9 or abs(abs(eps1) - 1.0) > 1e-9:
            continue
        coin = np.diag([1.0, 1j * np.sign(eps0) * np.sign(eps1)]).astype(complex)
        W = walk.step_operator(t, coin=coin)
        if linalg.phase_distance(W, CNOT) < verify_atol:
            return float(t)
    return None
