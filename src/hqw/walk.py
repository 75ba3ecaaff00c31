"""Hybrid walk engine.

One walk step is a unitary coin on the label space followed by Hamiltonian
evolution exp(-iHt) with H = sum_c |c><c| (x) S_c, where S_c is the weighted
adjacency matrix of the label-c subgraph. States live on coin (x) position
with coin-major flat indexing (index = c * pos_dim + v).

The evolution exploits the block structure: each coin sector evolves under
its own S_c, with closed forms for diagonal (self-loop) and matching blocks
and an eigendecomposition fallback for everything else. The reference walkers
and dense oracles that the tests check it against (the assembled Hamiltonian,
the step matrix, the CNOT search) live in `tests/_reference.py`.

Performance model: no propagator matrix is formed or cached. The sectors are
classified once, at construction, into one propagator over the whole state.
Per step and per time, every diagonal and matching sector together costs
O(dim) in one vectorized pass: one phase multiply over the state (skipped when
no label has a self-loop) and a gather/scatter of 2x2 rotations over the pairs
of every matching, in blocks of graphs.BLOCK_ENTRIES (row, pair) entries so
that its temporaries stay cache-sized however wide the state, with cos and sin
taken once per time and distinct weight. A label without edges costs nothing
(`star`'s label "0"). Each dense sector costs one eigh at construction, then
O(n^2); a walk whose dense sectors hold more than graphs.DENSE_SECTOR_ENTRIES
entries together (n^2 each, so one sector on at most 4096 vertices) is refused
before the first eigh, and a walk whose states exceed that many amplitudes
before its coin. `HybridWalk.apply_coin`, `evolve` and `step` take a stack of
states (..., dim), one state being the empty stack, and times that broadcast
against it. Each row has the bytes of the call on its state alone at its time
alone: the coin is one gemm per row, phases and rotations are elementwise, and
a dense sector is one gemv per state and one 1-row product per row, not gemms
whose rounding would depend on the number of rows.

Observables: `entanglement_entropy` takes each state's Schmidt values over
the positions it reaches (those where some coin row is nonzero), since
all-zero columns add no singular value. States that reach every position share
one stacked SVD; every other state gets its own SVD over its reached columns,
so a line walk that has spread over r of its n positions costs O(r), not O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .graphs import BLOCK_ENTRIES, DENSE_SECTOR_ENTRIES, LabeledGraph, _check_size, subgraph_adjacency

COIN_UNITARY_ATOL = 1e-10
_MATCHING_ZERO_ATOL = 1e-14


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
        if not self.coin_dim:
            raise ValueError("a walk needs a graph with at least one label")
        _check_size(self.coin_dim, self.pos_dim)
        self.coin = make_coin(coin, self.coin_dim)
        self._identity_coin = np.array_equal(self.coin, np.eye(self.coin_dim))
        # The propagator, over flat indices c * n + v: the self-loop phases of
        # the diagonal sectors; the pairs (p, q) of every matching sector, with
        # their distinct weights and each pair's index into them, so cos and sin
        # are taken once per weight; (slice, eigenvalues, V, V^H) of each dense sector.
        n = self.pos_dim
        phase, pairs, dense = np.zeros(self.dim), [], []
        for c in range(self.coin_dim):
            on = graph.c == c
            u, v, w = graph.u[on], graph.v[on], graph.w[on]
            loop = u == v
            hop = ~loop & (np.abs(w) > _MATCHING_ZERO_ATOL)
            if not hop.any():
                phase[c * n + u[loop]] = w[loop]
            elif (np.abs(w[loop]) <= _MATCHING_ZERO_ATOL).all() and \
                    np.bincount(np.concatenate([u[hop], v[hop]]), minlength=n).max() <= 1:
                pairs.append((c * n + np.minimum(u[hop], v[hop]), c * n + np.maximum(u[hop], v[hop]), w[hop]))
            else:
                dense.append(c)
        # one budget for the walk's dense sectors, each of which holds V and V^H, refused before the first eigh
        if dense and int(n) ** 2 > DENSE_SECTOR_ENTRIES:
            raise ValueError(f"label {self.labels[dense[0]]!r} is a dense sector on {n} vertices; its {n} x {n} "
                             f"eigendecomposition is over the limit of {DENSE_SECTOR_ENTRIES} entries")
        if len(dense) * int(n) ** 2 > DENSE_SECTOR_ENTRIES:
            raise ValueError(f"{len(dense)} dense sectors on {n} vertices need {len(dense)} x {n} x {n} "
                             f"eigendecomposition entries, over the limit of {DENSE_SECTOR_ENTRIES} entries per walk")
        self._dense = []
        for c in dense:
            ew, V = linalg.hermitian_eig(subgraph_adjacency(graph, self.labels[c]))
            self._dense.append((slice(c * n, (c + 1) * n), ew, V, V.conj().T))
        # the largest |w| of any phase w*t: self-loop weights, matching weights, dense eigenvalues
        self._rate = max(float(np.abs(x).max(initial=0.0))
                         for x in [phase, *(w for _, _, w in pairs), *(ew for _, ew, _, _ in self._dense)])
        self._phase = phase if phase.any() else None
        self._pairs = None
        if pairs:
            p, q, w = map(np.concatenate, zip(*pairs))
            self._pairs = (p, q, *np.unique(w, return_inverse=True))

    def _check_dim(self, psi: np.ndarray) -> np.ndarray:
        psi = np.asarray(psi, dtype=complex)
        if psi.shape[-1:] != (self.dim,):
            raise ValueError(
                f"state of dim {psi.shape} does not match coin {self.coin_dim} x position {self.pos_dim}"
            )
        return psi

    def apply_coin(self, psi) -> np.ndarray:
        """Apply the walk's coin on the label factor of each state of a (..., dim) stack;
        an identity coin returns the stack as it is."""
        psi = self._check_dim(psi)
        if self._identity_coin:
            return psi
        return (self.coin @ psi.reshape(psi.shape[:-1] + (self.coin_dim, self.pos_dim))).reshape(psi.shape)

    def evolve(self, t, psi) -> np.ndarray:
        """Apply exp(-iHt) only (no coin) to a stack of states `psi` (..., dim).

        The times `t` broadcast against the stack `psi.shape[:-1]` (a single
        state is the empty stack), and each row of the result has the bytes of
        the call on its state alone at its time alone. A time whose phase w*t
        is not finite is refused before any exp, cos or sin.
        """
        psi = self._check_dim(psi)
        t = np.asarray(t, dtype=float)
        bad = [x for x in t.reshape(-1).tolist() if not math.isfinite(self._rate * x)]  # Python floats: no warning
        if bad:
            raise ValueError(f"evolution time t = {bad[0]:.12g} gives a non-finite phase w*t "
                             f"(largest |w| = {self._rate:.12g})")
        tcol = t[..., None]
        out = np.empty(np.broadcast(tcol, psi).shape, dtype=complex)
        if self._phase is None:
            out[...] = psi
        else:
            np.multiply(-1j * self._phase, tcol, out=out)
            np.exp(out, out=out)
            out *= psi
        if self._pairs is not None:
            # blocks of pairs keep every (rows, pairs) temporary cache-sized, so a
            # wide state reuses the same few heap pages step after step
            p, q, w, of_pair = self._pairs
            wt = w * tcol
            cw, sw = np.cos(wt), -1j * np.sin(wt)
            width = BLOCK_ENTRIES // max(1, out.size // self.dim) or 1
            for j in range(0, len(p), width):
                pj, qj, c, s = p[j:j + width], q[j:j + width], cw, sw
                if len(w) > 1:  # one distinct weight broadcasts as it is
                    c, s = cw.take(of_pair[j:j + width], axis=-1), sw.take(of_pair[j:j + width], axis=-1)
                xp, xq = psi.take(pj, axis=-1), psi.take(qj, axis=-1)
                for ij, a, b in ((pj, c, s), (qj, s, c)):  # a * xp + b * xq, summed in place: one temporary fewer
                    y = a * xp
                    y += b * xq
                    out[..., ij] = y
        for sl, ew, V, Vh in self._dense:
            amp = np.exp(-1j * ew * tcol) * (Vh @ psi[..., sl, None])[..., 0]  # one gemv per state
            out[..., sl] = (amp[..., None, :] @ V.T)[..., 0, :]  # and one 1-row product per row
        return out

    def step(self, t, psi) -> np.ndarray:
        """One walk step of a stack of states at times t, as `evolve` takes them: coin first, then exp(-iHt)."""
        return self.evolve(t, self.apply_coin(psi))

    def run(self, t: float, steps: int, psi0, coords=None) -> Trajectory:
        """psi0 and the `steps` states after it, each a `step` of the one before, with their observables."""
        psi = self._check_dim(psi0)
        nrm = np.linalg.norm(psi)
        if not abs(nrm - 1.0) <= 1e-9:  # a NaN norm fails too
            raise ValueError(f"initial state is not normalized: ||psi0|| = {nrm:.12g}")
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        states = [psi]
        for _ in range(steps):
            states.append(self.step(t, states[-1]))
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
    # All-zero columns add no singular value, so a state that leaves positions
    # unreached gets its own SVD over the columns it reaches, zero-padded.
    # The rule is per state, so a state's entropy does not depend on its stack.
    M = psi.reshape(-1, coin_dim, pos_dim)
    reached = M.any(axis=1)
    full = reached.all(axis=1)
    if full.all():
        s2 = np.linalg.svd(M, compute_uv=False) ** 2
    else:
        s2 = np.zeros((len(M), min(coin_dim, pos_dim)))
        s2[full] = np.linalg.svd(M[full], compute_uv=False) ** 2
        for i in np.flatnonzero(~full):
            s = np.linalg.svd(M[i][:, reached[i]], compute_uv=False)
            s2[i, :len(s)] = s ** 2
    ents = [linalg.entropy_of_probabilities(p) for p in s2]
    return ents[0] if psi.ndim == 1 else np.array(ents).reshape(psi.shape[:-1])
