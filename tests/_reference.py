"""Reference walkers, closed forms and dense oracles that the tests check the package against."""

from __future__ import annotations

import numpy as np

from hqw import linalg
from hqw.graphs import LabeledGraph, circle2, common_degree, subgraph_adjacency
from hqw.matmul import classical_product, regular_sequence
from hqw.walk import HybridWalk, Trajectory, make_coin

# ---------------------------------------------------------------------------
# Walkers and closed forms


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


def oracle_p1_two_cycle(a: float, b: float, t: float) -> float:
    """Occupation probability of vertex 1 after one Hadamard-coin step at time t."""
    return 0.5 * (1.0 - np.cos((a + b) * t) * np.cos((a - b) * t))


# ---------------------------------------------------------------------------
# Dense operators and density matrices


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


def hamiltonian(w: HybridWalk) -> np.ndarray:
    """Assemble the full block-diagonal Hamiltonian sum_c |c><c| (x) S_c of a walk."""
    H = np.zeros((w.dim, w.dim), dtype=complex)
    p = w.pos_dim
    for idx, lab in enumerate(w.labels):
        H[idx * p:(idx + 1) * p, idx * p:(idx + 1) * p] = subgraph_adjacency(w.graph, lab)
    return H


def step_operator(w: HybridWalk, t: float) -> np.ndarray:
    """Dense matrix of one step: the step of every basis state, as one stack; for small dimensions."""
    return w.step(t, np.eye(w.dim)).T


def partial_trace_coin(rho, coin_dim: int, pos_dim: int) -> np.ndarray:
    """Trace out the coin factor of a density operator on coin (x) position."""
    rho = linalg.as_matrix(rho)
    if rho.shape[0] != coin_dim * pos_dim:
        raise ValueError(
            f"density operator of dim {rho.shape[0]} does not factor as "
            f"{coin_dim} x {pos_dim}"
        )
    return np.einsum("cpcq->pq", rho.reshape(coin_dim, pos_dim, coin_dim, pos_dim))


def require_density_operator(rho) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity (both within 1e-10) of a density operator."""
    rho = linalg.require_hermitian(rho)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"density operator trace {tr:.12g} is not 1 within 1e-10")
    wmin = float(np.linalg.eigvalsh(rho).min())
    if wmin < -1e-10:
        raise ValueError(f"density operator has negative eigenvalue {wmin:.3e}")
    return rho


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy of a density operator, in bits.

    Eigenvalues up to ENTROPY_EIGENVALUE_CUTOFF contribute zero.
    """
    rho = require_density_operator(rho)
    w = np.linalg.eigvalsh(rho)
    w = w[w > linalg.ENTROPY_EIGENVALUE_CUTOFF]
    return max(0.0, float(-(w * np.log2(w)).sum()))


def phase_distance(U, V) -> float:
    """Distance 1 - |tr(U^H V)| / dim between unitaries, modulo a global phase."""
    U = linalg.as_matrix(U)
    V = linalg.as_matrix(V)
    if U.shape != V.shape:
        raise ValueError(f"operator dims differ: {U.shape} vs {V.shape}")
    return float(1.0 - abs(np.trace(U.conj().T @ V)) / U.shape[0])


# ---------------------------------------------------------------------------
# Graph oracles


def adjacency(graph: LabeledGraph) -> np.ndarray:
    """Full weighted adjacency: the sum of all per-label blocks."""
    A = np.zeros((graph.n, graph.n), dtype=complex)
    for label in graph.labels:
        A += subgraph_adjacency(graph, label)
    return A


def validate_regular(graph: LabeledGraph) -> int:
    """Return the common degree d (self-loops excluded), or raise NotRegularError."""
    hop = graph.u != graph.v
    return common_degree(graph.n, np.concatenate([graph.u[hop], graph.v[hop]]))


def classical_triangles_at_vertex(g, k: int) -> int:
    """Enumerate neighbor pairs of k that are themselves adjacent."""
    A = classical_product(regular_sequence([g]))
    nbrs = np.nonzero(A[k])[0]
    return int(A[np.ix_(nbrs, nbrs)].sum()) // 2


def classical_triangle_count(g) -> int:
    """Enumerate all vertex triples; O(n^3) and independent of the walk."""
    A = classical_product(regular_sequence([g]))
    n = A.shape[0]
    return sum(1 for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n)
               if A[a, b] and A[b, c] and A[a, c])


# ---------------------------------------------------------------------------
# CNOT on the two-vertex circle


CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def cnot_realizability(a: float, b: float):
    """Smallest verified t at which the (a, b) circle step realizes a CNOT.

    A candidate needs cos(at) = +-1 and sin(bt) = +-1 simultaneously, which
    pins t = pi(1+2l)/(2b) with k = a(1+2l)/(2b) an integer; such (k, l) exist
    exactly when a/b = 2k/(1+2l). The search is bounded by k, l <= 10**4
    and every hit is verified against the CNOT matrix (up to a global phase,
    with a diagonal phase coin) before it is returned. Returns None when no
    bounded candidate verifies.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"weights must be positive, got a={a}, b={b}")
    for l in range(10**4 + 1):
        k_exact = a * (1 + 2 * l) / (2 * b)
        k = round(k_exact)
        if k > 10**4:
            break
        if k < 1 or abs(k_exact - k) > 1e-9 * max(1.0, abs(k_exact)):
            continue
        t = np.pi * (1 + 2 * l) / (2 * b)
        eps0 = np.cos(a * t)
        eps1 = np.sin(b * t)
        if abs(abs(eps0) - 1.0) > 1e-9 or abs(abs(eps1) - 1.0) > 1e-9:
            continue
        coin = np.diag([1.0, 1j * np.sign(eps0) * np.sign(eps1)]).astype(complex)
        if phase_distance(step_operator(HybridWalk(circle2(a, b), coin=coin), t), CNOT) < 1e-9:
            return float(t)
    return None
