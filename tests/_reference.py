"""Reference walkers and closed forms that the tests check the hybrid walk against."""

from __future__ import annotations

import numpy as np

from hqw import linalg
from hqw.walk import Trajectory, make_coin


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
