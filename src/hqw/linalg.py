"""Dense complex linear algebra: Hermitian eigendecompositions, unitary time
evolution, tensor products, partial traces, entropies and fidelities.

Everything here works on plain numpy arrays (complex128). Matrices are
row-major, eigenvalues come back ascending, and entropies are in bits.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_ATOL = 1e-12
ENTROPY_EIGENVALUE_CUTOFF = 1e-12


class NumericalViolation(RuntimeError):
    """A numerical invariant (norm, probability sum, boundary mass) failed."""


def as_matrix(M) -> np.ndarray:
    """Coerce to a square complex matrix."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M


def require_hermitian(M) -> np.ndarray:
    """Return M as a complex matrix, or raise naming the worst asymmetry."""
    M = as_matrix(M)
    asym = float(np.abs(M - M.conj().T).max()) if M.size else 0.0
    if asym > HERMITIAN_ATOL:
        raise ValueError(f"matrix is not Hermitian: max |M - M^H| = {asym:.3e} > {HERMITIAN_ATOL:.0e}")
    return M


def hermitian_eig(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues real and ascending
    and eigenvectors as columns, so that M = V @ diag(w) @ V^H.
    """
    M = require_hermitian(M)
    return np.linalg.eigh(M)


def evolve(H, t: float, psi) -> np.ndarray:
    """Apply exp(-i H t) to the state psi for Hermitian H."""
    H = require_hermitian(H)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (H.shape[0],):
        raise ValueError(f"state of dim {psi.shape} does not match operator of dim {H.shape[0]}")
    w, V = np.linalg.eigh(H)
    return V @ (np.exp(-1j * w * t) * (V.conj().T @ psi))


def kron(A, B) -> np.ndarray:
    """Tensor product A (x) B; dimensions multiply."""
    return np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


def partial_trace_coin(rho, coin_dim: int, pos_dim: int) -> np.ndarray:
    """Trace out the coin factor of a density operator on coin (x) position."""
    rho = as_matrix(rho)
    if rho.shape[0] != coin_dim * pos_dim:
        raise ValueError(
            f"density operator of dim {rho.shape[0]} does not factor as "
            f"{coin_dim} x {pos_dim}"
        )
    return np.einsum("cpcq->pq", rho.reshape(coin_dim, pos_dim, coin_dim, pos_dim))


def require_density_operator(rho) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity (both within 1e-10) of a density operator."""
    rho = require_hermitian(rho)
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
    w = w[w > ENTROPY_EIGENVALUE_CUTOFF]
    return max(0.0, float(-(w * np.log2(w)).sum()))


def entropy_of_probabilities(p) -> float:
    """Shannon entropy in bits of a probability vector (cutoff as for entropy)."""
    p = np.asarray(p, dtype=float)
    p = p[p > ENTROPY_EIGENVALUE_CUTOFF]
    return max(0.0, float(-(p * np.log2(p)).sum()))


def fidelity(psi, phi) -> float:
    """|<psi|phi>| for normalized states; insensitive to global phases."""
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    if psi.shape != phi.shape:
        raise ValueError(f"state dims differ: {psi.shape} vs {phi.shape}")
    for name, v in (("first", psi), ("second", phi)):
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > 1e-6:
            raise ValueError(f"{name} state is not normalized: ||v|| = {nrm:.9g}")
    return float(abs(np.vdot(psi, phi)))


def is_unitary(U, atol: float = 1e-10) -> bool:
    U = as_matrix(U)
    return bool(np.abs(U.conj().T @ U - np.eye(U.shape[0])).max() <= atol)


def phase_distance(U, V) -> float:
    """Distance 1 - |tr(U^H V)| / dim between unitaries, modulo a global phase."""
    U = as_matrix(U)
    V = as_matrix(V)
    if U.shape != V.shape:
        raise ValueError(f"operator dims differ: {U.shape} vs {V.shape}")
    return float(1.0 - abs(np.trace(U.conj().T @ V)) / U.shape[0])
