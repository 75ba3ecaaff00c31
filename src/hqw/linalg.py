"""Dense complex linear algebra: Hermitian eigendecompositions, unitary time
evolution, Shannon entropies and fidelities.

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


def entropy_of_probabilities(p) -> float:
    """Shannon entropy in bits of a probability vector; entries up to ENTROPY_EIGENVALUE_CUTOFF add zero."""
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
