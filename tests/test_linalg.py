import numpy as np
import pytest

from _reference import adjacency, partial_trace_coin, phase_distance, von_neumann_entropy
from hqw import linalg
from hqw.graphs import circle2, cubic8, star, subgraph_adjacency

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(rng, dim):
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return M + M.conj().T


def random_density(rng, dim):
    W = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = W @ W.conj().T
    return rho / np.trace(rho)


def char_poly_coeffs(A):
    # Faddeev-LeVerrier recursion: trace-based, no eigensolver involved.
    n = A.shape[0]
    coeffs = [1.0]
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(A @ M).real / k)
    return np.array(coeffs)


def test_pauli_x_spectrum():
    w, V = linalg.hermitian_eig(X)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose((V * w) @ V.conj().T, X, atol=1e-14)


def test_star_spectrum_against_char_poly():
    A = adjacency(star(10))
    # char poly of the 10-star is x^8 (x^2 - 9): roots -3, 0 x8, +3
    coeffs = char_poly_coeffs(A)
    want_coeffs = np.zeros(11)
    want_coeffs[0] = 1.0
    want_coeffs[2] = -9.0
    np.testing.assert_allclose(coeffs, want_coeffs, atol=1e-9)
    expected = np.array([-3.0] + [0.0] * 8 + [3.0])
    w, _ = linalg.hermitian_eig(A)
    np.testing.assert_allclose(w, expected, atol=1e-12)


def test_regular_vertex_star_matrix_spectrum():
    # star-of-vertex block of a 3-regular graph: two nonzero eigenvalues +-sqrt(3)
    A = adjacency(cubic8()).real
    for k in (0, 5):
        S = np.zeros((8, 8), dtype=complex)
        S[:, k] = A[:, k]
        S[k, :] = A[k, :]
        w, _ = linalg.hermitian_eig(S)
        np.testing.assert_allclose(w, [-np.sqrt(3)] + [0.0] * 6 + [np.sqrt(3)], atol=1e-12)


def test_evolve_pauli_quarter_period():
    out = linalg.evolve(X, np.pi / 2, np.array([1, 0], dtype=complex))
    np.testing.assert_allclose(out, [0, -1j], atol=1e-14)


def test_evolve_t_zero_is_identity():
    rng = np.random.default_rng(7)
    psi = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi /= np.linalg.norm(psi)
    out = linalg.evolve(random_hermitian(rng, 5), 0.0, psi)
    np.testing.assert_allclose(out, psi, atol=1e-14)


def test_evolve_star_sixth_period():
    # cos(3t)|0> - (i sin(3t)/3) sum_j |j> at t = pi/6 collapses onto the leaves
    A = adjacency(star(10))
    psi0 = np.zeros(10, dtype=complex)
    psi0[0] = 1.0
    want = np.full(10, -1j / 3.0)
    want[0] = 0.0
    np.testing.assert_allclose(linalg.evolve(A, np.pi / 6, psi0), want, atol=1e-12)


def test_evolve_rejects_mismatched_dim():
    with pytest.raises(ValueError, match="does not match"):
        linalg.evolve(X, 1.0, np.zeros(3, dtype=complex))


def test_non_hermitian_rejected_with_asymmetry():
    M = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match=r"max \|M - M\^H\| = 1\.000e"):
        linalg.hermitian_eig(M)


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        linalg.hermitian_eig(np.zeros((2, 3)))


def test_kron_assembles_two_circle_hamiltonian():
    P0 = np.diag([1.0, 0.0])
    P1 = np.diag([0.0, 1.0])
    H = np.kron(P0, X) + np.kron(P1, 2 * X)
    g = circle2(1, 2)
    want = np.zeros((4, 4), dtype=complex)
    want[:2, :2] = subgraph_adjacency(g, "0")
    want[2:, 2:] = subgraph_adjacency(g, "1")
    np.testing.assert_allclose(H, want, atol=1e-14)


def _partial_trace_loop(rho, cd, pd):
    out = np.zeros((pd, pd), dtype=complex)
    for c in range(cd):
        out += rho[c * pd:(c + 1) * pd, c * pd:(c + 1) * pd]
    return out


def test_partial_trace_product_state():
    psi = np.kron(np.array([1, 0]), np.array([1, 0])).astype(complex)
    rho = np.outer(psi, psi.conj())
    np.testing.assert_allclose(partial_trace_coin(rho, 2, 2), np.diag([1.0, 0.0]), atol=1e-14)


def test_partial_trace_bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    np.testing.assert_allclose(partial_trace_coin(rho, 2, 2), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_star_half_period():
    # build |phi(pi/2)> = (|00> - i sum_j |jj>)/sqrt(10) directly from the closed form
    N = 10
    phi = np.zeros(N * N, dtype=complex)
    phi[0] = 1.0
    for j in range(1, N):
        phi[j * N + j] = -1j
    phi /= np.sqrt(N)
    rho = np.outer(phi, phi.conj())
    reduced = partial_trace_coin(rho, N, N)
    np.testing.assert_allclose(reduced, _partial_trace_loop(rho, N, N), atol=1e-14)
    np.testing.assert_allclose(reduced, np.eye(N) / N, atol=1e-14)


def test_partial_trace_dim_mismatch():
    with pytest.raises(ValueError, match="factor"):
        partial_trace_coin(np.eye(6) / 6, 4, 2)


def test_entropy_pure_state():
    rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
    assert von_neumann_entropy(rho) < 1e-9


def test_entropy_maximally_mixed_qubit():
    assert abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) < 1e-12


def test_entropy_uniform_ten():
    expected = -sum(0.1 * np.log2(0.1) for _ in range(10))
    got = von_neumann_entropy(np.eye(10) / 10)
    assert abs(got - expected) < 1e-12
    assert abs(got - np.log2(10)) < 1e-12


def test_entropy_rejects_bad_density():
    with pytest.raises(ValueError, match="trace"):
        von_neumann_entropy(np.eye(3))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        von_neumann_entropy(np.diag([1.5, -0.5]).astype(complex))


def test_fidelity_basics():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    assert abs(linalg.fidelity(psi, psi) - 1.0) < 1e-12
    e0 = np.zeros(6, dtype=complex)
    e0[0] = 1
    e1 = np.zeros(6, dtype=complex)
    e1[1] = 1
    assert linalg.fidelity(e0, e1) == 0.0
    for theta in (0.3, 1.7, -2.2):
        assert abs(linalg.fidelity(psi, np.exp(1j * theta) * psi) - 1.0) < 1e-12


def test_fidelity_rejects_unnormalized_and_mismatched():
    with pytest.raises(ValueError, match="not normalized"):
        linalg.fidelity(np.ones(4), np.ones(4) / 2.0)
    with pytest.raises(ValueError, match="dims differ"):
        linalg.fidelity(np.array([1.0, 0]), np.array([1.0, 0, 0]))


def test_unitarity_and_group_law():
    rng = np.random.default_rng(11)
    for dim in (2, 5, 16):
        H = random_hermitian(rng, dim)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        for t in (0.1, 1.0, 7.3):
            out = linalg.evolve(H, t, psi)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10
        a, b = 0.8, 2.4
        lhs = linalg.evolve(H, a, linalg.evolve(H, b, psi))
        rhs = linalg.evolve(H, a + b, psi)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


@pytest.mark.parametrize("dim", [2, 7, 33, 128, 512])
def test_spectral_reconstruction(dim):
    rng = np.random.default_rng(dim)
    M = random_hermitian(rng, dim)
    w, V = linalg.hermitian_eig(M)
    assert (np.diff(w) >= -1e-12).all()
    err = np.linalg.norm((V * w) @ V.conj().T - M)
    assert err < 1e-9 * max(1.0, np.linalg.norm(M))


@pytest.mark.slow
def test_spectral_reconstruction_dim_4096():
    rng = np.random.default_rng(4096)
    M = random_hermitian(rng, 4096)
    w, V = linalg.hermitian_eig(M)
    err = np.linalg.norm((V * w) @ V.conj().T - M)
    assert err < 1e-9 * np.linalg.norm(M)


def test_entropy_bounds_random_densities():
    rng = np.random.default_rng(23)
    for dim in (2, 3, 6, 10):
        for _ in range(5):
            S = von_neumann_entropy(random_density(rng, dim))
            assert -1e-12 <= S <= np.log2(dim) + 1e-9


def test_partial_trace_linearity():
    rng = np.random.default_rng(5)
    cd, pd = 3, 4
    r1 = random_density(rng, cd * pd)
    r2 = random_density(rng, cd * pd)
    for a in (0.0, 0.25, 0.9):
        lhs = partial_trace_coin(a * r1 + (1 - a) * r2, cd, pd)
        rhs = a * partial_trace_coin(r1, cd, pd) + (1 - a) * partial_trace_coin(r2, cd, pd)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)
        assert abs(np.trace(lhs) - 1.0) < 1e-10


def test_phase_distance():
    U = np.diag([1.0, 1j]).astype(complex)
    assert phase_distance(U, np.exp(1j * 0.4) * U) < 1e-12
    assert phase_distance(np.eye(2), X) > 0.9
