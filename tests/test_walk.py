import tracemalloc

import numpy as np
import pytest

from _graphgen import random_properly_colored_graph
from hqw import linalg, walk
from hqw.graphs import (Edge, LabeledGraph, circle2, cubic8, fock_g0, line2, line3,
                        adjacency, signed_coords, star)
from hqw.walk import (HybridWalk, cnot_realizability, coin_position_state,
                      continuous_walk, discrete_coined_walk, entanglement_entropy,
                      line_reference_hamiltonian, make_coin, oracle_p1_two_cycle,
                      permutation_coin, position_distribution, product_state, std_dev)

X = np.array([[0, 1], [1, 0]], dtype=complex)


# ---------------------------------------------------------------------------
# Coins


def test_named_coins_unitary():
    for dim in (2, 3, 5):
        for name in ("identity", "fourier", "grover"):
            C = make_coin(name, dim)
            assert linalg.is_unitary(C, atol=1e-10)
    H = make_coin("hadamard", 2)
    np.testing.assert_allclose(H, np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_fourier_coin_entries():
    C = make_coin("fourier", 4)
    omega = np.exp(2j * np.pi / 4)
    np.testing.assert_allclose(C[1, 3], omega**3 / 2.0, atol=1e-14)
    np.testing.assert_allclose(C[0], np.full(4, 0.5), atol=1e-14)


def test_grover_coin_form():
    C = make_coin("grover", 3)
    s = np.ones(3) / np.sqrt(3)
    np.testing.assert_allclose(C, 2 * np.outer(s, s) - np.eye(3), atol=1e-14)


def test_coin_rejections():
    with pytest.raises(ValueError, match="hadamard coin needs"):
        make_coin("hadamard", 3)
    with pytest.raises(ValueError, match="unknown coin"):
        make_coin("dealer", 2)
    with pytest.raises(ValueError, match="not unitary"):
        make_coin(np.array([[1, 1], [0, 1]], dtype=complex), 2)
    with pytest.raises(ValueError, match="does not match"):
        make_coin(np.eye(3), 2)


def test_permutation_coin():
    P = permutation_coin(4, [(0, 2)])
    e0 = np.zeros(4)
    e0[0] = 1
    np.testing.assert_allclose(P @ e0, np.eye(4)[2])
    with pytest.raises(ValueError, match="not disjoint"):
        permutation_coin(4, [(0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# Hamiltonian assembly


def test_assemble_circle2():
    w = HybridWalk(circle2(1, 2), coin="hadamard")
    H = w.hamiltonian()
    want = np.zeros((4, 4), dtype=complex)
    want[:2, :2] = X
    want[2:, 2:] = 2 * X
    np.testing.assert_allclose(H, want)
    # dual route: assemble through explicit projector tensor products
    kron_route = (linalg.kron(np.diag([1.0, 0.0]), X) + linalg.kron(np.diag([0.0, 1.0]), 2 * X))
    np.testing.assert_allclose(H, kron_route)


def test_assemble_star_blocks():
    N = 4
    w = HybridWalk(star(N), coin="fourier")
    H = w.hamiltonian()
    want = np.zeros((N * N, N * N), dtype=complex)
    for j in range(1, N):
        S = np.zeros((N, N), dtype=complex)
        S[j, 0] = S[0, j] = 1.0
        want[j * N:(j + 1) * N, j * N:(j + 1) * N] = S
    np.testing.assert_allclose(H, want)
    np.testing.assert_allclose(linalg.require_hermitian(H), H)


def test_assemble_single_label():
    g = cubic8()
    w = HybridWalk(g, coin="identity")
    np.testing.assert_allclose(w.hamiltonian(), adjacency(g))


def test_sector_propagators_match_generic_evolution():
    # graph mixing all three block kinds: self-loops, a matching, a dense star label
    edges = (Edge(0, 0, "loops", 0.7), Edge(1, 1, "loops", -0.3),
             Edge(0, 1, "match", 1.0), Edge(2, 3, "match", 0.5),
             Edge(0, 1, "dense", 1.0), Edge(0, 2, "dense", 1.0), Edge(0, 3, "dense", 1.0))
    g = LabeledGraph(4, edges, ("loops", "match", "dense"))
    w = HybridWalk(g, coin="grover")
    H = w.hamiltonian()
    rng = np.random.default_rng(0)
    psi = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi /= np.linalg.norm(psi)
    for t in (0.3, 1.9):
        np.testing.assert_allclose(w.evolve(t, psi), linalg.evolve(H, t, psi), atol=1e-12)


def test_sector_kernels_match_generic_evolution_on_random_graphs():
    rng = np.random.default_rng(3)
    ts = np.array([0.0, 0.37, 1.9, -2.6, 11.3])
    for _ in range(12):
        base = random_properly_colored_graph(rng, max_n=9)
        n = base.n
        loops = tuple(Edge(v, v, "loops", float(rng.normal())) for v in range(n) if rng.random() < 0.6)
        hub = tuple(Edge(0, v, "hub", float(rng.uniform(0.2, 2.0))) for v in range(1, 4))
        g = LabeledGraph(n, base.edges + loops + hub, base.labels + ("loops", "hub"))
        w = HybridWalk(g, coin="grover")
        assert {s.kind for s in w._sectors} == {"diagonal", "matching", "dense"}
        H = w.hamiltonian()
        psi = rng.normal(size=w.dim) + 1j * rng.normal(size=w.dim)
        psi /= np.linalg.norm(psi)
        batch = w.evolve(ts, psi)
        assert batch.shape == (len(ts), w.dim)
        for k, t in enumerate(ts):
            want = linalg.evolve(H, t, psi)
            np.testing.assert_allclose(w.evolve(t, psi), want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(batch[k], want, rtol=0, atol=1e-12)
        assert linalg.is_unitary(w.step_operator(float(rng.uniform(0, 7))), atol=1e-12)


def test_one_step_on_a_long_line_allocates_no_dense_block():
    g = line3(20000)
    tracemalloc.start()
    try:
        w = HybridWalk(g, coin="grover")
        psi = w.step(np.pi / 2, coin_position_state(3, g.n, 0, g.n // 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    assert peak < 64 * 2**20


def test_step_operator_matches_generic_route():
    w = HybridWalk(circle2(1.3, 0.4), coin="hadamard")
    H = w.hamiltonian()
    t = 0.77
    ew, V = linalg.hermitian_eig(H)
    U = (V * np.exp(-1j * ew * t)) @ V.conj().T
    want = U @ linalg.kron(w.coin, np.eye(2))
    np.testing.assert_allclose(w.step_operator(t), want, atol=1e-12)


# ---------------------------------------------------------------------------
# Steps and closed forms


def test_circle2_step_closed_form():
    w = HybridWalk(circle2(1, 2), coin="hadamard")
    psi0 = coin_position_state(2, 2, 0, 0)
    for t in np.linspace(0, 2 * np.pi, 17):
        got = w.step(t, psi0)
        want = np.array([np.cos(t), -1j * np.sin(t),
                         np.cos(2 * t), -1j * np.sin(2 * t)]) / np.sqrt(2)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_step_t_zero_identity_coin():
    w = HybridWalk(circle2(1, 2), coin="identity")
    psi = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    np.testing.assert_allclose(w.step(0.0, psi), psi, atol=1e-14)


def test_star_step_closed_form():
    N = 10
    w = HybridWalk(star(N), coin="fourier")
    psi0 = coin_position_state(N, N, 0, 0)
    for t in (0.4, np.pi / 2, 2.8):
        mat = w.step(t, psi0).reshape(N, N)
        want = np.zeros((N, N), dtype=complex)
        want[0, 0] = 1.0
        for j in range(1, N):
            want[j, 0] = np.cos(t)
            want[j, j] = -1j * np.sin(t)
        want /= np.sqrt(N)
        np.testing.assert_allclose(mat, want, atol=1e-12)


def test_step_dim_mismatch():
    w = HybridWalk(circle2(1, 2))
    with pytest.raises(ValueError, match="does not match"):
        w.step(1.0, np.zeros(6, dtype=complex))


def test_p1_simulation_matches_oracle_on_grid():
    psi0 = coin_position_state(2, 2, 0, 0)
    for a in (0.5, 2.0, 3.7):
        for b in (1.0, 2.5):
            w = HybridWalk(circle2(a, b), coin="hadamard")
            for t in np.linspace(0.0, 2 * np.pi, 40):
                P = position_distribution(w.step(t, psi0), 2, 2)
                assert abs(P[1] - oracle_p1_two_cycle(a, b, t)) < 1e-10


def test_oracle_p1_symmetric_weights_single_frequency():
    for omega in (0.5, 1.0, 2.2):
        for t in np.linspace(0, 3, 30):
            want = 0.5 * (1 - np.cos(4 * omega * t))
            assert abs(oracle_p1_two_cycle(2 * omega, 2 * omega, t) - want) < 1e-12
    assert oracle_p1_two_cycle(1.0, 2.0, 0.0) == 0.0
    assert abs(oracle_p1_two_cycle(2, 3, np.pi / 2) - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# Observables


def test_position_distribution_cases():
    N = 10
    w = HybridWalk(star(N), coin="fourier")
    P = position_distribution(w.step(np.pi / 2, coin_position_state(N, N, 0, 0)), N, N)
    np.testing.assert_allclose(P, np.full(N, 0.1), atol=1e-12)
    assert abs(P.sum() - 1.0) < 1e-10

    psi = product_state(np.eye(3)[1], np.eye(4)[2])
    np.testing.assert_allclose(position_distribution(psi, 3, 4), np.eye(4)[2], atol=1e-14)

    w2 = HybridWalk(circle2(2, 3), coin="hadamard")
    P2 = position_distribution(w2.step(np.pi / 2, coin_position_state(2, 2, 0, 0)), 2, 2)
    assert abs(P2[1] - 0.5) < 1e-12

    with pytest.raises(ValueError, match="factor"):
        position_distribution(np.zeros(5, dtype=complex), 2, 2)


def test_std_dev_cases():
    assert std_dev([0, 1, 0], [0, 1, 2]) == 0.0
    assert abs(std_dev([0.5, 0.5], [-1.0, 1.0]) - 1.0) < 1e-14
    # uniform star distribution at t = pi/2 over vertex ids 0..9:
    # E[x] = 4.5, E[x^2] = 28.5, sigma = sqrt(8.25)
    expected = np.sqrt(28.5 - 4.5**2)
    assert abs(std_dev(np.full(10, 0.1), np.arange(10)) - expected) < 1e-12
    with pytest.raises(ValueError, match="coordinates"):
        std_dev([1.0], [0.0, 1.0])


def test_entanglement_entropy_cases():
    psi = product_state(np.array([1, 1j]) / np.sqrt(2), np.eye(3)[0])
    assert entanglement_entropy(psi, 2, 3) < 1e-9

    N = 10
    w = HybridWalk(star(N), coin="fourier")
    S = entanglement_entropy(w.step(np.pi / 2, coin_position_state(N, N, 0, 0)), N, N)
    assert abs(S - np.log2(10)) < 1e-9


def test_star_observables_pi_periodic():
    N = 10
    w = HybridWalk(star(N), coin="fourier")
    psi0 = coin_position_state(N, N, 0, 0)
    coords = np.arange(N, dtype=float)
    for t in np.linspace(0.0, np.pi, 12):
        a = w.step(t, psi0)
        b = w.step(t + np.pi, psi0)
        Pa = position_distribution(a, N, N)
        Pb = position_distribution(b, N, N)
        np.testing.assert_allclose(Pa, Pb, atol=1e-9)
        assert abs(std_dev(Pa, coords) - std_dev(Pb, coords)) < 1e-9
        assert abs(entanglement_entropy(a, N, N) - entanglement_entropy(b, N, N)) < 1e-9


# ---------------------------------------------------------------------------
# Trajectories and reductions


def test_run_zero_steps():
    w = HybridWalk(circle2(1, 2), coin="hadamard")
    psi0 = coin_position_state(2, 2, 0, 0)
    traj = w.run(0.9, 0, psi0)
    assert traj.steps == 0
    np.testing.assert_allclose(traj.states[0], psi0)


def test_run_rejects_unnormalized():
    w = HybridWalk(circle2(1, 2))
    with pytest.raises(ValueError, match="not normalized"):
        w.run(1.0, 3, np.ones(4, dtype=complex))


def test_single_label_reduction_to_continuous_walk():
    g = cubic8()
    w = HybridWalk(g, coin="identity")
    A = adjacency(g)
    rng = np.random.default_rng(8)
    pos = rng.normal(size=8) + 1j * rng.normal(size=8)
    pos /= np.linalg.norm(pos)
    psi = product_state(np.array([1.0]), pos)
    for t in (0.5, 2.0):
        hybrid = w.step(t, psi).reshape(1, 8)[0]
        np.testing.assert_allclose(hybrid, continuous_walk(A, t, pos), atol=1e-12)


def test_identity_coin_preserves_sectors():
    g = line3(6)
    w = HybridWalk(g, coin="identity")
    psi = coin_position_state(3, g.n, 1, 6)
    for _ in range(5):
        psi = w.step(np.pi / 2, psi)
    mat = psi.reshape(3, g.n)
    assert np.abs(mat[0]).max() < 1e-12
    assert np.abs(mat[2]).max() < 1e-12


def test_line2_matches_discrete_walk_distributions_per_step():
    steps, L = 40, 48
    g = line2(L)
    coords = signed_coords(g.n)
    psi0 = product_state(np.array([1, -1j]) / np.sqrt(2), np.eye(g.n)[L])
    hybrid = HybridWalk(g, coin="hadamard").run(np.pi / 2, steps, psi0, coords=coords)
    disc = discrete_coined_walk(steps, "hadamard", psi0, L)
    for k in range(steps + 1):
        np.testing.assert_allclose(hybrid.distributions[k], disc.distributions[k], atol=1e-12)


def test_flat_band_confinement():
    L = 12
    g = line3(L)
    w = HybridWalk(g, coin="identity")
    center = L
    for m in range(3):
        allowed = {center}
        for e in g.edges:
            if e.label == str(m) and center in (e.u, e.v):
                allowed.add(e.u + e.v - center)
        psi = coin_position_state(3, g.n, m, center)
        for _ in range(30):
            psi = w.step(np.pi / 2, psi)
        P = position_distribution(psi, 3, g.n)
        outside = P.sum() - sum(P[v] for v in allowed)
        assert outside < 1e-12


def test_grover_uniform_distribution_symmetric():
    L = 20
    g = line3(L)
    w = HybridWalk(g, coin="grover")
    psi0 = product_state(np.ones(3) / np.sqrt(3), np.eye(g.n)[L])
    traj = w.run(np.pi / 2, 12, psi0, coords=signed_coords(g.n))
    P = traj.distributions[-1]
    np.testing.assert_allclose(P, P[::-1], atol=1e-9)


def test_fock_ladder_is_stationary_in_position():
    # self-loop-only graphs only rotate phases, so the position marginal is frozen
    g = fock_g0(4, 1.0)
    w = HybridWalk(g, coin="hadamard")
    psi0 = product_state(np.array([1, 1]) / np.sqrt(2), np.eye(5)[2])
    traj = w.run(1.3, 6, psi0)
    for P in traj.distributions:
        np.testing.assert_allclose(P, np.eye(5)[2], atol=1e-12)


# ---------------------------------------------------------------------------
# Reference walkers


def test_continuous_two_circle():
    A = X.copy()
    psi0 = np.array([1, 0], dtype=complex)
    for omega in (0.5, 1.7):
        for t in np.linspace(0, 4, 25):
            out = continuous_walk(omega * A, t, psi0)
            assert abs(abs(out[1]) ** 2 - np.sin(omega * t) ** 2) < 1e-12


def test_continuous_star_node_revival():
    A = adjacency(star(10))
    psi0 = np.eye(10)[0].astype(complex)
    out = continuous_walk(A, np.pi / 6, psi0)
    assert abs(out[0]) < 1e-12  # cos(3 * pi/6) = 0
    np.testing.assert_allclose(continuous_walk(A, 0.0, psi0), psi0, atol=1e-14)


def test_line_reference_hamiltonian_structure():
    H = line_reference_hamiltonian(5)
    np.testing.assert_allclose(np.diag(H).real, np.full(5, 1 / np.sqrt(2)))
    np.testing.assert_allclose(np.diag(H, 1).real, np.full(4, -1 / (2 * np.sqrt(2))))
    linalg.require_hermitian(H)


def test_trajectory_observables_equal_per_state_observables():
    w = HybridWalk(line3(12), coin="grover")
    psi0 = product_state(np.ones(3) / np.sqrt(3), np.eye(25)[12])
    run = w.run(1.1, 9, psi0, coords=signed_coords(25))
    L = 8
    dcw = discrete_coined_walk(7, "hadamard", product_state(np.array([1, 1j]) / np.sqrt(2),
                                                            np.eye(2 * L + 1)[L]), L)
    for traj, coin_dim, pos_dim in ((run, 3, 25), (dcw, 2, 2 * L + 1)):
        assert isinstance(traj.states, np.ndarray) and traj.states.shape == (traj.steps + 1, coin_dim * pos_dim)
        for k, psi in enumerate(traj.states):
            P = position_distribution(psi, coin_dim, pos_dim)
            assert np.array_equal(traj.distributions[k], P)
            assert traj.sigmas[k] == std_dev(P, traj.coords)
            assert traj.entropies[k] == entanglement_entropy(psi, coin_dim, pos_dim)
        again = walk.Trajectory.from_states(traj.states, coin_dim, pos_dim, traj.coords)
        for name in ("distributions", "sigmas", "entropies"):
            assert np.array_equal(getattr(again, name), getattr(traj, name))
        stacked = entanglement_entropy(traj.states.reshape(-1, 1, coin_dim * pos_dim), coin_dim, pos_dim)
        assert stacked.shape == (traj.steps + 1, 1)
        assert np.array_equal(stacked[:, 0], traj.entropies)


def test_discrete_walk_basics():
    L = 6
    n = 2 * L + 1
    psi0 = product_state(np.array([1, -1j]) / np.sqrt(2), np.eye(n)[L])
    traj = discrete_coined_walk(1, "hadamard", psi0, L)
    P = traj.distributions[-1]
    assert abs(P[L - 1] - 0.5) < 1e-12 and abs(P[L + 1] - 0.5) < 1e-12
    traj0 = discrete_coined_walk(0, "hadamard", psi0, L)
    np.testing.assert_allclose(traj0.states[0], psi0)
    with pytest.raises(ValueError, match="too small"):
        discrete_coined_walk(10, "hadamard", psi0, L)


# ---------------------------------------------------------------------------
# CNOT realizability


def test_cnot_found_for_even_odd_ratio():
    t = cnot_realizability(2, 1)
    assert t is not None and abs(t - np.pi / 2) < 1e-12
    t = cnot_realizability(4, 2)
    assert t is not None and abs(t - np.pi / 4) < 1e-12
    # re-verify the returned time against the CNOT matrix independently
    w = HybridWalk(circle2(4, 2), coin="identity")
    eps0, eps1 = np.cos(4 * t), np.sin(2 * t)
    coin = np.diag([1.0, 1j * np.sign(eps0) * np.sign(eps1)]).astype(complex)
    assert linalg.phase_distance(w.step_operator(t, coin=coin), walk.CNOT) < 1e-9


def test_cnot_impossible_for_unit_ratio():
    assert cnot_realizability(1, 1) is None


def test_cnot_rejects_nonpositive_weights():
    with pytest.raises(ValueError, match="positive"):
        cnot_realizability(0.0, 1.0)
