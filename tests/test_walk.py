import re
import tracemalloc
import weakref

import numpy as np
import pytest

from _graphgen import random_properly_colored_graph
from _reference import (CNOT, adjacency, cnot_realizability, continuous_walk, discrete_coined_walk, hamiltonian,
                        line_reference_hamiltonian, oracle_p1_two_cycle, permutation_coin, phase_distance,
                        step_operator)
from hqw import linalg, walk
from hqw.graphs import (Edge, LabeledGraph, circle2, complete, cubic8, cycle, fock_g0, line2, line3,
                        signed_coords, star, subgraph_adjacency)
from hqw.walk import (HybridWalk, coin_position_state, entanglement_entropy, make_coin, position_distribution,
                      product_state, std_dev)

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
    H = hamiltonian(w)
    want = np.zeros((4, 4), dtype=complex)
    want[:2, :2] = X
    want[2:, 2:] = 2 * X
    np.testing.assert_allclose(H, want)
    # dual route: assemble through explicit projector tensor products
    kron_route = (np.kron(np.diag([1.0, 0.0]), X) + np.kron(np.diag([0.0, 1.0]), 2 * X))
    np.testing.assert_allclose(H, kron_route)


def test_assemble_star_blocks():
    N = 4
    w = HybridWalk(star(N), coin="fourier")
    H = hamiltonian(w)
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
    np.testing.assert_allclose(hamiltonian(w), adjacency(g))


def test_sector_propagators_match_generic_evolution():
    # graph mixing all three block kinds: self-loops, a matching, a dense star label
    edges = (Edge(0, 0, "loops", 0.7), Edge(1, 1, "loops", -0.3),
             Edge(0, 1, "match", 1.0), Edge(2, 3, "match", 0.5),
             Edge(0, 1, "dense", 1.0), Edge(0, 2, "dense", 1.0), Edge(0, 3, "dense", 1.0))
    g = LabeledGraph(4, edges, ("loops", "match", "dense"))
    w = HybridWalk(g, coin="grover")
    H = hamiltonian(w)
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
        # all three sector kinds present: diagonal phases, matching pairs, a dense block
        assert w._phase is not None and w._pairs is not None and w._dense
        H = hamiltonian(w)
        psi = rng.normal(size=w.dim) + 1j * rng.normal(size=w.dim)
        psi /= np.linalg.norm(psi)
        batch = w.evolve(ts, psi)
        assert batch.shape == (len(ts), w.dim)
        for k, t in enumerate(ts):
            want = linalg.evolve(H, t, psi)
            np.testing.assert_allclose(w.evolve(t, psi), want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(batch[k], want, rtol=0, atol=1e-12)
        assert linalg.is_unitary(step_operator(w, float(rng.uniform(0, 7))), atol=1e-12)


def per_sector_evolve(g: LabeledGraph, t, psi) -> np.ndarray:
    """exp(-iHt) psi label by label: phase multiply, 2x2 rotations or one eigh per sector,
    whose eigenbasis product is a 1-row product per time."""
    t = np.asarray(t, dtype=float)
    tcol = t.reshape(t.shape + (1,))
    out = np.empty(t.shape + (len(g.labels), g.n), dtype=complex)
    for c, lab in enumerate(g.labels):
        x, S = psi[c * g.n:(c + 1) * g.n], subgraph_adjacency(g, lab)
        hop = np.abs(S - np.diag(np.diag(S))) > 1e-14
        if not hop.any():
            out[..., c, :] = np.exp(-1j * np.diag(S).real * tcol) * x
        elif (np.abs(np.diag(S)) <= 1e-14).all() and hop.sum(axis=1).max() <= 1:
            p, q = np.nonzero(np.triu(hop))
            cs, sn = np.cos(S[p, q].real * tcol), -1j * np.sin(S[p, q].real * tcol)
            out[..., c, :] = x
            out[..., c, p], out[..., c, q] = cs * x[p] + sn * x[q], sn * x[p] + cs * x[q]
        else:
            ew, V = linalg.hermitian_eig(S)
            out[..., c, :] = ((np.exp(-1j * ew * tcol) * (V.conj().T @ x))[..., None, :] @ V.T)[..., 0, :]
    return out.reshape(t.shape + (-1,))


def test_fused_propagator_is_bit_identical_to_the_per_sector_kernels():
    rng = np.random.default_rng(7)
    ts = np.array([0.0, 0.37, 1.9, -2.6, 11.3, 3 * np.pi / 2])
    for k in range(20):
        base = random_properly_colored_graph(rng, max_n=40, max_colors=8)
        n = base.n
        # matchings mix repeated and distinct weights
        hops = tuple(Edge(e.u, e.v, e.label, float(rng.choice([1.0, 0.5, rng.uniform(0.2, 2.0)])))
                     for e in base.edges)
        # every other graph has no self-loops, so the pass starts from a plain copy
        looped = [v for v in range(n) if k % 2 and rng.random() < 0.6]
        loops = tuple(Edge(v, v, "loops", float(rng.normal())) for v in looped)
        hub = tuple(Edge(0, v, "hub", float(rng.uniform(0.2, 2.0))) for v in range(1, 4))
        labels = base.labels + ("loops", "idle", "hub", "idle'")
        g = LabeledGraph(n, hops + loops + hub, tuple(labels[i] for i in rng.permutation(len(labels))))
        w = HybridWalk(g, coin="grover")
        assert (w._phase is None) == (k % 2 == 0)
        psi = rng.normal(size=w.dim) + 1j * rng.normal(size=w.dim)
        for t in (*ts, ts):
            got = w.evolve(t, psi)
            assert np.array_equal(got, per_sector_evolve(g, t, psi))
            for idle in ("idle", "idle'"):
                c = g.labels.index(idle)
                rows = got.reshape(np.shape(t) + (w.coin_dim, n))[..., c, :]
                assert np.array_equal(rows, np.broadcast_to(psi[c * n:(c + 1) * n], rows.shape))
    # 200 pairs and 200 times: the rotations run in several blocks of times
    g = line3(100)
    w = HybridWalk(g, coin="grover")
    assert len(w._pairs[0]) * 200 > 2 * walk.BLOCK_ENTRIES
    psi = rng.normal(size=w.dim) + 1j * rng.normal(size=w.dim)
    grid = np.linspace(-3.0, 9.0, 200)
    assert np.array_equal(w.evolve(grid, psi), per_sector_evolve(g, grid, psi))


def test_blocks_of_pairs_give_the_bytes_of_one_pass(monkeypatch):
    # 300 pairs with repeated and distinct weights, rotated in blocks of 64 pairs
    rng = np.random.default_rng(5)
    base = line3(150)
    g = LabeledGraph(base.n, tuple(Edge(e.u, e.v, e.label, float(rng.choice([1.0, 0.5, rng.uniform(0.2, 2.0)])))
                                   for e in base.edges), base.labels)
    monkeypatch.setattr(walk, "BLOCK_ENTRIES", 64)
    w = HybridWalk(g, coin="grover")
    assert len(w._pairs[0]) > 4 * walk.BLOCK_ENTRIES and len(w._pairs[2]) > 1
    psi = rng.normal(size=w.dim) + 1j * rng.normal(size=w.dim)
    for t in (0.37, -2.6, np.linspace(-3.0, 9.0, 7)):
        assert np.array_equal(w.evolve(t, psi), per_sector_evolve(g, t, psi))


def test_a_wide_matching_holds_only_block_sized_temporaries():
    n = 1 << 18  # one perfect matching: 131,072 pairs on a 4 MiB state
    u = np.arange(0, n, 2)
    w = HybridWalk(LabeledGraph.from_columns(n, ("0",), u, u + 1, np.zeros_like(u), np.ones(len(u))),
                   coin="identity")
    psi = coin_position_state(1, n, 0, 0)
    tracemalloc.start()
    try:
        out = w.evolve(np.pi / 2, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(abs(out[1]) - 1.0) < 1e-12
    # the result and a few (times, pairs) blocks; full-width gathers and products would add 2 MiB each
    assert peak < out.nbytes + 8 * 16 * walk.BLOCK_ENTRIES, peak


def test_a_rows_bytes_do_not_depend_on_the_call_that_made_it():
    # diagonal (fock_g0), matchings (line3, star), dense (cycle, complete, cubic8), mixed (random)
    rng = np.random.default_rng(11)
    ts = np.linspace(-1.5, 7.5, 37)
    for g in (fock_g0(9), line3(6), star(7), cycle(30), complete(20), cubic8(),
              random_properly_colored_graph(rng, max_n=12)):
        w = HybridWalk(g, coin="grover")
        psi = rng.normal(size=w.dim) + 1j * rng.normal(size=w.dim)
        psi /= np.linalg.norm(psi)
        grid = w.evolve(ts, psi)
        for k in range(len(ts)):
            want = w.evolve(float(ts[k]), psi).tobytes()
            assert grid[k].tobytes() == want, (g.labels, k)
            assert w.evolve(ts[k:k + 1], psi)[0].tobytes() == want, (g.labels, k)
            assert w.evolve(ts[k:k + 5], psi)[0].tobytes() == want, (g.labels, k)
        # a (k, dim) stack, at one time per row or at one scalar time, through evolve and a coined step
        stack = rng.normal(size=(len(ts), w.dim)) + 1j * rng.normal(size=(len(ts), w.dim))
        for f in (w.evolve, w.step):
            rows, at_one_t = f(ts, stack), f(ts[3], stack)
            for k in range(len(ts)):
                assert rows[k].tobytes() == f(float(ts[k]), stack[k]).tobytes(), (f.__name__, g.labels, k)
                assert at_one_t[k].tobytes() == f(float(ts[3]), stack[k]).tobytes(), (f.__name__, g.labels, k)
            assert f(ts[:5], stack[:5])[2].tobytes() == rows[2].tobytes(), (f.__name__, g.labels)


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


def test_a_dense_sector_over_the_limit_is_refused_before_it_is_built(monkeypatch):
    def unreachable(*args):
        raise AssertionError("dense sector built")

    monkeypatch.setattr(walk, "subgraph_adjacency", unreachable)
    monkeypatch.setattr(linalg, "hermitian_eig", unreachable)
    n = int(np.sqrt(walk.DENSE_SECTOR_ENTRIES))
    with pytest.raises(ValueError, match=rf"dense sector on {n + 1} vertices.* over the limit"):
        HybridWalk(cycle(n + 1))
    with pytest.raises(AssertionError, match="dense sector built"):
        HybridWalk(cycle(n))


def test_the_dense_sectors_of_one_walk_share_one_budget(monkeypatch):
    def unreachable(*args):
        raise AssertionError("dense sector built")

    def bent(k):  # k labels on 1024 vertices, each the dense sector of the path 0-1-2
        labels = tuple(map(str, range(k)))
        return LabeledGraph(1024, tuple(Edge(a, a + 1, lab) for lab in labels for a in (0, 1)), labels)

    monkeypatch.setattr(walk, "subgraph_adjacency", unreachable)
    monkeypatch.setattr(linalg, "hermitian_eig", unreachable)
    with pytest.raises(ValueError, match=re.escape("17 dense sectors on 1024 vertices need 17 x 1024 x 1024 "
                                                   "eigendecomposition entries, over the limit of 16777216")):
        HybridWalk(bent(17))
    with pytest.raises(AssertionError, match="dense sector built"):  # 16 x 1024^2 is the budget
        HybridWalk(bent(16))


def test_a_state_over_the_limit_is_refused_before_its_coin(monkeypatch):
    def unreachable(*args):
        raise AssertionError("walk built")

    monkeypatch.setattr(walk, "make_coin", unreachable)
    n = walk.DENSE_SECTOR_ENTRIES // 2  # two labels without edges: states of 2n amplitudes, no sector built
    with pytest.raises(ValueError, match=rf"a state of 2 labels x {n + 1} vertices is over the limit of 16777216"):
        LabeledGraph(n + 1, (), ("a", "b"))  # the graph's own size rule, before any walk
    with pytest.raises(AssertionError, match="walk built"):
        HybridWalk(LabeledGraph(n, (), ("a", "b")))


def test_step_operator_matches_generic_route():
    w = HybridWalk(circle2(1.3, 0.4), coin="hadamard")
    H = hamiltonian(w)
    t = 0.77
    ew, V = linalg.hermitian_eig(H)
    U = (V * np.exp(-1j * ew * t)) @ V.conj().T
    want = U @ np.kron(w.coin, np.eye(2))
    np.testing.assert_allclose(step_operator(w, t), want, atol=1e-12)


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


def test_identity_coin_step_is_evolve():
    rng = np.random.default_rng(8)
    graphs = (circle2(1, 2), fock_g0(3), cubic8(), random_properly_colored_graph(rng))
    for g in graphs:  # phase, matching and dense sectors
        w = HybridWalk(g, coin="identity")
        psi = rng.normal(size=w.dim) + 1j * rng.normal(size=w.dim)
        psi[::3] = -0.0
        before = psi.copy()
        got = w.step(0.7, psi)
        assert got.tobytes() == w.evolve(0.7, psi).tobytes()  # exactly, signs of zeros included
        assert psi.tobytes() == before.tobytes()  # evolve never writes into psi
        assert w.apply_coin(psi) is psi  # an identity coin returns the stack as it is


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


def full_width_entropies(states, coin_dim, pos_dim):
    """Reference: the Schmidt values of every state over all of its positions."""
    M = np.asarray(states, dtype=complex).reshape(-1, coin_dim, pos_dim)
    s2 = np.linalg.svd(M, compute_uv=False) ** 2
    return np.array([linalg.entropy_of_probabilities(p) for p in s2])


def random_states(rng, k, coin_dim, pos_dim, unreached):
    """k normalized states, each with about `unreached` of its positions left at zero."""
    M = rng.normal(size=(k, coin_dim, pos_dim)) + 1j * rng.normal(size=(k, coin_dim, pos_dim))
    M *= (rng.random((k, 1, pos_dim)) >= unreached)
    M /= np.maximum(np.linalg.norm(M, axis=(1, 2), keepdims=True), 1e-300)
    return M.reshape(k, coin_dim * pos_dim)


@pytest.mark.parametrize("coin_dim,pos_dim", [(2, 9), (4, 4), (6, 3), (3, 1)])
def test_entropy_over_reached_positions_matches_the_full_width_svd(coin_dim, pos_dim):
    rng = np.random.default_rng(coin_dim * 100 + pos_dim)
    for unreached in (0.0, 0.3, 0.7, 0.95):
        states = random_states(rng, 40, coin_dim, pos_dim, unreached)
        ents = entanglement_entropy(states, coin_dim, pos_dim)
        assert ents.shape == (40,)
        np.testing.assert_allclose(ents, full_width_entropies(states, coin_dim, pos_dim), rtol=0, atol=1e-13)


def test_entropy_edge_cases_over_reached_positions():
    coin_dim, pos_dim = 3, 7
    # a position whose only amplitude is 1e-170: |a|^2 underflows to 0, yet the amplitude is nonzero
    tiny = np.zeros((coin_dim, pos_dim), dtype=complex)
    tiny[:, 2] = [0.6, 0.8j, 0.0]
    tiny[1, 5] = 1e-170
    assert position_distribution(tiny.reshape(-1), coin_dim, pos_dim)[5] == 0.0
    only_tiny = np.zeros((coin_dim, pos_dim), dtype=complex)
    only_tiny[2, 4] = 1e-170
    one_site = np.zeros((coin_dim, pos_dim), dtype=complex)
    one_site[:, 6] = np.array([1, 1j, -1]) / np.sqrt(3)
    zero = np.zeros(coin_dim * pos_dim, dtype=complex)
    cases = [tiny.reshape(-1), only_tiny.reshape(-1), one_site.reshape(-1), zero]
    for psi, ref in zip(cases, full_width_entropies(cases, coin_dim, pos_dim)):
        assert abs(entanglement_entropy(psi, coin_dim, pos_dim) - ref) <= 1e-13
    assert entanglement_entropy(one_site.reshape(-1), coin_dim, pos_dim) == 0.0
    assert entanglement_entropy(zero, coin_dim, pos_dim) == 0.0
    assert np.array_equal(entanglement_entropy(np.zeros((2, 3, coin_dim * pos_dim)), coin_dim, pos_dim),
                          np.zeros((2, 3)))


def test_stacked_entropy_is_each_states_own_entropy():
    rng = np.random.default_rng(5)
    coin_dim, pos_dim = 3, 11
    # fully and partly reached states, interleaved
    states = random_states(rng, 30, coin_dim, pos_dim, 0.4)
    states[::3] = random_states(rng, 10, coin_dim, pos_dim, 0.0)
    ents = entanglement_entropy(states, coin_dim, pos_dim)
    for k, psi in enumerate(states):
        assert ents[k] == entanglement_entropy(psi, coin_dim, pos_dim)
    stacked = entanglement_entropy(states.reshape(5, 6, -1), coin_dim, pos_dim)
    assert np.array_equal(stacked.reshape(-1), ents)
    # a stack whose every state reaches every position is the full-width SVD itself
    full = random_states(rng, 30, coin_dim, pos_dim, 0.0)
    assert np.array_equal(entanglement_entropy(full, coin_dim, pos_dim),
                          full_width_entropies(full, coin_dim, pos_dim))


def test_trajectory_keeps_the_full_states_of_a_partly_reached_line():
    g = line3(40)
    w = HybridWalk(g, coin="grover")
    psi0 = product_state(np.ones(3) / np.sqrt(3), np.eye(g.n)[40])
    traj = w.run(np.pi / 2, 12, psi0)
    assert traj.states.shape == (13, 3 * g.n)
    assert not traj.states.reshape(13, 3, g.n).any(axis=1).all()
    np.testing.assert_allclose(traj.entropies, full_width_entropies(traj.states, 3, g.n), rtol=0, atol=1e-13)


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


@pytest.mark.parametrize("coin", ["grover", "identity"])
def test_run_is_the_states_of_successive_steps(coin):
    g = line3(6)
    w = HybridWalk(g, coin=coin)
    psi0 = product_state(np.ones(3) / np.sqrt(3), np.eye(g.n)[6])
    states = [psi0]
    for _ in range(12):
        states.append(w.step(0.7, states[-1]))
    assert w.run(0.7, 12, psi0).states.tobytes() == np.array(states).tobytes()
    for bad, steps, match in ((np.ones(g.n * 3), 2, "not normalized"), (psi0, -1, "steps must be >= 0")):
        with pytest.raises(ValueError, match=match):
            w.run(0.7, steps, bad)


def test_run_rejects_unnormalized():
    w = HybridWalk(circle2(1, 2))
    with pytest.raises(ValueError, match="not normalized"):
        w.run(1.0, 3, np.ones(4, dtype=complex))


def test_run_rejects_a_nan_initial_state():
    # abs(nan - 1) > tol is False: the check must not let a NaN norm through
    psi0 = coin_position_state(2, 2, 0, 0)
    psi0[1] = np.nan
    with pytest.raises(ValueError, match="not normalized: .* nan"):
        HybridWalk(circle2(1, 2)).run(1.0, 3, psi0)


@pytest.mark.parametrize("g, coin", [(star(7), "fourier"), (line3(9), "grover")])
def test_run_keeps_the_bytes_of_the_last_rows_of_the_whole_run(g, coin):
    # the chunks of a run, cut at any size, have the bytes of its one chunk
    w = HybridWalk(g, coin=coin)
    psi0 = product_state(np.ones(w.coin_dim) / np.sqrt(w.coin_dim), np.eye(g.n)[g.n // 2])
    whole = w.run(0.7, 12, psi0)
    for rows in (1, 3, 8, 13):
        parts = list(w.chunks(0.7, 12, psi0, rows=rows))
        assert [len(p.states) for p in parts] == [min(rows, 13 - lo) for lo in range(0, 13, rows)], rows
        for name in ("states", "distributions", "sigmas", "entropies"):
            assert np.concatenate([getattr(p, name) for p in parts]).tobytes() == getattr(whole, name).tobytes(), \
                (rows, name)


@pytest.mark.parametrize("g, coin", [(star(7), "fourier"), (line3(9), "grover")])
def test_a_run_at_many_times_or_of_a_stack_has_the_bytes_of_each_rows_own_run(g, coin):
    w = HybridWalk(g, coin=coin)
    ts = np.array([0.3, 0.7, 2.9])
    psis = np.array([product_state(np.eye(w.coin_dim)[c], np.eye(g.n)[v]) for c, v in ((0, 1), (1, 4), (2, 3))])
    at_times, stack = w.run(ts, 3, psis[0]), w.run(ts, 3, psis)
    for k, t in enumerate(ts):
        for traj, psi in ((at_times, psis[0]), (stack, psis[k])):
            alone = w.run(np.array([t]), 3, psi)  # one state at an array of one time: its last step
            for name in ("states", "distributions", "sigmas", "entropies"):
                assert getattr(traj, name)[k].tobytes() == getattr(alone, name)[0].tobytes(), (k, name)


def test_a_run_stops_at_its_first_state_with_mass_on_the_band(monkeypatch):
    g = line3(5)
    w = HybridWalk(g, coin="grover")
    psi0 = product_state(np.ones(3) / np.sqrt(3), np.eye(g.n)[5])
    band = [0, 1, g.n - 2, g.n - 1]
    calls, evolve = [], w.evolve
    monkeypatch.setattr(w, "evolve", lambda *a: calls.append(1) or evolve(*a))
    # a walker moves one site per step: site 1 is 4 steps from the middle site 5; a chunk is checked once made
    for t, rows, evolved in ((0.8, 1, 4), (np.array([0.8]), None, 4), (0.8, 101, 100)):
        calls.clear()
        with pytest.raises(linalg.NumericalViolation, match="boundary band carries probability"):
            list(w.chunks(t, 100, psi0, band=band, rows=rows))
        assert len(calls) == evolved, (t, rows)
    assert w.run(0.8, 3, psi0, band=band).steps == 3


def test_chunks_refuse_fewer_than_one_row():
    w = HybridWalk(star(4), coin="grover")
    psi = coin_position_state(4, 4, 0, 0)
    for rows in (0, -2):
        with pytest.raises(ValueError, match=re.escape(f"rows must be >= 1, got {rows}")):
            next(w.chunks(0.1, 3, psi, rows=rows))
    # a stack, a (1, dim) one too, or one state at an array of times yields its last step alone, whatever `rows`
    last = w.run(0.1, 3, psi).states[-1:]
    for t, psi0 in ((0.1, psi[None]), (np.array([0.1]), psi), (np.array([0.1, 0.1]), psi)):
        chunks = [c.states for c in w.chunks(t, 3, psi0, rows=2)]
        assert len(chunks) == 1 and chunks[0].tobytes() == np.repeat(last, len(chunks[0]), axis=0).tobytes(), t
    assert [len(c.states) for c in w.chunks(0.1, 3, psi, rows=5)] == [4]


def test_no_chunk_outlives_its_turn(monkeypatch):
    g = line3(20)
    w = HybridWalk(g, coin="grover")
    psi0 = product_state(np.ones(3) / np.sqrt(3), np.eye(g.n)[g.n // 2])
    refs, live, evolve = [], [], w.evolve
    monkeypatch.setattr(w, "evolve", lambda *a: live.append(sum(r() is not None for r in refs)) or evolve(*a))
    for traj in w.chunks(0.7, 10, psi0, rows=3):
        refs += [weakref.ref(traj), weakref.ref(traj.states)]
        del traj
    # every chunk, and the states behind it, is gone before the next one takes its first step
    assert len(refs) == 8 and live == [0] * 10


@pytest.mark.parametrize("g, rate", [(circle2(10, 1), 10.0),  # matching pairs
                                     (fock_g0(4, 2.0), 4.0),  # self-loop phases up to 2 * 4 / 2
                                     (cubic8(), 3.0)])  # one dense sector, largest eigenvalue 3
def test_evolve_refuses_a_time_with_a_non_finite_phase(g, rate):
    w = HybridWalk(g)
    psi = coin_position_state(w.coin_dim, w.pos_dim, 0, 0)
    for t, named in ((1e308, "t = 1e+308"), (np.inf, "t = inf"), (np.nan, "t = nan"),
                     (np.array([0.5, -1e308, 1e308]), "t = -1e+308")):
        with pytest.raises(ValueError, match=re.escape(named)):
            w.evolve(t, psi)
    with pytest.raises(ValueError, match=re.escape("t = 1e+308")):
        w.step(1e308, psi)
    # the largest finite phases still evolve, without overflow warnings (errors under pytest)
    assert np.isfinite(w.evolve(np.array([0.0, 1e307 / rate]), psi)).all()
    assert np.isfinite(w.run(1e307 / rate, 2, psi).states).all()


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
    eps0, eps1 = np.cos(4 * t), np.sin(2 * t)
    coin = np.diag([1.0, 1j * np.sign(eps0) * np.sign(eps1)]).astype(complex)
    w = HybridWalk(circle2(4, 2), coin=coin)
    assert phase_distance(step_operator(w, t), CNOT) < 1e-9


def test_cnot_impossible_for_unit_ratio():
    assert cnot_realizability(1, 1) is None


def test_cnot_rejects_nonpositive_weights():
    with pytest.raises(ValueError, match="positive"):
        cnot_realizability(0.0, 1.0)
