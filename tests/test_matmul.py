import tracemalloc

import numpy as np
import pytest

from _graphgen import random_regular_adjacency, random_regular_sequence
from _reference import adjacency, classical_triangle_count, classical_triangles_at_vertex
from hqw import linalg
from hqw.graphs import Edge, LabeledGraph, circle2, complete, cubic8, cycle, star
from hqw.matmul import (MultiRegisterState, classical_product, generalized_cnot, initial_state,
                        product_entry, product_matrix, product_trace,
                        projection_probability, regular_sequence, run_sequence,
                        sample_projector, stage_walk, triangle_count,
                        triangles_at_vertex)

C4 = np.array([[0, 1, 0, 1],
               [1, 0, 1, 0],
               [0, 1, 0, 1],
               [1, 0, 1, 0]], dtype=int)
K3 = np.array([[0, 1, 1],
               [1, 0, 1],
               [1, 1, 0]], dtype=int)


def make_state(n, amps):
    """MultiRegisterState from a {register tuple: amplitude} dict."""
    return MultiRegisterState(n=n, regs=np.array(list(amps), dtype=np.int64),
                              amps=np.array(list(amps.values()), dtype=complex))


def as_dict(state):
    """{register tuple: amplitude} view of a MultiRegisterState."""
    return {tuple(r): a for r, a in zip(state.regs.tolist(), state.amps.tolist())}


def vertex_star_matrix(A, k):
    S = np.zeros(A.shape, dtype=complex)
    S[:, k] = A[:, k]
    S[k, :] = A[k, :]
    return S


# ---------------------------------------------------------------------------
# Sequence validation


def test_regular_sequence_from_graphs_and_arrays():
    ring8 = np.zeros((8, 8), dtype=int)
    for i in range(8):
        ring8[i, (i + 1) % 8] = ring8[(i + 1) % 8, i] = 1
    seq = regular_sequence([cubic8(), ring8])
    assert seq.degrees == (3, 2)
    assert seq.n == 8
    assert seq.degree_product == 6
    # 3^40 is past the int64 range that a numpy product would wrap in
    assert regular_sequence([cubic8()] * 40).degree_product == 3**40


def test_a_walk_over_the_register_entry_limit_is_refused_before_its_first_stage(monkeypatch):
    import hqw.matmul as matmul

    with monkeypatch.context() as m:
        m.setattr(matmul, "stage_walk", None)  # a stage would fail on its call
        with pytest.raises(ValueError, match="a walk of 4251528 rows x 4 registers is over the limit of 16777216"):
            product_entry(regular_sequence([complete(163)] * 3), 0, 0)
    # the limit counts every row of the walk: with room for one cubic8^3 column (27 rows x 4
    # registers), that column runs and a block of two columns is refused
    monkeypatch.setattr(matmul, "DENSE_SECTOR_ENTRIES", 27 * 4)
    seq = regular_sequence([cubic8()] * 3)
    assert run_sequence(seq, 0).norm() == pytest.approx(1.0)
    with pytest.raises(ValueError, match="a walk of 54 rows x 4 registers"):
        run_sequence(seq, np.arange(2))


def test_regular_sequence_rejections():
    with pytest.raises(ValueError, match="not regular"):
        regular_sequence([star(4)])
    with pytest.raises(ValueError, match="disagree"):
        regular_sequence([C4, K3])
    with pytest.raises(ValueError, match="zero diagonal"):
        regular_sequence([np.eye(4, dtype=int)])
    with pytest.raises(ValueError, match="symmetric"):
        regular_sequence([np.triu(C4)])
    with pytest.raises(ValueError, match="0 or 1"):
        regular_sequence([2 * C4])
    with pytest.raises(ValueError, match="at least one"):
        regular_sequence([])
    with pytest.raises(ValueError, match="at least one vertex"):
        regular_sequence([np.zeros((0, 0))])
    # a LabeledGraph is read from its edge list, with the messages of the array path
    with pytest.raises(ValueError, match="0 or 1"):
        regular_sequence([LabeledGraph(2, (Edge(0, 1, "0", 2.0),), ("0",))])
    with pytest.raises(ValueError, match="0 or 1"):
        regular_sequence([circle2(1, 1)])  # one pair under two labels
    with pytest.raises(ValueError, match="zero diagonal"):
        regular_sequence([LabeledGraph(3, (Edge(1, 1, "0"),), ("0",))])
    with pytest.raises(ValueError, match="at least 1"):
        regular_sequence([LabeledGraph(3, (), ("0",))])
    # the dense sum reads these as the 4-cycle; the edge list takes unit weights only
    for extra in ((Edge(0, 2, "0", 0.0),), (Edge(0, 2, "0"), Edge(0, 2, "1", -1.0))):
        with pytest.raises(ValueError, match="0 or 1"):
            regular_sequence([LabeledGraph(4, cycle(4).edges + extra, ("0", "1"))])


def test_neighbor_tables_round_trip_to_the_dense_adjacency():
    for g in (cycle(7), complete(6), cubic8()):
        np.testing.assert_array_equal(classical_product(regular_sequence([g])), adjacency(g).real)
    rng = np.random.default_rng(14)
    for n, d in ((6, 3), (10, 4), (12, 5)):
        A = random_regular_adjacency(rng, n, d)
        np.testing.assert_array_equal(classical_product(regular_sequence([A])), A)


# ---------------------------------------------------------------------------
# Stage walk against the generic evolution oracle


def test_stage_walk_column_matches_generic_evolution():
    rng = np.random.default_rng(10)
    for n, d in ((4, 2), (6, 3), (8, 3), (4, 1)):
        A = random_regular_adjacency(rng, n, d) if d > 1 else np.kron(np.eye(n // 2, dtype=int), np.array([[0, 1], [1, 0]]))
        t = np.pi / (2 * np.sqrt(d))
        for k in range(n):
            state = stage_walk(initial_state(n, 1, k), 1, regular_sequence([A]).tables[0])
            got = np.zeros(n, dtype=complex)
            for tup, amp in as_dict(state).items():
                assert tup[0] == k
                got[tup[1]] = amp
            want = linalg.evolve(vertex_star_matrix(A, k), t, np.eye(n)[k].astype(complex))
            np.testing.assert_allclose(got, want, atol=1e-10)


def test_stage_walk_smallest_cases():
    # single edge (d = 1): quarter-period swap with a -i factor
    edge = np.array([[0, 1], [1, 0]], dtype=int)
    out = as_dict(stage_walk(initial_state(2, 1, 0), 1, regular_sequence([edge]).tables[0]))
    assert set(out) == {(0, 1)}
    assert abs(out[(0, 1)] + 1j) < 1e-12
    # 4-cycle (d = 2), coin 0: |0> -> -i(|1> + |3>)/sqrt(2)
    out = as_dict(stage_walk(initial_state(4, 1, 0), 1, regular_sequence([C4]).tables[0]))
    want = {(0, 1): -1j / np.sqrt(2), (0, 3): -1j / np.sqrt(2)}
    assert set(out) == set(want)
    for tup, amp in want.items():
        assert abs(out[tup] - amp) < 1e-12


def test_stage_walk_refuses_a_row_off_its_coin():
    # run_sequence only makes rows whose last register equals the stage's register;
    # one row that differs, beside on-coin rows, is refused whole
    table = regular_sequence([C4]).tables[0]
    state = make_state(4, {(0, 1, 1): 0.5, (1, 2, 2): 0.5, (2, 3, 0): 0.5, (3, 0, 0): 0.5})
    with pytest.raises(ValueError, match="^stage 2 walks only rows whose last register equals register 2$"):
        stage_walk(state, 2, table)


def test_run_sequence_peaks_at_about_its_final_state():
    # complete:60 cubed, one column: 59^3 final rows. Each stage repeats the rows once
    # and the copy step adds in place, so no stage holds a second copy of its state
    seq = regular_sequence([complete(60)] * 3)
    tracemalloc.start()
    try:
        state = run_sequence(seq, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(state.amps) == 59**3
    assert peak < 1.25 * (state.regs.nbytes + state.amps.nbytes), peak


def test_stage_walk_register_bounds():
    state = initial_state(4, 2, 0)
    with pytest.raises(ValueError, match="stage register"):
        stage_walk(state, 3, regular_sequence([C4]).tables[0])
    with pytest.raises(ValueError, match="does not match register base"):
        stage_walk(state, 1, regular_sequence([K3]).tables[0])


# ---------------------------------------------------------------------------
# Generalized CNOT


def test_generalized_cnot_examples():
    st = make_state(8, {(0, 2, 3, 0): 1.0})
    regs, amps = st.regs, st.amps
    out = generalized_cnot(st, control=2, target=3)
    assert as_dict(out) == {(0, 2, 5, 0): 1.0}
    # the sum is written into the input state, which is returned
    assert out is st and out.regs is regs and out.amps is amps

    st = make_state(8, {(0, 5): 1.0})
    out = generalized_cnot(st, control=1, target=2)
    assert as_dict(out) == {(0, 5): 1.0}  # control value 0 acts as identity

    st = make_state(8, {(7, 7): 1.0})
    out = generalized_cnot(st, control=1, target=2)
    assert as_dict(out) == {(7, 6): 1.0}  # 14 mod 8


def test_generalized_cnot_rejections():
    st = initial_state(4, 2, 1)
    with pytest.raises(ValueError, match="differ"):
        generalized_cnot(st, 2, 2)
    with pytest.raises(ValueError, match="outside"):
        generalized_cnot(st, 0, 2)


# ---------------------------------------------------------------------------
# Product entries against classical oracles


def test_c4_squared_entry():
    want = C4 @ C4  # classical oracle: (A^2)_00 = 2 for the 4-cycle
    assert want[0, 0] == 2
    seq = regular_sequence([C4, C4])
    est = product_entry(seq, 0, 0)
    assert abs(est.probability - 0.5) < 1e-12
    assert abs(est.value - 2.0) < 1e-9
    assert est.rounded == 2


def test_k3_cubed_entry():
    want = K3 @ K3 @ K3
    assert want[0, 0] == 2
    seq = regular_sequence([K3, K3, K3])
    est = product_entry(seq, 0, 0)
    assert abs(est.probability - 0.25) < 1e-12
    assert abs(est.value - 2.0) < 1e-9


def test_benchmark_graph_anchor():
    seq = regular_sequence([cubic8()] * 3)
    est = product_entry(seq, 0, 0)
    assert abs(est.probability - 2.0 / 27.0) < 1e-12
    assert est.rounded == 2


def test_exact_values_are_near_integers():
    rng = np.random.default_rng(3)
    seq = random_regular_sequence(rng)
    C = product_matrix(seq)
    assert np.abs(C - np.rint(C)).max() < 1e-6


def test_product_matrix_matches_classical():
    seq = regular_sequence([C4, C4])
    want = np.array([[2, 0, 2, 0], [0, 2, 0, 2], [2, 0, 2, 0], [0, 2, 0, 2]])
    np.testing.assert_allclose(product_matrix(seq), want, atol=1e-9)

    seq1 = regular_sequence([cubic8()])
    np.testing.assert_allclose(product_matrix(seq1), classical_product(seq1), atol=1e-9)

    rng = np.random.default_rng(5)
    A = random_regular_adjacency(rng, 8, 3)
    B = random_regular_adjacency(rng, 8, 3)
    seq2 = regular_sequence([A, B])
    np.testing.assert_allclose(product_matrix(seq2), B @ A, atol=1e-9)
    np.testing.assert_allclose(classical_product(seq2), B @ A)


def test_factor_order_is_right_to_left():
    rng = np.random.default_rng(9)
    A = random_regular_adjacency(rng, 6, 2)
    B = random_regular_adjacency(rng, 6, 3)
    seq = regular_sequence([A, B])  # C = B @ A, not A @ B
    np.testing.assert_allclose(product_matrix(seq), B @ A, atol=1e-9)


def test_product_matrix_spanning_several_blocks(monkeypatch):
    import hqw.matmul as matmul

    # D = 8^3 = 512 rows per column, so 32 columns per block and two blocks for n = 40
    rng = np.random.default_rng(12)
    A = random_regular_adjacency(rng, 40, 8)
    B = random_regular_adjacency(rng, 40, 8)
    seq = regular_sequence([A, B, A])
    C = product_matrix(seq)
    np.testing.assert_allclose(C, classical_product(seq), atol=1e-9)
    # per-column walk and per-entry projection as the reference readout
    want = np.array([[seq.degree_product * projection_probability(run_sequence(seq, j), i, j)
                      for j in range(seq.n)] for i in range(seq.n)])
    np.testing.assert_array_equal(C, want)
    assert product_trace(seq) == sum(want[k, k] for k in range(seq.n))
    # one column per block, or all columns in one block, reads the same entries
    for rows in (1, 1 << 20):
        monkeypatch.setattr(matmul, "BLOCK_ENTRIES", rows)
        np.testing.assert_array_equal(product_matrix(seq), C)


def test_shots_draw_only_the_entries_with_a_nonzero_projection(monkeypatch):
    import hqw.matmul as matmul

    seq = regular_sequence([cycle(30)] * 3)
    drawn, sample = [], matmul.sample_projector
    monkeypatch.setattr(matmul, "sample_projector", lambda p, i, j, *a: drawn.append((i, j)) or sample(p, i, j, *a))
    C, exact = product_matrix(seq, mode="shots", shots=100, seed=3), classical_product(seq)
    assert sorted(drawn) == sorted(map(tuple, np.argwhere(exact > 0).tolist())) and len(drawn) == 4 * 30
    assert (C[exact == 0] == 0.0).all()
    drawn.clear()
    # no closed 3-walk on a 30-cycle: every diagonal projection is 0, so no draw
    assert product_trace(seq, mode="shots", shots=100, seed=3) == 0.0 and drawn == []


def test_every_entry_point_gives_the_same_shot_estimate():
    # D = 10^3 = 1000 rows per column, so 16 columns per block and two blocks for n = 20
    rng = np.random.default_rng(13)
    graphs = (random_regular_adjacency(rng, 20, 10), cubic8())
    kw = dict(mode="shots", shots=20000, seed=7)
    for g in graphs:
        seq = regular_sequence([g] * 3)
        C = product_matrix(seq, **kw)
        for i in range(seq.n):
            for j in range(seq.n):
                assert product_entry(seq, i, j, **kw).value == C[i, j], (i, j)
        total = 0.0
        for k in range(seq.n):
            total += C[k, k]
        assert product_trace(seq, **kw) == total
        for k in range(seq.n):
            assert triangles_at_vertex(g, k, **kw) == round(C[k, k]) // 2, k


def test_product_matrix_memory_is_bounded_by_the_block():
    # 8-regular circulant on 160 vertices, K = 3: an unblocked walk of all columns
    # holds 160 * 512 rows (~9 MB); a block holds at most 2^14 rows
    n = 160
    A = np.zeros((n, n), dtype=int)
    for off in (1, 2, 3, 4):
        for v in range(n):
            A[v, (v + off) % n] = A[(v + off) % n, v] = 1
    seq = regular_sequence([A, A, A])
    tracemalloc.start()
    try:
        C = product_matrix(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(C, classical_product(seq), atol=1e-9)
    assert peak < 4e6, peak


def test_matrix_and_trace_readouts_hold_no_projection_window():
    # cycle:1000 cubed, D = 8: all 1000 columns walk as one block of 8000 rows. The
    # matrix scatters them straight into C and the trace into an n-vector, so
    # neither holds an n x (block width) window of projections beside its output
    seq = regular_sequence([cycle(1000)] * 3)
    peaks = []
    for product in (product_matrix, product_trace):
        tracemalloc.start()
        try:
            out = product(seq)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del out
    C = product_matrix(seq)
    np.testing.assert_allclose(C, classical_product(seq), atol=1e-9)
    assert peaks[0] < C.nbytes + 2 * 2**20, peaks
    assert peaks[1] < 2 * 2**20, peaks


def test_sequence_and_product_hold_no_dense_adjacency():
    # three copies of a relabeled 8-regular circulant on 2,048 vertices: a single
    # n x n float array is 33.5 MB, so the 8 MB bound leaves no room for one
    n = 2048
    perm = np.random.default_rng(15).permutation(n).tolist()
    g = LabeledGraph(n, tuple(Edge(perm[v], perm[(v + s) % n], "0") for v in range(n) for s in (1, 2, 3, 4)),
                     ("0",))
    tracemalloc.start()
    try:
        seq = regular_sequence([g, g, g])
        trace = product_trace(seq)
        entry = product_entry(seq, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
    # 36 closed 3-walks per vertex: ordered offset pairs (a, b) with a + b also an offset
    assert abs(trace - 36 * n) < 1e-6
    assert abs(entry.value - 36) < 1e-9


def test_product_trace_cases():
    assert abs(product_trace(regular_sequence([K3] * 3)) - 6.0) < 1e-9
    assert abs(product_trace(regular_sequence([C4] * 3))) < 1e-9  # bipartite: no odd closed walks
    # handshake identity: tr(A^2) = n * d
    for g, n, d in ((cycle(6), 6, 2), (cubic8(), 8, 3)):
        assert abs(product_trace(regular_sequence([g, g])) - n * d) < 1e-9


def test_column_sums_equal_degree_product():
    rng = np.random.default_rng(7)
    for _ in range(5):
        seq = random_regular_sequence(rng)
        C = product_matrix(seq)
        np.testing.assert_allclose(C.sum(axis=0), np.full(seq.n, seq.degree_product), atol=1e-9)


def test_run_sequence_matches_dense_statevector():
    # independent route: simulate the full n^(K+1)-dimensional statevector with
    # dense conditional-walk and modular-add permutation matrices
    rng = np.random.default_rng(21)
    n, K = 4, 3
    mats = [random_regular_adjacency(rng, n, d) for d in (2, 1, 2)]
    seq = regular_sequence(mats)
    dim = n ** (K + 1)

    def dense_walk(A, d, reg):
        t = np.pi / (2 * np.sqrt(d))
        W = np.zeros((dim, dim), dtype=complex)
        for k in range(n):
            S = vertex_star_matrix(A, k)
            w, V = np.linalg.eigh(S)
            Uk = (V * np.exp(-1j * w * t)) @ V.conj().T
            # project register `reg` (1-based) on k, act with Uk on register K+1
            mats_ = [np.eye(n, dtype=complex)] * (K + 1)
            mats_[reg - 1] = np.zeros((n, n), dtype=complex)
            mats_[reg - 1][k, k] = 1.0
            mats_[K] = Uk
            block = mats_[0]
            for m in mats_[1:]:
                block = np.kron(block, m)
            W += block
        return W

    def dense_gc(control, target):
        P = np.zeros((dim, dim), dtype=complex)
        for idx in range(dim):
            digits = []
            rest = idx
            for _ in range(K + 1):
                digits.append(rest % n)
                rest //= n
            digits = digits[::-1]  # register 1 is the most significant
            digits[target - 1] = (digits[target - 1] + digits[control - 1]) % n
            out = 0
            for dgt in digits:
                out = out * n + dgt
            P[out, idx] = 1.0
        return P

    j = 2
    psi = np.zeros(dim, dtype=complex)
    init = [j] + [0] * (K - 1) + [j]
    idx0 = 0
    for dgt in init:
        idx0 = idx0 * n + dgt
    psi[idx0] = 1.0
    for l in range(1, K + 1):
        psi = dense_walk(mats[l - 1], seq.degrees[l - 1], l) @ psi
        if l < K:
            psi = dense_gc(K + 1, l + 1) @ psi

    state = run_sequence(seq, j)
    sparse = np.zeros(dim, dtype=complex)
    for tup, amp in as_dict(state).items():
        idx = 0
        for dgt in tup:
            idx = idx * n + dgt
        sparse[idx] = amp
    np.testing.assert_allclose(sparse, psi, atol=1e-10)


def test_projection_probabilities_count_paths():
    # |Pi_ij Psi_f|^2 * D equals the number of 0/1 paths j -> i, enumerated here
    seq = regular_sequence([cubic8()] * 3)
    A = adjacency(cubic8()).real
    state = run_sequence(seq, 0)
    n = seq.n
    for i in range(n):
        paths = sum(int(A[i, p2] and A[p2, p1] and A[p1, 0])
                    for p1 in range(n) for p2 in range(n))
        got = seq.degree_product * projection_probability(state, i, 0)
        assert abs(got - paths) < 1e-9


def test_entry_validation():
    seq = regular_sequence([C4])
    with pytest.raises(ValueError, match="outside"):
        product_entry(seq, 0, 7)
    with pytest.raises(ValueError, match="mode"):
        product_entry(seq, 0, 0, mode="guess")
    with pytest.raises(ValueError, match="seed"):
        product_entry(seq, 0, 0, mode="shots", shots=100)
    with pytest.raises(ValueError, match="shot count"):
        product_entry(seq, 0, 0, mode="shots", shots=0, seed=1)


# ---------------------------------------------------------------------------
# Triangles


def test_triangle_counts():
    assert triangles_at_vertex(K3, 0) == 1
    assert triangle_count(K3) == 1
    assert triangle_count(C4) == 0
    assert triangles_at_vertex(C4, 2) == 0
    # K4 via the enumeration oracle
    A4 = np.asarray(np.ones((4, 4)) - np.eye(4), dtype=int)
    assert classical_triangle_count(A4) == 4
    assert triangle_count(complete(4)) == 4
    assert triangles_at_vertex(cubic8(), 0) == 1 == classical_triangles_at_vertex(cubic8(), 0)
    assert triangle_count(cubic8()) == classical_triangle_count(cubic8()) == 1


def test_triangles_reject_irregular():
    with pytest.raises(ValueError, match="not regular"):
        triangle_count(star(5))


# ---------------------------------------------------------------------------
# Shot sampling


def test_sampling_degenerate_probabilities():
    seq = regular_sequence([C4, C4])
    state = run_sequence(seq, 0)
    # p = 0.5 for (0,0); craft p = 0 and p = 1 cases directly
    hits, est = sample_projector(projection_probability(state, 1, 0), 1, 0, shots=500, seed=4)  # (A^2)_10 = 0
    assert hits == 0 and est == 0.0
    point = make_state(4, {(2, 1, 3): 1.0})
    hits, est = sample_projector(projection_probability(point, 3, 2), 3, 2, shots=250, seed=4)
    assert hits == 250 and est == 1.0


def test_sampling_is_reproducible():
    seq = regular_sequence([cubic8()] * 3)
    state = run_sequence(seq, 0)
    a = sample_projector(projection_probability(state, 0, 0), 0, 0, shots=20000, seed=123)
    b = sample_projector(projection_probability(state, 0, 0), 0, 0, shots=20000, seed=123)
    assert a == b
    c = sample_projector(projection_probability(state, 0, 0), 0, 0, shots=20000, seed=124)
    assert a != c


def test_shots_estimator_unbiased():
    seq = regular_sequence([cubic8()] * 3)
    state = run_sequence(seq, 0)
    p = projection_probability(state, 0, 0)
    shots = 400
    runs = 200
    estimates = [sample_projector(p, 0, 0, shots=shots, seed=s)[1] for s in range(runs)]
    stderr = np.sqrt(p * (1 - p) / shots) / np.sqrt(runs)
    assert abs(np.mean(estimates) - p) < 4 * stderr


def test_shots_mode_estimate_fields():
    seq = regular_sequence([cubic8()] * 3)
    est = product_entry(seq, 0, 0, mode="shots", shots=20000, seed=7)
    assert est.shots == 20000 and est.seed == 7
    assert est.hits is not None
    assert abs(est.probability - est.hits / 20000) < 1e-15
    assert abs(est.value - 27 * est.probability) < 1e-12
    assert est.ci_radius is not None
    assert est.meets_half_integer == (est.ci_radius < 0.5)


def test_product_matrix_shots_deterministic_per_seed():
    seq = regular_sequence([C4, C4])
    a = product_matrix(seq, mode="shots", shots=1000, seed=5)
    b = product_matrix(seq, mode="shots", shots=1000, seed=5)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_shots_mode_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    seq = regular_sequence([C4, C4])
    for estimate in (lambda: product_entry(seq, 0, 0, mode="shots", shots=10, seed=seed),
                     lambda: product_matrix(seq, mode="shots", shots=10, seed=seed),
                     lambda: product_trace(seq, mode="shots", shots=10, seed=seed)):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            estimate()
