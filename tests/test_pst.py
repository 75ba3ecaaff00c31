import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from _graphgen import hypercube, random_properly_colored_graph, random_transfer_case
from _reference import permutation_coin
from hqw import linalg
from hqw.cli import _json_pieces
from hqw.graphs import Edge, LabeledGraph, subgraph_adjacency, validate_proper_coloring
from hqw.pst import (STEP_TIME, PstStage, PstTranscript, demo_tree, make_plan, run_pst, segment_line_transfer,
                     verify_pst)


def three_vertex_path():
    return LabeledGraph(3, (Edge(0, 1, "0"), Edge(1, 2, "1")), ("0", "1"))


def dense_state(stage, plan):
    """A transcript stage as the (coin, position) matrix its (index, amplitude) pairs stand for."""
    vec = np.zeros(plan.coin_dim * plan.graph.n, dtype=complex)
    vec[stage.index] = stage.amplitude
    return vec.reshape(plan.coin_dim, plan.graph.n)


def grid_4x4():
    """The 4 x 4 grid, vertex 4r + c; the edge leaving column (row) k to the right (down) is colored by k's parity."""
    edges = [Edge(4 * r + c, 4 * r + c + 1, f"h{c % 2}") for r in range(4) for c in range(3)]
    edges += [Edge(4 * r + c, 4 * r + c + 4, f"v{r % 2}") for r in range(3) for c in range(4)]
    return LabeledGraph(16, tuple(edges), ("h0", "h1", "v0", "v1"))


def test_plan_defaults_to_bfs_path():
    plan = make_plan(three_vertex_path(), 0, 2)
    assert plan.path == (0, 1, 2)
    assert plan.path_labels == ("0", "1")
    assert plan.primed_labels == ("0'", "1'")
    assert plan.coin_dim == 4


def test_plan_validations():
    bad_color = LabeledGraph(3, (Edge(0, 1, "0"), Edge(1, 2, "0")), ("0",))
    with pytest.raises(ValueError, match="not proper"):
        make_plan(bad_color, 0, 2)
    heavy = LabeledGraph(2, (Edge(0, 1, "0", 2.0),), ("0",))
    with pytest.raises(ValueError, match="unit edge weights"):
        make_plan(heavy, 0, 1)
    with pytest.raises(ValueError, match="distinct"):
        make_plan(three_vertex_path(), 1, 1)
    split = LabeledGraph(4, (Edge(0, 1, "0"), Edge(2, 3, "0")), ("0", "1"))
    with pytest.raises(ValueError, match="not connected"):
        make_plan(split, 0, 3)
    with pytest.raises(ValueError, match="does not run"):
        make_plan(three_vertex_path(), 0, 2, path=[1, 2])
    with pytest.raises(ValueError, match="backtrack"):
        make_plan(three_vertex_path(), 0, 1, path=[0, 1, 0, 1])
    # a loop's color class is no matching
    looped = LabeledGraph(3, three_vertex_path().edges + (Edge(2, 2, "0"),), ("0", "1"))
    with pytest.raises(ValueError, match=r"no self-loops; offending edge: Edge\(u=2, v=2, label='0'"):
        make_plan(looped, 0, 2)


def test_transfer_single_component_and_phase():
    plan = make_plan(three_vertex_path(), 0, 2)
    final, transcript = run_pst(plan, np.array([1.0, 0.0]))
    assert transcript.fidelity > 1 - 1e-9
    l, measured, expected = transcript.phase_checks[0]
    assert l == 0
    assert abs(expected - (1j**2) * 1.0) < 1e-12  # two path edges: phase i^2 = -1
    assert abs(measured - expected) < 1e-9
    # final state is (global i^M) alpha on the unprimed sector at the target
    mat = final.reshape(plan.coin_dim, 3)
    assert abs(abs(mat[0, 2]) - 1.0) < 1e-9


def test_intermediate_state_supports():
    # after iteration 1, component 1 is parked at b, the rest still wait at a
    g = demo_tree()
    plan = make_plan(g, 0, 14)
    N = plan.num_colors
    alpha = np.array([0.6, 0.48, 0.64], dtype=complex)
    alpha /= np.linalg.norm(alpha)
    _, transcript = run_pst(plan, alpha)
    stage = next(s for s in transcript.stages if s.name == "iter1.E")
    mat = dense_state(stage, plan)
    assert abs(abs(mat[N + 0, plan.target]) - abs(alpha[0])) < 1e-9
    for i in (1, 2):
        assert abs(abs(mat[N + i, plan.source]) - abs(alpha[i])) < 1e-9
    # nothing lives in unprimed sectors between iterations
    assert np.abs(mat[:N]).max() < 1e-9


def test_parked_components_are_frozen_during_walks():
    plan = make_plan(demo_tree(), 0, 14)
    N = plan.num_colors
    alpha = np.ones(3, dtype=complex) / np.sqrt(3)
    _, transcript = run_pst(plan, alpha)
    for stage in transcript.stages:
        if ".C" in stage.name or ".D" in stage.name:
            mat = dense_state(stage, plan)
            active = np.abs(mat[:N]) ** 2
            # exactly one unprimed sector carries amplitude during a walk phase
            sector_mass = active.sum(axis=1)
            assert (sector_mass > 1e-12).sum() == 1


def test_uniform_alpha_on_tree():
    plan = make_plan(demo_tree(), 0, 14)
    alpha = np.ones(3, dtype=complex) / np.sqrt(3)
    final, transcript = run_pst(plan, alpha)
    assert transcript.fidelity > 1 - 1e-9
    assert verify_pst(plan, final, alpha) > 1 - 1e-9
    # wrong target vertex scores zero
    assert verify_pst(dataclasses.replace(plan, target=1), final, alpha) < 1e-9


def test_adjacent_endpoints_single_edge():
    g = LabeledGraph(2, (Edge(0, 1, "0"),), ("0", "1"))
    plan = make_plan(g, 0, 1)
    final, transcript = run_pst(plan, np.array([0.6, 0.8], dtype=complex))
    assert transcript.fidelity > 1 - 1e-9
    assert abs(transcript.expected_phase - 1j) < 1e-12  # single edge: phase i


def test_single_color_graph_transfer():
    # minimal color set: one color, doubled coin space of dimension 2
    g = LabeledGraph(2, (Edge(0, 1, "0"),), ("0",))
    plan = make_plan(g, 0, 1)
    assert plan.coin_dim == 2
    _, transcript = run_pst(plan, np.array([1.0], dtype=complex))
    assert transcript.fidelity > 1 - 1e-9


def test_run_pst_rejects_bad_alpha():
    plan = make_plan(three_vertex_path(), 0, 2)
    with pytest.raises(ValueError, match="not normalized"):
        run_pst(plan, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="coin amplitudes"):
        run_pst(plan, np.array([1.0]))


def test_nan_alpha_and_nan_stage_are_refused():
    # abs(nan - 1) > tol is False: the checks must not let a NaN norm through
    plan = make_plan(demo_tree(), 0, 14)
    with pytest.raises(ValueError, match="alpha is not normalized: .* nan"):
        run_pst(plan, [np.nan, 1, 1])
    state = np.zeros(plan.coin_dim * plan.graph.n, dtype=complex)
    state[0] = np.nan
    transcript = PstTranscript(coin_labels=plan.labels + plan.primed_labels, pos_dim=plan.graph.n)
    with pytest.raises(linalg.NumericalViolation, match="norm drifted to nan at stage x"):
        transcript.record("x", state)
    assert transcript.stages == []


def test_randomized_transfer_cases():
    rng = np.random.default_rng(42)
    for _ in range(10):
        g = random_properly_colored_graph(rng)
        a, b, path, alpha = random_transfer_case(rng, g)
        plan = make_plan(g, a, b, path=path)
        final, transcript = run_pst(plan, alpha)
        assert transcript.fidelity >= 1 - 1e-9
        M = plan.num_edges
        for l, measured, expected in transcript.phase_checks:
            assert abs(measured - expected) < 1e-9
            assert abs(expected - (1j**M) * alpha[l]) < 1e-12
        # coin amplitude magnitudes survive the transfer
        mat = final.reshape(plan.coin_dim, g.n)
        for i in range(plan.num_colors):
            assert abs(abs(mat[i, b]) - abs(alpha[i])) < 1e-9


def random_dense_case():
    rng = np.random.default_rng(6)
    g = random_properly_colored_graph(rng, max_n=7, max_colors=3)
    a, b, path, alpha = random_transfer_case(rng, g, max_path_edges=4)
    return g, a, b, path, alpha


def hexagon_long_way_case():
    # a properly 2-colored 6-cycle from 0 to 2 the long way round: 4 edges where 2 would do
    g = LabeledGraph(6, tuple(Edge(v, (v + 1) % 6, "ab"[v % 2]) for v in range(6)), ("a", "b"))
    return g, 0, 2, (0, 5, 4, 3, 2), np.array([0.6, 0.8j])


def grid_detour_case():
    # 8 edges across the 4 x 4 grid, where a shortest path has 6
    rng = np.random.default_rng(16)
    alpha = rng.normal(size=4) + 1j * rng.normal(size=4)
    return grid_4x4(), 0, 15, (0, 1, 2, 6, 5, 9, 10, 14, 15), alpha / np.linalg.norm(alpha)


def dense_protocol(plan):
    """The whole protocol as one dense matrix: the doubled-coin step U and every
    coin, a permutation of the swaps the protocol states, multiplied out in order."""
    g, N, M = plan.graph, plan.num_colors, plan.num_edges
    n = g.n
    colors = [plan.labels.index(lab) for lab in plan.path_labels]
    H = np.zeros((2 * N * n, 2 * N * n), dtype=complex)
    for i, lab in enumerate(plan.labels):
        H[i * n:(i + 1) * n, i * n:(i + 1) * n] = subgraph_adjacency(g, lab)
    w, V = linalg.hermitian_eig(H)
    U = (V * np.exp(-1j * w * STEP_TIME)) @ V.conj().T

    def lift(*swaps):
        return np.kron(permutation_coin(2 * N, swaps), np.eye(n))

    P = lift(*[(i, N + i) for i in range(N)])  # each color with its primed copy
    total = P
    for l in range(N):
        total = U @ lift((colors[0], N + l)) @ total  # D_l: first path color <-> primed color l
        for k in range(M - 1):
            total = U @ lift((colors[k], colors[k + 1])) @ total  # C_k: consecutive path colors
        total = lift((colors[-1], N + l)) @ total  # E_l: last path color <-> primed color l
    return P @ total


def test_run_pst_matches_literal_dense_composition():
    # independent route, on a random BFS-shortest case and two paths that are not shortest
    for case in (random_dense_case, hexagon_long_way_case, grid_detour_case):
        g, a, b, path, alpha = case()
        plan = make_plan(g, a, b, path=path)
        psi0 = np.zeros(plan.coin_dim * g.n, dtype=complex)
        psi0[np.arange(plan.num_colors) * g.n + a] = alpha
        final, transcript = run_pst(plan, alpha)
        np.testing.assert_allclose(final, dense_protocol(plan) @ psi0, atol=1e-10)
        assert transcript.fidelity > 1 - 1e-9


def test_norm_preserved_at_every_stage():
    rng = np.random.default_rng(1)
    g = random_properly_colored_graph(rng, max_n=9)
    a, b, path, alpha = random_transfer_case(rng, g)
    plan = make_plan(g, a, b, path=path)
    _, transcript = run_pst(plan, alpha)
    for stage in transcript.stages:
        assert abs(np.linalg.norm(dense_state(stage, plan)) - 1.0) < 1e-10


def test_transcript_keeps_only_above_cutoff_amplitudes():
    # Q11 to the antipode: 134 stages of a 45,056-dim state, 94 MB as full copies
    plan = make_plan(hypercube(11), 0, 2**11 - 1)
    alpha = np.ones(11, dtype=complex) / np.sqrt(11)
    tracemalloc.start()
    try:
        _, transcript = run_pst(plan, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert transcript.fidelity > 1 - 1e-9
    assert max(len(stage.index) for stage in transcript.stages) <= plan.num_colors
    assert peak < 16 * 2**20, f"run_pst traced peak {peak / 2**20:.1f} MB"


def test_transcript_json_dump():
    plan = make_plan(three_vertex_path(), 0, 2)
    _, transcript = run_pst(plan, np.array([0.0, 1.0], dtype=complex))
    doc = transcript.to_json_dict()
    assert doc["fidelity"] > 1 - 1e-9
    assert doc["stages"][0]["name"] == "P"
    first = doc["stages"][0]["state"]
    assert first == {"1'|0": [1.0, 0.0]}
    assert len(doc["phase_checks"]) == 2


def test_transcript_json_matches_entrywise_scan():
    rng = np.random.default_rng(5)
    labels, n = ("a", "b", "a'"), 4
    state = rng.normal(size=len(labels) * n) + 1j * rng.normal(size=len(labels) * n)
    state[rng.random(state.size) < 0.4] = 0.0
    state[1] = complex(-0.0, 0.5)
    state[6] = complex(0.5, -0.0)
    state[7] = 1e-13
    state /= np.linalg.norm(state)
    transcript = PstTranscript(coin_labels=labels, pos_dim=n)
    transcript.record("s", state)
    transcript.phase_checks.append((0, complex(-0.0, -0.0), 1j * complex(0.0, 1.0)))
    doc = transcript.to_json_dict()
    want = {}
    mat = state.reshape(len(labels), n)
    for c in range(len(labels)):
        for v in range(n):
            if abs(mat[c, v]) > 1e-12:
                want[f"{labels[c]}|{v}"] = [mat[c, v].real + 0.0, mat[c, v].imag + 0.0]
    got = doc["stages"][0]["state"]
    assert list(got.items()) == list(want.items())
    assert "a|1" in got and "b|2" in got and "b|3" not in got
    # no signed zero reaches the artifact from a computed state
    for x in [x for pair in got.values() for x in pair] + doc["phase_checks"][0]["measured"]:
        assert x != 0.0 or not np.signbit(x)


def test_transcript_json_pieces_match_json_dumps():
    labels, n = ('a"b', "\u00e9\\", "x'", "\u6f22"), 3
    state = np.zeros(len(labels) * n, dtype=complex)
    state[[1, 5, 10]] = [complex(-0.0, 0.6), complex(0.8, -0.0), 1e-13]
    transcript = PstTranscript(coin_labels=labels, pos_dim=n, expected_phase=-1j)
    transcript.record("s\u00e9\"q", state)
    transcript.stages.append(PstStage("empty", np.zeros(0, dtype=int), np.zeros(0, dtype=complex)))
    transcript.phase_checks += [(0, complex(-0.0, -0.0), -1j * 0.6j), (1, 0j, complex(0.8, -0.0))]
    transcript.fidelity = 0.9999999999999998
    payload = dict(transcript.to_json_dict(), path=[0, 1, 2], path_colors=list(labels))
    others = {"empty": {}, "list": [], "nested": [[], [1, [2.5, None, True]], {"k": "v\n"}], "format": ["%s", "%d"]}
    # the matmul --entry / --trace and triangles artifacts, exact and shots
    results = [{"i": 3, "j": 14, "mode": "exact", "probability": 0.015625, "value": 64.0},
               {"i": 0, "j": 7, "mode": "shots", "probability": -0.0, "value": -0.0, "shots": 20000, "seed": 7},
               {"mode": "exact", "value": 147456.0},
               {"mode": "shots", "value": 0.30000000000000004, "shots": 1, "seed": 0},
               {"vertex": 2, "triangles": 4, "mode": "exact"},
               {"triangles": 0, "mode": "shots", "shots": 20000, "seed": 2**40}]
    for obj in (payload, others, *results, [], 1.5, float("nan")):
        assert "".join(_json_pieces(obj)) == json.dumps(obj, indent=2) + "\n"
    plan = make_plan(hypercube(5), 3, 3 ^ 31)
    _, transcript = run_pst(plan, np.ones(5) / np.sqrt(5))
    payload = dict(transcript.to_json_dict(), path=list(plan.path), path_colors=list(plan.path_labels))
    assert "".join(_json_pieces(payload)) == json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Segment-line switching demo


def test_segment_transfer_two_vertices():
    res = segment_line_transfer(2)
    assert abs(res.final_probability - 1.0) < 1e-12
    # one step: e^{-iX pi/2}|1> = -i|2> in the blue sector
    amp = res.final_state.reshape(2, 2)[1, 1]
    assert abs(amp + 1j) < 1e-12


def test_segment_transfer_holds_only_the_current_state():
    # 2000 positions: a copy of every 4000-dim state would be 128 MB
    tracemalloc.start()
    try:
        res = segment_line_transfer(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(res.final_probability - 1.0) < 1e-9
    assert peak < 8 * 2**20, f"segment_line_transfer traced peak {peak / 2**20:.1f} MB"


def test_segment_transfer_reaches_target():
    for M in (3, 5, 8):
        res = segment_line_transfer(M)
        assert abs(res.final_probability - 1.0) < 1e-9
        assert res.target_vertex == M - 1


def test_segment_coin_record_alternates():
    res = segment_line_transfer(6)
    assert res.coin_record == ("b", "r", "b", "r", "b")


def test_segment_transfer_rejects_short_line():
    with pytest.raises(ValueError, match=">= 2"):
        segment_line_transfer(1)


def test_demo_tree_shape():
    g = demo_tree()
    assert g.n == 15
    assert validate_proper_coloring(g).proper
    assert len(g.labels) == 3


def test_step_time_is_three_quarter_period():
    assert abs(STEP_TIME - 3 * np.pi / 2) < 1e-15
