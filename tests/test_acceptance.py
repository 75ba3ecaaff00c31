"""Acceptance suite: one test per contract criterion, each printing a
pass/fail line (run with -s to see them on success)."""

import time

import numpy as np

from _graphgen import random_properly_colored_graph, random_regular_sequence, random_transfer_case
from _reference import (CNOT, cnot_realizability, discrete_coined_walk, line_reference_hamiltonian,
                        oracle_p1_two_cycle, phase_distance, step_operator)
from hqw import linalg, matmul, pst
from hqw.graphs import circle2, cubic8, line2, line3, signed_coords, star
from hqw.walk import (HybridWalk, coin_position_state, entanglement_entropy,
                      position_distribution, product_state, std_dev)


def _report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed: {name} {tail}"


def test_criterion_01_circle_closed_form():
    start = time.perf_counter()
    ts = np.linspace(0.0, 2 * np.pi, 100)
    weights = np.linspace(0.5, 5.0, 10)
    psi0 = coin_position_state(2, 2, 0, 0)
    worst = 0.0
    for a in weights:
        for b in weights:
            w = HybridWalk(circle2(a, b), coin="hadamard")
            for t in ts:
                P = position_distribution(w.step(t, psi0), 2, 2)
                worst = max(worst, abs(P[1] - oracle_p1_two_cycle(a, b, t)))
    elapsed = time.perf_counter() - start
    _report(1, "two-circle closed-form dynamics", worst < 1e-10 and elapsed < 5.0,
            f"max|dP1|={worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_stable_bands():
    psi0 = coin_position_state(2, 2, 0, 0)
    worst = 0.0
    for omega in np.linspace(0.0, 3.0, 10):
        w = HybridWalk(circle2(2 * omega, 2 * omega + 1), coin="hadamard")
        for k in range(6):
            t = np.pi / 2 + k * np.pi  # |a-b| = 1
            P = position_distribution(w.step(t, psi0), 2, 2)
            worst = max(worst, abs(P[1] - 0.5))
    _report(2, "stable bands at t=(pi/2+k pi)/|a-b|", worst < 1e-9, f"max|P1-0.5|={worst:.2e}")


def test_criterion_03_star_dynamics():
    worst_dist, worst_per, worst_ent = 0.0, 0.0, 0.0
    for N in range(4, 13):
        w = HybridWalk(star(N), coin="fourier")
        psi0 = coin_position_state(N, N, 0, 0)
        coords = np.arange(N, dtype=float)
        for t in np.linspace(0.0, 2 * np.pi, 25):
            P = position_distribution(w.step(t, psi0), N, N)
            want = np.full(N, np.sin(t) ** 2 / N)
            want[0] = ((N - 1) * np.cos(t) ** 2 + 1) / N
            worst_dist = max(worst_dist, np.abs(P - want).max())
        for t in np.linspace(0.0, np.pi, 10):
            s1 = w.step(t, psi0)
            s2 = w.step(t + np.pi, psi0)
            P1 = position_distribution(s1, N, N)
            P2 = position_distribution(s2, N, N)
            worst_per = max(worst_per, np.abs(P1 - P2).max(),
                            abs(std_dev(P1, coords) - std_dev(P2, coords)),
                            abs(entanglement_entropy(s1, N, N) - entanglement_entropy(s2, N, N)))
        S = entanglement_entropy(w.step(np.pi / 2, psi0), N, N)
        worst_ent = max(worst_ent, abs(S - np.log2(N)))
    ok = worst_dist < 1e-10 and worst_per < 1e-9 and worst_ent < 1e-9
    _report(3, "star distribution, pi-periodicity, half-period entropy", ok,
            f"dist={worst_dist:.2e}, period={worst_per:.2e}, entropy={worst_ent:.2e}")


def _line_experiments():
    steps, L = 100, 108
    coords = signed_coords(2 * L + 1)
    sym = np.array([1.0, -1.0j]) / np.sqrt(2)
    center = np.eye(2 * L + 1)[L].astype(complex)
    psi2 = product_state(sym, center)
    hybrid2 = HybridWalk(line2(L), coin="hadamard").run(np.pi / 2, steps, psi2, coords=coords)
    disc = discrete_coined_walk(steps, "hadamard", psi2, L)
    psi3 = product_state(np.ones(3) / np.sqrt(3), center)
    hybrid3 = HybridWalk(line3(L), coin="grover").run(np.pi / 2, steps, psi3, coords=coords)
    return hybrid2, disc, hybrid3


def test_criterion_04_line_equivalence():
    start = time.perf_counter()
    hybrid2, disc, _ = _line_experiments()
    elapsed = time.perf_counter() - start
    diff = np.abs(hybrid2.distributions[-1] - disc.distributions[-1]).max()
    _report(4, "100-step two-label line matches the discrete walk", diff < 1e-9 and elapsed < 30.0,
            f"max|dP|={diff:.2e}, {elapsed:.1f}s")


def test_criterion_05_spread_slopes():
    hybrid2, disc, hybrid3 = _line_experiments()
    ks = np.arange(20, 101)

    Lc = 140
    H = line_reference_hamiltonian(2 * Lc + 1)
    coords_c = signed_coords(2 * Lc + 1)
    w, V = linalg.hermitian_eig(H)
    e0 = np.eye(2 * Lc + 1)[Lc].astype(complex)
    sigma_c = []
    for t in range(101):
        amp = V @ (np.exp(-1j * w * t) * (V.conj().T @ e0))
        sigma_c.append(std_dev(np.abs(amp) ** 2, coords_c))
    sigma_c = np.array(sigma_c)

    slopes = {
        "line2": np.polyfit(ks, hybrid2.sigmas[20:101], 1)[0],
        "discrete": np.polyfit(ks, disc.sigmas[20:101], 1)[0],
        "line3": np.polyfit(ks, hybrid3.sigmas[20:101], 1)[0],
        "continuous": np.polyfit(ks, sigma_c[20:101], 1)[0],
    }
    ok = (abs(slopes["line2"] - 0.54) < 0.02 and abs(slopes["discrete"] - 0.54) < 0.02
          and abs(slopes["line3"] - 0.59) < 0.02 and abs(slopes["continuous"] - 0.50) < 0.02)
    detail = ", ".join(f"{k}={v:.4f}" for k, v in slopes.items())
    _report(5, "sigma-vs-steps slopes 0.54/0.54/0.59/0.50", ok, detail)


def test_criterion_06_entropy_ordering():
    hybrid2, _, hybrid3 = _line_experiments()
    margin = hybrid3.entropies[-1] - hybrid2.entropies[-1]
    _report(6, "three-label entropy exceeds two-label at step 100", margin > 0.05,
            f"margin={margin:.3f} bits")


def test_criterion_07_flat_band_confinement():
    L = 108
    g = line3(L)
    w = HybridWalk(g, coin="identity")
    center = L
    worst = 0.0
    for m in range(3):
        allowed = {center}
        for e in g.edges:
            if e.label == str(m) and center in (e.u, e.v):
                allowed.add(e.u + e.v - center)
        psi = coin_position_state(3, g.n, m, center)
        for _ in range(100):
            psi = w.step(np.pi / 2, psi)
        P = position_distribution(psi, 3, g.n)
        worst = max(worst, float(P.sum() - sum(P[v] for v in allowed)))
    _report(7, "identity-coin confinement to the initial matched pair", worst < 1e-12,
            f"max outside mass={worst:.2e}")


def test_criterion_08_transfer_property_suite():
    rng = np.random.default_rng(2024)
    worst_fid, worst_phase = 1.0, 0.0
    for _ in range(50):
        g = random_properly_colored_graph(rng, max_n=12, max_colors=6)
        a, b, path, alpha = random_transfer_case(rng, g, max_path_edges=6)
        plan = pst.make_plan(g, a, b, path=path)
        _, transcript = pst.run_pst(plan, alpha)
        worst_fid = min(worst_fid, transcript.fidelity)
        for _, measured, expected in transcript.phase_checks:
            worst_phase = max(worst_phase, abs(measured - expected))
    worst_seg = 0.0
    for M in range(2, 9):
        res = pst.segment_line_transfer(M)
        worst_seg = max(worst_seg, abs(res.final_probability - 1.0))
    ok = worst_fid >= 1 - 1e-9 and worst_phase < 1e-9 and worst_seg < 1e-9
    _report(8, "50 random transfers + segment demo", ok,
            f"min fid={worst_fid:.12f}, phase err={worst_phase:.2e}, segment err={worst_seg:.2e}")


def test_criterion_09_matmul_oracle_equivalence():
    rng = np.random.default_rng(99)
    worst_entry, worst_col = 0.0, 0.0
    for _ in range(100):
        seq = random_regular_sequence(rng, max_n=8, max_k=3, max_d=3)
        C = matmul.product_matrix(seq)
        worst_entry = max(worst_entry, np.abs(C - matmul.classical_product(seq)).max())
        worst_col = max(worst_col, np.abs(C.sum(axis=0) - seq.degree_product).max())
    _report(9, "exact mode equals classical products (100 random cases)",
            worst_entry < 1e-6 and worst_col < 1e-9,
            f"entry err={worst_entry:.2e}, column-sum err={worst_col:.2e}")


def test_criterion_10_benchmark_anchor():
    seq = matmul.regular_sequence([cubic8()] * 3)
    est = matmul.product_entry(seq, 0, 0)
    p = 2.0 / 27.0
    ok_exact = abs(est.probability - p) < 1e-12 and est.rounded == 2
    ok_tri = matmul.triangles_at_vertex(cubic8(), 0) == 1

    radius = 3 * np.sqrt(p * (1 - p) / 20000)
    hits_within = 0
    for seed in range(100):
        shot = matmul.product_entry(seq, 0, 0, mode="shots", shots=20000, seed=seed)
        if abs(shot.probability - p) <= radius:
            hits_within += 1
    ok = ok_exact and ok_tri and hits_within >= 99
    _report(10, "benchmark graph: p=2/27, C00=2, 1 triangle, 20000-shot coverage", ok,
            f"|p-2/27|={abs(est.probability - p):.1e}, within-3sigma {hits_within}/100")


def test_criterion_11_cnot_realizability():
    t = cnot_realizability(4, 2)
    ok_found = t is not None
    if ok_found:
        eps0, eps1 = np.cos(4 * t), np.sin(2 * t)
        coin = np.diag([1.0, 1j * np.sign(eps0) * np.sign(eps1)]).astype(complex)
        w = HybridWalk(circle2(4, 2), coin=coin)
        ok_found = phase_distance(step_operator(w, t), CNOT) < 1e-9
    ok_none = cnot_realizability(1, 1) is None
    _report(11, "CNOT time found for (4,2), none for (1,1)", ok_found and ok_none,
            f"t={t}")
