"""Independent checks of the CLI artifacts, run outside the timed region.

All invocations of one run share their inputs, so `Reference` is built once
per run and every artifact is compared against it:

* dynamics rows: a seeded subset of rows against a per-sector evolution that
  applies `linalg.evolve` to each connected block of
  `graphs.subgraph_adjacency`, with coins and observables written out here
  in plain numpy, within 1e-9; every row must also sum to 1 within 1e-9;
* matmul: the product matrix must equal `matmul.classical_product` exactly;
* pst: fidelity >= 1 - 1e-9, recomputed from the final stage as well, and
  every phase check must read i^M * alpha_l within 1e-9.

`check_artifact` returns the worst absolute residual it saw and raises
`CheckFailed` on any mismatch.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

import numpy as np

from hqw import graphs, linalg, matmul

from inputs import LINE3_L, LINE3_STEPS, LINE3_T, STAR_N, STAR_POINTS, Inputs

TOL = 1e-9
ENTROPY_CUTOFF = 1e-12


class CheckFailed(Exception):
    pass


def _components(S: np.ndarray) -> list[np.ndarray]:
    """Vertex sets of the connected components of S's nonzero pattern."""
    parent = list(range(S.shape[0]))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rows, cols = np.nonzero(S)
    for u, v in zip(rows.tolist(), cols.tolist()):
        parent[find(u)] = find(v)
    groups = defaultdict(list)
    for v in range(S.shape[0]):
        groups[find(v)].append(v)
    return [np.array(g) for g in groups.values()]


class SectorEvolution:
    """exp(-i S t) of one coin sector, assembled block by block.

    Components with identical blocks share one propagator, computed column by
    column with `linalg.evolve`.
    """

    def __init__(self, S: np.ndarray):
        same = defaultdict(list)
        for comp in _components(S):
            block = S[np.ix_(comp, comp)]
            same[(len(comp), block.tobytes())].append(comp)
        self.groups = [(S[np.ix_(comps[0], comps[0])], np.array(comps)) for comps in same.values()]

    def apply(self, t: float, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        for block, idx in self.groups:
            U = np.column_stack([linalg.evolve(block, t, e) for e in np.eye(len(block))])
            out[idx] = x[idx] @ U.T
        return out


def _observables(mat: np.ndarray, coords: np.ndarray) -> np.ndarray:
    P = (np.abs(mat) ** 2).sum(axis=0)
    mean = P @ coords
    sigma = np.sqrt(max(P @ coords ** 2 - mean ** 2, 0.0))
    s2 = np.linalg.svd(mat, compute_uv=False) ** 2
    s2 = s2[s2 > ENTROPY_CUTOFF]
    entropy = max(0.0, float(-(s2 * np.log2(s2)).sum()))
    return np.concatenate([P, [sigma, entropy]])


def _dynamics_reference(inputs: Inputs) -> dict[int, np.ndarray]:
    """Expected CSV rows (as floats) for the sampled row indices."""
    p = inputs.params
    if inputs.workload == "star-tgrid":
        g = graphs.star(STAR_N)
        j = np.arange(STAR_N)
        coin = np.exp(2j * np.pi * np.outer(j, j) / STAR_N) / np.sqrt(STAR_N)
        mat0 = np.zeros((STAR_N, g.n), dtype=complex)
        mat0[p["basis"], 0] = 1.0
        coords = np.arange(g.n, dtype=float)
    else:
        g = graphs.line3(LINE3_L)
        coin = 2.0 / 3 * np.ones((3, 3), dtype=complex) - np.eye(3)
        vec = np.array([complex(re, im) for re, im in p["coin"]])
        mat0 = np.zeros((3, g.n), dtype=complex)
        mat0[:, (g.n - 1) // 2] = vec / np.linalg.norm(vec)
        coords = np.arange(g.n, dtype=float) - (g.n - 1) // 2
    sectors = [SectorEvolution(graphs.subgraph_adjacency(g, lab)) for lab in g.labels]

    def step(t, mat):
        mat = coin @ mat
        return np.array([sec.apply(t, row) for sec, row in zip(sectors, mat)])

    expected = {}
    if inputs.workload == "star-tgrid":
        ts = np.linspace(p["t_start"], p["t_stop"], STAR_POINTS)
        for r in p["rows"]:
            expected[r] = np.concatenate([[ts[r]], _observables(step(ts[r], mat0), coords)])
    else:
        mat = mat0
        for k in range(max(p["rows"]) + 1):
            if k in p["rows"]:
                expected[k] = np.concatenate([[k], _observables(mat, coords)])
            mat = step(LINE3_T, mat)
    return expected


def _read_factor(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    A = np.zeros((doc["n"], doc["n"]), dtype=int)
    for u, v, *_ in doc["edges"]:
        A[u, v] = A[v, u] = 1
    return A


class Reference:
    """What every artifact of one run must contain, computed once per run."""

    def __init__(self, inputs: Inputs, workdir: str):
        self.inputs = inputs
        if inputs.workload in ("star-tgrid", "line3-traj"):
            self.rows = _dynamics_reference(inputs)
        elif inputs.workload == "matmul-circulant":
            factors = [_read_factor(os.path.join(workdir, f)) for f in inputs.params["factors"]]
            self.product = matmul.classical_product(matmul.regular_sequence(factors))


def _csv_rows(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.strip().splitlines()
    if len(lines) < 2:
        raise CheckFailed("artifact has no data rows")
    return lines[0].split(","), np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


def _check_dynamics(ref: Reference, text: str) -> float:
    header, rows = _csv_rows(text)
    n = STAR_N if ref.inputs.workload == "star-tgrid" else 2 * LINE3_L + 1
    nrows = STAR_POINTS if ref.inputs.workload == "star-tgrid" else LINE3_STEPS + 1
    if rows.shape != (nrows, n + 3) or len(header) != n + 3:
        raise CheckFailed(f"dynamics artifact has shape {rows.shape}, expected {(nrows, n + 3)}")
    worst = float(np.abs(rows[:, 1:1 + n].sum(axis=1) - 1.0).max())
    for r, want in ref.rows.items():
        worst = max(worst, float(np.abs(rows[r] - want).max()))
    if worst > TOL:
        raise CheckFailed(f"dynamics rows differ from the reference by {worst:.3e}")
    return worst


def _check_matmul(ref: Reference, text: str) -> float:
    _, rows = _csv_rows(text)
    n = ref.product.shape[0]
    if rows.shape != (n * n, 3):
        raise CheckFailed(f"matmul artifact has shape {rows.shape}, expected {(n * n, 3)}")
    C = np.zeros((n, n))
    C[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2]
    worst = float(np.abs(C - ref.product).max())
    if not np.array_equal(C, ref.product):
        raise CheckFailed(f"product matrix differs from classical_product by {worst:.3e}")
    return worst


def _check_pst(ref: Reference, text: str) -> float:
    p = ref.inputs.params
    doc = json.loads(text)
    alpha = np.array([complex(re, im) for re, im in p["alpha"]])
    path = doc["path"]
    M = len(path) - 1
    if path[0] != p["source"] or path[-1] != p["target"] or M != len(p["labels"]):
        raise CheckFailed(f"transfer path {path} does not join {p['source']} to {p['target']}")
    if len(doc["phase_checks"]) != len(alpha):
        raise CheckFailed("phase ledger has the wrong number of components")
    residuals = [1.0 - doc["fidelity"]]
    for l, chk in enumerate(doc["phase_checks"]):
        measured, expected = complex(*chk["measured"]), complex(*chk["expected"])
        residuals += [abs(expected - 1j ** M * alpha[l]), abs(measured - expected)]
    final = doc["stages"][-1]["state"]
    norm = np.sqrt(sum(re * re + im * im for re, im in final.values()))
    amps = np.array([complex(*final.get(f"{lab}|{p['target']}", (0.0, 0.0))) for lab in p["labels"]])
    residuals.append(1.0 - abs(np.vdot(alpha, amps)) / norm)
    worst = max(abs(r) for r in residuals)
    if worst > TOL:
        raise CheckFailed(f"transfer transcript misses fidelity or phase ledger by {worst:.3e}")
    return worst


def check_artifact(ref: Reference, path: str) -> float:
    """Worst residual of the artifact at `path`; raises CheckFailed on a mismatch."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if ref.inputs.workload == "matmul-circulant":
        return _check_matmul(ref, text)
    if ref.inputs.workload == "pst-hypercube":
        return _check_pst(ref, text)
    return _check_dynamics(ref, text)
