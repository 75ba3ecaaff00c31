"""Seeded inputs for the four benchmark workloads.

`make_inputs(workload, seed)` turns the workload seed into the argv of one
`hqw` invocation plus the JSON graph files that argv reads. The program sees
only these inputs. A seed changes values (grid bounds, initial coins, vertex
relabelings, transfer endpoints, the rows the checks sample) but never the
amount of work: graph sizes, grid lengths, step counts and path lengths are
the constants below.

Why these four workloads:

* star-tgrid: every t of the grid is new, so `HybridWalk.step` builds a
  dense propagator per sector per t and the propagator cache grows to
  N^3*16 bytes per t. Exercises t-grid batching and cache removal.
* line3-traj: one t for 100 steps, so 99 of 100 steps hit the cache and the
  time goes to the repeated dense apply, `HybridWalk.__init__` and CSV
  formatting. A t-grid batching change should show no gain here.
* matmul-circulant: all work sits in `matmul`'s dictionary layer and never
  touches `walk`; walk-kernel changes should show no change here.
* pst-hypercube: the only `pst` workload; the coin changes every step, the
  coin space has 18 dimensions and every stage is serialized to JSON.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("star-tgrid", "line3-traj", "matmul-circulant", "pst-hypercube")

STAR_N = 60
STAR_POINTS = 200
LINE3_L = 1000
LINE3_STEPS = 100
LINE3_T = math.pi / 2
CIRCULANT_N = 160
CIRCULANT_OFFSETS = (1, 2, 5, 11)  # 8-regular: v ~ v +- s for each offset s
MATMUL_K = 3
HYPERCUBE_DIM = 9
CHECKED_ROWS = 8  # dynamics rows compared against the reference per artifact

# the function each workload is predicted to spend most self time in
PREDICTED_TOP = {
    "star-tgrid": "walk.HybridWalk.step",
    "line3-traj": "walk.HybridWalk.step",
    "matmul-circulant": "matmul.projection_probability",
    "pst-hypercube": "walk.HybridWalk.step",
}


@dataclass(frozen=True)
class Inputs:
    """One workload instance: CLI argv (without --out), files, check data."""

    workload: str
    seed: int
    argv: tuple[str, ...]
    artifact_ext: str
    work_units: int  # units of work one invocation completes
    work_unit: str  # what a unit is, e.g. "t-points"
    files: dict[str, str] = field(default_factory=dict)  # name -> content
    params: dict = field(default_factory=dict)  # values the checks need

    def write_files(self, directory) -> None:
        for name, text in self.files.items():
            with open(f"{directory}/{name}", "w", encoding="utf-8") as fh:
                fh.write(text)


def _amplitudes(values) -> str:
    """CLI amplitude list '[re,im;...]' with round-trip float digits."""
    return "[" + ";".join(f"{z.real!r},{z.imag!r}" for z in values) + "]"


def _unit_vector(rng: random.Random, dim: int) -> list[complex]:
    z = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in z))
    return [c / norm for c in z]


def _graph_json(n: int, labels, edges) -> str:
    return json.dumps({"n": n, "labels": list(labels), "edges": [list(e) for e in edges]})


def _star_tgrid(rng: random.Random, seed: int) -> Inputs:
    start = rng.uniform(0.05, 0.5)
    stop = start + rng.uniform(5.5, 6.5)
    basis = rng.randrange(STAR_N)
    argv = ("dynamics", "--graph", f"star:{STAR_N}",
            "--t", f"{start!r}:{stop!r}:{STAR_POINTS}", "--init-coin", f"basis:{basis}")
    params = {"t_start": start, "t_stop": stop, "basis": basis,
              "rows": sorted(rng.sample(range(STAR_POINTS), CHECKED_ROWS))}
    return Inputs("star-tgrid", seed, argv, "csv", STAR_POINTS, "t-points", params=params)


def _line3_traj(rng: random.Random, seed: int) -> Inputs:
    coin = _unit_vector(rng, 3)
    argv = ("dynamics", "--graph", f"line3:{LINE3_L}", "--steps", str(LINE3_STEPS),
            "--t", repr(LINE3_T), "--init-coin", "amp:" + _amplitudes(coin))
    params = {"coin": [[z.real, z.imag] for z in coin],
              "rows": sorted(rng.sample(range(LINE3_STEPS + 1), CHECKED_ROWS))}
    return Inputs("line3-traj", seed, argv, "csv", LINE3_STEPS, "walk steps", params=params)


def circulant_edges(n: int, offsets, perm) -> list[tuple[int, int, str]]:
    """Edges of the circulant graph C_n(offsets) with vertex v renamed perm[v]."""
    return [(perm[v], perm[(v + s) % n], "0") for v in range(n) for s in offsets]


def _matmul_circulant(rng: random.Random, seed: int) -> Inputs:
    files, argv = {}, ["matmul"]
    for k in range(1, MATMUL_K + 1):
        perm = list(range(CIRCULANT_N))
        rng.shuffle(perm)
        name = f"circulant{k}.json"
        files[name] = _graph_json(CIRCULANT_N, ["0"],
                                  circulant_edges(CIRCULANT_N, CIRCULANT_OFFSETS, perm))
        argv += ["--graph", name]
    argv.append("--matrix")
    params = {"factors": [f"circulant{k}.json" for k in range(1, MATMUL_K + 1)]}
    return Inputs("matmul-circulant", seed, tuple(argv), "csv", CIRCULANT_N ** 2,
                  "product entries", files=files, params=params)


def hypercube_edges(dim: int) -> list[tuple[int, int, str]]:
    """Edges of Q_dim, each colored by the bit it flips (a proper coloring)."""
    return [(v, v ^ (1 << b), f"d{b}") for v in range(1 << dim) for b in range(dim)
            if v < v ^ (1 << b)]


def _pst_hypercube(rng: random.Random, seed: int) -> Inputs:
    n = 1 << HYPERCUBE_DIM
    source = rng.randrange(n)
    target = source ^ (n - 1)  # the antipode: every path has HYPERCUBE_DIM edges
    alpha = _unit_vector(rng, HYPERCUBE_DIM)
    labels = [f"d{b}" for b in range(HYPERCUBE_DIM)]
    files = {"hypercube.json": _graph_json(n, labels, hypercube_edges(HYPERCUBE_DIM))}
    argv = ("pst", "--graph", "hypercube.json", "--source", str(source),
            "--target", str(target), "--alpha", _amplitudes(alpha))
    params = {"source": source, "target": target, "labels": labels,
              "alpha": [[z.real, z.imag] for z in alpha]}
    return Inputs("pst-hypercube", seed, argv, "json", 1, "transfers",
                  files=files, params=params)


_BUILDERS = {
    "star-tgrid": _star_tgrid,
    "line3-traj": _line3_traj,
    "matmul-circulant": _matmul_circulant,
    "pst-hypercube": _pst_hypercube,
}


def make_inputs(workload: str, seed: int) -> Inputs:
    """The deterministic inputs of `workload` under `seed`."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choices: {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), seed)
