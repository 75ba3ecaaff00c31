"""Command line front end.

Subcommands cover the dynamics studies (one-step observables on t or
(omega, t) grids, fixed-t trajectories), the Appendix-style parameter
sweeps on the three-label line, the transfer protocol, and the
adjacency-product / triangle-counting algorithm. Every run writes one CSV
or JSON artifact; identical configuration and seed give byte-identical
files. Exit codes: 0 success, 1 validation error, 2 numerical-invariant
violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys

import numpy as np

from . import graphs, linalg, matmul, pst, walk

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

PROB_SUM_ATOL = 1e-9


# ---------------------------------------------------------------------------
# Argument parsing helpers


class GraphSpec:
    def __init__(self, family, make, omega_dependent=False):
        self.family = family
        self.make = make
        self.omega_dependent = omega_dependent


def _parse_weight_expr(text: str):
    """Linear-in-omega weight: '2w+1', 'w', '4w+3', or a plain number."""
    text = text.strip()
    if "w" not in text:
        return 0.0, float(text)
    m = re.fullmatch(r"([0-9]*\.?[0-9]*)\s*w\s*([+-]\s*[0-9]*\.?[0-9]+)?", text)
    if not m:
        raise ValueError(f"cannot parse weight expression {text!r} (expected e.g. '2w+1')")
    coef = float(m.group(1)) if m.group(1) else 1.0
    offset = float(m.group(2).replace(" ", "")) if m.group(2) else 0.0
    return coef, offset


def _parse_number(token: str):
    token = token.strip()
    if re.fullmatch(r"[+-]?[0-9]+", token):
        return int(token)
    return float(token)


def parse_graph_spec(text: str) -> GraphSpec:
    """Builder spec 'family:params' or a path to a graph JSON file."""
    if text.endswith(".json") or os.path.sep in text or os.path.exists(text):
        g = graphs.load_json_file(text)
        return GraphSpec(family=None, make=lambda omega=None: g)
    name, _, argstr = text.partition(":")
    if name not in graphs.BUILDERS:
        raise ValueError(f"unknown graph spec {text!r}; builders: {sorted(graphs.BUILDERS)} or a .json path")
    tokens = [tok for tok in argstr.split(",") if tok.strip()] if argstr else []
    if name == "circle2":
        if len(tokens) != 2:
            raise ValueError("circle2 takes two weights, e.g. circle2:1,2 or circle2:2w,2w+1")
        (ca, oa), (cb, ob) = _parse_weight_expr(tokens[0]), _parse_weight_expr(tokens[1])
        depends = ca != 0.0 or cb != 0.0

        def make(omega=None):
            if depends and omega is None:
                raise ValueError("circle2 weights reference w; supply --sweep omega:start:stop:points")
            w = 0.0 if omega is None else omega
            return graphs.circle2(ca * w + oa, cb * w + ob)

        return GraphSpec(family="circle2", make=make, omega_dependent=depends)
    params = [_parse_number(tok) for tok in tokens]
    g = graphs.build(name, *params)
    return GraphSpec(family=name, make=lambda omega=None: g)


def _parse_amplitudes(text: str) -> np.ndarray:
    """Amplitude list '[re,im;re,im;...]'."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"amplitudes must look like [re,im;re,im;...], got {text!r}")
    comps = []
    for chunk in text[1:-1].split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"amplitude component {chunk!r} is not 're,im'")
        comps.append(complex(float(parts[0]), float(parts[1])))
        if not np.isfinite(comps[-1]):
            raise ValueError(f"amplitude component {chunk.strip()!r} is not finite")
    return np.array(comps, dtype=complex)


def _coin_vector(spec: str, coin_dim: int) -> np.ndarray:
    if spec == "uniform":
        vec = np.ones(coin_dim, dtype=complex)
    elif spec.startswith("basis:"):
        k = int(spec.split(":", 1)[1])
        if not 0 <= k < coin_dim:
            raise ValueError(f"coin basis index {k} outside 0..{coin_dim - 1}")
        vec = np.zeros(coin_dim, dtype=complex)
        vec[k] = 1.0
    elif spec.startswith("amp:"):
        vec = _parse_amplitudes(spec[4:])
        if vec.shape != (coin_dim,):
            raise ValueError(f"coin amplitudes have {vec.shape[0]} components, coin dim is {coin_dim}")
    else:
        raise ValueError(f"unknown coin init {spec!r}; use uniform, basis:k or amp:[re,im;...]")
    nrm = np.linalg.norm(vec)
    if nrm == 0 or (spec.startswith("amp:") and abs(nrm - 1.0) > 1e-6):
        raise ValueError(f"coin init is not normalized: ||v|| = {nrm:.9g}")
    return vec / nrm


_DEFAULT_COIN = {"circle2": "hadamard", "star": "fourier",
                 "line2": "hadamard", "line3": "grover"}


def _default_coin(family) -> str:
    return _DEFAULT_COIN.get(family, "identity")


def _resolve_coin(spec: str, dim: int):
    if spec.startswith("custom:"):
        path = spec.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        try:
            mat = np.array([[complex(a, b) for a, b in row] for row in raw])
        except (TypeError, ValueError):
            raise ValueError(f"custom coin {path} must be a list of rows of [re, im] pairs") from None
        return walk.make_coin(mat, dim)
    return walk.make_coin(spec, dim)


def _default_initial(family, g: graphs.LabeledGraph):
    coin_dim = len(g.labels)
    pos = (g.n - 1) // 2 if family in ("line2", "line3") else 0
    if family == "line2":
        coin = np.array([1.0, -1.0j]) / np.sqrt(2)
    elif family == "line3":
        coin = np.ones(3, dtype=complex) / np.sqrt(3)
    elif family == "segment_line":
        coin = np.zeros(coin_dim, dtype=complex)
        coin[g.labels.index("b")] = 1.0
    else:
        coin = np.zeros(coin_dim, dtype=complex)
        coin[0] = 1.0
    return coin, pos


def _initial_state(args, family, g: graphs.LabeledGraph) -> np.ndarray:
    coin_default, pos_default = _default_initial(family, g)
    coin = _coin_vector(args.init_coin, len(g.labels)) if args.init_coin else coin_default
    pos = args.init_pos if args.init_pos is not None else pos_default
    if not 0 <= pos < g.n:
        raise ValueError(f"initial position {pos} outside 0..{g.n - 1}")
    pos_vec = np.zeros(g.n, dtype=complex)
    pos_vec[pos] = 1.0
    return walk.product_state(coin, pos_vec)


def _coords_for(family, n: int) -> np.ndarray:
    if family in ("line2", "line3"):
        return graphs.signed_coords(n)
    if family == "segment_line":
        return np.arange(1, n + 1, dtype=float)
    return np.arange(n, dtype=float)


def _parse_finite(text: str, what: str) -> float:
    x = float(text)
    if not np.isfinite(x):
        raise ValueError(f"{what} must be finite, got {text.strip()!r}")
    return x


def _parse_grid(text: str, what: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{what} grid must be start:stop:points, got {text!r}")
    start, stop, points = _parse_finite(parts[0], what), _parse_finite(parts[1], what), int(parts[2])
    if points < 2:
        raise ValueError(f"{what} grid needs at least 2 points, got {points}")
    return np.linspace(start, stop, points)


def _parse_sweep(text: str):
    name, _, rest = text.partition(":")
    return name, _parse_grid(f"{rest}", f"sweep {name}")


# ---------------------------------------------------------------------------
# Output helpers


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _config_hash(args) -> str:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    blob = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _emit(args, ext: str, text: str):
    """Write the run's artifact (--out, or out/<cmd>-<confighash>.<ext>) and name it."""
    path = args.out or os.path.join("out", f"{args.command}-{_config_hash(args)}.{ext}")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _table_text(header, rows, fmt: str) -> str:
    if fmt == "json":
        payload = {"columns": header,
                   "rows": [[int(x) if isinstance(x, (int, np.integer)) else float(_fmt(x))
                             for x in row] for row in rows]}
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_observables(args, lead_names, leads, trajs):
    """Write rows [*lead, P..., sigma, entropy], one per state of `trajs` in order.

    `leads` holds the leading values of every row, across all trajectories.
    """
    coords = trajs[0].coords.tolist()
    header = [*lead_names, *(f"P({int(c)})" if c.is_integer() else f"P({_fmt(c)})" for c in coords),
              "sigma", "entropy"]
    for traj in trajs:
        totals = traj.distributions.sum(axis=-1)
        bad = np.flatnonzero(np.abs(totals - 1.0) > PROB_SUM_ATOL)
        if bad.size:
            raise linalg.NumericalViolation(f"probability columns sum to {totals[bad[0]]:.12g}, not 1")
    obs = ([*P, sigma, entropy] for traj in trajs for P, sigma, entropy in
           zip(traj.distributions.tolist(), traj.sigmas.tolist(), traj.entropies.tolist()))
    rows = ([*lead, *o] for lead, o in zip(leads, obs))
    _emit(args, args.format, _table_text(header, rows, args.format))


def _check_line_guard(distributions):
    # truncated-line runs emulate the infinite line; the walker spreads at most
    # one site per step, so any mass in the outer two sites means the
    # truncation was too small for the requested step count
    band = float(np.asarray(distributions)[:, [0, 1, -2, -1]].sum(axis=1).max())
    if band > 1e-12:
        raise linalg.NumericalViolation(
            f"boundary band carries probability {band:.3e}; enlarge the line truncation")


# ---------------------------------------------------------------------------
# dynamics


def _grid_trajectory(args, spec: GraphSpec, coin_spec: str, ts: np.ndarray, omega=None) -> walk.Trajectory:
    """One coin step at every t of the grid, as a trajectory with one state per t."""
    g = spec.make(omega)
    w = walk.HybridWalk(g, coin=_resolve_coin(coin_spec, len(g.labels)))
    states = w.evolve(ts, w.apply_coin(_initial_state(args, spec.family, g)))
    return walk.Trajectory.from_states(states, w.coin_dim, w.pos_dim, _coords_for(spec.family, g.n))


def cmd_dynamics(args) -> int:
    spec = parse_graph_spec(args.graph)
    coin_spec = args.coin or _default_coin(spec.family)

    if args.steps is not None:
        if args.t is not None and ":" in args.t:
            raise ValueError("trajectory mode (--steps) takes a single --t, not a grid")
        t = _parse_finite(args.t, "--t") if args.t is not None else float(np.pi / 2)
        g = spec.make()
        w = walk.HybridWalk(g, coin=_resolve_coin(coin_spec, len(g.labels)))
        traj = w.run(t, args.steps, _initial_state(args, spec.family, g), coords=_coords_for(spec.family, g.n))
        if spec.family in ("line2", "line3") and g.n >= 5:
            _check_line_guard(traj.distributions)
        _write_observables(args, ["step"], ([k] for k in range(args.steps + 1)), [traj])
        return EXIT_OK

    if args.t is None:
        raise ValueError("dynamics needs --t (single value or start:stop:points grid)")
    ts = _parse_grid(args.t, "--t") if ":" in args.t else np.array([_parse_finite(args.t, "--t")])
    lead_names, omegas = ["t"], [None]
    if args.sweep:
        name, grid = _parse_sweep(args.sweep)
        if name != "omega":
            raise ValueError("dynamics sweeps only 'omega'; q sweeps live in the sweep subcommand")
        if not spec.omega_dependent:
            raise ValueError("--sweep omega needs circle2 weights that reference w, e.g. circle2:2w,2w+1")
        # Python floats: an overflowing weight becomes inf without a numpy warning
        lead_names, omegas = ["omega", "t"], grid.tolist()
    trajs = [_grid_trajectory(args, spec, coin_spec, ts, omega) for omega in omegas]
    leads = ([t] if omega is None else [omega, t] for omega in omegas for t in ts.tolist())
    _write_observables(args, lead_names, leads, trajs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep (Appendix-style parameter studies on the three-label line)

SWEEP_PARAMS = ("q_time", "q_mix2", "q_mix3", "q_phase2", "q_phase3")


def _sweep_initial_coin(name: str, q: float, base_default: np.ndarray) -> np.ndarray:
    if name == "q_time":
        return base_default
    if name == "q_mix2":
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q_mix2 needs q in [0, 1], got {q}")
        return np.array([q, np.sqrt(1 - q * q), 0.0], dtype=complex)
    if name == "q_mix3":
        if 3 * q * q > 2.0 + 1e-12:
            raise ValueError(f"q_mix3 needs 3q^2 <= 2, got q={q}")
        return np.array([1.0, np.sqrt(3) * q, np.sqrt(max(2 - 3 * q * q, 0.0))]) / np.sqrt(3)
    if name == "q_phase2":
        return np.array([1.0, np.exp(-1j * q * np.pi), 0.0]) / np.sqrt(2)
    if name == "q_phase3":
        return np.array([1.0, np.exp(-1j * q * np.pi), 1.0]) / np.sqrt(3)
    raise ValueError(f"unknown sweep parameter {name!r}; choices: {SWEEP_PARAMS}")


def cmd_sweep(args) -> int:
    if not args.sweep:
        raise ValueError(f"sweep needs --sweep name:start:stop:points with name in {SWEEP_PARAMS}")
    name, qs = _parse_sweep(args.sweep)
    if name not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {name!r}; choices: {SWEEP_PARAMS}")
    steps = args.steps if args.steps is not None else 30
    spec = parse_graph_spec(args.graph) if args.graph else None
    if spec is not None and spec.family != "line3":
        raise ValueError("q sweeps run on the three-label line; use --graph line3:L or omit --graph")
    g = spec.make() if spec else graphs.line3(steps + 8)
    coords = _coords_for("line3", g.n)
    base_coin = (_coin_vector(args.init_coin, len(g.labels)) if args.init_coin
                 else np.ones(3, dtype=complex) / np.sqrt(3))
    w = walk.HybridWalk(g, coin=_resolve_coin(args.coin or "grover", len(g.labels)))
    pos_vec = np.zeros(g.n, dtype=complex)
    pos_vec[(g.n - 1) // 2] = 1.0
    qs = qs.tolist()
    finals = np.empty((len(qs), w.dim), dtype=complex)
    for k, q in enumerate(qs):
        psi0 = walk.product_state(_sweep_initial_coin(name, q, base_coin), pos_vec)
        t = q * np.pi if name == "q_time" else 3 * np.pi / 2
        traj = w.run(t, steps, psi0, coords=coords)
        _check_line_guard(traj.distributions)
        finals[k] = traj.states[-1]
    final = walk.Trajectory.from_states(finals, w.coin_dim, w.pos_dim, coords)
    _write_observables(args, ["q"], ([q] for q in qs), [final])
    return EXIT_OK


# ---------------------------------------------------------------------------
# pst


def cmd_pst(args) -> int:
    if args.segment_demo is not None:
        res = pst.segment_line_transfer(args.segment_demo)
        payload = {
            "kind": "segment-demo",
            "segments": args.segment_demo - 1,
            "coin_record": list(res.coin_record),
            "positions": list(range(1, args.segment_demo + 1)),
            "final_distribution": [float(p) for p in res.final_distribution],
            "final_probability": res.final_probability,
        }
        fidelity = float(np.sqrt(res.final_probability))
    else:
        if args.tree_demo:
            g = pst.demo_tree()
            source, target = 0, 14
            alpha = np.array([0.0, 1.0, 1.0], dtype=complex) / np.sqrt(2)
        else:
            if args.graph is None or args.source is None or args.target is None:
                raise ValueError("pst needs --graph, --source and --target (or a demo flag)")
            g = parse_graph_spec(args.graph).make()
            source, target = args.source, args.target
            if args.alpha:
                alpha = _parse_amplitudes(args.alpha)
            else:
                alpha = np.ones(len(g.labels), dtype=complex) / np.sqrt(len(g.labels))
        path = [int(v) for v in args.path.split(",")] if args.path else None
        plan = pst.make_plan(g, source, target, path=path)
        _, transcript = pst.run_pst(plan, alpha)
        payload = transcript.to_json_dict()
        payload["path"] = list(plan.path)
        payload["path_colors"] = list(plan.path_labels)
        fidelity = transcript.fidelity

    _emit(args, "json", json.dumps(payload, indent=2) + "\n")
    print(f"fidelity {_fmt(fidelity)}")
    if not fidelity > 1 - 1e-6:
        print(f"transfer fidelity {fidelity:.9g} below 1 - 1e-6", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# matmul / triangles


def _estimate_json(est: matmul.ProductEstimate) -> dict:
    obj = {"i": est.i, "j": est.j, "mode": est.mode,
           "probability": est.probability, "value": est.value}
    if est.mode == "shots":
        obj["shots"] = est.shots
        obj["seed"] = est.seed
    return obj


def cmd_matmul(args) -> int:
    if sum(map(bool, (args.entry, args.matrix, args.trace))) > 1:
        raise ValueError("pick one of --entry, --matrix, --trace")
    seq = matmul.regular_sequence([parse_graph_spec(s).make() for s in args.graph])
    mode, shots, seed = args.mode, args.shots, args.seed
    if mode == "shots" and seed is None:
        raise ValueError("shots mode needs --seed for reproducible sampling")
    if args.entry:
        i, j = (int(x) for x in args.entry.split(","))
        est = matmul.product_entry(seq, i, j, mode=mode, shots=shots, seed=seed)
        _emit(args, "json", json.dumps(_estimate_json(est), indent=2) + "\n")
        print(f"C[{i},{j}] = {_fmt(est.value)} (probability {_fmt(est.probability)})")
    elif args.trace:
        value = matmul.product_trace(seq, mode=mode, shots=shots, seed=seed)
        obj = {"mode": mode, "value": value}
        if mode == "shots":
            obj["shots"], obj["seed"] = shots, seed
        _emit(args, "json", json.dumps(obj, indent=2) + "\n")
        print(f"trace = {_fmt(value)}")
    else:
        C = matmul.product_matrix(seq, mode=mode, shots=shots, seed=seed)
        rows = ([i, j, v] for i, row in enumerate(C.tolist()) for j, v in enumerate(row))
        _emit(args, "csv", _table_text(["i", "j", "value"], rows, "csv"))
    return EXIT_OK


def cmd_triangles(args) -> int:
    g = parse_graph_spec(args.graph).make()
    mode, shots, seed = args.mode, args.shots, args.seed
    if mode == "shots" and seed is None:
        raise ValueError("shots mode needs --seed for reproducible sampling")
    if args.vertex is not None:
        count = matmul.triangles_at_vertex(g, args.vertex, mode=mode, shots=shots, seed=seed)
        obj = {"vertex": args.vertex, "triangles": count, "mode": mode}
    else:
        count = matmul.triangle_count(g, mode=mode, shots=shots, seed=seed)
        obj = {"triangles": count, "mode": mode}
    if mode == "shots":
        obj["shots"], obj["seed"] = shots, seed
    _emit(args, "json", json.dumps(obj, indent=2) + "\n")
    print(f"triangles = {count}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser & entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hqw", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_walk=True):
        p.add_argument("--out", help="output path (default out/<cmd>-<confighash>.<ext>)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if with_walk:
            p.add_argument("--coin", help="identity|hadamard|fourier|grover|custom:path.json")
            p.add_argument("--init-coin", help="uniform | basis:k | amp:[re,im;...]")
            p.add_argument("--init-pos", type=int, help="initial vertex id")

    p = sub.add_parser("dynamics", help="one-step observables on t / (omega,t) grids, or a fixed-t trajectory")
    p.add_argument("--graph", required=True, help="builder spec (e.g. star:10, circle2:2w,2w+1) or graph JSON path")
    p.add_argument("--t", help="evolution time: single value or start:stop:points")
    p.add_argument("--steps", type=int, help="trajectory mode: number of steps at fixed --t")
    p.add_argument("--sweep", help="omega:start:stop:points (circle2 weights referencing w)")
    common(p)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("sweep", help="q sweeps of the three-label line (step time, coin mix, coin phase)")
    p.add_argument("--sweep", required=True,
                   help=f"name:start:stop:points with name in {', '.join(SWEEP_PARAMS)}")
    p.add_argument("--graph", help="override line3:L (default line3:steps+8)")
    p.add_argument("--steps", type=int, help="walk steps per grid point (default 30)")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pst", help="perfect state transfer transcript")
    p.add_argument("--graph", help="properly colored graph (builder spec or JSON path)")
    p.add_argument("--source", type=int)
    p.add_argument("--target", type=int)
    p.add_argument("--path", help="comma-separated vertex ids overriding the BFS path")
    p.add_argument("--alpha", help="coin amplitudes [re,im;...] (default uniform)")
    p.add_argument("--segment-demo", type=int, metavar="M",
                   help="run the alternating segment-line transfer to position M")
    p.add_argument("--tree-demo", action="store_true",
                   help="run the 3-colored tree transfer (coin (|c2>+|c3>)/sqrt(2), vertex 0 to 14)")
    common(p, with_walk=False)
    p.set_defaults(func=cmd_pst)

    p = sub.add_parser("matmul", help="adjacency-product entries, matrices and traces")
    p.add_argument("--graph", action="append", required=True,
                   help="factor graph, repeat in order A(1)..A(K)")
    p.add_argument("--entry", help="i,j single entry")
    p.add_argument("--matrix", action="store_true", help="full product matrix (CSV)")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--mode", choices=("exact", "shots"), default="exact")
    p.add_argument("--shots", type=int, default=20000)
    p.add_argument("--seed", type=int)
    common(p, with_walk=False)
    p.set_defaults(func=cmd_matmul)

    p = sub.add_parser("triangles", help="triangle counts of a regular graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--vertex", type=int, help="count triangles at one vertex (default: whole graph)")
    p.add_argument("--mode", choices=("exact", "shots"), default="exact")
    p.add_argument("--shots", type=int, default=20000)
    p.add_argument("--seed", type=int)
    common(p, with_walk=False)
    p.set_defaults(func=cmd_triangles)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except linalg.NumericalViolation as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
