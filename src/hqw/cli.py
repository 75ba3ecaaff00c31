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
import json
import os
import re
import stat
import sys

import numpy as np

from . import graphs, linalg, matmul, pst, walk

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

PROB_SUM_ATOL = 1e-9
STATE_CHUNK_ENTRIES = 1 << 16  # amplitudes per chunk of states behind a streamed table (1 MiB)
TABLE_CELL_BUDGET = 10**9  # rows x columns of the largest dynamics or sweep table


# ---------------------------------------------------------------------------
# Argument parsing helpers


class _TooLong(argparse.ArgumentTypeError, ValueError):
    """An integer token that int() refuses only for Python's int-string digit limit."""


def _parse_as(kind, token: str, what: str, brief=None):
    """`kind(token)` for kind int or float, refused in one line that names `what`.

    An integer that int() refuses only for Python's int-string digit limit is
    named by its length, and by `brief` if given (a `what` that echoes the token).
    """
    try:
        return kind(token)
    except ValueError:
        text = token.strip()
        digits = text[1:] if text[:1] in ("+", "-") else text
        limit = sys.get_int_max_str_digits()
        if kind is int and digits.isdecimal() and 0 < limit < len(digits):
            raise _TooLong(f"{brief or what} has {len(digits)} digits, over Python's limit of "
                           f"{limit} digits for an integer") from None
        a = "an integer" if kind is int else "a number"
        raise ValueError(f"{what} must be {a}, got {text!r}") from None


def _int_option(token: str) -> int:
    """argparse type of the integer options: `_parse_as`, so that a token too long for int() is named
    by its digit count, and any other bad token by argparse as "invalid int value: 'x'"."""
    return _parse_as(int, token, "its value")


_int_option.__name__ = "int"  # the type argparse names for a bad token


def _parse_weight_expr(text: str, what: str):
    """Linear-in-omega weight: '2w+1', 'w', '4w+3', or a plain number."""
    text = text.strip()
    if "w" not in text:
        return 0.0, _parse_as(float, text, what)
    m = re.fullmatch(r"([0-9]*\.?[0-9]*)\s*w\s*([+-]\s*[0-9]*\.?[0-9]+)?", text)
    if not m:
        raise ValueError(f"cannot parse weight expression {text!r} (expected e.g. '2w+1')")
    coef = _parse_as(float, m.group(1), what) if m.group(1) else 1.0
    offset = float(m.group(2).replace(" ", "")) if m.group(2) else 0.0
    return coef, offset


def parse_graph_spec(text: str, sweep=False):
    """(family, graph) of a builder spec 'family:params', or (None, graph) of a graph JSON path.

    circle2 weights that reference w give, in place of the graph, a maker of
    the graph at each omega; only a run with a sweep (`sweep`) takes one.
    """
    if text.endswith(".json") or os.path.sep in text or os.path.exists(text):
        return None, graphs.load_json_file(text)
    name, _, argstr = text.partition(":")
    if name not in graphs.BUILDERS:
        raise ValueError(f"unknown graph spec {text!r}; builders: {sorted(graphs.BUILDERS)} or a .json path")
    tokens = [tok.strip() for tok in argstr.split(",") if tok.strip()] if argstr else []
    what = f"a parameter of graph spec {text!r}"
    if name == "circle2":
        if len(tokens) != 2:
            raise ValueError("circle2 takes two weights, e.g. circle2:1,2 or circle2:2w,2w+1")
        (ca, oa), (cb, ob) = (_parse_weight_expr(tok, what) for tok in tokens)

        def make(omega):
            return graphs.circle2(ca * omega + oa, cb * omega + ob)

        if not (ca or cb):
            return name, make(0.0)
        if not sweep:
            raise ValueError("circle2 weights reference w; supply --sweep omega:start:stop:points")
        return name, make
    brief = f"a parameter of graph spec {name + ':...'!r}"
    return name, graphs.build(name, *(_parse_as(int if re.fullmatch(r"[+-]?[0-9]+", tok) else float, tok, what, brief)
                                      for tok in tokens))


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
        comps.append(complex(*(_parse_as(float, x, f"amplitude component {chunk.strip()!r}") for x in parts)))
        if not np.isfinite(comps[-1]):
            raise ValueError(f"amplitude component {chunk.strip()!r} is not finite")
    return np.array(comps, dtype=complex)


def _coin_vector(spec: str, coin_dim: int) -> np.ndarray:
    if spec == "uniform":
        vec = np.ones(coin_dim, dtype=complex)
    elif spec.startswith("basis:"):
        k = _parse_as(int, spec.split(":", 1)[1], "coin basis index")
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
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        nrm = np.linalg.norm(vec)
    if nrm == 0 or (spec.startswith("amp:") and abs(nrm - 1.0) > 1e-6):
        raise ValueError(f"coin init is not normalized: ||v|| = {nrm:.9g}")
    return vec / nrm


def _resolve_coin(spec: str):
    """The coin `HybridWalk` realizes and checks: a name, or a custom:path file's matrix."""
    if spec.startswith("custom:"):
        path = spec.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        try:
            mat = np.array([[complex(a, b) for a, b in row] for row in raw])
        except (TypeError, ValueError):
            raise ValueError(f"custom coin {path} must be a list of rows of [re, im] pairs") from None
        return mat
    return spec


def _parse_finite(text: str, what: str) -> float:
    x = _parse_as(float, text, what)
    if not np.isfinite(x):
        raise ValueError(f"{what} must be finite, got {text.strip()!r}")
    return x


def _parse_grid(text: str, what: str) -> tuple[float, float, int]:
    """start:stop:points, checked; `np.linspace(*grid)` gives the values."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{what} grid must be start:stop:points, got {text!r}")
    start, stop = _parse_finite(parts[0], what), _parse_finite(parts[1], what)
    if not np.isfinite(stop - start):  # Python floats: the overflow is inf, without numpy's warning
        raise ValueError(f"{what} grid {text!r} spans more than the float range: stop - start is not finite")
    points = _parse_as(int, parts[2], f"{what} grid points")
    if points < 2:
        raise ValueError(f"{what} grid needs at least 2 points, got {points}")
    return start, stop, points


def _parse_sweep(text: str):
    name, _, rest = text.partition(":")
    return name, _parse_grid(f"{rest}", f"sweep {name}")


# ---------------------------------------------------------------------------
# Output helpers


def _config_hash(args) -> str:
    import hashlib  # here, not at the top: it maps OpenSSL (+3.6 MB RSS), which a run with --out never uses

    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    blob = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _emit(args, ext: str, pieces):
    """Write the run's artifact (--out, or out/<cmd>-<confighash>.<ext>) from the
    text `pieces` and name it.

    The first piece is made before any file or directory is; then the pieces go
    to a temporary file beside the target, renamed over it once all are written,
    so an exception while they are produced leaves no temporary file and no
    artifact, or the old one as it was. The artifact gets the permissions
    `open(path, "w")` gives; a symlink is written through, and a device or pipe
    (`/dev/stdout`), which cannot be replaced, in place.
    """
    pieces = iter(pieces)
    first = next(pieces)
    path = args.out or os.path.join("out", f"{args.command}-{_config_hash(args)}.{ext}")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    old = os.stat(path) if os.path.exists(path) else None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(first)
            fh.writelines(pieces)
    else:
        if old is not None:
            open(path, "a").close()  # refused where open(path, "w") would be
        target = os.path.realpath(path)
        tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(first)
                fh.writelines(pieces)
            if old is not None:
                os.chmod(tmp, stat.S_IMODE(old.st_mode))
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    print(f"wrote {path}")


def _table_pieces(header, chunks, fmt: str):
    """Yield the CSV (or `--format json`) text of a table, one piece per item of
    `chunks` that has rows, the header going out with the first (a table without
    rows is its header alone). An item is a list of row-aligned 2-D numeric
    blocks, the table's columns left to right; the caller bounds its rows
    (`_chunk_rows`), and with them the temporaries of its one pass.

    An integer block writes "%d" and a float block "%.12g" (JSON: the int or
    float that text reads as). In an item, each block's distinct values are
    formatted once, keyed by bit pattern for floats so that -0.0, 0.0 and NaN
    payloads stay apart, and mapped back to their cells. JSON rows are joined
    from those values' JSON texts into the bytes of `json.dumps({"columns":
    header, "rows": rows}, indent=2)`, without the pure-Python encoder that
    `indent` selects.
    """
    head = ('{\n  "columns": [\n    ' + ",\n    ".join(map(json.dumps, header)) + '\n  ],\n  "rows": ['
            if fmt == "json" else ",".join(header) + "\n")
    sep = "\n"
    for blocks in chunks:
        if not len(blocks[0]):
            continue
        texts, cells = [], []
        for block in blocks:
            flat = block.reshape(-1)
            kind = "%.12g" if flat.dtype.kind == "f" else "%d"
            key = flat.view(f"i{flat.itemsize}") if kind == "%.12g" else flat
            # with return_index: a plain np.unique imports numpy.ma on its first call
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            text = [kind % x for x in flat[first].tolist()]
            if fmt == "json":  # one C-encoder pass over the distinct values
                text = json.dumps(list(map(int if kind == "%d" else float, text)))[1:-1].split(", ")
            cells.append(inverse.reshape(block.shape) + len(texts))
            texts += text
        cells = np.concatenate(cells, axis=1)  # row-major, however wide: the grouper idiom cuts rows
        rows = zip(*[iter(np.array(texts, dtype=object)[cells].reshape(-1).tolist())] * cells.shape[1])
        if fmt == "json":
            yield head + sep + "    [\n      " + "\n    ],\n    [\n      ".join(map(",\n      ".join, rows)) + "\n    ]"
            sep = ",\n"
        else:
            yield head + "\n".join(map(",".join, rows)) + "\n"
        head = ""
        del blocks, texts, cells, rows  # this chunk's cells go before the next chunk is made
    yield head + (("]" if sep == "\n" else "\n  ]") + "\n}\n" if fmt == "json" else "")


def _json_pieces(obj):
    """`json.dumps(obj, indent=2)` and a newline for str-keyed dicts, lists and scalars, without the
    pure-Python encoder that `indent` selects: the containers become a %-template, and one C-encoder
    pass writes every key and scalar, split at its newline item separator (no scalar text has one)."""
    leaves, shapes = [], {}

    def lay(o, pad):
        if not o or type(o) not in (dict, list):
            leaves.append(o)
            return "%s"
        inner = pad + "  "
        if type(o) is dict:
            items = [leaves.append(k) or lay(v, inner) for k, v in o.items()]
            return "{" + inner + "%s: " + ("," + inner + "%s: ").join(items) + pad + "}"
        if {dict, list}.isdisjoint(map(type, o)):  # a list of scalars: its leaves at once
            leaves.extend(o)
            if (pad, len(o)) not in shapes:
                shapes[pad, len(o)] = "[" + inner + ("," + inner).join(["%s"] * len(o)) + pad + "]"
            return shapes[pad, len(o)]
        return "[" + inner + ("," + inner).join([lay(v, inner) for v in o]) + pad + "]"

    template = lay(obj, "\n")
    return [template % tuple(json.dumps(leaves, separators=("\n", ":"))[1:-1].split("\n")), "\n"]


def _check_budget(rows: int, columns: int):
    """Refuse a table over TABLE_CELL_BUDGET cells before its first row is computed."""
    if rows * columns > TABLE_CELL_BUDGET:
        raise ValueError(f"a table of {rows} rows x {columns} columns is over the output budget "
                         f"of {TABLE_CELL_BUDGET} cells")


def _chunk_rows(columns: int, dim: int) -> int:
    """Rows per chunk of every streamed table, t-grids and `matmul --matrix`
    included: at most STATE_CHUNK_ENTRIES amplitudes (1 MiB of states) behind
    them, and at most graphs.BLOCK_ENTRIES cells, which bound the temporaries of
    the one `_table_pieces` pass that formats the chunk."""
    return max(1, min(graphs.BLOCK_ENTRIES // columns, STATE_CHUNK_ENTRIES // dim))


def _write_observables(args, lead_names, chunks):
    """Write rows [*leads, P..., sigma, entropy], one per state, from the
    (leads, Trajectory) pairs of `chunks` in order, `leads` being a chunk's
    (rows, len(lead_names)) block; the first Trajectory's coords name the P columns.

    `_table_pieces` formats each chunk as it arrives, so only the rows of one
    chunk are held. A chunk that fails its check in `_stepped` stops the run:
    no later chunk is computed, and a failed run leaves no artifact.
    """
    chunks = iter(chunks)
    first = next(chunks)
    header = [*lead_names, *(f"P({int(c)})" if c.is_integer() else "P(%.12g)" % c for c in first[1].coords.tolist()),
              "sigma", "entropy"]

    def blocks(chunk):
        while chunk is not None:
            leads, traj = chunk
            yield [leads, traj.distributions, np.column_stack([traj.sigmas, traj.entropies])]
            del chunk, traj  # the states of this chunk go before the next is made
            chunk = next(chunks, None)

    pieces = _table_pieces(header, blocks(first), args.format)
    del first  # `blocks` alone holds the first chunk, until it makes the next
    _emit(args, args.format, pieces)


def _check_rows(P, band):
    """Raise at the first row of the (..., positions) distributions `P` with mass
    on the sites `band`, the run's boundary band (`_build_walk`), or with a sum
    off 1. A row failing both (NaN does) reports the band."""
    P = P.reshape(-1, P.shape[-1])
    mass = P[:, band].sum(axis=1)
    totals = P.sum(axis=1)
    k = np.argmax(~(mass <= 1e-12) | ~(np.abs(totals - 1.0) <= PROB_SUM_ATOL))  # 0 if none fails
    if not mass[k] <= 1e-12:
        raise linalg.NumericalViolation(
            f"boundary band carries probability {mass[k]:.3e}; enlarge the line truncation")
    if not abs(totals[k] - 1.0) <= PROB_SUM_ATOL:
        raise linalg.NumericalViolation(f"probability columns sum to {totals[k]:.12g}, not 1")


def _stepped(w, coords, band, t, psi, steps: int, keep=1):
    """Trajectory of the last `keep` of `psi`, one state or a stack, and the `steps` states after it, each
    step being the coin, then `evolve` at the times `t` that broadcast against it. Every state is checked
    once (`_check_rows` with the run's boundary `band`): each other state before it is stepped, so a doomed
    run stops at its first bad step, and the kept rows from the Trajectory's own distributions. One kept
    stack is the rows as it is; more, of a one-state stack, fill a block."""
    rows = np.empty((keep, w.dim), dtype=complex) if keep > 1 else None
    for i in range(steps + 1):
        if i <= steps - keep:
            _check_rows(walk.position_distribution(psi, w.coin_dim, w.pos_dim), band)
        elif rows is not None:
            rows[i - steps - 1] = psi
        if i < steps:
            psi = w.evolve(t, w.apply_coin(psi))
    traj = walk.Trajectory.from_states(psi if rows is None else rows, w.coin_dim, w.pos_dim, coords)
    _check_rows(traj.distributions, band)
    return traj


# ---------------------------------------------------------------------------
# dynamics


def _build_walk(args, family, g: graphs.LabeledGraph):
    """The walk of a dynamics or sweep run on `g`, made by builder `family` (None
    for a JSON graph), with its initial coin and position vectors, the
    coordinates of its P columns and its boundary band: the family's conventional
    choices, unless --coin, --init-coin or --init-pos override them. The walk
    comes first, so a bad --coin is reported before a bad initial state."""
    line = family in ("line2", "line3")
    named = {"circle2": "hadamard", "star": "fourier", "line2": "hadamard", "line3": "grover"}.get(family, "identity")
    w = walk.HybridWalk(g, coin=_resolve_coin(named if args.coin is None else args.coin))
    if args.init_coin is not None:
        coin = _coin_vector(args.init_coin, w.coin_dim)
    elif line:
        coin = np.array([1.0, -1.0j]) / np.sqrt(2) if family == "line2" else np.ones(3, dtype=complex) / np.sqrt(3)
    else:
        coin = np.zeros(w.coin_dim, dtype=complex)
        coin[g.labels.index("b") if family == "segment_line" else 0] = 1.0
    pos = args.init_pos if args.init_pos is not None else (g.n - 1) // 2 if line else 0
    if not 0 <= pos < g.n:
        raise ValueError(f"initial position {pos} outside 0..{g.n - 1}")
    pos_vec = np.zeros(g.n, dtype=complex)
    pos_vec[pos] = 1.0
    # a line counts from its middle, -L..L; the segment line from 1
    coords = graphs.signed_coords(g.n) if line else np.arange(g.n, dtype=float) + (family == "segment_line")
    # a line's band must stay empty: the walker spreads one site per step, so mass there means the truncation
    # is too short for the run; a line under 5 sites, on which the band's sites overlap, has none
    band = [0, 1, g.n - 2, g.n - 1] if line and g.n >= 5 else []
    return w, coin, pos_vec, coords, band


def cmd_dynamics(args):
    family, graph = parse_graph_spec(args.graph, sweep=bool(args.sweep))

    if args.steps is not None:
        if args.t is not None and ":" in args.t:
            raise ValueError("trajectory mode (--steps) takes a single --t, not a grid")
        if args.sweep:
            raise ValueError("trajectory mode (--steps) takes no --sweep")
        t = _parse_finite(args.t, "--t") if args.t is not None else float(np.pi / 2)
        if args.steps < 0:
            raise ValueError(f"steps must be >= 0, got {args.steps}")
        _check_budget(args.steps + 1, graph.n + 3)
        w, coin, pos, coords, band = _build_walk(args, family, graph)
        rows = _chunk_rows(graph.n + 3, w.dim)

        def trajectory():
            # every state of a chunk is a row: a later chunk starts one step after the last row before it,
            # which `_stepped` has checked; the chunk goes once it is written
            psi = walk.product_state(coin, pos)[None]
            for lo in range(0, args.steps + 1, rows):
                k = min(rows, args.steps + 1 - lo)
                psi = w.step(t, psi) if lo else psi
                traj = _stepped(w, coords, band, t, psi, k - 1, keep=k)
                psi = traj.states[-1:]
                yield np.arange(lo, lo + k)[:, None], traj
                del traj

        _write_observables(args, ["step"], trajectory())
        return

    if args.t is None:
        raise ValueError("dynamics needs --t (single value or start:stop:points grid)")
    t_grid = _parse_grid(args.t, "--t") if ":" in args.t else None
    t = None if t_grid else _parse_finite(args.t, "--t")
    o_grid = None
    if args.sweep:
        name, o_grid = _parse_sweep(args.sweep)
        if name != "omega":
            raise ValueError("dynamics sweeps only 'omega'; q sweeps live in the sweep subcommand")
        if not callable(graph):
            raise ValueError("--sweep omega needs circle2 weights that reference w, e.g. circle2:2w,2w+1")
    lead_names = ["omega", "t"] if o_grid else ["t"]
    columns = len(lead_names) + (graph(o_grid[0]) if o_grid else graph).n + 2
    _check_budget((t_grid[2] if t_grid else 1) * (o_grid[2] if o_grid else 1), columns)
    ts = np.linspace(*t_grid) if t_grid else np.array([t])
    # Python floats: an overflowing weight becomes inf without a numpy warning
    omegas = np.linspace(*o_grid).tolist() if o_grid else [None]

    def chunks():
        # one step of the initial state at every t, for each omega in turn, in chunks of `_chunk_rows` times;
        # `HybridWalk.evolve` gives each row the bytes of a run at its t alone, wherever the chunks are cut
        for omega in omegas:
            w, coin, pos, coords, band = _build_walk(args, family, graph if omega is None else graph(omega))
            psi, rows = walk.product_state(coin, pos), _chunk_rows(columns, w.dim)
            for lo in range(0, len(ts), rows):
                t = ts[lo:lo + rows]
                leads = np.column_stack([t] if omega is None else [np.full(len(t), omega), t])
                yield leads, _stepped(w, coords, band, t, psi, 1)

    _write_observables(args, lead_names, chunks())


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
    if name in ("q_phase2", "q_phase3") and not np.isfinite(q * np.pi):  # a Python float: no overflow warning
        raise ValueError(f"{name} phase q*pi is not finite at q = {q:.12g}")
    if name == "q_phase2":
        return np.array([1.0, np.exp(-1j * q * np.pi), 0.0]) / np.sqrt(2)
    return np.array([1.0, np.exp(-1j * q * np.pi), 1.0]) / np.sqrt(3)  # q_phase3: `cmd_sweep` refuses other names


def cmd_sweep(args):
    if not args.sweep:
        raise ValueError(f"sweep needs --sweep name:start:stop:points with name in {SWEEP_PARAMS}")
    name, grid = _parse_sweep(args.sweep)
    if name not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {name!r}; choices: {SWEEP_PARAMS}")
    if args.init_coin is not None and name != "q_time":
        raise ValueError(f"--init-coin applies to q_time only; {name} sets the initial coin from q")
    steps = args.steps if args.steps is not None else 30
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    family, g = parse_graph_spec(args.graph, sweep=True) if args.graph else ("line3", None)
    if family != "line3":
        raise ValueError("q sweeps run on the three-label line; use --graph line3:L or omit --graph")
    columns = (2 * (steps + 8) + 1 if g is None else g.n) + 3  # line3(L) has 2L + 1 sites
    _check_budget(grid[2], columns)
    w, base_coin, pos_vec, coords, band = _build_walk(args, family, graphs.line3(steps + 8) if g is None else g)
    qs, rows = np.linspace(*grid), _chunk_rows(columns, w.dim)

    def chunks():
        # each chunk of qs steps as one stack of states, which `rows` bounds; the initial stack
        # is built in the call, so that only `_stepped` holds it while it steps
        for lo in range(0, len(qs), rows):
            q = qs[lo:lo + rows].tolist()
            # Python floats: a step time q * pi that overflows becomes inf without a numpy warning
            t = [x * np.pi for x in q] if name == "q_time" else 3 * np.pi / 2
            yield qs[lo:lo + rows, None], _stepped(w, coords, band, t, np.array(
                [walk.product_state(_sweep_initial_coin(name, x, base_coin), pos_vec) for x in q]), steps)

    _write_observables(args, ["q"], chunks())


# ---------------------------------------------------------------------------
# pst


def cmd_pst(args):
    # each demo fixes its graph, endpoints and coin, and the segment demo its path
    demo = "--segment-demo" if args.segment_demo is not None else "--tree-demo" if args.tree_demo else None
    fixed = ("graph", "source", "target", "alpha") + (("path", "tree_demo") if args.segment_demo is not None else ())
    given = [k for k in fixed if getattr(args, k) is not None and getattr(args, k) is not False]
    if demo and given:
        raise ValueError(f"{demo} takes no --{given[0].replace('_', '-')}")
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
            g = parse_graph_spec(args.graph)[1]
            source, target = args.source, args.target
            if args.alpha:
                alpha = _parse_amplitudes(args.alpha)
            else:
                alpha = np.ones(len(g.labels), dtype=complex) / np.sqrt(len(g.labels))
        try:
            path = [int(v) for v in args.path.split(",")] if args.path else None
        except ValueError:
            raise ValueError(f"--path takes comma-separated vertex ids, got {args.path!r}") from None
        plan = pst.make_plan(g, source, target, path=path)
        _, transcript = pst.run_pst(plan, alpha)
        payload = transcript.to_json_dict()
        payload["path"] = list(plan.path)
        payload["path_colors"] = list(plan.path_labels)
        fidelity = transcript.fidelity

    if not fidelity > 1 - 1e-6:
        raise linalg.NumericalViolation(f"transfer fidelity {fidelity:.9g} below 1 - 1e-6")
    _emit(args, "json", _json_pieces(payload))
    print("fidelity %.12g" % fidelity)


# ---------------------------------------------------------------------------
# matmul / triangles


def _emit_result(args, obj: dict):
    """Write a matmul/triangles JSON artifact, shots mode adding `shots` and `seed` last."""
    if args.mode == "shots":
        obj["shots"], obj["seed"] = args.shots, args.seed
    _emit(args, "json", _json_pieces(obj))


def cmd_matmul(args):
    if sum((args.entry is not None, args.matrix, args.trace)) > 1:
        raise ValueError("pick one of --entry, --matrix, --trace")
    # each distinct spec is read once; a repeated one passes the same graph again
    factors = {s: parse_graph_spec(s)[1] for s in dict.fromkeys(args.graph)}
    seq = matmul.regular_sequence([factors[s] for s in args.graph])
    mode, shots, seed = args.mode, args.shots, args.seed
    if args.entry is not None:
        try:
            i, j = (int(x) for x in args.entry.split(","))
        except ValueError:
            raise ValueError(f"--entry takes i,j (two vertex ids), got {args.entry!r}") from None
        est = matmul.product_entry(seq, i, j, mode=mode, shots=shots, seed=seed)
        _emit_result(args, {"i": i, "j": j, "mode": mode, "probability": est.probability, "value": est.value})
        print("C[%d,%d] = %.12g (probability %.12g)" % (i, j, est.value, est.probability))
    elif args.trace:
        value = matmul.product_trace(seq, mode=mode, shots=shots, seed=seed)
        _emit_result(args, {"mode": mode, "value": value})
        print("trace = %.12g" % value)
    else:
        _check_budget(seq.n * seq.n, 3)
        C = matmul.product_matrix(seq, mode=mode, shots=shots, seed=seed).reshape(-1)
        rows = _chunk_rows(3, 1)
        chunks = ([np.column_stack(np.divmod(np.arange(lo, min(lo + rows, len(C))), seq.n)), C[lo:lo + rows, None]]
                  for lo in range(0, len(C), rows))
        _emit(args, "csv", _table_pieces(["i", "j", "value"], chunks, "csv"))


def cmd_triangles(args):
    g = parse_graph_spec(args.graph)[1]
    mode, shots, seed = args.mode, args.shots, args.seed
    if args.vertex is not None:
        count = matmul.triangles_at_vertex(g, args.vertex, mode=mode, shots=shots, seed=seed)
        obj = {"vertex": args.vertex, "triangles": count, "mode": mode}
    else:
        count = matmul.triangle_count(g, mode=mode, shots=shots, seed=seed)
        obj = {"triangles": count, "mode": mode}
    _emit_result(args, obj)
    print(f"triangles = {count}")


# ---------------------------------------------------------------------------
# Parser & entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message} (see '{self.prog} --help')", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hqw", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_walk=True, with_shots=False):
        if with_shots:  # matmul and triangles: exact projections or seeded binomial draws
            p.add_argument("--mode", choices=("exact", "shots"), default="exact")
            p.add_argument("--shots", type=_int_option, default=20000)
            p.add_argument("--seed", type=_int_option)
        p.add_argument("--out", help="output path (default out/<cmd>-<confighash>.<ext>)")
        if with_walk:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            p.add_argument("--coin", help="identity|hadamard|fourier|grover|custom:path.json")
            p.add_argument("--init-coin", help="uniform | basis:k | amp:[re,im;...]")
            p.add_argument("--init-pos", type=_int_option, help="initial vertex id")

    p = sub.add_parser("dynamics", help="one-step observables on t / (omega,t) grids, or a fixed-t trajectory")
    p.add_argument("--graph", required=True, help="builder spec (e.g. star:10, circle2:2w,2w+1) or graph JSON path")
    p.add_argument("--t", help="evolution time: single value or start:stop:points (a negative start needs --t=-1:1:3)")
    p.add_argument("--steps", type=_int_option, help="trajectory mode: number of steps at fixed --t")
    p.add_argument("--sweep", help="omega:start:stop:points (circle2 weights referencing w)")
    common(p)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("sweep", help="q sweeps of the three-label line (step time, coin mix, coin phase)")
    p.add_argument("--sweep", required=True,
                   help=f"name:start:stop:points with name in {', '.join(SWEEP_PARAMS)}")
    p.add_argument("--graph", help="override line3:L (default line3:steps+8)")
    p.add_argument("--steps", type=_int_option, help="walk steps per grid point (default 30)")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pst", help="perfect state transfer transcript")
    p.add_argument("--graph", help="properly colored graph (builder spec or JSON path)")
    p.add_argument("--source", type=_int_option)
    p.add_argument("--target", type=_int_option)
    p.add_argument("--path", help="comma-separated vertex ids overriding the BFS path")
    p.add_argument("--alpha", help="coin amplitudes [re,im;...] (default uniform)")
    p.add_argument("--segment-demo", type=_int_option, metavar="M",
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
    common(p, with_walk=False, with_shots=True)
    p.set_defaults(func=cmd_matmul)

    p = sub.add_parser("triangles", help="triangle counts of a regular graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--vertex", type=_int_option, help="count triangles at one vertex (default: whole graph)")
    common(p, with_walk=False, with_shots=True)
    p.set_defaults(func=cmd_triangles)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code. A command returns on success and raises on
    failure; every failure is reported here, in one stderr line."""
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
        return EXIT_OK
    except linalg.NumericalViolation as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, MemoryError) as exc:
        # an exception with no text, as a MemoryError from Python-level allocation, is named by its type
        empty = f"out of memory ({type(exc).__name__})" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"error: {str(exc) or empty}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
