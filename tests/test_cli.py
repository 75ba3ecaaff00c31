import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from _graphgen import hypercube
from console_checks import Case, Result, blas_threads, failures, run

import hqw
from hqw.cli import _table_pieces, main
from hqw.graphs import complete, cycle, line3, save_json, star
from hqw.walk import HybridWalk, position_distribution, product_state


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def one_line_error(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, err
    return err


def csv_rows(path):
    lines = read(path).strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


def test_dynamics_star_uniform_at_quarter_period(tmp_path):
    out = tmp_path / "star.csv"
    # grid hits t = pi/2 exactly at index 1 of linspace(0, 2pi, 5)
    assert main(["dynamics", "--graph", "star:10", "--t", f"0:{2 * np.pi}:5",
                 "--out", str(out)]) == 0
    header, rows = csv_rows(out)
    assert header[0] == "t" and header[1] == "P(0)" and header[-2:] == ["sigma", "entropy"]
    probs = np.array(rows[1][1:11])
    np.testing.assert_allclose(probs, np.full(10, 0.1), atol=1e-9)
    assert abs(rows[1][-1] - np.log2(10)) < 1e-6  # entropy column, bits
    for row in rows:
        assert abs(sum(row[1:11]) - 1.0) < 1e-9


def test_dynamics_circle_heatmap_stable_bands(tmp_path):
    out = tmp_path / "circle.csv"
    # t grid hits pi/2 + k pi for |a-b| = 1
    points = 9
    assert main(["dynamics", "--graph", "circle2:2w,2w+1", "--t", f"0:{4 * np.pi}:{points}",
                 "--sweep", "omega:0:3:4", "--out", str(out)]) == 0
    header, rows = csv_rows(out)
    assert header[:2] == ["omega", "t"]
    stable = [r for r in rows if any(abs(r[1] - (np.pi / 2 + k * np.pi)) < 1e-9 for k in range(4))]
    assert stable, "t grid missed the stable-band times"
    for row in stable:
        assert abs(row[3] - 0.5) < 1e-9  # P(1) column


def test_dynamics_trajectory_mode(tmp_path):
    out = tmp_path / "line3.csv"
    assert main(["dynamics", "--graph", "line3:12", "--steps", "8", "--out", str(out)]) == 0
    header, rows = csv_rows(out)
    assert header[0] == "step"
    assert len(rows) == 9
    n = 25
    assert header[1] == "P(-12)" and header[n] == "P(12)"
    for row in rows:
        assert abs(sum(row[1:1 + n]) - 1.0) < 1e-9


def test_a_negative_grid_start_is_written_with_equals(tmp_path):
    # argparse takes "-1:1:3" for an option, so `--t -1:1:3` cannot work; `--t=-1:1:3` does
    out = tmp_path / "neg.csv"
    assert main(["dynamics", "--graph", "star:3", "--t=-1:1:3", "--out", str(out)]) == 0
    header, rows = csv_rows(out)
    assert header[0] == "t" and [row[0] for row in rows] == [-1, 0, 1]


def test_dynamics_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["dynamics", "--graph", "star:6", "--t", "0:6.283:40"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert read(a) == read(b)


def test_dynamics_json_format_and_default_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["dynamics", "--graph", "circle2:1,2", "--t", "0:3:7",
                 "--format", "json"]) == 0
    names = os.listdir("out")
    assert len(names) == 1 and names[0].startswith("dynamics-") and names[0].endswith(".json")
    doc = json.loads(read(os.path.join("out", names[0])))
    assert doc["columns"][0] == "t"
    assert len(doc["rows"]) == 7


def test_dynamics_custom_init_and_graph_file(tmp_path):
    gpath = tmp_path / "graph.json"
    gpath.write_text(save_json(star(4)))
    out = tmp_path / "o.csv"
    w = HybridWalk(star(4), coin="grover")
    for init_coin, coin in (("basis:1", np.eye(w.coin_dim)[1]), ("uniform", np.ones(w.coin_dim))):
        assert main(["dynamics", "--graph", str(gpath), "--t", "0:2:4", "--coin", "grover",
                     "--init-coin", init_coin, "--init-pos", "2", "--out", str(out)]) == 0
        header, rows = csv_rows(out)
        assert header[1:5] == ["P(0)", "P(1)", "P(2)", "P(3)"]
        # each row is one step of the library walk from the same state, at its t
        psi = product_state(coin / np.linalg.norm(coin), np.eye(4)[2])
        for row, t in zip(rows, np.linspace(0, 2, 4), strict=True):
            P = position_distribution(w.step(t, psi), w.coin_dim, w.pos_dim)
            np.testing.assert_allclose(row[1:5], P, atol=1e-11, err_msg=init_coin)


def test_sweep_q_time_localization(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--sweep", "q_time:0:2:5", "--steps", "12", "--out", str(out)]) == 0
    header, rows = csv_rows(out)
    assert header[0] == "q"
    n = 2 * 20 + 1  # line3 half-length = steps + 8
    center_col = 1 + (n - 1) // 2
    for row in rows:
        q = row[0]
        if abs(q - round(q)) < 1e-12:  # integer q: strictly localized
            assert abs(row[center_col] - 1.0) < 1e-9
            assert row[-2] < 1e-9  # sigma
    spread = [r for r in rows if abs(r[0] - 0.5) < 1e-12][0]
    assert spread[-2] > 5.0  # q = 1/2: maximal diffusion


def test_sweep_q_phase3_parity(tmp_path):
    out = tmp_path / "phase.csv"
    assert main(["sweep", "--sweep", "q_phase3:0:3:4", "--steps", "20", "--out", str(out)]) == 0
    header, rows = csv_rows(out)
    n = 2 * 28 + 1
    coords = np.arange(n) - 28
    by_q = {round(r[0]): r for r in rows}
    even_peak = abs(coords[int(np.argmax(by_q[2][1:1 + n]))])
    odd_peak = abs(coords[int(np.argmax(by_q[1][1:1 + n]))])
    assert even_peak > odd_peak  # even q pushes the maximum to farther nodes
    assert by_q[2][-2] > by_q[1][-2]  # and spreads more


def test_pst_segment_demo(tmp_path):
    out = tmp_path / "seg.json"
    assert main(["pst", "--segment-demo", "5", "--out", str(out)]) == 0
    doc = json.loads(read(out))
    assert doc["final_probability"] > 1 - 1e-9
    assert doc["coin_record"] == ["b", "r", "b", "r"]


def test_pst_tree_demo(tmp_path, capsys):
    out = tmp_path / "tree.json"
    assert main(["pst", "--tree-demo", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "fidelity 1" in captured.out
    doc = json.loads(read(out))
    assert doc["fidelity"] > 1 - 1e-9
    assert doc["path"][0] == 0 and doc["path"][-1] == 14


def test_pst_explicit_graph_and_alpha(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text('{"n":3,"labels":["0","1"],"edges":[[0,1,"0"],[1,2,"1"]]}')
    out = tmp_path / "pst.json"
    code = main(["pst", "--graph", str(gpath), "--source", "0", "--target", "2",
                 "--alpha", "[0.6,0;0,0.8]", "--out", str(out)])
    assert code == 0
    doc = json.loads(read(out))
    assert doc["fidelity"] > 1 - 1e-9
    assert doc["path_colors"] == ["0", "1"]


def test_matmul_entry_benchmark(tmp_path):
    out = tmp_path / "entry.json"
    assert main(["matmul", "--graph", "cubic8", "--graph", "cubic8", "--graph", "cubic8",
                 "--entry", "0,0", "--out", str(out)]) == 0
    doc = json.loads(read(out))
    assert set(doc) == {"i", "j", "mode", "probability", "value"}
    assert abs(doc["probability"] - 2 / 27) < 1e-12
    assert abs(doc["value"] - 2.0) < 1e-9


def test_matmul_entry_shots_and_seed(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["matmul", "--graph", "cubic8", "--graph", "cubic8", "--graph", "cubic8",
            "--entry", "0,0", "--mode", "shots", "--shots", "20000", "--seed", "11"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert read(a) == read(b)
    doc = json.loads(read(a))
    assert doc["shots"] == 20000 and doc["seed"] == 11
    assert abs(doc["value"] - 2.0) < 0.5


def test_matmul_matrix_csv(tmp_path):
    out = tmp_path / "mat.csv"
    assert main(["matmul", "--graph", "cycle:4", "--graph", "cycle:4",
                 "--matrix", "--out", str(out)]) == 0
    lines = read(out).strip().splitlines()
    assert lines[0] == "i,j,value"
    assert len(lines) == 17
    assert lines[1] == "0,0,2"


def test_matmul_trace(tmp_path):
    out = tmp_path / "tr.json"
    assert main(["matmul", "--graph", "complete:4", "--graph", "complete:4",
                 "--trace", "--out", str(out)]) == 0
    doc = json.loads(read(out))
    assert abs(doc["value"] - 12.0) < 1e-9  # tr(A^2) = n d = 4 * 3


def test_triangles_cli(tmp_path):
    out = tmp_path / "tri.json"
    assert main(["triangles", "--graph", "cubic8", "--vertex", "0", "--out", str(out)]) == 0
    doc = json.loads(read(out))
    assert doc == {"vertex": 0, "triangles": 1, "mode": "exact"}
    out2 = tmp_path / "tri2.json"
    assert main(["triangles", "--graph", "complete:4", "--out", str(out2)]) == 0
    assert json.loads(read(out2))["triangles"] == 4
    out3 = tmp_path / "tri3.json"
    assert main(["triangles", "--graph", "cycle:4", "--out", str(out3)]) == 0
    assert json.loads(read(out3))["triangles"] == 0


def test_nan_probabilities_fail_the_sum_check_and_the_line_guard(monkeypatch):
    from hqw import walk
    from hqw.linalg import NumericalViolation
    from hqw.walk import _check_rows

    with pytest.raises(NumericalViolation, match="boundary band carries probability nan"):
        _check_rows(np.full((1, 7), np.nan), [0, 1, 5, 6])
    with pytest.raises(NumericalViolation, match="sum to nan"):
        _check_rows(np.full((1, 7), np.nan), [])
    # a NaN in row 1 of every distribution: `HybridWalk.run` checks a kept row and a state about to be stepped
    distribution = walk.position_distribution

    def nan_row_1(states, *dims):
        P = distribution(states, *dims)
        P[1:2, 3] = np.nan
        return P

    monkeypatch.setattr(walk, "position_distribution", nan_row_1)
    w = HybridWalk(star(4), coin="grover")
    psi = np.array([product_state(np.eye(w.coin_dim)[0], np.eye(4)[v]) for v in (0, 1)])
    calls, evolve = [], w.evolve
    monkeypatch.setattr(w, "evolve", lambda *a: calls.append(1) or evolve(*a))
    for steps in (0, 3):
        with pytest.raises(NumericalViolation, match="sum to nan"):
            w.run(0.5, steps, psi, np.arange(4.0))
    assert calls == []  # the initial stack fails before its first step


def test_cli_paths_do_not_import_numpy_ma(tmp_path):
    # numpy.ma loads lazily (about 15 ms and 0.6 MB per process), e.g. on a plain np.unique
    q4 = tmp_path / "q4.json"
    q4.write_text(save_json(hypercube(4)))
    runs = [["dynamics", "--graph", "star:5", "--t", "0:1:3"],
            ["pst", "--graph", str(q4), "--source", "0", "--target", "15"],
            ["matmul", "--graph", "cycle:6", "--graph", "cycle:6", "--matrix"],
            ["dynamics", "--graph", "line3:8", "--steps", "3", "--t", "0.5", "--format", "json"]]
    script = ("import sys\nfrom hqw.cli import main\n"
              f"codes = [main(argv + ['--out', {str(tmp_path)!r} + '/%d.out' % k]) for k, argv in enumerate({runs!r})]\n"
              "print(codes, 'numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(hqw.__file__))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0] False", res.stdout


def test_console_checks_run_reads_the_childs_exit_stdout_and_peak_rss(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(hqw.__file__)))
    res = run([sys.executable, "-m", "hqw.cli"], ["pst", "--tree-demo", "--out", str(tmp_path / "tree.json")],
              timeout=120)
    assert res.code == 0, res.stderr
    assert "fidelity 1" in res.stdout.splitlines(), res.stdout
    assert res.rss_mb > 0 and res.seconds > 0


def test_console_checks_name_the_blas_threads_of_their_runs(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert blas_threads() == "OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=2, MKL_NUM_THREADS=unset"


def test_console_checks_fail_a_successful_run_that_writes_to_stderr(tmp_path):
    case = Case("quiet", [], "x.out", 10)
    assert failures(case, str(tmp_path), Result(0, "", "", 1.0, 0.1)) == []
    assert failures(case, str(tmp_path), Result(0, "", "RuntimeWarning: overflow\n", 1.0, 0.1)) == \
        ["1 stderr lines, expected 0: 'RuntimeWarning: overflow'"]


def test_runs_with_out_do_not_load_openssl(tmp_path):
    # hashlib maps OpenSSL's libcrypto (about 3.6 MB RSS); only a default artifact name needs it.
    # In a fresh process, as pytest itself may have imported hashlib.
    runs = [["dynamics", "--graph", "star:5", "--t", "0:1:3"],
            ["sweep", "--sweep", "q_mix2:0:1:3", "--steps", "4"],
            ["pst", "--tree-demo"],
            ["matmul", "--graph", "cubic8", "--entry", "0,0"],
            ["triangles", "--graph", "cubic8"]]
    script = ("import sys\nfrom hqw.cli import main\n"
              f"codes = [main(argv + ['--out', {str(tmp_path)!r} + '/%d.out' % k]) for k, argv in enumerate({runs!r})]\n"
              "print(codes, '_hashlib' in sys.modules)\n"
              f"print(main({runs[0]!r}), '_hashlib' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(hqw.__file__))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src))
    assert res.returncode == 0, res.stderr
    # the last run names its artifact out/<command>-<hash>, which does load it
    lines = res.stdout.strip().splitlines()
    assert lines[-3] == "[0, 0, 0, 0, 0] False" and lines[-1] == "0 True", res.stdout


def test_default_artifact_names_keep_their_config_hash(tmp_path, monkeypatch):
    # pinned: the same configuration keeps its artifact name across versions
    monkeypatch.chdir(tmp_path)
    assert main(["dynamics", "--graph", "star:4", "--t", "0:1:3"]) == 0
    assert main(["matmul", "--graph", "cubic8", "--entry", "0,0"]) == 0
    assert sorted(os.listdir("out")) == ["dynamics-a972e0deb1a6.csv", "matmul-56201d79c648.json"]


@pytest.mark.parametrize("patched, message", [("step", "norm drifted"),
                                               ("verify_pst", "transfer fidelity 0.5 below 1 - 1e-6")])
def test_pst_norm_drift_is_a_numerical_violation(tmp_path, capsys, monkeypatch, patched, message):
    from hqw import pst
    from hqw.walk import HybridWalk

    if patched == "step":
        step = HybridWalk.step
        monkeypatch.setattr(HybridWalk, "step", lambda self, *a, **k: 1.001 * step(self, *a, **k))
    else:  # a transfer that ends off its target is refused before its artifact and its fidelity line
        monkeypatch.setattr(pst, "verify_pst", lambda *args: 0.5)
    out = tmp_path / "tree.json"
    assert main(["pst", "--tree-demo", "--out", str(out)]) == 2
    out_text, err = capsys.readouterr()
    assert out_text == "" and "Traceback" not in err and len(err.splitlines()) == 1, err
    assert err.startswith("numerical invariant violated: ") and message in err, err
    assert not out.exists()


def test_a_q_time_sweep_writes_one_row_per_q(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["sweep", "--sweep", "q_time:0:1:3", "--steps", "5", "--out", str(out)]) == 0
    header, rows = csv_rows(out)
    assert len(rows) == 3


@pytest.mark.parametrize("graph", ["star:60", "cycle:300", "complete:40", "line3:30", "fock_g0:10"])
def test_a_trajectorys_step_1_row_is_the_grid_row_at_its_t(tmp_path, graph):
    # Fourier, identity (dense sectors), Grover and identity (phases only) coins: a trajectory
    # steps a stack of one state, a grid one state at a stack of times, with the same arithmetic
    traj, grid = tmp_path / "traj.csv", tmp_path / "grid.csv"
    assert main(["dynamics", "--graph", graph, "--steps", "1", "--t", "0.8", "--out", str(traj)]) == 0
    assert main(["dynamics", "--graph", graph, "--t", "0.8", "--out", str(grid)]) == 0
    step_1, row = read(traj).splitlines()[2], read(grid).splitlines()[1]
    assert step_1.split(",", 1)[1] == row.split(",", 1)[1]


def test_a_line_under_5_vertices_has_no_boundary_band(tmp_path):
    # the band's sites [0, 1, -2, -1] count vertex 1 of line3:1 twice, so neither subcommand checks it there
    out = tmp_path / "x.csv"
    assert main(["sweep", "--sweep", "q_time:0:1:3", "--graph", "line3:1", "--steps", "0", "--out", str(out)]) == 0
    assert len(csv_rows(out)[1]) == 3
    assert main(["dynamics", "--graph", "line3:1", "--steps", "5", "--t", "1.5707963267948966", "--out", str(out)]) == 0
    assert len(csv_rows(out)[1]) == 6


def test_sweep_honours_and_checks_init_pos(tmp_path):
    out = tmp_path / "s.csv"
    # q = 0 is a coin flip without evolution, so the walker stays where it starts (an --init-pos
    # off the line is a row of the contract table)
    assert main(["sweep", "--sweep", "q_time:0:1:3", "--steps", "5", "--init-pos", "10", "--out", str(out)]) == 0
    header, rows = csv_rows(out)
    assert rows[0][header.index("P(-3)")] == 1.0  # vertex 10 of line3(13) sits at -3


def readme_commands():
    """The argv of every `hqw ...` line of the README's CLI block."""
    readme = read(Path(__file__).resolve().parents[1] / "README.md")
    block = readme.split("## CLI", 1)[1].split("```")[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("hqw ")]


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, g in (("mygraph.json", line3(4)), ("g1.json", cycle(12)), ("g2.json", complete(12))):
        (tmp_path / name).write_text(save_json(g))
    commands = readme_commands()
    assert len(commands) >= 10
    for k, argv in enumerate(commands):
        if "--out" in argv:
            del argv[argv.index("--out"):argv.index("--out") + 2]
        assert main(argv + ["--out", str(tmp_path / f"readme{k}.out")]) == 0, argv


# what `bench/checks.py` and the README's library examples call, beyond `hqw.__all__`
OUTSIDE_CALLERS = (
    "linalg.evolve", "graphs.subgraph_adjacency", "matmul.classical_product", "matmul.regular_sequence",
    "matmul.product_entry", "matmul.triangles_at_vertex", "graphs.star", "graphs.cubic8",
    "walk.coin_position_state", "walk.HybridWalk.run", "walk.HybridWalk.apply_coin", "walk.HybridWalk.evolve",
    "walk.HybridWalk.step", "walk.Trajectory.from_states",
    "pst.make_plan", "pst.demo_tree", "pst.run_pst",
)


@pytest.mark.parametrize("name", [*hqw.__all__, *OUTSIDE_CALLERS])
def test_the_public_surface_resolves(name):
    obj = hqw
    for part in name.split("."):
        obj = getattr(obj, part)
    assert obj is not None


def per_value_table(header, rows, fmt):
    """The table text written one value at a time: str(int(x)) for integers,
    f"{float(x):.12g}" for floats."""
    text = [[str(int(x)) if isinstance(x, int) else f"{float(x):.12g}" for x in row] for row in rows]
    if fmt == "json":
        typed = [[int(v) if isinstance(x, int) else float(v) for x, v in zip(row, t)]
                 for row, t in zip(rows, text)]
        return json.dumps({"columns": header, "rows": typed}, indent=2) + "\n"
    return "\n".join([",".join(header), *(",".join(t) for t in text)]) + "\n"


def adversarial_floats():
    rng = np.random.default_rng(2024)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
               1e-5, 9.99999999999949e-5, 9.9999999999995e-5, 999999999999.5, 999999999999.4,
               123456789012.5, 1e12, 1e16, 0.30000000000000004, 1 - 2 ** -53]
    # values that round across a power of ten at the 12th significant digit
    edges = [float(f"{m}e{e}") for e in range(-300, 300, 7) for m in ("9.9999999999995", "4.99999999999995")]
    patterns = np.frombuffer(rng.integers(-2 ** 63, 2 ** 63 - 1, 3000, dtype=np.int64).tobytes(), dtype=float)
    return special + edges + [-x for x in edges] + patterns.tolist()


def as_blocks(rows, *widths):
    """The columns of `rows`, left to right, as row-aligned 2-D arrays of the given widths."""
    ends = np.cumsum((0, *widths)).tolist()
    return [np.array([row[a:b] for row in rows]).reshape(len(rows), b - a) for a, b in zip(ends, ends[1:])]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_writer_matches_per_value_formatting(fmt):
    values = adversarial_floats()
    width = 7
    values += [0.0] * (-len(values) % width)
    header = ["step", *(f"c{k}" for k in range(width))]
    rows = [(k, *values[k * width:(k + 1) * width]) for k in range(len(values) // width)]
    assert "".join(_table_pieces(header, [as_blocks(rows, 1, width)], fmt)) == per_value_table(header, rows, fmt)
    # the matmul --matrix layout: two integer columns, then a float
    mat = [(i, j, values[(31 * i + j) % len(values)]) for i in range(40) for j in range(40)]
    assert "".join(_table_pieces(["i", "j", "value"], [as_blocks(mat, 2, 1)], fmt)) == \
        per_value_table(["i", "j", "value"], mat, fmt)
    # an integer column stays an integer however large; -0.0 keeps its sign
    big = [(2 ** 70, -0.0), (-3, 2.0)]
    assert "".join(_table_pieces(["n", "x"], [as_blocks(big, 1, 1)], fmt)) == per_value_table(["n", "x"], big, fmt)
    # one row wider than a chunk of cells, over several blocks
    wide = [(7, *(values * 12)[:40003])]
    assert "".join(_table_pieces(["k", *(f"c{k}" for k in range(40003))], [as_blocks(wide, 1, 20000, 20003)], fmt)) == \
        per_value_table(["k", *(f"c{k}" for k in range(40003))], wide, fmt)
    # a table without rows is its header alone
    assert "".join(_table_pieces(["t", "x"], [as_blocks([], 1, 1)], fmt)) == per_value_table(["t", "x"], [], fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("cells", [1, 10, 64, None])
def test_table_writer_spans_chunks(fmt, cells):
    import hqw.cli as cli

    rows_per_chunk = max(1, (cli.graphs.BLOCK_ENTRIES if cells is None else cells) // 5)
    n = 3 * rows_per_chunk + 7  # four chunks, the last one short
    rng = np.random.default_rng(11)
    pool = [0.0, -0.0, float("nan"), 0.1, 1 / 3, -2.5e-300, 1e12, float("inf")]
    # a float column in runs of one value that change mid-chunk, so runs cross the
    # chunk boundaries; an integer column in runs of 3; columns that change every row
    span = max(2, rows_per_chunk)
    run = [pool[(k + span // 2) // span % len(pool)] for k in range(n)]
    rows = [(k // 3, k - n, run[k], float(x), pool[k % len(pool)])
            for k, x in zip(range(n), rng.standard_normal(n))]
    assert any(rows[b - 1][2] is rows[b][2] for b in range(rows_per_chunk, n, rows_per_chunk))
    header = ["step", "k", "run", "x", "cycle"]
    chunks = [as_blocks(rows[lo:lo + rows_per_chunk], 2, 3) for lo in range(0, n, rows_per_chunk)]
    assert "".join(_table_pieces(header, chunks, fmt)) == per_value_table(header, rows, fmt)
    # non-contiguous views as blocks: the matmul --matrix (i, j) layout
    ij = np.indices((n // 4 + 1, 4)).reshape(2, -1).T
    C = np.array([run[k % n] for k in range(len(ij))]).reshape(-1, 1)
    mat = [(int(i), int(j), c) for (i, j), c in zip(ij, C[:, 0].tolist())]
    chunks = [[ij[lo:lo + rows_per_chunk], C[lo:lo + rows_per_chunk]] for lo in range(0, len(ij), rows_per_chunk)]
    assert "".join(_table_pieces(["i", "j", "value"], chunks, fmt)) == per_value_table(["i", "j", "value"], mat, fmt)


def test_trajectory_step_column_is_an_integer_in_csv_and_json(tmp_path):
    out, js = tmp_path / "traj.csv", tmp_path / "traj.json"
    argv = ["dynamics", "--graph", "line3:6", "--steps", "4", "--t", "0.3"]
    assert main(argv + ["--out", str(out)]) == 0
    assert main(argv + ["--format", "json", "--out", str(js)]) == 0
    lines = read(out).splitlines()
    assert [line.split(",")[0] for line in lines] == ["step", "0", "1", "2", "3", "4"]
    doc = json.loads(read(js))
    assert [row[0] for row in doc["rows"]] == [0, 1, 2, 3, 4]
    assert all(type(row[0]) is int and all(type(x) is float for x in row[1:]) for row in doc["rows"])
    for line, row in zip(lines[1:], doc["rows"]):
        assert line == ",".join([str(row[0]), *(f"{x:.12g}" for x in row[1:])])


@pytest.mark.parametrize("mode", ["--matrix", "--trace"])
def test_matmul_reads_a_repeated_graph_file_once(tmp_path, monkeypatch, mode):
    from hqw import graphs

    text = save_json(cycle(6))
    files = [tmp_path / f"c{k}.json" for k in range(3)]
    for f in files:
        f.write_text(text)
    calls = []
    load = graphs.load_json_file
    monkeypatch.setattr(graphs, "load_json_file", lambda path: calls.append(path) or load(path))
    same, distinct = tmp_path / "same.out", tmp_path / "distinct.out"
    argv = ["matmul", mode]
    assert main(argv + [a for f in [files[0]] * 3 for a in ("--graph", str(f))] + ["--out", str(same)]) == 0
    assert len(calls) == 1
    assert main(argv + [a for f in files for a in ("--graph", str(f))] + ["--out", str(distinct)]) == 0
    assert len(calls) == 4
    assert read(same) == read(distinct)


def test_sweep_q_time_honours_init_coin(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--sweep", "q_time:0:1:3", "--steps", "4"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--init-coin", "basis:2", "--out", str(b)]) == 0
    assert read(a) != read(b)


STREAMED = [
    ["dynamics", "--graph", "line3:6", "--steps", "0", "--t", "0.3"],
    ["dynamics", "--graph", "line3:12", "--steps", "8", "--t", "0.7"],
    ["dynamics", "--graph", "star:5", "--t", "0:1:2"],
    ["dynamics", "--graph", "star:6", "--t", "0.1:6:11", "--init-coin", "basis:2"],
    ["dynamics", "--graph", "circle2:2w,2w+1", "--t", "0:6.2832:5", "--sweep", "omega:0:3:4"],
    ["sweep", "--sweep", "q_mix2:0:1:7", "--steps", "5"],
    ["sweep", "--sweep", "q_time:0:2:7", "--steps", "5"],
    ["sweep", "--sweep", "q_phase3:0:4:7", "--steps", "5"],
    ["sweep", "--sweep", "q_mix2:0:1:7", "--steps", "0"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [1, 3])
def test_streamed_tables_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, fmt, rows):
    import hqw.cli as cli
    from hqw import walk

    whole = []
    for k, argv in enumerate(STREAMED):
        whole.append(tmp_path / f"whole{k}.{fmt}")
        assert main(argv + ["--format", fmt, "--out", str(whole[-1])]) == 0
    chunks = []
    from_states = walk.Trajectory.from_states.__func__
    monkeypatch.setattr(walk.Trajectory, "from_states",
                        classmethod(lambda cls, states, *a: chunks.append(len(states)) or from_states(cls, states, *a)))
    monkeypatch.setattr(cli, "_chunk_rows", lambda columns, dim: rows)
    for k, argv in enumerate(STREAMED):
        chunks.clear()
        out = tmp_path / f"chunked{k}.{fmt}"
        assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
        assert read(out) == read(whole[k]), argv
        table_rows = len(json.loads(read(out))["rows"]) if fmt == "json" else len(read(out).splitlines()) - 1
        assert max(chunks) <= rows and sum(chunks) == table_rows, (argv, chunks)


@pytest.mark.parametrize("argv", [["dynamics", "--graph", "line3:5", "--t", "0.8"],
                                  ["sweep", "--sweep", "q_mix2:0:1:5", "--graph", "line3:5"]])
def test_a_doomed_line_run_stops_at_its_first_bad_row(tmp_path, capsys, monkeypatch, argv):
    import hqw.cli as cli
    from hqw.walk import HybridWalk

    out = tmp_path / "x.csv"
    assert main(argv + ["--steps", "1000", "--out", str(out)]) == 2
    short = one_line_error(capsys)
    calls, evolve = [], HybridWalk.evolve
    monkeypatch.setattr(HybridWalk, "evolve", lambda self, *a, **k: calls.append(1) or evolve(self, *a, **k))
    assert main(argv + ["--steps", "100000", "--out", str(out)]) == 2
    # the band trips a few steps in: the run stops within its first chunk of states
    assert len(calls) <= 2 * cli._chunk_rows(14, 33), len(calls)
    assert one_line_error(capsys) == short and "boundary band carries" in short
    assert not out.exists()


@pytest.mark.parametrize("argv, nan_from_row, code, message", [
    # the guard trips in a later chunk and reports the band of its first failing row
    (["dynamics", "--graph", "line3:5", "--steps", "30", "--t", "0.8"], None, 2, "boundary band carries"),
    (["dynamics", "--graph", "star:5", "--steps", "9", "--t", "0.4"], 5, 2, "sum to nan, not 1"),
    (["dynamics", "--graph", "star:5", "--t", "0:1:9"], 7, 2, "sum to nan, not 1"),
    # on a line the guard, over every row, goes before the sum check
    (["dynamics", "--graph", "line3:12", "--steps", "9", "--t", "0.4"], 5, 2, "boundary band carries probability nan"),
    (["sweep", "--sweep", "q_mix2:0:2:9", "--steps", "3"], None, 1, "q_mix2 needs q in [0, 1]"),
])
def test_a_failure_in_a_later_chunk_leaves_the_old_artifact_alone(tmp_path, capsys, monkeypatch, argv,
                                                                    nan_from_row, code, message):
    import hqw.cli as cli
    from hqw import walk

    if nan_from_row is not None:  # NaN probabilities from one row of the table on
        seen, distribution = [0], walk.position_distribution

        def nan_rows(states, *dims):
            P = distribution(states, *dims)
            P[max(0, nan_from_row - seen[0]):] = np.nan
            seen[0] += len(P)
            return P

        monkeypatch.setattr(walk, "position_distribution", nan_rows)
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == code
    expected = one_line_error(capsys)
    assert message in expected
    out.write_text("old\n")
    out.chmod(0o640)
    monkeypatch.setattr(cli, "_chunk_rows", lambda columns, dim: 3)
    if nan_from_row is not None:
        seen[0] = 0
    assert main(argv + ["--out", str(out)]) == code
    assert one_line_error(capsys) == expected
    assert read(out) == "old\n" and out.stat().st_mode & 0o777 == 0o640
    assert os.listdir(tmp_path) == ["x.csv"]


@pytest.mark.parametrize("rows", [1, 3, 8, 13])
def test_a_trajectory_has_the_bytes_of_one_chunk_in_chunks_of(tmp_path, monkeypatch, rows):
    import hqw.cli as cli

    argv = ["dynamics", "--graph", "line3:20", "--steps", "12", "--t", "0.7"]
    whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
    assert main(argv + ["--out", str(whole)]) == 0  # 13 rows: one chunk
    monkeypatch.setattr(cli, "_chunk_rows", lambda columns, dim: rows)
    assert main(argv + ["--out", str(chunked)]) == 0
    assert read(chunked) == read(whole)


def test_a_trajectory_checks_each_state_once(tmp_path, monkeypatch):
    from hqw import walk

    states, distribution = [], walk.position_distribution
    monkeypatch.setattr(walk, "position_distribution",
                        lambda psi, *dims: states.append(len(psi)) or distribution(psi, *dims))
    # line3:1000 streams its 101 states in 13 chunks of at most 8
    argv = ["dynamics", "--graph", "line3:1000", "--steps", "100", "--t", "0.5"]
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 0
    assert sum(states) == 101 and len(states) == 13, states


@pytest.mark.parametrize("rows", [1, 3])
def test_no_trajectory_chunk_outlives_its_turn(tmp_path, monkeypatch, rows):
    import weakref

    import hqw.cli as cli
    from hqw import walk

    refs, live = [], []
    from_states, evolve = walk.Trajectory.from_states.__func__, HybridWalk.evolve

    def recorded(cls, *a):
        traj = from_states(cls, *a)
        refs.extend([weakref.ref(traj), weakref.ref(traj.states)])
        return traj

    monkeypatch.setattr(walk.Trajectory, "from_states", classmethod(recorded))
    monkeypatch.setattr(HybridWalk, "evolve",
                        lambda self, *a: live.append(sum(r() is not None for r in refs)) or evolve(self, *a))
    monkeypatch.setattr(cli, "_chunk_rows", lambda columns, dim: rows)
    argv = ["dynamics", "--graph", "line3:20", "--steps", "10", "--t", "0.7"]
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 0
    # the writer and the step leads let each chunk go before the next one takes its first step
    assert len(refs) == 2 * -(-11 // rows) and live == [0] * 10


@pytest.mark.parametrize("argv, code", [(["dynamics", "--graph", "star:5", "--t", "0:1:4", "--init-pos", "9"], 1),
                                        (["dynamics", "--graph", "line3:5", "--steps", "30", "--t", "0.8"], 2)])
def test_a_failure_in_the_first_chunk_makes_no_directory(tmp_path, capsys, argv, code):
    assert main(argv + ["--out", str(tmp_path / "new" / "x.csv")]) == code
    one_line_error(capsys)
    assert os.listdir(tmp_path) == []


def test_artifacts_replace_the_old_file_and_keep_its_permissions(tmp_path, capsys):
    import stat

    out, link = tmp_path / "x.csv", tmp_path / "link.csv"
    out.write_text("old\n")
    out.chmod(0o640)
    link.symlink_to(out)
    argv = ["dynamics", "--graph", "star:4", "--t", "0:1:3"]
    assert main(argv + ["--out", str(link)]) == 0
    assert link.is_symlink() and read(out).startswith("t,P(0)") and out.stat().st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "x.csv"]
    fresh = tmp_path / "new" / "y.csv"
    assert main(argv + ["--out", str(fresh)]) == 0
    umask = os.umask(0)
    os.umask(umask)
    assert fresh.stat().st_mode & 0o777 == 0o666 & ~umask
    # a device cannot be replaced by a renamed temporary file, so the table goes into it
    capsys.readouterr()
    assert main(argv + ["--out", os.devnull]) == 0
    assert capsys.readouterr() == (f"wrote {os.devnull}\n", "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_a_long_trajectory_holds_one_chunk_of_states(tmp_path):
    import tracemalloc

    out = tmp_path / "line3.csv"
    assert main(["dynamics", "--graph", "line3:3", "--steps", "1", "--out", str(out)]) == 0  # imports
    tracemalloc.start()
    try:
        # a whole-run table holds 501 x 6003 states (48 MB) and their distributions
        assert main(["dynamics", "--graph", "line3:1000", "--steps", "500", "--t", "1.5707963267948966",
                     "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert len(read(out).splitlines()) == 502


def test_a_star_grid_holds_one_chunk_of_states(tmp_path):
    import tracemalloc

    out = tmp_path / "star.csv"
    assert main(["dynamics", "--graph", "star:3", "--t", "0:1:3", "--out", str(out)]) == 0  # imports
    tracemalloc.start()
    try:
        # the whole grid is 200 states of 3,600 amplitudes (11.5 MB); a chunk is 18 of them
        assert main(["dynamics", "--graph", "star:60", "--t", "0.1:6.3:200", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 2**20, peak  # 3.8 MiB traced at 1 MiB state chunks, 16.7 MiB at 16 MiB
    assert len(read(out).splitlines()) == 201


@pytest.mark.slow
def test_dense_sector_grids_do_not_depend_on_the_chunk_budget(tmp_path, monkeypatch):
    import hqw.cli as cli
    from hqw import walk

    # a dense cycle label beside 29 matchings: 18,000 amplitudes a state, so a 1 MiB
    # budget makes 3-row chunks, the last of one or two rows
    n, labels = 600, [f"c{k}" for k in range(30)]
    edges = [[v, (v + 1) % n, labels[0]] for v in range(n)]
    edges += [[v, v + 1, lab] for k, lab in enumerate(labels[1:]) for v in range(k % 2, n - 1, 2)]
    gpath = tmp_path / "dense.json"
    gpath.write_text(json.dumps({"n": n, "labels": labels, "edges": edges}))
    chunks = []
    from_states = walk.Trajectory.from_states.__func__
    monkeypatch.setattr(walk.Trajectory, "from_states",
                        classmethod(lambda cls, states, *a: chunks.append(len(states)) or from_states(cls, states, *a)))
    for points, small in ((16, [3] * 5 + [1]), (17, [3] * 5 + [2])):
        texts = []
        for budget, expected in ((1 << 16, small), (1 << 24, [points])):
            monkeypatch.setattr(cli, "STATE_CHUNK_ENTRIES", budget)
            chunks.clear()
            out = tmp_path / f"dense{budget}.csv"
            assert main(["dynamics", "--graph", str(gpath), "--t", f"0:6:{points}", "--out", str(out)]) == 0
            texts.append(read(out))
            assert chunks == expected
        assert texts[0] == texts[1], points


def test_dense_grid_rows_equal_the_single_t_runs(tmp_path):
    grid = tmp_path / "grid.csv"
    assert main(["dynamics", "--graph", "cycle:12", "--t", "0:6:300", "--out", str(grid)]) == 0
    rows = read(grid).splitlines()
    for k, t in enumerate(np.linspace(0, 6, 300)):
        if k % 7 == 0:
            one = tmp_path / f"t{k}.csv"
            assert main(["dynamics", "--graph", "cycle:12", "--t", repr(float(t)), "--out", str(one)]) == 0
            assert read(one).splitlines() == [rows[0], rows[k + 1]], k


def test_tables_over_the_output_budget_are_refused_before_a_step(tmp_path, capsys, monkeypatch):
    import hqw.cli as cli
    from hqw import matmul, walk

    out = tmp_path / "x.csv"
    monkeypatch.setattr(cli, "TABLE_CELL_BUDGET", 24)  # star:3 writes 6 columns
    for argv, rows in ((["dynamics", "--graph", "star:3", "--steps", "3", "--t", "1"], 4),
                       (["dynamics", "--graph", "star:3", "--t", "0:1:4"], 4),
                       (["dynamics", "--graph", "circle2:2w,2w+1", "--t", "0:1:2", "--sweep", "omega:0:1:2"], 4)):
        assert main(argv + ["--out", str(out)]) == 0, argv
        argv[argv.index("--steps" if "--steps" in argv else "--t") + 1] = "4" if "--steps" in argv else "0:1:5"
        assert main(argv + ["--out", str(tmp_path / "y.csv")]) == 1, argv
        assert "over the output budget of 24 cells" in one_line_error(capsys)
    monkeypatch.undo()

    def no_steps(*args, **kwargs):
        raise AssertionError("a refused table computed a state")

    monkeypatch.setattr(walk.HybridWalk, "evolve", no_steps)
    monkeypatch.setattr(matmul, "product_matrix", no_steps)
    for argv, shape in ((["dynamics", "--graph", "star:3", "--steps", str(10**13), "--t", "1"],
                         "10000000000001 rows x 6 columns"),
                        (["dynamics", "--graph", "star:3", "--t", f"0:1:{10**12}"], "1000000000000 rows x 6 columns"),
                        (["dynamics", "--graph", "circle2:2w,2w+1", "--t", "0:1:100000", "--sweep", "omega:0:1:100000"],
                         "10000000000 rows x 6 columns"),
                        (["sweep", "--sweep", f"q_time:0:1:{10**9}", "--steps", "3"], "1000000000 rows x 26 columns"),
                        (["matmul", "--graph", "cycle:18258", "--matrix"], "333354564 rows x 3 columns")):
        assert main(argv + ["--out", str(tmp_path / "z.csv")]) == 1, argv
        assert f"a table of {shape} is over the output budget of 1000000000 cells" in one_line_error(capsys)
    with pytest.raises(AssertionError, match="a refused table computed a state"):  # one vertex fewer passes
        main(["matmul", "--graph", "cycle:18257", "--matrix", "--out", str(tmp_path / "z.csv")])
    assert not (tmp_path / "y.csv").exists() and not (tmp_path / "z.csv").exists()


@pytest.mark.parametrize("mode", [["--t", "1"], ["--steps", "1"]])
def test_a_state_over_the_limit_exits_1_before_its_coin_is_built(tmp_path, capsys, monkeypatch, mode):
    from hqw import walk

    def unreachable(*args):
        raise AssertionError("coin built")

    monkeypatch.setattr(walk, "make_coin", unreachable)
    out = tmp_path / "star.csv"
    assert main(["dynamics", "--graph", "star:4097", *mode, "--out", str(out)]) == 1
    assert "a state of 4097 labels x 4097 vertices is over the limit" in one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("rows", [1, 7])
def test_matrix_csv_does_not_depend_on_the_chunk_size(tmp_path, monkeypatch, rows):
    import hqw.cli as cli

    argv = ["matmul", "--graph", "cubic8", "--graph", "cubic8", "--graph", "cubic8", "--matrix", "--out"]
    assert main(argv + [str(tmp_path / "whole.csv")]) == 0
    calls = []
    monkeypatch.setattr(cli, "_chunk_rows", lambda columns, dim: calls.append((columns, dim)) or rows)
    assert main(argv + [str(tmp_path / "cut.csv")]) == 0
    assert calls == [(3, 1)]
    assert read(tmp_path / "cut.csv") == read(tmp_path / "whole.csv")
    assert len(read(tmp_path / "cut.csv").splitlines()) == 65


@pytest.mark.parametrize("argv", [
    ["dynamics", "--graph", "circle2:w,w+1", "--t", "0:1:3000", "--sweep", "omega:0:1:3000"],
    ["dynamics", "--graph", "line2:1", "--steps", str(10**7), "--t", "0.3"],
])
def test_a_table_holds_no_whole_run_column(tmp_path, capsys, monkeypatch, argv):
    import tracemalloc

    import hqw.cli as cli
    from hqw.walk import HybridWalk

    small = ["--t", "0:1:3", "--sweep", "omega:0:1:2"] if "--sweep" in argv else ["--steps", "3"]
    assert main(argv[:3] + small + ["--out", str(tmp_path / "warm.csv")]) == 0  # imports
    # the sweep evolves its first chunk of 2,730 times in one call, the trajectory in 2,729 steps
    limit = 1 if "--sweep" in argv else cli._chunk_rows(6, 6) - 1
    calls, evolve = [], HybridWalk.evolve

    def first_chunk_only(self, *args):
        if len(calls) == limit:
            raise ValueError("stopped after the first chunk")
        calls.append(1)
        return evolve(self, *args)

    monkeypatch.setattr(HybridWalk, "evolve", first_chunk_only)
    out = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        assert main(argv + ["--out", str(out)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "stopped after the first chunk" in one_line_error(capsys) and len(calls) == limit
    # a whole-run (omega, t) or step column is 9,000,000 x 2 or 10,000,001 x 1 values
    assert peak < 8 * 2**20, peak
    assert not out.exists()


@pytest.mark.parametrize("argv, doc, message, code", [
    # builder specs with a wrong parameter count or a non-integer count
    (["dynamics", "--graph", "star", "--t", "0.5"], None, "bad parameters for graph family 'star'", 1),
    (["dynamics", "--graph", "star:1,2", "--t", "0.5"], None, "bad parameters for graph family 'star'", 1),
    (["dynamics", "--graph", "cubic8:3", "--t", "0.5"], None, "bad parameters for graph family 'cubic8'", 1),
    (["dynamics", "--graph", "complete:4.0", "--t", "0.5"], None, "bad parameters for graph family 'complete'", 1),
    (["dynamics", "--graph", "line2:1.5", "--t", "0.5"], None, "bad parameters for graph family 'line2'", 1),
    (["dynamics", "--graph", "line3:1.0", "--t", "0.5"], None, "bad parameters for graph family 'line3'", 1),
    (["dynamics", "--graph", "circle2:2w+,1", "--t", "0.5"], None, "cannot parse weight expression '2w+'", 1),
    # initial coins and coins
    (["dynamics", "--graph", "circle2:1,2", "--t", "0.5", "--init-coin", "amp:1,0"], None,
     "amplitudes must look like [re,im;re,im;...]", 1),
    (["dynamics", "--graph", "circle2:1,2", "--t", "0.5", "--init-coin", "amp:[1;0]"], None,
     "amplitude component '1' is not 're,im'", 1),
    (["dynamics", "--graph", "circle2:1,2", "--t", "0.5", "--init-coin", "amp:[1,0]"], None,
     "coin amplitudes have 1 components, coin dim is 2", 1),
    (["dynamics", "--graph", "star:3", "--t", "0.5", "--init-coin", "basis:3"], None, "coin basis index 3 outside", 1),
    (["dynamics", "--graph", "circle2:1,2", "--t", "0.5", "--init-coin", "amp:[1,0;1,0]"], None,
     "coin init is not normalized", 1),
    (["dynamics", "--graph", "circle2:1,2", "--t", "0.5", "--init-coin", "spin-up"], None,
     "unknown coin init 'spin-up'", 1),
    (["dynamics", "--graph", "circle2:1,2", "--t", "0.5", "--coin", "custom:DOC"], [[[1, 0], [0, 0]]],
     "expected a square matrix, got shape (1, 2)", 1),
    # times, steps and sweeps
    (["dynamics", "--graph", "star:3", "--t", "0:1"], None, "--t grid must be start:stop:points", 1),
    (["dynamics", "--graph", "line3:5", "--steps", "3", "--t", "0:1:3"], None, "takes a single --t, not a grid", 1),
    (["dynamics", "--graph", "line3:5", "--steps", "3", "--t", "0.5", "--sweep", "omega:0:1:3"], None,
     "trajectory mode (--steps) takes no --sweep", 1),
    (["dynamics", "--graph", "circle2:2w,1", "--t", "0.5", "--sweep", "q_mix2:0:1:3"], None,
     "dynamics sweeps only 'omega'", 1),
    (["sweep", "--sweep", "q_phase3:0:1:3", "--init-coin", "uniform"], None, "--init-coin applies to q_time only", 1),
    (["matmul", "--graph", "cubic8", "--entry", "0,0", "--trace"], None, "pick one of --entry, --matrix, --trace", 1),
    # graph JSON
    (["dynamics", "--graph", "DOC", "--t", "0.5"], {"n": 2, "labels": "ab", "edges": []},
     '"labels" must be a list of strings', 1),
    (["dynamics", "--graph", "DOC", "--t", "0.5"], {"n": 2, "labels": ["a", 1], "edges": []},
     '"labels" must be a list of strings', 1),
    (["dynamics", "--graph", "DOC", "--t", "0.5"], {"n": 2, "labels": ["a"], "edges": [[0, 1, "a", "1"]]},
     "has a non-numeric weight", 1),
    (["dynamics", "--graph", "DOC", "--t", "0.5"], {"n": 2, "labels": ["a", "a"], "edges": [[0, 1, "a"]]},
     "label set contains duplicates", 1),
    # sizes: a star:4097 state holds 4097^2 amplitudes, a cycle:18258 matrix 3 x 18258^2 cells
    (["dynamics", "--graph", "star:4097", "--t", "1"], None,
     "a state of 4097 labels x 4097 vertices is over the limit of 16777216 amplitudes", 1),
    (["matmul", "--graph", "cycle:18258", "--matrix"], None,
     "a table of 333354564 rows x 3 columns is over the output budget of 1000000000 cells", 1),
    # a column of complete:163 cubed walks 162^3 rows over 4 registers, past 2^24 entries
    (["matmul", "--graph", "complete:163", "--graph", "complete:163", "--graph", "complete:163", "--entry", "0,0"],
     None, "a walk of 4251528 rows x 4 registers is over the limit of 16777216 entries", 1),
    # matmul and triangles arguments and factors
    (["matmul", "--graph", "cubic8", "--entry", "3"], None, "--entry takes i,j (two vertex ids), got '3'", 1),
    (["matmul", "--graph", "cubic8", "--entry", "0,99"], None, "entry (0,99) outside 0..7", 1),
    (["matmul", "--graph", "cubic8", "--entry", "a,b"], None, "--entry takes i,j (two vertex ids), got 'a,b'", 1),
    (["matmul", "--graph", "cubic8", "--trace", "--mode", "shots"], None, "shots mode needs a seed", 1),
    (["matmul", "--graph", "cubic8", "--trace", "--mode", "shots", "--seed", "-1"], None,
     "seed must be a non-negative integer, got -1", 1),
    (["matmul", "--graph", "cubic8", "--trace", "--mode", "shots", "--seed", "1", "--shots", "0"], None,
     "shots mode needs a positive shot count", 1),
    (["matmul", "--graph", "star:5", "--trace"], None, "graph is not regular", 1),
    (["matmul", "--graph", "cycle:5", "--graph", "cycle:6", "--trace"], None,
     "factor graphs disagree on vertex count: [5, 6]", 1),
    (["matmul", "--graph", "circle2:1,2", "--trace"], None, "adjacency entries must be 0 or 1", 1),
    (["triangles", "--graph", "cubic8", "--vertex", "99"], None, "vertex 99 outside 0..7", 1),
    (["pst", "--graph", "cycle:6", "--source", "0", "--target", "3", "--path", "0,x"], None,
     "--path takes comma-separated vertex ids, got '0,x'", 1),
    # builders refuse, from their parameters, a graph whose states or edges are over 2^24
    (["dynamics", "--graph", "star:99999999999999999999", "--t", "1"], None,
     "a state of 99999999999999999999 labels x 99999999999999999999 vertices is over the limit of 16777216", 1),
    (["dynamics", "--graph", "line3:10000000", "--t", "1"], None,
     "a state of 3 labels x 20000001 vertices is over the limit of 16777216 amplitudes", 1),
    (["pst", "--segment-demo", "30000000"], None,
     "a state of 2 labels x 30000000 vertices is over the limit of 16777216 amplitudes", 1),
    (["dynamics", "--graph", "complete:6000", "--t", "1"], None,
     "a graph of 17997000 edges is over the limit of 16777216 edges", 1),
    (["triangles", "--graph", "complete:5794"], None, "a graph of 16782321 edges is over the limit", 1),
    (["matmul", "--graph", "cycle:16777217", "--trace"], None,
     "a state of 1 labels x 16777217 vertices is over the limit", 1),
    # numbers that do not parse name their option
    (["dynamics", "--graph", "star:3", "--t", "abc"], None, "--t must be a number, got 'abc'", 1),
    (["sweep", "--sweep", "q_mix2:a:1:3"], None, "sweep q_mix2 must be a number, got 'a'", 1),
    (["dynamics", "--graph", "star:abc", "--t", "1"], None,
     "a parameter of graph spec 'star:abc' must be a number, got 'abc'", 1),
    (["dynamics", "--graph", "circle2:1,x", "--t", "1"], None,
     "a parameter of graph spec 'circle2:1,x' must be a number, got 'x'", 1),
    (["dynamics", "--graph", "star:3", "--t", "0:1:1e3"], None, "--t grid points must be an integer, got '1e3'", 1),
    (["dynamics", "--graph", "star:3", "--t", "1", "--init-coin", "basis:x"], None,
     "coin basis index must be an integer, got 'x'", 1),
    (["dynamics", "--graph", "DOC", "--t", "1"], {"n": 2, "labels": [], "edges": []},
     "a walk needs a graph with at least one label", 1),
    # the demos fix their graph, endpoints and coin, and the segment demo its path
    (["pst", "--tree-demo", "--alpha", "[a,0;0,0;1,0]"], None, "--tree-demo takes no --alpha", 1),
    (["pst", "--tree-demo", "--graph", "cubic8", "--source", "0", "--target", "5"], None,
     "--tree-demo takes no --graph", 1),
    (["pst", "--segment-demo", "5", "--path", "0,1"], None, "--segment-demo takes no --path", 1),
    (["pst", "--segment-demo", "5", "--tree-demo"], None, "--segment-demo takes no --tree-demo", 1),
    # the walk is built before the initial state: a bad coin is named first
    (["dynamics", "--graph", "star:4", "--t", "1", "--coin", "bogus", "--init-pos", "9"], None,
     "unknown coin 'bogus'", 1),
    # an integer past Python's 4300-digit int-string limit is named by its length, not echoed
    (["dynamics", "--graph", "star:3", "--t", "0:1:" + "1" * 5000], None,
     "error: --t grid points has 5000 digits, over Python's limit of 4300 digits for an integer", 1),
    (["dynamics", "--graph", "star:" + "1" * 5000, "--t", "1"], None,
     "error: a parameter of graph spec 'star:...' has 5000 digits, over Python's limit of 4300 digits for an integer",
     1),
    # 64 labels, each the dense sector of the path 0-1-2, ask for 64 eigendecompositions of 1024 x 1024
    (["dynamics", "--graph", "DOC", "--t", "1"],
     {"n": 1024, "labels": [str(k) for k in range(64)],
      "edges": [[a, a + 1, str(k)] for k in range(64) for a in (0, 1)]},
     "error: 64 dense sectors on 1024 vertices need 64 x 1024 x 1024 eigendecomposition entries, "
     "over the limit of 16777216 entries per walk", 1),
    # one sign may lead a long integer; a token with two signs is no integer, and a long spec is echoed whole
    (["dynamics", "--graph", "star:3", "--t", "0:1:+" + "1" * 5000], None,
     "error: --t grid points has 5000 digits, over Python's limit of 4300 digits for an integer", 1),
    (["dynamics", "--graph", "star:3", "--t", "0:1:-+5"], None,
     "error: --t grid points must be an integer, got '-+5'", 1),
    (["dynamics", "--graph", "star:+-3", "--t", "1"], None,
     "error: a parameter of graph spec 'star:+-3' must be a number, got '+-3'", 1),
    (["dynamics", "--graph", "star:" + "x" * 200, "--t", "1"], None,
     f"error: a parameter of graph spec 'star:{'x' * 200}' must be a number, got '{'x' * 200}'", 1),
    # argparse's integer options name a long token by its digit count, and echo any other bad token
    (["dynamics", "--graph", "star:3", "--t", "1", "--steps", "1" * 5000], None,
     "error: argument --steps: its value has 5000 digits, over Python's limit of 4300 digits for an integer", 1),
    (["matmul", "--graph", "cubic8", "--trace", "--mode", "shots", "--seed", "1", "--shots", "1" * 5000], None,
     "error: argument --shots: its value has 5000 digits, over Python's limit of 4300 digits for an integer", 1),
    (["dynamics", "--graph", "star:3", "--t", "1", "--steps", "x"], None,
     "error: argument --steps: invalid int value: 'x'", 1),
    # a sweep checks its step count itself
    (["sweep", "--sweep", "q_mix2:0:1:5", "--steps", "-1"], None, "error: steps must be >= 0, got -1", 1),
    # a coin phase q*pi past the float range is refused before any exp, whether or not a step follows
    (["sweep", "--sweep", "q_phase2:0:1e308:3", "--graph", "line3:5", "--steps", "1"], None,
     "error: q_phase2 phase q*pi is not finite at q = 1e+308", 1),
    (["sweep", "--sweep", "q_phase3:1e308:1e308:3", "--graph", "line3:5", "--steps", "0"], None,
     "error: q_phase3 phase q*pi is not finite at q = 1e+308", 1),
    # an amplitude norm past the float range reads inf, without numpy's overflow warning
    (["dynamics", "--graph", "line3:5", "--t", "1", "--init-coin", "amp:[1e200,0;1e200,0;0,0]"], None,
     "error: coin init is not normalized: ||v|| = inf", 1),
    (["pst", "--graph", "line3:5", "--source", "0", "--target", "3", "--alpha", "[1e200,0;1e200,0;0,0]"], None,
     "error: alpha is not normalized: ||alpha|| = inf", 1),
    # a grid whose stop - start overflows is refused before np.linspace, which would warn twice and give nan
    (["dynamics", "--graph", "star:3", "--t=-1e308:1e308:3"], None,
     "error: --t grid '-1e308:1e308:3' spans more than the float range: stop - start is not finite", 1),
    (["sweep", "--sweep", "q_time:-1e308:1e308:3", "--graph", "line3:5", "--steps", "1"], None,
     "error: sweep q_time grid '-1e308:1e308:3' spans more than the float range: stop - start is not finite", 1),
    (["dynamics", "--graph", "circle2:w,1", "--t", "1", "--sweep", "omega:-1e308:1e308:3"], None,
     "error: sweep omega grid '-1e308:1e308:3' spans more than the float range: stop - start is not finite", 1),
    # missing and unknown options, specs and sweeps
    (["dynamics", "--graph", "nonagon:4", "--t", "1.0"], None, "unknown graph spec 'nonagon:4'", 1),
    (["dynamics", "--graph", "star:10"], None, "dynamics needs --t (single value or start:stop:points grid)", 1),
    (["dynamics", "--graph", "circle2:1,2", "--t", "0:1:5", "--sweep", "omega:0:1:3"], None,
     "--sweep omega needs circle2 weights that reference w", 1),
    (["dynamics", "--graph", "circle2:2w,2w+1", "--t", "0:1:5"], None,
     "circle2 weights reference w; supply --sweep omega:start:stop:points", 1),
    (["dynamics", "--graph", "star:10", "--t", "0:1:1"], None, "--t grid needs at least 2 points, got 1", 1),
    (["sweep", "--sweep", "q_warp:0:1:3"], None, "unknown sweep parameter 'q_warp'", 1),
    (["sweep", "--sweep", "q_mix3:0:2:5"], None, "q_mix3 needs 3q^2 <= 2, got q=1.0", 1),
    (["sweep", "--sweep", "q_time:0:1:3", "--graph", "line2:10"], None, "q sweeps run on the three-label line", 1),
    (["sweep", "--sweep", "q_time:0:1:3", "--steps", "5", "--init-pos", "99"], None,
     "initial position 99 outside 0..26", 1),
    (["dynamics", "--no-such-flag"], None, "the following arguments are required: --graph", 1),
    # --format is a walk option only
    (["pst", "--tree-demo", "--format", "csv"], None, "unrecognized arguments: --format csv", 1),
    (["matmul", "--graph", "cubic8", "--entry", "0,0", "--format", "json"], None,
     "unrecognized arguments: --format json", 1),
    (["triangles", "--graph", "cubic8", "--format", "csv"], None, "unrecognized arguments: --format csv", 1),
    # a trajectory takes no sweep, not even the omega sweep of a w-weighted circle; the whole line is
    # pinned, so it names no missing sweep
    (["dynamics", "--graph", "line3:5", "--steps", "3", "--sweep", "q_time:0:1:3"], None,
     "error: trajectory mode (--steps) takes no --sweep\n", 1),
    (["dynamics", "--graph", "circle2:2w,2w+1", "--steps", "3", "--sweep", "omega:0:1:3"], None,
     "error: trajectory mode (--steps) takes no --sweep\n", 1),
    # pst graphs
    (["pst", "--graph", "DOC", "--source", "0", "--target", "2"],
     {"n": 3, "labels": ["0"], "edges": [[0, 1, "0"], [1, 2, "0"]]},
     "coloring is not proper (1 violation(s)); e.g. vertex 1 meets label '0' on edges (0, 1) and (1, 2)", 1),
    (["pst"], None, "pst needs --graph, --source and --target (or a demo flag)", 1),
    # a loop's color class is no matching
    (["pst", "--graph", "DOC", "--source", "0", "--target", "2"],
     {"n": 3, "labels": ["a", "b"], "edges": [[0, 1, "a"], [1, 2, "b"], [2, 2, "a"]]},
     "transfer protocol requires no self-loops; offending edge: Edge(u=2, v=2, label='a'", 1),
    # a dense sector over the limit, an irregular factor, and a line truncated too short for its steps
    (["dynamics", "--graph", "cycle:4097", "--t", "1"], None, "error: label '0' is a dense sector on 4097 vertices", 1),
    (["matmul", "--graph", "star:4", "--entry", "0,0"], None,
     "graph is not regular: 4 vertices, degree 1 at vertex 1 and 3 at vertex 0", 1),
    (["dynamics", "--graph", "line2:10", "--steps", "20"], None,
     "numerical invariant violated: boundary band carries probability 3.906e-03; enlarge the line truncation", 2),
    # non-finite times
    (["dynamics", "--graph", "star:5", "--t", "nan"], None, "--t must be finite, got 'nan'", 1),
    (["dynamics", "--graph", "star:5", "--t", "inf"], None, "--t must be finite, got 'inf'", 1),
    (["dynamics", "--graph", "star:5", "--t", "0:nan:5"], None, "--t must be finite, got 'nan'", 1),
    (["dynamics", "--graph", "star:5", "--t=-inf:1:5"], None, "--t must be finite, got '-inf'", 1),
    (["dynamics", "--graph", "line3:4", "--steps", "2", "--t", "nan"], None, "--t must be finite, got 'nan'", 1),
    (["dynamics", "--graph", "circle2:2w,2w+1", "--t", "0:1:3", "--sweep", "omega:0:inf:3"], None,
     "sweep omega must be finite, got 'inf'", 1),
    # non-finite weights, from a spec, a JSON NaN (no JSON value: the file is raw text) or an omega overflow
    (["dynamics", "--graph", "circle2:inf,1", "--t", "1"], None,
     "edge Edge(u=0, v=1, label='0', weight=inf) has a non-finite weight", 1),
    (["dynamics", "--graph", "circle2:nan,1", "--t", "1"], None,
     "edge Edge(u=0, v=1, label='0', weight=nan) has a non-finite weight", 1),
    (["dynamics", "--graph", "DOC", "--t", "1"], '{"n": 2, "labels": ["a"], "edges": [[0, 1, "a", NaN]]}',
     "edge Edge(u=0, v=1, label='a', weight=nan) has a non-finite weight", 1),
    (["dynamics", "--graph", "circle2:2w,2w+1", "--t", "0:1:3", "--sweep", "omega:0:1e308:3"], None,
     "edge Edge(u=0, v=1, label='0', weight=inf) has a non-finite weight", 1),
    # edges that are no list, and an integer weight beyond the float range
    *((["dynamics", "--graph", "DOC", "--t", "1"], {"n": 2, "labels": ["0"], "edges": edges},
       '"edges" must be a list of edge records', 1) for edges in (5, None, {"a": 1})),
    *((argv, {"n": 2, "labels": ["0"], "edges": [[0, 1, "0", 10**400]]},
       f"error: edge record [0, 1, '0', 1{'0' * 400}] has a weight beyond the float range", 1)
      for argv in (["dynamics", "--graph", "DOC", "--t", "1"], ["pst", "--graph", "DOC", "--source", "0", "--target", "1"],
                   ["triangles", "--graph", "DOC"])),
    # malformed custom coins
    *((["dynamics", "--graph", "star:3", "--coin", "custom:DOC", "--t", "1"], coin,
       "must be a list of rows of [re, im] pairs", 1) for coin in ([[1, 2]], {"a": 1})),
    # non-finite amplitudes, and counts beyond int64
    (["dynamics", "--graph", "star:3", "--init-coin", "amp:[nan,0;1,0;0,0]", "--t", "1"], None,
     "amplitude component 'nan,0' is not finite", 1),
    (["pst", "--graph", "line2:2", "--source", "0", "--target", "4", "--alpha", "[nan,0;1,0]"], None,
     "amplitude component 'nan,0' is not finite", 1),
    (["matmul", "--graph", "cubic8", "--graph", "cubic8", "--entry", "0,0", "--mode", "shots",
      "--shots", "100000000000000000000", "--seed", "1"], None,
     "shot count 100000000000000000000 exceeds the int64 sampler limit", 1),
    (["triangles", "--graph", "cubic8", "--mode", "shots", "--shots", "100000000000000000000", "--seed", "1"], None,
     "shot count 100000000000000000000 exceeds the int64 sampler limit", 1),
    *((argv, {"n": 2**70, "labels": ["0"], "edges": [[0, 1, "0"]]},
       "graph has n=1180591620717411303424 vertices, beyond the int64 range", 1)
      for argv in (["pst", "--graph", "DOC", "--source", "0", "--target", "1"], ["triangles", "--graph", "DOC"])),
    # a state stack beyond any address space: refused before a step runs
    (["dynamics", "--graph", "star:3", "--steps", str(10**13), "--t", "1"], None,
     "a table of 10000000000001 rows x 6 columns is over the output budget of 1000000000 cells", 1),
    # w*t overflows: 10 * 1e308 on the circle, pi * 1e308 as the sweep's step time
    (["dynamics", "--graph", "circle2:10,1", "--t", "1e308"], None,
     "evolution time t = 1e+308 gives a non-finite phase w*t (largest |w| = 10)", 1),
    (["sweep", "--sweep", "q_time:0:1e308:2", "--steps", "3"], None,
     "evolution time t = inf gives a non-finite phase w*t (largest |w| = 1)", 1),
    # shots mode needs a non-negative seed
    *((["matmul", "--graph", "cubic8", "--graph", "cubic8", "--graph", "cubic8", "--mode", "shots", *what], None,
       "shots mode needs a seed for reproducibility", 1) for what in (["--entry", "1,1"], ["--matrix"], ["--trace"])),
    (["matmul", "--graph", "cubic8", "--entry", "0,0", "--mode", "shots"], None,
     "shots mode needs a seed for reproducibility", 1),
    (["triangles", "--graph", "cubic8", "--mode", "shots"], None, "shots mode needs a seed for reproducibility", 1),
    (["triangles", "--graph", "cubic8", "--vertex", "3", "--mode", "shots"], None,
     "shots mode needs a seed for reproducibility", 1),
    (["matmul", "--graph", "cubic8", "--entry", "0,0", "--mode", "shots", "--seed", "-1"], None,
     "seed must be a non-negative integer, got -1", 1),
    (["matmul", "--graph", "cubic8", "--matrix", "--mode", "shots", "--seed", "-1"], None,
     "seed must be a non-negative integer, got -1", 1),
    (["triangles", "--graph", "cubic8", "--mode", "shots", "--seed", "-1"], None,
     "seed must be a non-negative integer, got -1", 1),
    (["triangles", "--graph", "cubic8", "--vertex", "0", "--mode", "shots", "--seed", "-1"], None,
     "seed must be a non-negative integer, got -1", 1),
    # malformed entries
    *((["matmul", "--graph", "cubic8", "--entry", entry], None, f"--entry takes i,j (two vertex ids), got {entry!r}", 1)
      for entry in ("0", "0,0,0", "")),
    # q sweeps other than q_time set the initial coin from q
    *((["sweep", "--sweep", f"{name}:0:1:3", "--steps", "4", "--init-coin", "basis:2"], None,
       f"--init-coin applies to q_time only; {name} sets the initial coin from q", 1)
      for name in ("q_mix2", "q_mix3", "q_phase2", "q_phase3")),
    # an empty coin option is an unknown coin, not "use the default"
    *((head + ["--coin", ""], None, "unknown coin ''; choices: hadamard, identity, fourier, grover", 1)
      for head in (["dynamics", "--graph", "star:5", "--t", "1"], ["sweep", "--sweep", "q_time:0:1:3", "--steps", "4"])),
    *((head + ["--init-coin", ""], None, "unknown coin init ''; use uniform, basis:k or amp:[re,im;...]", 1)
      for head in (["dynamics", "--graph", "star:5", "--t", "1"], ["sweep", "--sweep", "q_time:0:1:3", "--steps", "4"])),
    # factors that are not simple regular graphs on one vertex set
    (["matmul", "--graph", "circle2:1,1"], None, "adjacency entries must be 0 or 1", 1),
    (["matmul", "--graph", "cycle:4", "--graph", "cycle:5"], None, "factor graphs disagree on vertex count: [4, 5]", 1),
    (["matmul", "--graph", "line2:2"], None,
     "graph is not regular: 5 vertices, degree 1 at vertex 0 and 2 at vertex 1", 1),
    (["triangles", "--graph", "star:4"], None,
     "graph is not regular: 4 vertices, degree 1 at vertex 1 and 3 at vertex 0", 1),
    # a long irregular graph: the message names two vertices, not every degree
    (["triangles", "--graph", "line2:20000"], None,
     "graph is not regular: 40001 vertices, degree 1 at vertex 0 and 2 at vertex 1", 1),
    (["dynamics", "--graph", "line3:5", "--steps", "-1", "--t", "0.8"], None, "error: steps must be >= 0, got -1", 1),
    # a t grid on a truncated line is checked against its boundary band, as a trajectory or sweep is
    *((["dynamics", "--graph", graph, "--t", "0:1:3", *init], None, "numerical invariant violated: boundary band "
       f"carries probability {mass}; enlarge the line truncation\n", 2)
      for graph, init, mass in (("line3:5", ["--init-pos", "0"], "1.000e+00"), ("line3:2", [], "1.532e-01"),
                                ("line2:5", ["--init-pos", "0"], "1.000e+00"))),
    (["sweep", "--sweep", ""], None, "error: sweep needs --sweep name:start:stop:points with name in "
     "('q_time', 'q_mix2', 'q_mix3', 'q_phase2', 'q_phase3')\n", 1),
    *((["dynamics", "--graph", graph, "--t", "1"], None,
       "error: circle2 takes two weights, e.g. circle2:1,2 or circle2:2w,2w+1\n", 1)
      for graph in ("circle2:1", "circle2:1,2,3")),
    # a sweep refuses its step count before it builds its default line3(steps + 8)
    (["sweep", "--sweep", "q_time:0:1:2", "--steps", "-8"], None, "error: steps must be >= 0, got -8\n", 1),
    # each builder's and the JSON reader's smallest refused size, and a pst endpoint off the graph
    (["dynamics", "--graph", "DOC", "--t", "1"], {"n": 0, "labels": ["a"], "edges": []},
     "error: graph needs at least one vertex, got n=0\n", 1),
    *((["dynamics", "--graph", graph, "--t", "1"], None, f"error: {message}\n", 1)
      for graph, message in (("line3:0", "line3 needs L >= 1, got 0"), ("fock_g0:0", "fock_g0 needs n_max >= 1, got 0"),
                             ("fock_g0p:0", "fock_g0p needs n_max >= 1, got 0"), ("cycle:2", "cycle needs n >= 3, got 2"),
                             ("complete:1", "complete needs n >= 2, got 1"))),
    (["pst", "--graph", "segment_line:5", "--source", "9", "--target", "0"], None,
     "error: path endpoints (9,0) outside 0..4\n", 1),
    # a JSON graph follows the builders' size rule when it is read, and the transfer's (2N, n) state
    # is bounded before its coloring is scanned
    (["pst", "--graph", "DOC", "--source", "0", "--target", "2"],
     {"n": 40000000, "labels": ["a", "b"], "edges": [[0, 1, "a"], [1, 2, "b"]]},
     "error: a state of 2 labels x 40000000 vertices is over the limit of 16777216 amplitudes\n", 1),
    (["triangles", "--graph", "DOC"], {"n": 40000000, "labels": ["a", "b"], "edges": [[0, 1, "a"], [1, 2, "b"]]},
     "error: a state of 2 labels x 40000000 vertices is over the limit of 16777216 amplitudes\n", 1),
    (["pst", "--graph", "DOC", "--source", "0", "--target", "2"],
     {"n": 8000000, "labels": ["a", "b"], "edges": [[0, 1, "a"], [1, 2, "b"]]},
     "error: a state of 4 labels x 8000000 vertices is over the limit of 16777216 amplitudes\n", 1),
])
def test_bad_input_is_one_validation_line_and_no_artifact(tmp_path, capsys, argv, doc, message, code):
    """The CLI contract: exit 1 (validation) or 2 (numerical invariant), one stderr line that starts
    with the code's prefix and holds `message`, no traceback and no artifact.

    `doc`, a JSON value or raw text, is the file that DOC in `argv` names. A message that starts with
    the prefix starts the line, and one that ends in a newline ends it. A line of 300 bytes or more
    must be exactly `message`: only a row that expects it may echo a long input.
    """
    if doc is not None:
        (tmp_path / "in.json").write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv = [a.replace("DOC", str(tmp_path / "in.json")) for a in argv]
    out = tmp_path / "x.out"
    try:
        exit_code = main(argv + ["--out", str(out)])
    except SystemExit as exc:  # argparse refuses its own options by SystemExit, with the same exit code
        exit_code = exc.code
    assert exit_code == code
    err = one_line_error(capsys)
    prefix = {1: "error: ", 2: "numerical invariant violated: "}[code]
    assert err.startswith(message if message.startswith(prefix) else prefix) and message in err, err
    assert len(err.encode()) < 300 or err == message + "\n", err
    assert not out.exists()


def test_bad_steps_and_over_budget_tables_are_refused_before_any_walk_is_built(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a walk was built")

    monkeypatch.setattr(hqw.walk.HybridWalk, "__init__", refuse)
    monkeypatch.setattr(hqw.graphs, "line3", refuse)  # the sweep's default line3(steps + 8) comes after its checks
    budget = "error: a table of {} rows x {} columns is over the output budget of 1000000000 cells\n"
    for argv, message in (
            (["dynamics", "--graph", "complete:40", "--steps", "-1", "--t", "1"], "error: steps must be >= 0, got -1\n"),
            (["dynamics", "--graph", "complete:40", "--steps", str(10**9), "--t", "1"], budget.format(10**9 + 1, 43)),
            (["sweep", "--sweep", "q_time:0:1:3", "--graph", "line3:5", "--steps", "-1"],
             "error: steps must be >= 0, got -1\n"),
            (["sweep", "--sweep", "q_time:0:1:100000000", "--graph", "line3:5"], budget.format(10**8, 14)),
            (["sweep", "--sweep", "q_time:0:1:1000", "--steps", str(10**6)], budget.format(1000, 2 * 10**6 + 20))):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 1, argv
        assert one_line_error(capsys) == message
        assert not out.exists()


def test_an_out_of_memory_error_without_text_is_named_by_its_type(tmp_path, capsys, monkeypatch):
    # Python-level allocation raises a bare MemoryError(), whose text is empty
    def build(n):
        raise MemoryError()

    monkeypatch.setitem(hqw.graphs.BUILDERS, "line3", build)
    out = tmp_path / "x.csv"
    assert main(["dynamics", "--graph", "line3:10000000", "--t", "1", "--out", str(out)]) == 1
    assert one_line_error(capsys) == "error: out of memory (MemoryError)\n"
    assert not out.exists()
