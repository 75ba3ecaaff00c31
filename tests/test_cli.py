import json
import os

import numpy as np
import pytest

from hqw.cli import main
from hqw.graphs import save_json, star


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


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


def test_dynamics_validation_errors(tmp_path):
    assert main(["dynamics", "--graph", "nonagon:4", "--t", "1.0"]) == 1
    assert main(["dynamics", "--graph", "star:10"]) == 1  # missing --t
    assert main(["dynamics", "--graph", "circle2:1,2", "--t", "0:1:5",
                 "--sweep", "omega:0:1:3"]) == 1  # weights do not reference w
    assert main(["dynamics", "--graph", "circle2:2w,2w+1", "--t", "0:1:5"]) == 1  # w needs a sweep
    assert main(["dynamics", "--graph", "star:10", "--t", "0:1:1"]) == 1  # grid < 2 points


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
    assert main(["dynamics", "--graph", str(gpath), "--t", "0:2:4", "--coin", "grover",
                 "--init-coin", "basis:1", "--init-pos", "2", "--out", str(out)]) == 0
    header, rows = csv_rows(out)
    assert header[1:5] == ["P(0)", "P(1)", "P(2)", "P(3)"]


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


def test_sweep_validation(tmp_path):
    assert main(["sweep", "--sweep", "q_warp:0:1:3"]) == 1
    assert main(["sweep", "--sweep", "q_mix3:0:2:5"]) == 1  # q out of domain
    assert main(["sweep", "--sweep", "q_time:0:1:3", "--graph", "line2:10"]) == 1


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


def test_pst_validation_errors(tmp_path):
    gpath = tmp_path / "bad.json"
    gpath.write_text('{"n":3,"labels":["0"],"edges":[[0,1,"0"],[1,2,"0"]]}')
    assert main(["pst", "--graph", str(gpath), "--source", "0", "--target", "2"]) == 1
    assert main(["pst"]) == 1


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
    assert main(["matmul", "--graph", "cubic8", "--entry", "0,0", "--mode", "shots"]) == 1


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


def test_matmul_rejects_irregular(tmp_path):
    assert main(["matmul", "--graph", "star:4", "--entry", "0,0"]) == 1


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


def test_too_small_truncation_is_a_numerical_violation(tmp_path):
    out = tmp_path / "tiny.csv"
    code = main(["dynamics", "--graph", "line2:10", "--steps", "20", "--out", str(out)])
    assert code == 2


def test_non_finite_times_are_validation_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    for argv in (["dynamics", "--graph", "star:5", "--t", "nan"],
                 ["dynamics", "--graph", "star:5", "--t", "inf"],
                 ["dynamics", "--graph", "star:5", "--t", "0:nan:5"],
                 ["dynamics", "--graph", "star:5", "--t=-inf:1:5"],
                 ["dynamics", "--graph", "line3:4", "--steps", "2", "--t", "nan"],
                 ["dynamics", "--graph", "circle2:2w,2w+1", "--t", "0:1:3", "--sweep", "omega:0:inf:3"]):
        assert main(argv + ["--out", out]) == 1, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err and "finite" in err
        assert len(err.strip().splitlines()) == 1, err
    assert not os.path.exists(out)


def test_non_finite_weights_and_malformed_coins_are_validation_errors(tmp_path, capsys):
    graph = tmp_path / "nan.json"
    graph.write_text('{"n": 2, "labels": ["a"], "edges": [[0, 1, "a", NaN]]}')
    coins = []
    for k, text in enumerate(("[[1,2]]", '{"a":1}')):
        coins.append(tmp_path / f"coin{k}.json")
        coins[-1].write_text(text)
    out = str(tmp_path / "x.csv")
    for argv in (["dynamics", "--graph", "circle2:inf,1", "--t", "1"],
                 ["dynamics", "--graph", "circle2:nan,1", "--t", "1"],
                 ["dynamics", "--graph", str(graph), "--t", "1"],
                 *(["dynamics", "--graph", "star:3", "--coin", f"custom:{c}", "--t", "1"]
                   for c in coins)):
        assert main(argv + ["--out", out]) == 1, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1, err
    assert not os.path.exists(out)


def test_non_finite_amplitudes_huge_counts_and_overflowing_weights_are_validation_errors(tmp_path, capsys):
    out = str(tmp_path / "x.out")
    for argv in (["dynamics", "--graph", "star:3", "--init-coin", "amp:[nan,0;1,0;0,0]", "--t", "1"],
                 ["pst", "--graph", "line2:2", "--source", "0", "--target", "4", "--alpha", "[nan,0;1,0]"],
                 ["matmul", "--graph", "cubic8", "--graph", "cubic8", "--entry", "0,0", "--mode", "shots",
                  "--shots", "100000000000000000000", "--seed", "1"],
                 ["triangles", "--graph", "cubic8", "--mode", "shots",
                  "--shots", "100000000000000000000", "--seed", "1"],
                 ["dynamics", "--graph", "circle2:2w,2w+1", "--t", "0:1:3", "--sweep", "omega:0:1e308:3"],
                 # a state stack beyond any address space: refused before a step runs
                 ["dynamics", "--graph", "star:3", "--steps", str(10**13), "--t", "1"]):
        assert main(argv + ["--out", out]) == 1, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1, err
    assert not os.path.exists(out)


def test_pst_norm_drift_is_a_numerical_violation(tmp_path, capsys, monkeypatch):
    from hqw.walk import HybridWalk

    step = HybridWalk.step
    monkeypatch.setattr(HybridWalk, "step", lambda self, *a, **k: 1.001 * step(self, *a, **k))
    out = tmp_path / "tree.json"
    assert main(["pst", "--tree-demo", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [err.strip()] and "norm drifted" in err
    assert not out.exists()


def test_thread_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HQW_THREADS", "1")
    out = tmp_path / "t.csv"
    assert main(["sweep", "--sweep", "q_time:0:1:3", "--steps", "5", "--out", str(out)]) == 0
    header, rows = csv_rows(out)
    assert len(rows) == 3


def test_bad_flag_exits_with_validation_code():
    with pytest.raises(SystemExit) as exc:
        main(["dynamics", "--no-such-flag"])
    assert exc.value.code == 1
